import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pbal import builtin_initial, quantile_init
from pbal.density import to_density, total_variation
from pbal.errors import InitCollisionError, ScenarioFormatError
from pbal.initial import BISECT_TOL, InitialDensity


def test_uniform_quantiles():
    rho0 = InitialDensity.from_blocks([(0.0, 1.0, 1.0)])
    p = quantile_init(rho0, 4)
    assert np.allclose(p.x, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(p.q, 0.25)


def test_half_interval_block():
    rho0 = InitialDensity.from_blocks([(0.0, 0.5, 2.0)])
    p = quantile_init(rho0, 2)
    assert np.allclose(p.x, [0.0, 0.25, 0.5], atol=1e-12)
    assert np.allclose(p.q, [0.5, 0.5])


def test_max_mass_halves_with_doubling():
    # masses are exactly mass / N, so max q_i halves when N doubles
    rho0 = builtin_initial("transport")
    for n in (10, 20, 40):
        p = quantile_init(rho0, n)
        p2 = quantile_init(rho0, 2 * n)
        assert np.max(p.q) == pytest.approx(rho0.total_mass / n, rel=1e-14)
        assert np.max(p2.q) == pytest.approx(0.5 * np.max(p.q), rel=1e-14)


def test_support_is_convex_hull():
    rho0 = builtin_initial("transport")  # two blocks with a gap
    for n in (7, 32, 100):
        p = quantile_init(rho0, n)
        assert p.x[0] == rho0.support[0]
        assert p.x[-1] == rho0.support[1]


def test_height_and_tv_bounds():
    rho0 = builtin_initial("transport")
    step = rho0.pdf  # the blocks' step density
    sup_bound, tv_bound = np.max(step.heights), total_variation(step)
    for n in (16, 64, 256):
        d = to_density(quantile_init(rho0, n))
        assert np.max(d.heights) <= sup_bound + 1e-8 * rho0.total_mass
        assert total_variation(d) <= tv_bound + 1e-8 * rho0.total_mass


def _l1_against(rho0, d, n_grid=200_001):
    lo = rho0.support[0] - 0.1
    hi = rho0.support[1] + 0.1
    xs = np.linspace(lo, hi, n_grid)
    return float(np.trapezoid(np.abs(np.asarray(rho0.pdf(xs)) - d(xs)), xs))


def _sampled_hat():
    """The hat density on [-1, 1], mass 1, sampled on 2**16 panels."""
    xs = np.linspace(-1.0, 1.0, (1 << 16) + 1)
    return InitialDensity.from_samples(xs, np.maximum(1.0 - np.abs(xs), 0.0))


def test_l1_convergence_lipschitz_hat():
    # hat density on [-1, 1], mass 1, Lipschitz
    hat = _sampled_hat()
    assert hat.total_mass == pytest.approx(1.0, rel=1e-8)
    errs = []
    for n in (100, 200, 400, 800):
        d = to_density(quantile_init(hat, n))
        errs.append(_l1_against(hat, d))
    assert all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 1e-2


def test_l1_convergence_catalog():
    for name in ("transport", "attractive_congested", "repulsive_source"):
        rho0 = builtin_initial(name)
        errs = [
            _l1_against(rho0, to_density(quantile_init(rho0, n)))
            for n in (100, 200, 400, 800)
        ]
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:])), (name, errs)


def test_spike_raises_collision_error():
    # nearly-atomic spike: quantile levels collapse to machine-identical points
    spike = InitialDensity.from_blocks([(0.0, 1e-13, 1e13), (1.0, 2.0, 1.0)])
    with pytest.raises(InitCollisionError):
        quantile_init(spike, 8)
    _assert_matches_scalar(spike, 8)


def test_bad_n():
    with pytest.raises(ValueError):
        quantile_init(builtin_initial("transport"), 0)


def test_from_samples_matches_blocks():
    xs = np.linspace(-1.0, 1.0, 2001)
    ys = np.maximum(1.0 - np.abs(xs), 0.0)
    d = InitialDensity.from_samples(xs, ys)
    assert d.total_mass == pytest.approx(1.0, rel=1e-12)
    assert d.cdf(0.0) == pytest.approx(0.5, rel=1e-12)
    assert d.quantiles([0.5])[0] == pytest.approx(0.0, abs=1e-12)


def test_unknown_builtin():
    with pytest.raises(ScenarioFormatError):
        builtin_initial("nope")


# ------------------------------------------- vectorized bisection vs scalar loop

def _scalar_quantile(rho0, m):
    """Reference: the one-level bisection, one scalar CDF call per halving."""
    a, b = rho0.support
    if m <= 0.0:
        return a
    m = min(m, rho0.total_mass)
    lo, hi = a, b
    if rho0.cdf(lo) >= m:
        return lo
    while hi - lo > BISECT_TOL * max(1.0, abs(a), abs(b)):
        mid = 0.5 * (lo + hi)
        if rho0.cdf(mid) >= m:
            hi = mid
        else:
            lo = mid
    return hi


def _assert_matches_scalar(rho0, n):
    a, b = rho0.support
    mass = rho0.total_mass
    ref = np.array([a] + [_scalar_quantile(rho0, i * mass / n) for i in range(1, n)] + [b])
    if np.any(np.diff(ref) <= 1e-12 * (b - a)):
        with pytest.raises(InitCollisionError):
            quantile_init(rho0, n)
        return
    assert np.array_equal(quantile_init(rho0, n).x, ref)
    for m in (-0.5, 0.0, 0.3 * mass, mass, 2.0 * mass):
        assert float(rho0.quantiles([m])[0]) == _scalar_quantile(rho0, m)


_settings = settings(max_examples=40, deadline=None)
_n = st.integers(min_value=1, max_value=60)


@_settings
@given(
    start=st.floats(-3.0, 3.0),
    blocks=st.lists(
        st.tuples(st.floats(0.0, 1.0),      # vacuum gap before the block (0: adjacent)
                  st.floats(1e-3, 2.0),     # width
                  st.floats(1e-3, 3.0)),    # height
        min_size=1, max_size=4),
    n=_n,
)
def test_quantile_init_blocks_match_scalar_bisection(start, blocks, n):
    triples, x = [], start
    for gap, width, height in blocks:
        x += gap
        triples.append((x, x + width, height))
        x += width
    _assert_matches_scalar(InitialDensity.from_blocks(triples), n)


@_settings
@given(
    start=st.floats(-3.0, 3.0),
    steps=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=30),
    values=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), min_size=31, max_size=31),
    n=_n,
)
def test_quantile_init_samples_match_scalar_bisection(start, steps, values, n):
    xs = start + np.concatenate(([0.0], np.cumsum(steps)))
    ys = np.array(values[:xs.size])
    assume(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)) > 1e-6)
    _assert_matches_scalar(InitialDensity.from_samples(xs, ys), n)


@_settings
@given(
    a=st.floats(-3.0, 0.0),
    width=st.floats(0.1, 4.0),
    k=st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
    n=_n,
)
def test_quantile_init_antiderivative_matches_scalar_bisection(a, width, k, n):
    # pdf e^{kx}, exact CDF from the antiderivative e^{kx}/k
    b = a + width

    def primitive(x):
        return np.exp(k * np.asarray(x, dtype=float)) / k

    def cdf(y):
        out = primitive(np.clip(np.asarray(y, dtype=float), a, b)) - primitive(a)
        return float(out) if out.ndim == 0 else out

    rho0 = InitialDensity(pdf=lambda x: np.exp(k * np.asarray(x, dtype=float)), cdf=cdf,
                          support=(a, b), total_mass=float(primitive(b) - primitive(a)))
    _assert_matches_scalar(rho0, n)


def test_quantile_init_sampled_callable_matches_scalar_bisection():
    _assert_matches_scalar(_sampled_hat(), 37)
