import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from pbal import SolverConfig, builtin_catalog, builtin_initial, integrate, quantile_init
from pbal.density import ParticleSystem, to_density
from pbal.dynamics import (convolve_dxW_arrays, convolve_dxW_generic, dxU_field_arrays,
                           rhs_arrays, source_rate_arrays, u_field_arrays, upwind_arrays)
from pbal.expressions import compile_expression
from pbal.diagnostics import good_v_violations_state
from pbal import dynamics
from pbal.scenario import Branch, Potential, Source, load_scenario

from conftest import (benchmark_file_scenario, catalog_run, const, make_scenario,
                      quadratic_potential, random_particles, zero_field_scenario)


def quad_scenario(V=None, dxV=None):
    return make_scenario(potential=quadratic_potential(), V=V, dxV=dxV,
                         F=10.0, G=lambda r: 1.0 + np.asarray(r, dtype=float),
                         lam=lambda r: 1.0 + np.asarray(r, dtype=float),
                         branch=Branch.W_REPULSIVE, name="quad")


# --------------------------------------------------------------- convolution

def test_convolve_first_moment():
    # W = x^2/2: (dxW * rho)(y) = y * mass - first moment; unit block on (0,1)
    p = ParticleSystem(0.0, [0.0, 1.0], [1.0])
    s = quad_scenario()
    got = convolve_dxW_arrays(p.t, p.x, p.heights, s, [0.0, 2.0])
    assert got == pytest.approx([-0.5, 1.5], rel=1e-12)


def test_convolve_even_W_symmetric_density():
    p = ParticleSystem(0.0, [-1.0, 0.0, 1.0], [0.5, 0.5])
    s = quad_scenario()
    assert convolve_dxW_arrays(p.t, p.x, p.heights, s, 0.0) == pytest.approx([0.0], abs=1e-14)


def test_convolve_zero_potential():
    p = ParticleSystem(0.0, [0.0, 1.0], [1.0])
    got = convolve_dxW_arrays(p.t, p.x, p.heights, zero_field_scenario(), 0.3)
    assert np.array_equal(got, [0.0])


def test_convolve_exactness_random(rng):
    # closed form y*mass - M1 for the quadratic potential
    s = quad_scenario()
    for _ in range(20):
        p = random_particles(rng, 15)
        mass = float(np.sum(p.q))
        rho = p.q / np.diff(p.x)
        m1 = float(np.sum(rho * (p.x[1:] ** 2 - p.x[:-1] ** 2) / 2.0))
        y = rng.uniform(-3, 3)
        got = convolve_dxW_arrays(p.t, p.x, rho, s, y)
        assert got == pytest.approx([y * mass - m1], rel=1e-12, abs=1e-12)


def test_convolve_fast_path_matches_generic(rng):
    for name in ("attractive_congested", "repulsive_source"):
        s = builtin_catalog(name)
        assert s.potential.pieces is not None
        for _ in range(10):
            p = random_particles(rng, 12)
            rho = p.q / np.diff(p.x)
            y = rng.uniform(-3, 3, 17)
            fast = convolve_dxW_arrays(0.0, p.x, rho, s, y)
            generic = convolve_dxW_generic(0.0, p.x, rho, s, y)
            assert np.allclose(fast, generic, rtol=1e-12, atol=1e-12)


_coef = st.floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    c0=_coef,
    w_neg=st.lists(_coef, min_size=0, max_size=3),
    w_pos=st.lists(_coef, min_size=0, max_size=3),
    x=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=31, unique=True),
    heights=st.lists(st.floats(0.05, 2.0), min_size=30, max_size=30),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    outside=st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=4),
)
def test_convolve_polynomial_pieces_match_generic(c0, w_neg, w_pos, x, heights,
                                                  fractions, outside):
    # random W, polynomial of degree <= 3 on each side and continuous at 0
    neg, pos = (c0, *w_neg), (c0, *w_pos)
    pot = Potential(W=lambda u: np.where(u < 0.0, P.polyval(u, neg), P.polyval(u, pos)),
                    pieces=(neg, pos))
    s = make_scenario(potential=pot)
    x = np.sort(np.asarray(x))
    assume(np.min(np.diff(x)) > 1e-9)
    rho = np.asarray(heights[: x.size - 1])
    cells = np.arange(len(fractions)) % rho.size
    y = np.concatenate((x,
                        x[cells] + np.asarray(fractions) * np.diff(x)[cells],
                        x[0] - np.asarray(outside), x[-1] + np.asarray(outside)))
    fast = convolve_dxW_arrays(0.0, x, rho, s, y)
    generic = convolve_dxW_generic(0.0, x, rho, s, y)
    assert np.all(np.abs(fast - generic) <= 1e-12 * np.maximum(1.0, np.abs(generic)))


@settings(max_examples=200, deadline=None)
@given(
    c0=_coef,
    w_neg=st.lists(_coef, min_size=0, max_size=4),
    w_pos=st.lists(_coef, min_size=0, max_size=4),
    x=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=41, unique=True),
    heights=st.lists(st.floats(1e-3, 5.0), min_size=40, max_size=40),
    factor=st.one_of(st.none(), st.floats(-2.0, 2.0)),
)
def test_particle_path_equals_search_path(c0, w_neg, w_pos, x, heights, factor):
    # at the particles the prefix sums are read directly; the searched path
    # adds a partial-cell term that is exactly 0.0 there, so the bits agree
    neg, pos = (c0, *w_neg), (c0, *w_pos)
    pot = Potential(W=lambda u: np.where(u < 0.0, P.polyval(u, neg), P.polyval(u, pos)),
                    pieces=(neg, pos),
                    time_factor=None if factor is None else (lambda t: factor * (1.0 + t)))
    s = make_scenario(potential=pot)
    x = np.sort(np.asarray(x))
    assume(np.min(np.diff(x)) > 1e-9)
    rho = np.asarray(heights[: x.size - 1])
    at_particles = convolve_dxW_arrays(0.7, x, rho, s)
    searched = convolve_dxW_arrays(0.7, x, rho, s, x)
    assert np.array_equal(at_particles, searched)


def test_rhs_does_not_search_for_the_particles(monkeypatch, rng):
    # the hot loop must read the prefix sums, never fall back to the search
    def searched(*args, **kwargs):
        raise AssertionError("rhs_arrays located the particles by search")

    monkeypatch.setattr(dynamics, "step_cdf_arrays", searched)
    monkeypatch.setattr(dynamics, "_prefix_moment", searched)
    p = random_particles(rng, 20)
    for s in (quad_scenario(), builtin_catalog("attractive_congested")):
        xdot, _, U, _ = rhs_arrays(0.0, p.x, p.q, s)
        assert np.all(np.isfinite(xdot)) and np.all(np.isfinite(U))


def test_convolve_mass_homogeneity(rng):
    s = quad_scenario()
    p = random_particles(rng, 10)
    alpha = 3.7
    p_scaled = ParticleSystem(p.t, p.x, alpha * p.q)
    y = rng.uniform(-2, 2, 7)
    a = convolve_dxW_arrays(p.t, p.x, p.heights, s, y)
    b = convolve_dxW_arrays(p.t, p.x, p_scaled.heights, s, y)
    assert np.allclose(b, alpha * a, rtol=1e-12)


# ------------------------------------------------------------- free velocity

def particle_U(p, s):
    return u_field_arrays(p.t, p.x, p.heights, s)


def test_free_velocity_pure_advection():
    s = builtin_catalog("transport")
    p = ParticleSystem(0.0, [0.0, 0.5, 1.0], [0.5, 0.5])
    assert np.allclose(particle_U(p, s), 1.0)


def test_free_velocity_linear_field():
    s = make_scenario(V=lambda t, x: np.asarray(x, dtype=float),
                      dxV=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
                      G=lambda r: 1.0 + np.asarray(r, dtype=float),
                      lam=lambda r: 1.0 + np.asarray(r, dtype=float))
    p = ParticleSystem(0.0, [-1.0, 0.0, 2.0], [1.0, 1.0])
    assert np.allclose(particle_U(p, s), p.x)


def test_free_velocity_attractive_signs():
    s = builtin_catalog("attractive_congested")
    p = ParticleSystem(0.0, [-1.0, 0.0, 1.0], [0.5, 0.5])
    U = particle_U(p, s)
    assert U[0] > 0 and U[-1] < 0
    assert U[1] == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------- upwinding

def test_upwind_downstream_positive():
    # rho = (0.2, 0.8), U = +1 at the shared particle -> v(0.8) = 0.2
    s = builtin_catalog("attractive_congested")
    p = ParticleSystem(0.0, [0.0, 1.0, 2.0], [0.2, 0.8])
    v_sel = upwind_arrays(p.heights, s, np.array([1.0, 1.0, 1.0]))
    assert v_sel[1] == pytest.approx(0.2)


def test_upwind_downstream_negative():
    s = builtin_catalog("attractive_congested")
    p = ParticleSystem(0.0, [0.0, 1.0, 2.0], [0.2, 0.8])
    v_sel = upwind_arrays(p.heights, s, np.array([-1.0, -1.0, -1.0]))
    assert v_sel[1] == pytest.approx(0.8)
    # leftmost particle moving left sees the outside vacuum: v(0) = 1
    assert v_sel[0] == pytest.approx(1.0)


def test_upwind_tie_goes_downstream():
    s = builtin_catalog("attractive_congested")
    p = ParticleSystem(0.0, [0.0, 1.0, 2.0], [0.2, 0.8])
    v_sel = upwind_arrays(p.heights, s, np.array([0.0, 0.0, 0.0]))
    assert v_sel[1] == pytest.approx(0.2)  # v(rho_2)
    assert v_sel[2] == pytest.approx(1.0)  # v(rho_3 = 0) at the right boundary


def _upwind_two_calls(rho, v, U):
    # the congestion factor looked up with one v call per side
    rho_ext = np.concatenate(([0.0], rho, [0.0]))
    return np.where(U >= 0.0, v(rho_ext[1:]), v(rho_ext[:-1]))


@pytest.mark.parametrize("v", [
    builtin_catalog("attractive_congested").congestion.v,
    builtin_catalog("repulsive_source").congestion.v,
    builtin_catalog("transport").congestion.v,
    compile_expression("max(1 - r, 0)", ("r",)),
    compile_expression("1/(1 + r)**2", ("r",)),
    compile_expression("0.5", ("r",)),
    compile_expression(2.0, ("r",)),
], ids=["attractive", "repulsive", "transport", "expr_linear", "expr_rational",
        "expr_const_text", "expr_const_number"])
def test_upwind_one_call_matches_two_calls(rng, v):
    s = make_scenario(v=v)
    for n in (1, 2, 17):
        rho = rng.uniform(0.0, 2.0, n)
        U = rng.choice([-1.0, 0.0, 1.0], n + 1) * rng.uniform(0.1, 1.0, n + 1)
        got = upwind_arrays(rho, s, U)
        assert got.shape == (n + 1,)
        assert np.array_equal(got, _upwind_two_calls(rho, v, U))


def test_upwind_scalar_valued_v():
    s = make_scenario(v=lambda r: 0.25)
    U = np.array([-1.0, 0.0, 1.0])
    assert np.array_equal(upwind_arrays(np.array([0.5, 1.5]), s, U), np.full(3, 0.25))


# ------------------------------------------------------------------- source

def test_source_linear_in_rho():
    s = builtin_catalog("growth_transport")  # f = rho
    p = ParticleSystem(0.0, [0.0, 0.5, 2.0], [0.3, 0.9])
    assert np.allclose(source_rate_arrays(p.t, p.x, p.heights, s), p.q, rtol=1e-14)


def test_source_zero():
    p = ParticleSystem(0.0, [0.0, 1.0], [1.0])
    assert np.allclose(source_rate_arrays(p.t, p.x, p.heights, builtin_catalog("transport")), 0.0)
    out = np.full(1, np.nan)
    assert source_rate_arrays(p.t, p.x, p.heights, builtin_catalog("transport"), out=out) is out
    assert np.array_equal(out, [0.0])


def test_source_polynomial_exact():
    # f = rho * x on cell (0,1) with rho = 2: integral 1
    src = Source(f=lambda t, x, rho: rho * np.asarray(x, dtype=float),
                 c_f=1.0, drho_f_bound=lambda r: np.ones_like(np.asarray(r, dtype=float)))
    s = make_scenario(source=src, G=lambda r: 1 + np.asarray(r, dtype=float),
                      lam=lambda r: 1 + np.asarray(r, dtype=float))
    p = ParticleSystem(0.0, [0.0, 1.0], [2.0])
    assert source_rate_arrays(p.t, p.x, p.heights, s)[0] == pytest.approx(1.0, rel=1e-14)


# ---------------------------------------------------------------------- rhs

def test_rhs_transport():
    p = ParticleSystem(0.0, [0.0, 0.25, 1.0], [0.5, 0.5])
    xdot, qdot, U, v_sel = rhs_arrays(p.t, p.x, p.q, builtin_catalog("transport"))
    assert np.allclose(xdot, 1.0)
    assert np.allclose(qdot, 0.0)
    assert np.allclose(xdot, v_sel * U)
    assert np.allclose(np.diff(xdot), 0.0)  # cells keep their width: no advective density change


def test_rhs_growth_transport():
    p = ParticleSystem(0.0, [0.0, 0.25, 1.0], [0.5, 0.5])
    xdot, qdot, _, _ = rhs_arrays(p.t, p.x, p.q, builtin_catalog("growth_transport"))
    assert np.allclose(xdot, 1.0)
    assert np.allclose(qdot, p.q, rtol=1e-14)
    assert np.allclose(qdot / np.diff(p.x), p.heights)  # the source part of rho' is rho


def test_rhs_repulsive_spreads():
    s = builtin_catalog("repulsive_source")
    p = ParticleSystem(0.0, [-1.0, 0.0, 1.0], [0.5, 0.5])
    xdot, _, _, _ = rhs_arrays(p.t, p.x, p.q, s)
    assert xdot[0] < 0 < xdot[-1]


def _file_scenarios(tmp_path):
    base = {
        "congestion": {"v": "1/(1 + r)", "v_sup": 1.0, "vprime_bound": "1"},
        "advection": {"V": "0.3*x", "dxV": "0.3", "F": "2", "G": "1 + r", "lambda": "1 + r"},
        "potential": {"W": "-abs(x)", "dxW_neg": "1", "dxW_pos": "-1", "atom_w": -2.0},
        "source": {"f": "rho*bump(x)", "c_f": 0.5, "drho_f_bound": "1"},
    }
    quadratic = dict(base, potential={"W": "0.5*x**2 - abs(x)", "dxW_neg": "x + 1",
                                      "dxW_pos": "x - 1", "time_factor": "1 + t"})
    generic = dict(base, potential={"W": "exp(-abs(x))", "dxW_neg": "exp(x)",
                                    "dxW_pos": "-exp(-x)", "atom_w": -2.0})
    out = []
    for k, doc in enumerate((base, quadratic, generic)):
        path = tmp_path / f"scenario{k}.json"
        path.write_text(json.dumps(doc))
        out.append(load_scenario(path)[0])
    return out


def test_rhs_matches_searched_field_and_two_call_upwind(tmp_path, rng):
    scenarios = [builtin_catalog("attractive_congested"), builtin_catalog("repulsive_source"),
                 *_file_scenarios(tmp_path)]
    assert scenarios[-1].potential.pieces is None
    for s in scenarios:
        for n in (1, 7, 40):
            p = random_particles(rng, n)
            rho = p.q / np.diff(p.x)
            xdot, qdot, U, v_sel = rhs_arrays(0.4, p.x, p.q, s)
            U_ref = u_field_arrays(0.4, p.x, rho, s, p.x)
            v_ref = _upwind_two_calls(rho, s.congestion.v, U_ref)
            assert np.array_equal(U, U_ref), s.name
            assert np.array_equal(v_sel, v_ref), s.name
            assert np.array_equal(xdot, v_ref * U_ref), s.name
            assert np.array_equal(qdot, source_rate_arrays(0.4, p.x, rho, s))


def _pin_scenarios():
    """Degree-1 pieces with and without a source, degree-2 and degree-3
    pieces (one with a time factor) and a W without pieces."""
    source = Source(f=lambda t, x, rho: rho * np.cos(x + t), c_f=1.0, drho_f_bound=const(1.0))
    cubic = ((0.0, 0.3, 0.5, -0.2), (0.0, -0.4, 0.5, 0.1))
    cubic_pot = Potential(W=lambda u: np.where(u < 0.0, P.polyval(u, cubic[0]),
                                               P.polyval(u, cubic[1])),
                          time_factor=lambda t: 1.0 + t, pieces=cubic)
    exp_pot = Potential(W=lambda u: np.exp(-np.abs(u)), dxW_neg=np.exp,
                        dxW_pos=lambda u: -np.exp(-u))
    v = compile_expression("1/(1 + r)", ("r",))
    return [
        builtin_catalog("attractive_congested"),
        builtin_catalog("repulsive_source"),
        make_scenario(v=v, potential=quadratic_potential(), V=lambda t, x: 0.3 * x,
                      source=source),
        make_scenario(v=v, potential=cubic_pot),
        make_scenario(v=v, potential=exp_pot, source=source),
    ]


_PIN_SCENARIOS = _pin_scenarios()


def _derivative_as_first_written(coef, scale=1):
    return [k * coef[k] / scale for k in range(1, len(coef))] or [0.0]


def _poly_as_first_written(coef, Y):
    return coef[0] if len(coef) == 1 else P.polyval(Y, coef)


def _rhs_as_first_written(t, x, q, s):
    """rhs_arrays from its original formulas: ``np.diff`` per use, the
    derivative chain rebuilt on every call, ``np.concatenate`` padding."""
    assert np.all(np.diff(x) > 0.0) and np.all(q > 0.0)
    rho = q / np.diff(x)
    pot = s.potential
    if pot.pieces is None:
        wd = pot.W(x[:, None] - x[None, :])
        conv = ((wd[:, :-1] - wd[:, 1:]) @ rho) * pot.factor(t)
    else:
        g_neg = _derivative_as_first_written(pot.pieces[0])
        g_jump = [a - b for a, b in itertools.zip_longest(
            _derivative_as_first_written(pot.pieces[1]), g_neg, fillvalue=0.0)]
        shift = 0.5 * (x[0] + x[-1])
        Y = x - shift
        mass = rho * np.diff(x)
        cum = np.concatenate(([0.0], np.cumsum(mass)))
        conv = (_poly_as_first_written(g_jump, Y) * cum
                + _poly_as_first_written(g_neg, Y) * float(np.sum(mass)))
        for m in range(1, len(g_jump)):
            g_jump = _derivative_as_first_written(g_jump, m)
            g_neg = _derivative_as_first_written(g_neg, m)
            X = x - shift
            cell = rho * (X[1:] ** (m + 1) - X[:-1] ** (m + 1)) / (m + 1)
            cum = np.concatenate(([0.0], np.cumsum(cell)))
            conv = conv + (-1) ** m * (_poly_as_first_written(g_jump, Y) * cum
                                       + _poly_as_first_written(g_neg, Y) * cum[-1])
        conv = conv * pot.factor(t)
    U = np.asarray(s.advection.V(t, x), dtype=float) - conv
    rho_ext = np.concatenate(([0.0], rho, [0.0]))
    vr = np.broadcast_to(np.asarray(s.congestion.v(rho_ext), dtype=float), rho_ext.shape)
    v_sel = np.where(U >= 0.0, vr[1:], vr[:-1])
    qdot = np.zeros(rho.size) if s.source.c_f == 0.0 else _source_as_first_written(t, x, rho, s)
    return v_sel * U, qdot, U, v_sel


@settings(max_examples=150, deadline=None)
@given(
    which=st.integers(0, len(_PIN_SCENARIOS) - 1),
    x=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=41, unique=True),
    masses=st.lists(st.floats(1e-3, 2.0), min_size=40, max_size=40),
    t=st.floats(0.0, 2.0),
)
def test_rhs_bitwise_equals_original_formulas(which, x, masses, t):
    s = _PIN_SCENARIOS[which]
    x = np.sort(np.asarray(x))
    assume(np.min(np.diff(x)) > 1e-9)
    q = np.asarray(masses[: x.size - 1])
    expected = _rhs_as_first_written(t, x, q, s)
    for out in (None, np.full(x.size + q.size, np.nan)):
        got = rhs_arrays(t, x, q, s, out=out)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b), s.name
        if out is not None:
            assert np.array_equal(out, np.concatenate(expected[:2]))


@settings(max_examples=150, deadline=None)
@given(
    which=st.integers(0, len(_PIN_SCENARIOS) - 1),
    x=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=41, unique=True),
    masses=st.lists(st.floats(1e-3, 2.0), min_size=40, max_size=40),
    t=st.floats(0.0, 2.0),
)
def test_rhs_reads_fixed_mass_sums_and_leaves_them(which, x, masses, t):
    # mass_sums(q) differs from the sums of rho * gaps only by rounding, and
    # the caller's sums are only read: a length-1 chain scales its C in place
    s = _PIN_SCENARIOS[which]
    x = np.sort(np.asarray(x))
    assume(np.min(np.diff(x)) > 1e-9)
    q = np.asarray(masses[: x.size - 1])
    xdot0, qdot0, U0, _ = rhs_arrays(t, x, q, s)
    sums = dynamics.mass_sums(q)
    cum = sums[0].copy()
    tol = 1e-12 * (1.0 + np.max(np.abs(U0)) + sums[1])
    for out in (None, np.full(x.size, np.nan), np.full(x.size, np.nan)):
        xdot, qdot, U, v_sel = rhs_arrays(t, x, q, s, out=out, mass_sums=sums)
        assert np.array_equal(sums[0], cum)
        assert np.max(np.abs(U - U0)) <= tol and np.max(np.abs(xdot - xdot0)) <= tol
        assert np.array_equal(qdot, qdot0)
        if out is not None:  # an out of x.size floats holds xdot alone
            assert np.shares_memory(xdot, out) and np.array_equal(out, v_sel * U)


def _gauss_as_first_written(f, t, mid, half, rho, g, w):
    nodes = g[:, None] * half + mid
    vals = np.broadcast_to(np.asarray(f(t, nodes, rho), dtype=float), nodes.shape)
    return (w @ vals) * half


def _source_as_first_written(t, x, rho, s):
    """The cell rule: 4 Gauss nodes per cell, node-major, then each cell
    wider than ``CELL_CAP`` again on its ``np.linspace`` panels, 4 nodes each,
    summed by ``np.add.reduceat``."""
    mid = 0.5 * (x[1:] + x[:-1])
    half = 0.5 * np.diff(x)
    g, w = np.polynomial.legendre.leggauss(4)
    out = _gauss_as_first_written(s.source.f, t, mid, half, rho, g, w)
    wide = np.flatnonzero(np.diff(x) > dynamics.CELL_CAP)
    edges = [np.linspace(x[i], x[i + 1], int(np.ceil((x[i + 1] - x[i]) / dynamics.CELL_CAP)) + 1)
             for i in wide]
    if not edges:
        return out
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    rho_panels = np.concatenate([np.full(e.size - 1, rho[i]) for i, e in zip(wide, edges)])
    panels = _gauss_as_first_written(s.source.f, t, 0.5 * (lo + hi), 0.5 * (hi - lo),
                                     rho_panels, g, w)
    counts = np.array([e.size - 1 for e in edges])
    out[wide] = np.add.reduceat(panels, np.cumsum(counts) - counts)
    return out


def _source_8_node(t, x, rho, s):
    """The 8-node rule on every cell, cell-major: the rule before the cell rule."""
    g8, w8 = np.polynomial.legendre.leggauss(8)
    half = 0.5 * np.diff(x)
    nodes = 0.5 * (x[1:] + x[:-1])[:, None] + half[:, None] * g8[None, :]
    vals = np.broadcast_to(np.asarray(s.source.f(t, nodes, rho[:, None]), dtype=float),
                           nodes.shape)
    return (vals @ w8) * half


def _source_test_states(tmp_path, rng, which, n):
    """The scenario and (x, rho) pairs: the quantile state of ``which``'s
    initial density, and the same with each inner particle moved by up to 0.3
    of its smaller gap."""
    if which == "repulsive_source":
        s, rho0 = builtin_catalog(which), builtin_initial(which)
    else:
        s, rho0 = benchmark_file_scenario(tmp_path)
    x = quantile_init(rho0, n).x
    gaps = np.diff(x)
    moved = x.copy()
    moved[1:-1] += 0.3 * rng.uniform(-1.0, 1.0, n - 1) * np.minimum(gaps[:-1], gaps[1:])
    return s, [(x, rng.uniform(0.1, 1.0, n) / np.diff(x)) for x in (x, moved)]


@pytest.mark.parametrize("n", [800, 3200])
@pytest.mark.parametrize("which", ["repulsive_source", "benchmark_file"])
def test_source_quadrature_bitwise_equals_the_cell_rule_formula(tmp_path, rng, which, n):
    # the node values are built with fewer temporaries; the rule and every
    # float operation stay, so the cell rates keep their bits
    s, states = _source_test_states(tmp_path, rng, which, n)
    for x, rho in states:
        for t in (0.0, 0.37):
            want = _source_as_first_written(t, x, rho, s).tobytes()
            assert source_rate_arrays(t, x, rho, s).tobytes() == want
            assert source_rate_arrays(t, x, rho, s, gaps=np.diff(x)).tobytes() == want
            out = np.full(rho.size, np.nan)
            assert source_rate_arrays(t, x, rho, s, out=out) is out
            assert out.tobytes() == want


@pytest.mark.parametrize("n", [800, 3200])
@pytest.mark.parametrize("which", ["repulsive_source", "benchmark_file"])
def test_cell_rule_rates_match_the_8_node_rule(tmp_path, rng, which, n):
    # every cell is within the cap here, so it takes 4 nodes in place of 8
    s, states = _source_test_states(tmp_path, rng, which, n)
    for x, rho in states:
        assert np.diff(x).max() <= dynamics.CELL_CAP
        for t in (0.0, 0.37):
            old = _source_8_node(t, x, rho, s)
            assert np.all(np.abs(source_rate_arrays(t, x, rho, s) - old) <= 1e-15 * np.abs(old))


def test_cell_wider_than_the_cap_is_split():
    # transport's blocks leave a vacuum gap of 0.5; at N = 40 one cell spans
    # it and every other cell is within the cap
    shapes = []

    def f(t, x, rho):
        shapes.append(np.shape(x))
        return rho * x ** 7

    s = make_scenario(source=Source(f=f, c_f=1.0, drho_f_bound=const(1.0)))
    x = quantile_init(builtin_initial("transport"), 40).x
    rho = 0.025 / np.diff(x)
    wide = np.flatnonzero(np.diff(x) > dynamics.CELL_CAP)
    assert wide.size == 1 and np.diff(x)[wide[0]] > 0.5
    got = source_rate_arrays(0.3, x, rho, s)
    m = int(np.ceil(np.diff(x)[wide[0]] / dynamics.CELL_CAP))
    assert shapes == [(4, x.size - 1), (4, m)]
    assert got.tobytes() == _source_as_first_written(0.3, x, rho, s).tobytes()
    a, b = x[wide[0]], x[wide[0] + 1]  # 4 nodes per panel integrate degree 7 exactly
    assert got[wide[0]] == pytest.approx(rho[wide[0]] * (b ** 8 - a ** 8) / 8, rel=1e-14)


def _rule_bound(degree, lo, hi):
    """The module's error bound for x^degree on the panel [lo, hi]: w^9 / 1.78e9
    times the largest eighth derivative there."""
    d8 = np.prod(np.arange(degree - 7, degree + 1)) * np.maximum(abs(lo), abs(hi)) ** (degree - 8)
    return (hi - lo) ** 9 / 1.78e9 * d8


@pytest.mark.parametrize("degree", range(16))
def test_cell_rule_exact_for_polynomials(degree):
    # 4 nodes integrate degree <= 7 exactly on every panel; with each panel
    # mapped onto [-1, 1] an even degree above 7 shows the rule's error
    lo = np.array([-2.0, -0.3, -0.25, 0.01, 0.5, 1.0])
    hi = np.array([-1.0, -0.25, -0.2, 0.0625 + 0.01, 0.6, 2.5])
    mid, half, m = dynamics.cell_panels(lo, hi, dynamics.CELL_CAP)
    assert np.array_equal(m, [16, 1, 1, 1, 2, 24])
    g, w = dynamics.GL4_NODES, dynamics.GL4_WEIGHTS
    nodes = (mid[:, None] + half[:, None] * g).ravel()
    assert np.all(np.diff(nodes) > 0) and np.all(2.0 * half <= dynamics.CELL_CAP)
    err = np.abs(w @ g[:, None] ** degree - (1 + (-1) ** degree) / (degree + 1))
    assert (err <= 1e-14) == (degree <= 7 or degree % 2 == 1)
    # the source term takes the same rule, a cell wider than the cap on its panels
    x = np.array([-2.0, -1.0, -0.98, -0.9, -0.85, 0.7, 0.71])
    s = make_scenario(source=Source(f=lambda t, x, rho: rho * x ** degree, c_f=1.0,
                                    drho_f_bound=const(1.0)))
    want = (x[1:] ** (degree + 1) - x[:-1] ** (degree + 1)) / (degree + 1)
    rates = source_rate_arrays(0.0, x, np.ones(x.size - 1), s)
    wide = np.diff(x) > dynamics.CELL_CAP
    assert wide.any() and not wide.all()
    if degree <= 7:
        assert np.all(np.abs(rates - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
    else:  # within the documented bound, summed over each cell's panels
        mid, half, m = dynamics.cell_panels(x[:-1], x[1:], dynamics.CELL_CAP)
        bound = np.add.reduceat(_rule_bound(degree, mid - half, mid + half), np.cumsum(m) - m)
        assert np.all(np.abs(rates - want) <= bound + 1e-14 * np.maximum(1.0, np.abs(want)))


@settings(max_examples=300, deadline=None)
@given(a=st.floats(-10.0, 10.0), width=st.floats(1e-6, 20.0), cap=st.floats(1e-3, 10.0),
       more=st.lists(st.floats(1e-6, 5.0), max_size=4))
def test_cell_panels_are_the_fewest_linspace_panels_within_the_cap(a, width, cap, more):
    b = np.cumsum([a + width] + more)
    a = np.concatenate(([a], b[:-1]))
    assume(np.all(b > a))
    mid, half, m = dynamics.cell_panels(a, b, cap)
    assert m.dtype == np.intp and mid.size == half.size == m.sum()
    k = 0
    for lo, hi, count in zip(a, b, m):
        e = np.linspace(lo, hi, count + 1)
        assert np.array_equal(mid[k:k + count], 0.5 * (e[:-1] + e[1:]))
        assert np.array_equal(half[k:k + count], 0.5 * (e[1:] - e[:-1]))
        k += count
        # the panels tile [lo, hi] in order, none wider than the cap (up to
        # the rounding of the edges), and one panel fewer would not do
        assert e[0] == lo and e[-1] == hi and np.all(np.diff(e) > 0)
        ulps = 8 * np.finfo(float).eps * max(abs(lo), abs(hi), cap)
        assert np.all(np.diff(e) <= cap + ulps)
        assert count == 1 or (hi - lo) > (count - 1) * cap * (1 - 4 * np.finfo(float).eps)


@pytest.mark.parametrize("lo, hi, rel", [
    (-0.35, 0.35, 1e-10), (-0.65, 0.65, 1e-10),  # inside the bump's support
    (0.6, 1.3, 1e-7), (-1.6, -0.3, 1e-7), (-1.85, 1.85, 1e-7), (-1.0, 2.7, 1e-7),
])
def test_wide_cells_take_the_bump_source_to_a_fine_reference(lo, hi, rel):
    # cells 0.7, 1.3 and 3.7 wide against 16 nodes on panels of CELL_CAP/64.
    # The former 8-node rule erred by 3.6e-13, 2.0e-8, 3.3e-3, 2.2e-3, 2.4e-2
    # and 4.5e-2 relative here.  On a cell holding an end of the bump's
    # support, where its high derivatives grow steeply, 4 nodes per panel
    # leave up to 4e-8; inside the support they leave 2e-13.
    s = builtin_catalog("repulsive_source")
    x, rho = np.array([lo, hi]), np.array([0.6])
    g16, w16 = np.polynomial.legendre.leggauss(16)
    mid, half, m = dynamics.cell_panels(x[:-1], x[1:], dynamics.CELL_CAP / 64)
    ref = (s.source.f(0.0, mid[:, None] + half[:, None] * g16, rho) @ w16) @ half
    assert source_rate_arrays(0.0, x, rho, s)[0] == pytest.approx(ref, rel=rel, abs=0)


def test_sourced_mass_matches_a_16_node_run(monkeypatch):
    # N = 24 leaves cells wider than the cap over the bump; the former 8-node
    # rule ended 4.0e-4 low
    mass = catalog_run("repulsive_source", 24, t_end=4.0, k_snapshots=2).snapshots[-1].total_mass()
    g16, w16 = np.polynomial.legendre.leggauss(16)
    monkeypatch.setattr(dynamics, "GL4_NODES", g16)
    monkeypatch.setattr(dynamics, "GL4_WEIGHTS", w16)
    monkeypatch.setattr(dynamics, "CELL_CAP", dynamics.CELL_CAP / 4)
    s = builtin_catalog("repulsive_source")
    ref = integrate(quantile_init(builtin_initial("repulsive_source"), 24), s,
                    SolverConfig(t_end=4.0, snapshot_times=np.array([0.0, 4.0])))
    assert mass == pytest.approx(ref.snapshots[-1].total_mass(), rel=1e-8, abs=0)


# ---------------------------------------------------------------- dxU field

def dxU_at(p, s, y):
    # the density at y is the cell's to the right of a breakpoint
    y = np.asarray(y, dtype=float)
    return dxU_field_arrays(p.t, p.x, p.heights, s, y, to_density(p)(y))


def test_dxU_linear_advection():
    s = make_scenario(V=lambda t, x: np.asarray(x, dtype=float),
                      dxV=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
                      G=lambda r: 1 + np.asarray(r, dtype=float),
                      lam=lambda r: 1 + np.asarray(r, dtype=float))
    p = ParticleSystem(0.0, [0.0, 1.0], [1.0])
    assert dxU_at(p, s, [0.5, 7.0]) == pytest.approx([1.0, 1.0])


def test_dxU_quadratic_potential():
    # dx2W == 1 convolved with unit mass gives 1; w = 0
    s = quad_scenario()
    p = ParticleSystem(0.0, [0.0, 1.0], [1.0])
    assert dxU_at(p, s, [0.5]) == pytest.approx([-1.0], rel=1e-12)


def test_dxU_kink_potential():
    # W = |x|: dx2W = 0 a.e., atom w = 2; inside a cell dxU = -2 rho, outside 0
    s = builtin_catalog("attractive_congested")
    p = ParticleSystem(0.0, [0.0, 1.0, 3.0], [0.5, 0.5])
    got = dxU_at(p, s, [0.5, 2.0, 5.0])
    assert got[:2] == pytest.approx([-2.0 * 0.5, -2.0 * 0.25])
    assert got[2] == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=100, deadline=None)
@given(
    c0=_coef,
    w_neg=st.lists(_coef, min_size=0, max_size=4),
    w_pos=st.lists(_coef, min_size=0, max_size=4),
    x=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=31, unique=True),
    heights=st.lists(st.floats(0.05, 2.0), min_size=30, max_size=30),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    outside=st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=4),
    factor=st.one_of(st.none(), st.floats(-2.0, 2.0)),
)
def test_dxU_pieces_match_generic(c0, w_neg, w_pos, x, heights, fractions, outside, factor):
    # random W, polynomial of degree <= 4 on each side and continuous at 0:
    # the dx2W term by the chain of the gradient pieces equals the
    # differences of G(u) = dxW_neg(min(u, 0)) + dxW_pos(max(u, 0)), the path
    # the same W takes without pieces
    neg, pos = (c0, *w_neg), (c0, *w_pos)
    time_factor = None if factor is None else (lambda t: factor * (1.0 + t))
    pot = Potential(W=lambda u: np.where(u < 0.0, P.polyval(u, neg), P.polyval(u, pos)),
                    time_factor=time_factor, pieces=(neg, pos))
    generic = Potential(W=pot.W, dxW_neg=pot.dxW_neg, dxW_pos=pot.dxW_pos,
                        time_factor=time_factor)
    x = np.sort(np.asarray(x))
    assume(np.min(np.diff(x)) > 1e-9)
    p = ParticleSystem(0.7, x, np.asarray(heights[: x.size - 1]) * np.diff(x))
    cells = np.arange(len(fractions)) % p.n
    y = np.concatenate((x, x[cells] + np.asarray(fractions) * np.diff(x)[cells],
                        x[0] - np.asarray(outside), x[-1] + np.asarray(outside)))
    fast = dxU_at(p, make_scenario(potential=pot), y)
    slow = dxU_at(p, make_scenario(potential=generic), y)
    assert np.all(np.abs(fast - slow) <= 1e-12 * np.maximum(1.0, np.abs(slow)))


def _difference_unchunked(F, x, rho, y):
    fd = F(y[:, None] - x[None, :])
    return (fd[:, :-1] - fd[:, 1:]) @ rho


@pytest.mark.parametrize("chunk", [1, 3 * 401, 1000 * 401, 2000 * 401, dynamics.DIFFERENCE_CHUNK],
                         ids=["one-row", "three-rows", "two-chunks", "one-chunk", "default"])
def test_difference_rows_by_chunks_match_one_matrix(monkeypatch, rng, chunk):
    # a kernel without pieces at N = 400 on 1601 points; a chunk of rows takes
    # a gemv of its own, so the sums agree to rounding, not to the bit
    monkeypatch.setattr(dynamics, "DIFFERENCE_CHUNK", chunk)
    s = _PIN_SCENARIOS[-1]
    pot = s.potential
    assert pot.pieces is None
    p = random_particles(rng, 400)
    rho = p.heights
    y = np.sort(np.concatenate((p.x, rng.uniform(p.x[0] - 0.5, p.x[-1] + 0.5, 1200))))

    def G(u):
        return pot.dxW_neg(np.minimum(u, 0.0)) + pot.dxW_pos(np.maximum(u, 0.0))

    for F in (pot.W, G):
        want = _difference_unchunked(F, p.x, rho, y)
        got = dynamics._difference_convolution(F, p.x, rho, y)
        assert np.all(np.abs(got - want) <= 1e-13 * np.max(np.abs(want)))
        if chunk >= y.size * p.x.size:
            assert np.array_equal(got, want)


def test_difference_convolution_memory_is_one_chunk(rng):
    # the (len(y), N+1) matrices took 15 MB at N = 400 on 1601 points
    s = _PIN_SCENARIOS[-1]
    p = random_particles(rng, 400)
    y = np.linspace(p.x[0], p.x[-1], 1601)
    tracemalloc.start()
    try:
        convolve_dxW_generic(0.0, p.x, p.heights, s, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * dynamics.DIFFERENCE_CHUNK


def test_kernels_with_pieces_never_build_the_difference_matrix(monkeypatch, rng):
    def refuse(*args):
        raise AssertionError("difference matrix built for a kernel with pieces")

    monkeypatch.setattr(dynamics, "_difference_convolution", refuse)
    for s in _PIN_SCENARIOS[:4]:
        assert s.potential.pieces is not None
        p = random_particles(rng, 20)
        y = np.linspace(p.x[0] - 0.5, p.x[-1] + 0.5, 57)
        assert np.all(np.isfinite(dxU_at(p, s, y)))
        assert np.all(np.isfinite(rhs_arrays(0.3, p.x, p.q, s)[0]))


# ------------------------------------------------------- structural checks

@st.composite
def ordered_states(draw, max_n=20):
    """(x, q): N + 1 strictly increasing positions and N positive masses."""
    n = draw(st.integers(1, max_n))
    gaps = draw(st.lists(st.floats(1e-3, 0.5), min_size=n, max_size=n))
    x = draw(st.floats(-2.0, 0.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    q = np.asarray(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    return x, q


@st.composite
def random_models(draw):
    """(knots, values, W_neg, W_pos, V): a non-increasing piecewise-linear v
    through (knots, values), constant past the last knot; polynomial pieces
    of W, continuous at 0; a constant V."""
    k = draw(st.integers(1, 4))
    knots = np.cumsum([0.0, *draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))])
    values = sorted(draw(st.lists(st.floats(0.0, 2.0), min_size=k + 1, max_size=k + 1)),
                    reverse=True)
    c0 = draw(_coef)
    w_neg = draw(st.lists(_coef, min_size=0, max_size=3))
    w_pos = draw(st.lists(_coef, min_size=0, max_size=3))
    return knots, values, (c0, *w_neg), (c0, *w_pos), draw(st.floats(-2.0, 2.0))


def _model_scenario(knots, values, neg, pos, V):
    pot = Potential(W=lambda u: np.where(u < 0.0, P.polyval(u, neg), P.polyval(u, pos)),
                    pieces=(neg, pos))
    return make_scenario(v=lambda r: np.interp(r, knots, values), potential=pot,
                         V=lambda t, x: np.full(np.shape(x), V))


def _seeded_state(seed):
    p = random_particles(np.random.default_rng(seed), 20)
    return p.x, p.q


_MODELS = st.one_of(st.sampled_from(("transport", "attractive_congested", "repulsive_source")),
                    random_models())


@settings(max_examples=200, deadline=None)
@given(state=ordered_states(), model=_MODELS)
@example(state=_seeded_state(1), model="transport")
@example(state=_seeded_state(2), model="attractive_congested")
@example(state=_seeded_state(3), model="repulsive_source")
def test_good_v_on_random_states(state, model):
    # the four inequalities follow from a non-increasing v and the downstream
    # upwinding alone, so they hold for any free velocity U
    x, q = state
    s = builtin_catalog(model) if isinstance(model, str) else _model_scenario(*model)
    rho = q / np.diff(x)
    U = u_field_arrays(0.0, x, rho, s)
    v_sel = upwind_arrays(rho, s, U)
    out = good_v_violations_state(0.0, x, q, U, v_sel, s.congestion.v)
    assert out == [], out[:3]


def _grid_constant_hits(x, q, U, v_sel, v, cs):
    """The interfaces where the "constant" inequality fails at one of the
    constants ``cs``, each read by a scalar call of ``v``: the sampled check."""
    rho_ext = np.concatenate(([0.0], q / np.diff(x), [0.0]))
    hits = set()
    for c in cs:
        d = np.sign(rho_ext[1:] - c) - np.sign(rho_ext[:-1] - c)
        hits.update(np.flatnonzero(d * (v_sel - float(v(c))) * U > 1e-10).tolist())
    return hits


@settings(max_examples=300, deadline=None)
@given(state=ordered_states(), model=_MODELS, data=st.data(),
       extra_cs=st.lists(st.floats(0.0, 3.0), max_size=4))
def test_good_v_constant_family_flags_what_any_constant_grid_flags(state, model, data,
                                                                   extra_cs):
    # the exact check covers every c, so each interface that fails at some
    # sampled constant (the quarters of the largest height, 1.1x it, and
    # random ones) is flagged too, whichever side each particle reads v from
    x, q = state
    s = builtin_catalog(model) if isinstance(model, str) else _model_scenario(*model)
    rho = q / np.diff(x)
    U = u_field_arrays(0.0, x, rho, s)
    v_ext = dynamics.congestion_on(np.concatenate(([0.0], rho, [0.0])), s.congestion.v)
    left = np.array(data.draw(st.lists(st.booleans(), min_size=x.size, max_size=x.size)))
    v_sel = np.where(left, v_ext[:-1], v_ext[1:])
    r_max = float(np.max(rho))
    cs = [0.0, r_max / 4.0, r_max / 2.0, 3.0 * r_max / 4.0, r_max, 1.1 * r_max, *extra_cs]
    out = good_v_violations_state(0.0, x, q, U, v_sel, s.congestion.v)
    flagged = {v.index for v in out if v.family == "constant"}
    assert _grid_constant_hits(x, q, U, v_sel, s.congestion.v, cs) <= flagged


def test_first_difference_bound(rng):
    # |U_i - U_{i-1}| / (x_i - x_{i-1}) <= C1 + C2 rho_i with the refined
    # constants evaluated on the realized support/mass
    cases = {
        "transport": lambda p: (0.0, 0.0),
        "attractive_congested": lambda p: (0.0, 2.0),
        "repulsive_source": lambda p: (0.0, 2.0),
    }
    for name, consts in cases.items():
        s = builtin_catalog(name)
        for _ in range(10):
            p = random_particles(rng, 25)
            c1, c2 = consts(p)
            U = particle_U(p, s)
            rho = p.q / np.diff(p.x)
            ratio = np.abs(np.diff(U)) / np.diff(p.x)
            assert np.all(ratio <= c1 + c2 * rho + 1e-9), name


def test_first_difference_bound_quadratic(rng):
    # C1 = |dxV| + |dx2W|_inf * mass = mass, C2 = |w| = 0
    s = quad_scenario()
    for _ in range(10):
        p = random_particles(rng, 25)
        U = particle_U(p, s)
        ratio = np.abs(np.diff(U)) / np.diff(p.x)
        assert np.all(ratio <= float(np.sum(p.q)) + 1e-9)


def test_good_v_holds_along_catalog_run():
    traj = catalog_run("attractive_congested", 50, t_end=0.5, k_snapshots=6,
                       store_steps=True)
    s = builtin_catalog("attractive_congested")
    for p in traj.steps:
        U = particle_U(p, s)
        v_sel = upwind_arrays(p.heights, s, U)
        out = good_v_violations_state(p.t, p.x, p.q, U, v_sel, s.congestion.v)
        assert out == []
