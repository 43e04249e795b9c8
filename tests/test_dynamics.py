import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from pbal import ParticleSystem, builtin_catalog, to_density
from pbal.dynamics import (convolve_dxW_arrays, convolve_dxW_generic, dxU_field_arrays,
                           rhs_arrays, source_rate_arrays, u_field_arrays, upwind_arrays)
from pbal.expressions import compile_expression
from pbal.diagnostics import good_v_violations_state
from pbal import dynamics
from pbal.scenario import Branch, Potential, Source, load_scenario

from conftest import (catalog_run, const, make_scenario, quadratic_potential,
                      random_particles, zero_field_scenario)


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
    if s.source.c_f == 0.0:
        qdot = np.zeros(rho.size)
    else:
        half = 0.5 * np.diff(x)
        nodes = 0.5 * (x[1:] + x[:-1])[:, None] + half[:, None] * dynamics.GL_NODES[None, :]
        vals = np.broadcast_to(np.asarray(s.source.f(t, nodes, rho[:, None]), dtype=float),
                               nodes.shape)
        qdot = (vals @ dynamics.GL_WEIGHTS) * half
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


@settings(max_examples=200, deadline=None)
@given(state=ordered_states(),
       model=st.one_of(st.sampled_from(("transport", "attractive_congested",
                                        "repulsive_source")), random_models()),
       extra_cs=st.lists(st.floats(0.0, 3.0), max_size=3))
@example(state=_seeded_state(1), model="transport", extra_cs=[])
@example(state=_seeded_state(2), model="attractive_congested", extra_cs=[])
@example(state=_seeded_state(3), model="repulsive_source", extra_cs=[])
def test_good_v_on_random_states(state, model, extra_cs):
    # the four inequalities follow from a non-increasing v and the downstream
    # upwinding alone, so they hold for any free velocity U
    x, q = state
    s = builtin_catalog(model) if isinstance(model, str) else _model_scenario(*model)
    rho = q / np.diff(x)
    U = u_field_arrays(0.0, x, rho, s)
    v_sel = upwind_arrays(rho, s, U)
    r_max = float(np.max(rho))
    c_grid = [0.0, 0.3 * r_max, 0.7 * r_max, r_max, 1.2 * r_max, *extra_cs]
    out = good_v_violations_state(0.0, x, q, U, v_sel, s.congestion.v, c_grid, slack=1e-10)
    assert out == [], out[:3]


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
        out = good_v_violations_state(p.t, p.x, p.q, U, v_sel, s.congestion.v,
                                      [0.0, 0.25, 0.5, 0.75, 1.0])
        assert out == []
