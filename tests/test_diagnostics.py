import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pbal import SolverConfig, builtin_catalog, builtin_initial, integrate, quantile_init
from pbal import diagnostics as dg
from pbal.density import (ParticleSystem, l1_distance, pushforward_affine, to_density,
                          w1_distance)
from pbal.expressions import compile_expression
from pbal.initial import InitialDensity
from pbal.diagnostics import _snapshot_quadrature
from pbal import dynamics
from pbal.dynamics import dxU_field_arrays, u_field_arrays, upwind_arrays
from pbal.scenario import Branch, Source

from conftest import (catalog_run, const, make_scenario, quadratic_potential, random_particles,
                      zero_field_scenario)


# ------------------------------------------------------------------ envelopes

def test_envelope_Q_exponential():
    s = builtin_catalog("growth_transport")  # c_f = 1, F == 1
    assert dg.envelope_Q(s, 1.0) == pytest.approx(np.e, rel=1e-10)


def test_envelope_Q_no_source():
    s = builtin_catalog("attractive_congested")  # c_f = 0
    assert dg.envelope_Q(s, 1.7) == 1.0


def test_envelope_Q_time_dependent_F():
    src = Source(f=lambda t, x, rho: 0.0 * rho, c_f=2.0, drho_f_bound=const(0.0))
    s = make_scenario(F=lambda t: np.asarray(t, dtype=float), source=src)
    # exp(2 * int_0^1 tau dtau) = e
    assert dg.envelope_Q(s, 1.0) == pytest.approx(np.e, rel=1e-9)


@pytest.mark.parametrize("F, integral", [
    (2.0, lambda t: 2.0 * t),
    (lambda t: np.asarray(t, dtype=float), lambda t: 0.5 * t * t),
    (np.exp, np.expm1),
    (lambda t: 1.0 + np.maximum(np.asarray(t, dtype=float) - 0.3, 0.0),
     lambda t: t + 0.5 * max(t - 0.3, 0.0) ** 2),
])
@pytest.mark.parametrize("t", [0.2, 1.0, 2.5])
def test_envelope_Q_closed_forms(F, integral, t):
    # Q = exp(c_f int_0^t F) for constant, linear, exponential and kinked F.
    # The quadrature tolerance is 1e-10 relative on the integral, so Q itself
    # is within 1e-10 relative per unit of its exponent c_f int F.
    src = Source(f=lambda t, x, rho: 0.0 * rho, c_f=0.7, drho_f_bound=const(0.0))
    s = make_scenario(F=F, source=src)
    exponent = 0.7 * integral(t)
    assert dg.envelope_Q(s, t) == pytest.approx(
        np.exp(exponent), rel=1e-10 * max(1.0, exponent), abs=0.0)


def test_envelope_Q_scalar_F():
    # an F that ignores its argument's shape still integrates
    src = Source(f=lambda t, x, rho: 0.0 * rho, c_f=1.0, drho_f_bound=const(0.0))
    s = make_scenario(F=lambda t: 3.0, source=src)
    assert dg.envelope_Q(s, 0.5) == pytest.approx(np.exp(1.5), rel=1e-14)


def _constant_F_scenario(text, c_f=0.5):
    src = Source(f=lambda t, x, rho: 0.0 * rho, c_f=c_f, drho_f_bound=const(0.0))
    return make_scenario(F=compile_expression(text, ("t",)), source=src)


def _envelope_times():
    return np.concatenate([np.linspace(0.0, t_end, dg.ENVELOPE_GRID)[1:]
                           for t_end in (1.0, 2.0, 0.3)])


@pytest.mark.parametrize("F", ["1", "2"])
def test_envelope_Q_constant_F_is_bitwise_the_quadrature(monkeypatch, F):
    # a constant F is read as data, Q = exp(c_f (F t)); for F in {1, 2} (every
    # catalog scenario with a source, and the benchmark's file) the
    # Gauss-Kronrod sum is F t exactly, so Q keeps its bits
    s = _constant_F_scenario(F)
    gk = [math.exp(0.5 * dg._integrate_gk(s.advection.growth_F, 0.0, t))
          for t in _envelope_times()]
    monkeypatch.setattr(dg, "_integrate_gk", None)  # never called for a constant F
    assert [dg.envelope_Q(s, t) for t in _envelope_times()] == gk


@pytest.mark.parametrize("F", ["0.3", "0.7", "2.5"])
def test_envelope_Q_constant_F_within_two_ulp_of_the_quadrature(F):
    # other constants: F t and the Gauss-Kronrod sum differ by rounding only
    s = _constant_F_scenario(F)
    for t in _envelope_times():
        exact, gk = float(F) * t, dg._integrate_gk(s.advection.growth_F, 0.0, t)
        assert abs(exact - gk) <= 2 * np.spacing(exact)
        assert dg.envelope_Q(s, t) == math.exp(0.5 * exact)


def test_envelope_Q_time_dependent_F_uses_the_quadrature(monkeypatch):
    s = _constant_F_scenario("1 + t")
    calls = []
    gk = dg._integrate_gk
    monkeypatch.setattr(dg, "_integrate_gk", lambda *a: calls.append(a) or gk(*a))
    assert dg.envelope_Q(s, 0.8) == math.exp(0.5 * gk(s.advection.growth_F, 0.0, 0.8))
    assert len(calls) == 1


def _called(fn):
    """``fn`` behind a plain callable, so that its constant value is not read as data."""
    return None if fn is None else (lambda *args: fn(*args))


@pytest.mark.parametrize("name", ["repulsive_source", "growth_transport", "attractive_congested"])
def test_envelopes_read_constants_as_data_bitwise(name):
    # the rates read a constant F, G, lambda, bound or eta once; the curves
    # keep the bits of rates that call them (F is 1 or 2, so Q is exact too)
    s = builtin_catalog(name)
    called = dataclasses.replace(
        s,
        advection=dataclasses.replace(
            s.advection, growth_F=_called(s.advection.growth_F),
            growth_G=_called(s.advection.growth_G),
            growth_lambda=_called(s.advection.growth_lambda)),
        congestion=dataclasses.replace(
            s.congestion, vprime_bound=_called(s.congestion.vprime_bound),
            decay_g=_called(s.congestion.decay_g)),
        source=dataclasses.replace(
            s.source, drho_f_bound=_called(s.source.drho_f_bound),
            eta_mass=_called(s.source.eta_mass)))
    p0 = quantile_init(builtin_initial(name), 40)
    data, calls = dg.compute_envelopes(s, p0, 1.0), dg.compute_envelopes(called, p0, 1.0)
    for a, b in ((data.S, calls.S), (data.R, calls.R), (data.B, calls.B)):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.ys.tobytes() == b.ys.tobytes()


def test_envelope_S_zero_field():
    s = zero_field_scenario()
    S = dg.envelope_S(s, 1.5, 2.0, q0=1.0)
    assert S(0.0) == pytest.approx(1.5)
    assert S(2.0) == pytest.approx(1.5)


def test_envelope_S_linear():
    # s' = vsup F (1 + q0 Q) lambda = 1*1*(1+1)*1 = 2
    s = make_scenario()
    S = dg.envelope_S(s, 1.0, 1.0, q0=1.0)
    ts = np.linspace(0, 1, 11)
    assert np.allclose(S(ts), 1.0 + 2.0 * ts, rtol=1e-8)


def test_envelope_S_affine_lambda():
    # lambda(s) = 1 + s with rate a = 2: S(t) = (1 + S0) e^{2t} - 1
    # (compared on the curve's own samples; between them it interpolates)
    s = make_scenario(lam=lambda r: 1.0 + np.asarray(r, dtype=float))
    S0 = 0.5
    S = dg.envelope_S(s, S0, 1.0, q0=1.0)
    assert np.allclose(S.ys, (1.0 + S0) * np.exp(2.0 * S.ts) - 1.0, rtol=1e-6)


def test_curve_all_nonfinite_is_inf():
    # blow-up before the first sample: no finite part to interpolate
    curve = dg.Curve(np.array([0.0, 1.0, 2.0]), np.full(3, np.inf))
    assert curve(0.5) == np.inf
    assert np.all(curve(np.array([-1.0, 0.0, 3.0])) == np.inf)


def test_curve_inf_past_blowup():
    curve = dg.Curve(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, np.inf]))
    assert curve(0.5) == 0.5
    assert curve(2.0) == np.inf
    assert curve.blowup_time == 2.0


def test_envelope_R_repulsive_branch_linear():
    # C1 == 0 (G == 0), c_f = 1, F == 1: R(t) = R0 e^t
    src = Source(f=lambda t, x, rho: rho, c_f=1.0, drho_f_bound=const(1.0))
    s = make_scenario(G=0.0, source=src, branch=Branch.W_REPULSIVE)
    S = dg.envelope_S(s, 1.0, 1.0, q0=1.0)
    R = dg.envelope_R(s, 2.0, 1.0, q0=1.0, S_curve=S)
    assert np.allclose(R.ys, 2.0 * np.exp(R.ts), rtol=1e-7)


def test_envelope_R_decay_branch():
    # G == 0, c_f = 0, F == 1: rate a = C1 vsup + C2 + c_f F = 1, g = 2r:
    # R(t) = R0 e^{2 a t}
    s = make_scenario(G=0.0, branch=Branch.V_DECAYS,
                      decay_g=lambda r: 2.0 * np.asarray(r, dtype=float))
    S = dg.envelope_S(s, 1.0, 1.0, q0=1.0)
    R = dg.envelope_R(s, 0.5, 1.0, q0=1.0, S_curve=S)
    assert np.allclose(R.ys, 0.5 * np.exp(2.0 * R.ts), rtol=1e-7)


def test_envelope_R_all_flat():
    s = zero_field_scenario()
    S = dg.envelope_S(s, 1.0, 1.0, q0=1.0)
    R = dg.envelope_R(s, 3.0, 1.0, q0=1.0, S_curve=S)
    assert R(1.0) == pytest.approx(3.0)


def test_envelopes_monotone_and_anchored():
    for name in ("growth_transport", "attractive_congested", "repulsive_source"):
        s = builtin_catalog(name)
        p0 = quantile_init(builtin_initial(name), 40)
        env = dg.compute_envelopes(s, p0, 1.0)
        ts = np.linspace(0.0, 1.0, 33)
        assert env.Q(0.0) == pytest.approx(1.0)
        assert env.S(0.0) == pytest.approx(env.S0)
        assert env.R(0.0) == pytest.approx(env.R0)
        for curve in (env.S, env.R) + ((env.B,) if env.B else ()):
            vals = np.array([curve(t) for t in ts])
            finite = np.isfinite(vals)
            # non-decreasing on the finite prefix; overflow tail stays inf
            assert np.all(np.diff(vals[finite]) >= -1e-12), name
            if not finite.all():
                assert not np.any(finite[np.argmin(finite):]), name
        qvals = np.array([env.Q(t) for t in ts])
        assert np.all(np.diff(qvals) >= -1e-12)


def test_envelope_blowup_reported_as_inf():
    # g(r) = r^2 with 1/g integrable: finite-time blow-up must yield inf.
    # G == 0, c_f = 0 leave C1 = 0, C2 = F = 1, so r' = r^2: blow-up at t = 1.
    s = make_scenario(G=0.0, branch=Branch.V_DECAYS,
                      decay_g=lambda r: np.asarray(r, dtype=float) ** 2)
    S = dg.envelope_S(s, 1.0, 5.0, q0=1.0)
    R = dg.envelope_R(s, 1.0, 5.0, q0=1.0, S_curve=S)
    assert np.isfinite(R(0.9))
    assert R(4.9) == np.inf
    assert R.blowup_time is not None


# --------------------------------------------------------------- check_bounds

def test_check_bounds_stationary_margins_constant():
    s = zero_field_scenario()
    p0 = quantile_init(InitialDensity.from_blocks([(-1.0, 1.0, 0.5)]), 10)
    traj = integrate(p0, s, SolverConfig(t_end=1.0))
    env = dg.compute_envelopes(s, p0, 1.0)
    report = dg.check_bounds(traj, env, s)
    assert report.ok
    by_check = {}
    for r in report.records:
        by_check.setdefault(r.check, []).append(r.margin)
    for check, margins in by_check.items():
        if np.all(np.isfinite(margins)):
            assert np.allclose(margins, margins[0], atol=1e-12), check


def test_check_bounds_growth_saturates_mass():
    traj = catalog_run("growth_transport", 40)
    s = builtin_catalog("growth_transport")
    env = dg.compute_envelopes(s, traj.snapshots[0], 1.0)
    report = dg.check_bounds(traj, env, s)
    assert report.ok
    uppers = [r for r in report.records if r.check == "mass_upper"]
    # f = rho saturates the bound: margin stays at integrator-tolerance level
    assert max(abs(r.margin) / max(r.bound, 1.0) for r in uppers) < 1e-6


def test_check_bounds_attractive():
    traj = catalog_run("attractive_congested", 100)
    s = builtin_catalog("attractive_congested")
    env = dg.compute_envelopes(s, traj.snapshots[0], 1.0)
    assert dg.check_bounds(traj, env, s).ok


def test_check_bounds_decay_saturates_lower_mass():
    # f = -rho drains mass at exactly the admissible rate: q(t) = q0 / Q(t)
    src = Source(f=lambda t, x, rho: -rho, c_f=1.0, drho_f_bound=const(1.0))
    s = make_scenario(source=src, name="decay")
    p0 = quantile_init(InitialDensity.from_blocks([(-1.0, 1.0, 0.5)]), 20)
    traj = integrate(p0, s, SolverConfig(t_end=1.0))
    env = dg.compute_envelopes(s, p0, 1.0)
    report = dg.check_bounds(traj, env, s)
    assert report.ok
    lowers = [r for r in report.records if r.check == "mass_lower"]
    assert max(abs(r.margin) / max(abs(r.bound), 1e-9) for r in lowers) < 1e-6


def test_check_bounds_flags_violation():
    # shrink the density envelope artificially; the report must flag it
    traj = catalog_run("attractive_congested", 100)
    s = builtin_catalog("attractive_congested")
    env = dg.compute_envelopes(s, traj.snapshots[0], 1.0)
    broken = dg.EnvelopeCurves(Q=env.Q, S=env.S, R=lambda t: 0.5 * env.R0, B=None,
                               q0=env.q0, S0=env.S0, R0=env.R0, B0=env.B0)
    report = dg.check_bounds(traj, broken, s)
    assert not report.ok
    assert any(not r.ok and r.check == "density_max" for r in report.records)


# ------------------------------------------------------------ entropy residual

def test_entropy_stationary_zero():
    # every term is the time derivative of 0; the equispaced trapezoid is
    # spectrally accurate on the bump factors, reaching 1e-8 at 513 snapshots
    s = zero_field_scenario()
    p0 = quantile_init(InitialDensity.from_blocks([(-1.0, 1.0, 0.5)]), 12)
    traj = integrate(p0, s, SolverConfig(
        t_end=1.0, snapshot_times=np.linspace(0, 1, 513)))
    rep = dg.entropy_residual(traj, s)
    for value in rep.residuals.values():
        assert abs(value) <= 1e-8
    assert rep.res_neg <= 1e-8


def test_entropy_requires_dense_snapshots():
    traj = catalog_run("attractive_congested", 30, t_end=0.5, k_snapshots=6)
    with pytest.raises(ValueError):
        dg.entropy_residual(traj, builtin_catalog("attractive_congested"))


def test_entropy_support_check():
    traj = catalog_run("attractive_congested", 30, t_end=0.5, k_snapshots=65)
    bad_phi = dg.TestFunction(t0=0.4, tau=0.3, x0=0.0, ell=0.5)  # spills past T
    with pytest.raises(ValueError):
        dg.entropy_residual(traj, builtin_catalog("attractive_congested"),
                            phis=[bad_phi], cs=[0.0])


def test_entropy_rejects_empty_grids_and_non_finite_constants():
    s = builtin_catalog("transport")
    traj = catalog_run("transport", 20, t_end=0.2, k_snapshots=65)
    for phis, cs in (([], None), (None, []), (None, [float("nan"), 0.5]), (None, [np.inf])):
        with pytest.raises(ValueError):
            dg.entropy_residual(traj, s, phis=phis, cs=cs)


@pytest.mark.parametrize("cs", [[0.5, 0.25, 0.5], [0.0, -0.0]])
def test_entropy_rejects_repeated_constants(cs):
    # a repeated constant was one key of the residuals, so a grid of three
    # constants reported two residuals per test function
    traj = catalog_run("transport", 20, t_end=0.2, k_snapshots=65)
    with pytest.raises(ValueError, match="entropy constants must be distinct"):
        dg.entropy_residual(traj, builtin_catalog("transport"), cs=cs)


@pytest.mark.parametrize("tau, ell", [(0.3, 0.0), (0.3, -0.2), (0.0, 0.5), (-0.3, 0.5),
                                      (0.3, np.inf), (np.nan, 0.5)],
                         ids=["ell-0", "ell-negative", "tau-0", "tau-negative", "ell-inf",
                              "tau-nan"])
def test_entropy_rejects_degenerate_test_functions(tau, ell):
    # a zero or negative width gave res_neg = 0 (vacuous), NaN with
    # RuntimeWarnings, or the residual of a time-reversed bump
    traj = catalog_run("attractive_congested", 50, t_end=1.0, k_snapshots=65)
    phi = dg.TestFunction(t0=0.5, tau=tau, x0=0.0, ell=ell)
    with pytest.raises(ValueError, match="widths must be finite and positive"):
        dg.entropy_residual(traj, builtin_catalog("attractive_congested"), phis=[phi], cs=[0.5])


def test_entropy_non_finite_residual_gives_nan():
    # min() and max() over residuals holding a NaN can return any finite one,
    # or 0 for res_neg, hiding the failed ones
    s = builtin_catalog("transport")
    traj = catalog_run("transport", 20, t_end=0.2, k_snapshots=65)
    nan_right = Source(f=lambda t, x, rho: np.where(x > 0.0, np.nan, 0.0 * rho),
                       c_f=1.0, drho_f_bound=const(0.0))
    rep = dg.entropy_residual(traj, dataclasses.replace(s, source=nan_right))
    assert any(np.isnan(list(rep.residuals.values())))
    assert np.isnan(rep.res_neg)


def test_entropy_large_c_identity():
    # for c above the density range with m(c) = 0, E(phi, c) = -E(phi, 0)
    # up to the time-quadrature floor
    s = builtin_catalog("attractive_congested")
    traj = catalog_run("attractive_congested", 60, t_end=0.5, k_snapshots=257)
    phis = dg.default_phi_grid(traj)[:6]
    rep = dg.entropy_residual(traj, s, phis=phis, cs=[0.0, 5.0])
    for j in range(len(phis)):
        assert rep.residuals[(j, 0.0)] + rep.residuals[(j, 5.0)] == pytest.approx(0.0, abs=1e-6)


def test_entropy_residual_shrinks_with_n():
    s = builtin_catalog("attractive_congested")
    r100 = dg.entropy_residual(catalog_run("attractive_congested", 100, k_snapshots=385), s)
    r200 = dg.entropy_residual(catalog_run("attractive_congested", 200, k_snapshots=385), s)
    assert r200.res_neg <= 0.6 * r100.res_neg + 1e-6
    # at c = 0 the residual is the weak-form pairing; it must shrink too
    e100 = max(abs(v) for (_, c), v in r100.residuals.items() if c == 0.0)
    e200 = max(abs(v) for (_, c), v in r200.residuals.items() if c == 0.0)
    assert e200 <= 0.7 * e100 + 1e-6


def _linspace_nodes(p, x_lo, x_hi, w_max):
    """Gauss nodes and weights from per-gap ``np.linspace`` panels no wider
    than min(w_max, CELL_CAP), 4 nodes on every panel."""
    pts = np.unique(np.asarray([x_lo, x_hi] + [x for x in p.x if x_lo < x < x_hi]))
    cap = min(w_max, dynamics.CELL_CAP)
    g, w = np.polynomial.legendre.leggauss(4)
    nodes, weights = [], []
    for a, b in zip(pts[:-1], pts[1:]):
        edges = np.linspace(a, b, max(1, int(np.ceil((b - a) / cap))) + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            nodes.append(mid + half * g)
            weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _loop_entropy_residual(traj, s, phis, cs):
    """Reference: one integrand per (phi, c) pair and snapshot."""
    x_lo = min(tf.x_support[0] for tf in phis)
    x_hi = max(tf.x_support[1] for tf in phis)
    w_max = min(tf.ell for tf in phis) / 32.0
    out = {}
    for j, tf in enumerate(phis):
        for c in cs:
            series = []
            for p in traj.snapshots:
                nodes, wts = _linspace_nodes(p, x_lo, x_hi, w_max)
                rho = p.q / np.diff(p.x)
                idx = np.searchsorted(p.x, nodes, side="right") - 1
                inside = (idx >= 0) & (idx < rho.size)
                rho_at = np.where(inside, rho[np.clip(idx, 0, rho.size - 1)], 0.0)
                U = u_field_arrays(p.t, p.x, rho, s, nodes)
                dxU = dxU_field_arrays(p.t, p.x, rho, s, nodes, rho_at)
                f = np.asarray(s.source.f(p.t, nodes, rho_at), dtype=float)
                mrho = rho_at * np.asarray(s.congestion.v(rho_at), dtype=float)
                mc = c * float(s.congestion.v(c))
                phi = tf.phi(p.t, nodes)
                integrand = (
                    np.abs(rho_at - c) * tf.dt_phi(p.t, nodes)
                    + np.sign(rho_at - c) * ((mrho - mc) * U * tf.dx_phi(p.t, nodes)
                                             - mc * dxU * phi + f * phi)
                )
                series.append(float(wts @ integrand))
            out[(j, float(c))] = float(np.trapezoid(series, traj.times))
    return out


@pytest.mark.parametrize("name", ["attractive_congested", "repulsive_source"])
def test_entropy_matches_loop_oracle(name):
    s = builtin_catalog(name)
    traj = catalog_run(name, 24, t_end=0.5, k_snapshots=65)
    xs = traj.snapshots[0].x
    # the default bumps plus one reaching far past every node on both sides
    phis = dg.default_phi_grid(traj, n_time=2, n_space=2) + [
        dg.TestFunction(t0=0.25, tau=0.2, x0=float(xs[-1]), ell=2.0 * float(xs[-1] - xs[0])),
    ]
    # 0.0 and a cell height of the initial state: the sign vanishes there
    cs = [0.0, float(traj.snapshots[0].heights[5]), 0.3]
    rep = dg.entropy_residual(traj, s, phis=phis, cs=cs)
    ref = _loop_entropy_residual(traj, s, phis, cs)
    assert list(rep.residuals) == list(ref)
    for key, value in ref.items():
        assert rep.residuals[key] == pytest.approx(value, rel=0, abs=1e-14)
    assert rep.res_neg == max(0.0, -min(rep.residuals.values()))


def test_quadrature_nodes_match_linspace_panels():
    traj = catalog_run("attractive_congested", 24, t_end=0.5, k_snapshots=65)
    s = builtin_catalog("attractive_congested")
    for p in traj.snapshots[::16]:
        for x_lo, x_hi, w_max in ((-1.3, 1.1, 0.037), (-0.2, 0.3, 0.011), (-3.0, 3.0, 5.0)):
            nodes, wts = _snapshot_quadrature(p, s, x_lo, x_hi, w_max)[:2]
            ref_nodes, ref_wts = _linspace_nodes(p, x_lo, x_hi, w_max)
            assert np.array_equal(nodes, ref_nodes)
            assert np.array_equal(wts, ref_wts)


@pytest.mark.parametrize("name", ["attractive_congested", "repulsive_source"])
def test_entropy_residual_close_to_a_16_node_reference(name, monkeypatch):
    # the reference takes 16 Gauss nodes on each of the same panels, a
    # quarter as wide as the 8-node panels of an earlier rule, which erred by
    # more than 2e-8 here
    traj = catalog_run(name, 200, k_snapshots=385)
    s = builtin_catalog(name)
    got = dg.entropy_residual(traj, s).residuals
    g16, w16 = np.polynomial.legendre.leggauss(16)
    monkeypatch.setattr(dynamics, "GL4_NODES", g16)
    monkeypatch.setattr(dynamics, "GL4_WEIGHTS", w16)
    ref = dg.entropy_residual(traj, s).residuals
    assert list(got) == list(ref)
    assert max(abs(got[key] - value) for key, value in ref.items()) <= 2e-9


def test_wide_domain_audit_close_to_a_16_node_reference(monkeypatch):
    # min(ell)/32 = 0.213 exceeds CELL_CAP here, so the audit's panels are
    # capped at CELL_CAP; the former rule took 8 nodes on 0.213-wide panels
    # and erred by 5.8e-10, these panels by 1.7e-10
    traj = catalog_run("repulsive_source", 200, t_end=4.0, k_snapshots=257)
    s = builtin_catalog("repulsive_source")
    assert min(tf.ell for tf in dg.default_phi_grid(traj)) / 32 > dynamics.CELL_CAP
    got = dg.entropy_residual(traj, s).residuals
    g16, w16 = np.polynomial.legendre.leggauss(16)
    monkeypatch.setattr(dynamics, "GL4_NODES", g16)
    monkeypatch.setattr(dynamics, "GL4_WEIGHTS", w16)
    monkeypatch.setattr(dynamics, "CELL_CAP", dynamics.CELL_CAP / 4)
    ref = dg.entropy_residual(traj, s).residuals
    assert list(got) == list(ref)
    assert max(abs(got[key] - value) for key, value in ref.items()) <= 3e-10


@pytest.mark.parametrize("potential", [None, quadratic_potential()])
def test_quadrature_cells_match_node_search(potential):
    # one search per gap spread to its nodes gives the bits of a search per node
    traj = catalog_run("attractive_congested", 24, t_end=0.5, k_snapshots=65)
    s = builtin_catalog("attractive_congested")
    if potential is not None:
        s = dataclasses.replace(s, potential=potential)
    for p in traj.snapshots[::16]:
        rho = p.q / np.diff(p.x)
        for x_lo, x_hi, w_max in ((-1.3, 1.1, 0.037), (float(p.x[3]), float(p.x[-5]), 0.011),
                                  (float(p.x[0]), float(p.x[-1]), 0.02), (-3.0, 3.0, 5.0)):
            nodes, _, rho_at, U = _snapshot_quadrature(p, s, x_lo, x_hi, w_max)[:4]
            idx = np.searchsorted(p.x, nodes, side="right") - 1
            inside = (idx >= 0) & (idx < rho.size)
            assert np.array_equal(rho_at, np.where(inside, rho[np.clip(idx, 0, rho.size - 1)], 0.0))
            assert np.array_equal(U, u_field_arrays(p.t, p.x, rho, s, nodes))


# --------------------------------------------------------------- equicontinuity

def test_equicontinuity_stationary_zero():
    s = zero_field_scenario()
    p0 = quantile_init(InitialDensity.from_blocks([(-1.0, 1.0, 0.5)]), 10)
    traj = integrate(p0, s, SolverConfig(t_end=1.0, snapshot_times=np.linspace(0, 1, 9)))
    for _, m in dg.equicontinuity_modulus(traj, 1.0 / 8):
        assert m <= 1e-14


def test_equicontinuity_transport_rigid():
    traj = catalog_run("transport", 50, k_snapshots=17)
    mods = dg.equicontinuity_modulus(traj, 1.0 / 16)
    for _, m in mods:
        assert m == pytest.approx(1.0 / 16, rel=1e-7)  # mass 1 moving at speed 1


def test_equicontinuity_growth_formula():
    traj = catalog_run("growth_transport", 80, k_snapshots=17)
    h = 1.0 / 16
    for t, m in dg.equicontinuity_modulus(traj, h):
        expected = np.exp(t) * h + (np.exp(t + h) - np.exp(t))
        assert m == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("name", ["repulsive_source", "attractive_congested"])
def test_equicontinuity_equals_the_two_distances(name):
    # the L1 term is summed over p1.x, the partition both of its densities
    # share, and keeps the bits of the general distance call; the W1 term is
    # the closed form, which the merged-CDF integral matches to rounding
    traj = catalog_run(name, 80, k_snapshots=17)
    want = []
    for p0, p1 in zip(traj.snapshots[:-1], traj.snapshots[1:]):
        pushed = pushforward_affine(p0, p1)
        w1 = dg.transport_w1(p0, p1)
        assert w1 == pytest.approx(w1_distance(to_density(p0), pushed), rel=1e-12)
        want.append((float(p0.t), float(w1 + l1_distance(pushed, to_density(p1)))))
    assert dg.equicontinuity_modulus(traj, 1.0 / 16) == want


def _exact_w1_merged_cdf(x0, x1, q):
    """W1 between the step densities of masses ``q`` on ``x0`` and on ``x1``:
    the integral of |F0 - F1| over the merged breakpoints, in rationals."""
    cum = [Fraction(0)]
    for qi in q:
        cum.append(cum[-1] + qi)

    def F(x, y):
        if y <= x[0]:
            return Fraction(0)
        if y >= x[-1]:
            return cum[-1]
        i = max(k for k in range(len(x) - 1) if x[k] <= y)
        return cum[i] + q[i] * (y - x[i]) / (x[i + 1] - x[i])

    pts = sorted(set(x0) | set(x1))
    total = Fraction(0)
    for lo, hi in zip(pts[:-1], pts[1:]):
        u, v = F(x0, lo) - F(x1, lo), F(x0, hi) - F(x1, hi)
        if u * v >= 0:
            total += (hi - lo) * (abs(u) + abs(v)) / 2
        else:  # |F0 - F1| is linear on the segment and crosses 0 inside it
            total += (hi - lo) * (u * u + v * v) / (2 * (abs(u) + abs(v)))
    return total


def _exact_closed_form(x0, x1, q):
    total = Fraction(0)
    for i, qi in enumerate(q):
        a, b = x1[i] - x0[i], x1[i + 1] - x0[i + 1]
        if a * b >= 0:
            total += qi * (abs(a) + abs(b)) / 2
        else:
            total += qi * (a * a + b * b) / (2 * (abs(a) + abs(b)))
    return total


def test_transport_w1_closed_form_in_exact_rationals(rng):
    # the closed form is the merged-CDF integral exactly, also on cells whose
    # end displacements differ in sign; the floats agree with it to rounding
    crossings = 0
    for trial in range(60):
        n = int(rng.integers(1, 6))
        p0 = random_particles(rng, n)
        delta = 0.45 * float(np.min(np.diff(p0.x)))  # keeps the order
        shift = rng.uniform(-delta, delta, n + 1) if trial % 4 else np.zeros(n + 1)
        if trial % 4 == 3:
            shift += rng.uniform(-1.0, 1.0)
        p1 = ParticleSystem(0.0, p0.x + shift, p0.q)
        d = p1.x - p0.x
        crossings += int(np.sum(d[:-1] * d[1:] < 0))
        x0, x1, q = ([Fraction(float(v)) for v in a] for a in (p0.x, p1.x, p0.q))
        exact = _exact_w1_merged_cdf(x0, x1, q)
        assert _exact_closed_form(x0, x1, q) == exact
        assert dg.transport_w1(p0, p1) == pytest.approx(float(exact), rel=1e-14, abs=1e-300)
    assert crossings > 20


@st.composite
def _state_pairs(draw):
    n = draw(st.integers(1, 30))
    xs = [draw(st.floats(-3.0, 3.0)) + np.cumsum(
        [0.0] + draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))) for _ in range(2)]
    q = np.array(draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n)))
    return ParticleSystem(0.0, xs[0], q), ParticleSystem(0.0, xs[1], q)


@settings(max_examples=200, deadline=None)
@given(pair=_state_pairs())
def test_transport_w1_matches_the_general_distance(pair):
    # the merged-CDF form cancels CDFs of the size of the mass, so it holds
    # 1e-12 relative only where W1 is not far below mass * span
    p0, p1 = pair
    want = w1_distance(to_density(p0), pushforward_affine(p0, p1))
    assume(want > 1e-3 * p0.total_mass() * (max(p0.x[-1], p1.x[-1]) - min(p0.x[0], p1.x[0])))
    assert dg.transport_w1(p0, p1) == pytest.approx(want, rel=1e-12)


def test_equicontinuity_h_mismatch():
    traj = catalog_run("transport", 50, k_snapshots=17)
    with pytest.raises(ValueError):
        dg.equicontinuity_modulus(traj, 0.2)


# ------------------------------------------------------------------ good-v

def test_good_v_catalog_run_clean():
    traj = catalog_run("attractive_congested", 50, t_end=0.5, k_snapshots=6,
                       store_steps=True)
    assert dg.good_v_audit(traj, builtin_catalog("attractive_congested")) == []


def test_good_v_wrong_upwinding_detected():
    # rho = (0.2, 0.8), U > 0, upstream congestion forced: violates the
    # constant-family inequality for c between the two levels, worst as c
    # tends to the bracketing height 0.8
    s = builtin_catalog("attractive_congested")
    p = ParticleSystem(0.0, [0.0, 1.0, 2.0], [0.2, 0.8])
    U = np.array([1.0, 1.0, 1.0])
    rho_ext = np.array([0.0, 0.2, 0.8, 0.0])
    wrong_v = s.congestion.v(rho_ext[:-1])  # upstream instead of downstream
    out = dg.good_v_violations_state(0.0, p.x, p.q, U, wrong_v, s.congestion.v)
    assert len(out) >= 1
    assert any(v.family == "constant" and v.index == 1 and v.c == 0.8 for v in out)


def test_good_v_flags_a_constant_between_grid_points():
    # heights (1.0, 0.3, 0.35), U = 1, upstream v(0.3) at particle 2: the
    # constant family fails for every c in (0.3, 0.35), which no fixed
    # fraction of the largest height reaches; the worst c tends to 0.35
    s = builtin_catalog("attractive_congested")
    p = ParticleSystem(0.0, [0.0, 1.0, 2.0, 3.0], [1.0, 0.3, 0.35])
    U = np.ones(4)
    v_sel = upwind_arrays(p.heights, s, U)
    v_sel[2] = float(s.congestion.v(0.3))
    out = dg.good_v_violations_state(0.0, p.x, p.q, U, v_sel, s.congestion.v)
    assert [(v.family, v.index, v.c, v.rhs) for v in out] == [("constant", 2, 0.35, 0.0)]
    assert out[0].lhs == pytest.approx(0.1, abs=1e-12)


def test_good_v_constant_density_clean():
    s = builtin_catalog("attractive_congested")
    p = ParticleSystem(0.0, [0.0, 1.0, 2.0, 3.0], [0.4, 0.4, 0.4])
    U = u_field_arrays(p.t, p.x, p.heights, s)
    v_sel = upwind_arrays(p.heights, s, U)
    out = dg.good_v_violations_state(0.0, p.x, p.q, U, v_sel, s.congestion.v)
    assert out == []
