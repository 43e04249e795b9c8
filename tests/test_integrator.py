import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbal import (SolverConfig, builtin_catalog, builtin_initial, integrate, integrator,
                  quantile_init)
from pbal.density import ParticleSystem
from pbal.initial import InitialDensity
from pbal.dynamics import StageFailure, rhs_arrays
from pbal.errors import CollisionExtinctionError
from pbal.integrator import solve_scalar_ode, step_guard
from pbal.scenario import Branch, Source

from conftest import const, make_scenario, zero_field_scenario


def test_transport_exact_translation():
    s = builtin_catalog("transport")
    p0 = quantile_init(InitialDensity.from_blocks([(0.0, 1.0, 1.0)]), 4)
    traj = integrate(p0, s, SolverConfig(t_end=1.0))
    final = traj.snapshots[-1]
    assert np.allclose(final.x, p0.x + 1.0, atol=1e-12)
    assert np.allclose(final.q, p0.q, rtol=1e-14)


def test_growth_transport_exact_exponential():
    s = builtin_catalog("growth_transport")
    p0 = quantile_init(builtin_initial("growth_transport"), 16)
    traj = integrate(p0, s, SolverConfig(t_end=1.0))
    final = traj.snapshots[-1]
    assert np.allclose(final.x, p0.x + 1.0, atol=1e-7)
    assert np.allclose(final.q, p0.q * np.e, rtol=1e-7)


def test_zero_field_constant():
    s = zero_field_scenario()
    p0 = quantile_init(InitialDensity.from_blocks([(-1.0, 1.0, 0.5)]), 8)
    traj = integrate(p0, s, SolverConfig(t_end=1.0))
    for p in traj.snapshots:
        assert np.allclose(p.x, p0.x, atol=1e-15)
        assert np.allclose(p.q, p0.q, atol=1e-15)


# ---------------------------------------------------------------- step guard

def test_guard_accepts_unchanged():
    p = ParticleSystem(0.0, [0.0, 0.5, 1.0], [0.5, 0.5])
    ok, _, index = step_guard(p.x.copy())
    assert ok and index is None


def test_guard_rejects_swap():
    ok, reason, index = step_guard(np.array([0.5, 0.0, 1.0]))
    assert not ok and "ordering" in reason and index == 0


def test_guard_reads_the_candidates_own_gaps(monkeypatch):
    # the guard reuses the gaps of the FSAL stage, which evaluates the candidate
    seen = []

    def recording(x_next, gaps=None):
        seen.append(gaps is not None and np.array_equal(gaps, np.diff(x_next)))
        return step_guard(x_next, gaps)

    monkeypatch.setattr(integrator, "step_guard", recording)
    p0 = quantile_init(builtin_initial("attractive_congested"), 40)
    traj = integrate(p0, builtin_catalog("attractive_congested"), SolverConfig(t_end=0.3))
    assert len(seen) >= traj.step_stats.accepted > 0 and all(seen)


def test_guard_rejects_negative_mass():
    # a candidate state with a non-positive cell mass is rejected by its FSAL
    # stage evaluation, which carries the index, before the guard runs
    s = builtin_catalog("attractive_congested")
    with pytest.raises(StageFailure, match="mass") as exc:
        rhs_arrays(0.0, np.array([0.0, 0.5, 1.0]), np.array([0.5, -1e-9]), s)
    assert exc.value.index == 1


# ----------------------------------------------------------------- invariants

def test_mass_conserved_without_source():
    s = builtin_catalog("attractive_congested")
    p0 = quantile_init(builtin_initial("attractive_congested"), 50)
    traj = integrate(p0, s, SolverConfig(t_end=0.5))
    m0 = p0.total_mass()
    for p in traj.snapshots:
        assert p.total_mass() == pytest.approx(m0, rel=1e-12)


def test_mass_exponential_growth_to_t2():
    s = builtin_catalog("growth_transport")
    p0 = quantile_init(builtin_initial("growth_transport"), 32)
    cfg = SolverConfig(t_end=2.0, rel_tol=1e-8, abs_tol=1e-8)
    traj = integrate(p0, s, cfg)
    m0 = p0.total_mass()
    for p in traj.snapshots:
        assert p.total_mass() == pytest.approx(m0 * np.exp(p.t), rel=10 * cfg.rel_tol)


def test_transport_error_is_tolerance_independent_zero():
    # constant RHS: every tolerance yields the exact translation, so the
    # halving property is vacuous on pure transport
    s = builtin_catalog("transport")
    p0 = quantile_init(builtin_initial("transport"), 16)
    for tol in (1e-6, 1e-8):
        traj = integrate(p0, s, SolverConfig(t_end=1.0, rel_tol=tol, abs_tol=tol))
        assert np.allclose(traj.snapshots[-1].x, p0.x + 1.0, atol=1e-12)


def test_controller_convergence_linear_field():
    # controller convergence is exercised on V = x (x(t) = x0 e^t): halving
    # the tolerances reduces the terminal error ~2x (observed 1.8-2.1 per
    # halving; step quantization makes single halvings noisy)
    s = make_scenario(V=lambda t, x: np.asarray(x, dtype=float),
                      dxV=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
                      G=lambda r: 1 + np.asarray(r, dtype=float),
                      lam=lambda r: 1 + np.asarray(r, dtype=float))
    p0 = quantile_init(InitialDensity.from_blocks([(1.0, 2.0, 1.0)]), 8)
    tols = (1e-5, 5e-6, 2.5e-6, 1.25e-6)
    errs = []
    for tol in tols:
        traj = integrate(p0, s, SolverConfig(t_end=1.0, rel_tol=tol, abs_tol=tol,
                                             max_step=1.0,
                                             snapshot_times=np.array([0.0, 1.0])))
        errs.append(float(np.max(np.abs(traj.snapshots[-1].x - p0.x * np.e))))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(r >= 1.4 for r in ratios), ratios
    assert np.prod(ratios) ** (1 / len(ratios)) >= 1.75  # mean halving factor
    assert errs[0] / errs[-1] >= 5.0  # 8x tolerance span


def test_time_reversal():
    fwd = builtin_catalog("transport")
    bwd = make_scenario(V=lambda t, x: -np.ones_like(np.asarray(x, dtype=float)))
    p0 = quantile_init(builtin_initial("transport"), 16)
    cfg = SolverConfig(t_end=1.0)
    mid = integrate(p0, fwd, cfg).snapshots[-1]
    back = integrate(ParticleSystem(0.0, mid.x, mid.q), bwd, cfg).snapshots[-1]
    assert np.allclose(back.x, p0.x, atol=100 * cfg.rel_tol)


# Two adjacent plateaus, the lower one left: under the repulsive kernel the
# zero of U_i moves through the particles, so upwind branches flip inside steps.
_ASYMMETRIC_PROFILE = [(-0.8464751258527171, 0.0), (-0.8264751258527171, 0.499718321142711),
                       (0.22896744334763375, 0.499718321142711),
                       (0.24896744334763374, 0.8023956905706218),
                       (0.8054681028973294, 0.8023956905706218), (0.8254681028973294, 0.0)]


def test_upwind_switches_cost_no_extra_steps():
    # dx_i/dt = v_sel,i * U_i is 0 on both branches where U_i changes sign, so
    # the error control alone resolves a switch: asymmetric data costs about
    # what the symmetric catalog data does, and stays accurate
    s = builtin_catalog("repulsive_source")
    sym = integrate(quantile_init(builtin_initial("repulsive_source"), 400), s,
                    SolverConfig(t_end=1.0))
    p0 = quantile_init(InitialDensity.from_samples(*np.array(_ASYMMETRIC_PROFILE).T), 400)
    traj = integrate(p0, s, SolverConfig(t_end=1.0))
    ref = integrate(p0, s, SolverConfig(t_end=1.0, rel_tol=1e-12, abs_tol=1e-12, max_step=1e-2))
    err = max(np.max(np.abs(a.x - b.x)) for a, b in zip(traj.snapshots, ref.snapshots))
    assert err <= 1e-6
    assert traj.step_stats.rhs_evals <= 1.5 * sym.step_stats.rhs_evals, traj.step_stats


def test_collision_raises_with_location():
    # attractive kink potential with v == 1 circumvents the no-collapse
    # protection: inner gaps close linearly, colliding at t = 0.5
    s = make_scenario(potential=builtin_catalog("attractive_congested").potential, F=2.0,
                      branch=Branch.V_DECAYS, name="colliding")
    p0 = quantile_init(InitialDensity.from_blocks([(-0.5, 0.5, 1.0)]), 4)
    with pytest.raises(CollisionExtinctionError) as exc:
        integrate(p0, s, SolverConfig(t_end=1.0))
    assert 0.4 <= exc.value.t <= 0.6


def test_mass_extinction_raises_with_index():
    # constant drain f = -1 on a static state: cell i empties at t = rho_i,
    # so the lightest cell, index 2, goes extinct first, at t = 0.3
    drain = Source(f=lambda t, x, rho: -1.0 + 0.0 * x, c_f=1.0, drho_f_bound=const(0.0))
    s = make_scenario(source=drain, name="draining")
    p0 = ParticleSystem(0.0, [0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 0.3, 1.0])
    with pytest.raises(CollisionExtinctionError) as exc:
        integrate(p0, s, SolverConfig(t_end=1.0))
    assert exc.value.index == 2
    assert exc.value.t == pytest.approx(0.3, abs=1e-6)


def test_snapshots_exact_times_and_valid():
    s = builtin_catalog("repulsive_source")
    p0 = quantile_init(builtin_initial("repulsive_source"), 20)
    times = np.array([0.0, 0.13, 0.5, 0.77, 1.0])
    traj = integrate(p0, s, SolverConfig(t_end=1.0, snapshot_times=times))
    assert np.array_equal(traj.times, times)
    for p in traj.snapshots:
        assert np.all(np.diff(p.x) > 0) and np.all(p.q > 0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, max_step=1e-3, min_step=1e-2).resolved()
    with pytest.raises(ValueError):
        SolverConfig(t_end=-1.0).resolved()
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, snapshot_times=np.array([0.0, 2.0])).resolved()


@pytest.mark.parametrize("name, value", [
    ("t_end", np.inf), ("t_end", np.nan), ("rel_tol", np.inf), ("abs_tol", np.inf),
    ("rel_tol", np.nan), ("abs_tol", 0.0),
    ("min_step", 0.0), ("min_step", -1.0), ("min_step", np.nan), ("min_step", np.inf),
])
def test_config_rejects_non_finite_time_and_tolerances(name, value):
    # an infinite tolerance turned error control off, and an infinite t_end
    # failed later on min_step < max_step with a RuntimeWarning first; a step
    # floor of 0 or below is never reached, so a collision halved forever
    cfg = SolverConfig(**{"t_end": 1.0, name: value}, snapshot_times=np.array([0.0]))
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got {value}$"):
        cfg.resolved()


@pytest.mark.parametrize("times", [[0.0, np.nan], [np.nan], [0.0, np.inf], [-np.inf, 0.5]])
def test_config_rejects_non_finite_snapshot_times(times):
    # a NaN stop sorts last and passed the range check, then was never reached
    cfg = SolverConfig(t_end=1.0, snapshot_times=np.array(times))
    with pytest.raises(ValueError, match="^snapshot_times must be finite$"):
        cfg.resolved()


@pytest.mark.parametrize("setup, cfg", [
    ("catalog", SolverConfig(t_end=0.1, snapshot_times=np.array([0.0, np.nan]))),
    ("colliding", SolverConfig(t_end=1.0, min_step=0.0)),
    ("colliding", SolverConfig(t_end=1.0, min_step=-1.0)),
])
def test_integrate_rejects_configs_that_never_stop(setup, cfg):
    # each ran integrate without end: the NaN stop is never reached, and the
    # colliding run of test_collision_raises_with_location never reaches its
    # step floor, so it halves forever instead of raising
    if setup == "catalog":
        s = builtin_catalog("attractive_congested")
        p0 = quantile_init(builtin_initial("attractive_congested"), 50)
    else:
        s = make_scenario(potential=builtin_catalog("attractive_congested").potential, F=2.0,
                          branch=Branch.V_DECAYS, name="colliding")
        p0 = quantile_init(InitialDensity.from_blocks([(-0.5, 0.5, 1.0)]), 4)
    with pytest.raises(ValueError):
        integrate(p0, s, cfg)


# ------------------------------------------------- the step's arithmetic

@pytest.mark.parametrize("shape", [(3,), (401,), (6401,), ()],
                         ids=["N1", "N200", "N3200", "scalar"])
def test_stage_sums_bitwise_equal_the_tableau_expressions(shape, rng):
    # the workspace forms y + h * (k[:i].T @ A_i) and h * (k.T @ E) with the
    # same float operations as the expressions themselves
    for trial in range(20):
        k = rng.normal(size=(7,) + shape) * 10.0 ** rng.uniform(-3, 3, size=(7,) + shape)
        y = np.asarray(rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3))
        h = float(10.0 ** rng.uniform(-6, 0))
        out = np.full(shape, np.nan)
        for i in range(1, 7):
            want = y + h * (k[:i].T @ integrator._A[i])
            got = integrator._stage_sum(k, integrator._A[i], h, out, y)
            assert got is out
            assert got.tobytes() == np.asarray(want).tobytes(), (shape, i)
        want = h * (k.T @ integrator._E)
        assert integrator._stage_sum(k, integrator._E, h, out).tobytes() == \
            np.asarray(want).tobytes(), shape


@pytest.mark.parametrize("size", [3, 401, 6401])
def test_error_norm_bitwise_equals_its_expression(size, rng):
    # size = 2N + 1 components (x, q); without a source the state is the
    # N + 1 positions and the masses' ratios, exactly 0, are only counted
    for length in (size, (size + 1) // 2):
        for abs_tol, rel_tol in ((1e-8, 1e-8), (1e-4, 1e-6), (1e-12, 0.3), (2, 1)):
            norm = integrator._error_norm(abs_tol, rel_tol, length, size)
            for trial in range(10):
                y, y5 = rng.normal(size=(2, length)) * 10.0 ** rng.uniform(-4, 4, size=(2, length))
                e = rng.normal(size=length) * 10.0 ** rng.uniform(-12, 0)
                scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
                want = float(np.sqrt(np.sum((e / scale) ** 2) / size))
                assert norm(y, y5, e) == want
                if length == size:  # the RMS over the whole state, as np.mean forms it
                    assert norm(y, y5, e) == float(np.sqrt(np.mean((e / scale) ** 2)))


_two_blocks = st.tuples(
    st.floats(-1.0, 0.0),   # left end
    st.floats(0.2, 0.8),    # left width
    st.floats(0.0, 0.4),    # vacuum between the blocks
    st.floats(0.2, 0.8),    # right width
    st.floats(0.1, 0.95),   # left height
    st.floats(0.1, 0.95),   # right height
)


def _two_block_state(blocks, n):
    a, w1, gap, w2, h1, h2 = blocks
    b = a + w1 + gap
    return quantile_init(InitialDensity.from_blocks([(a, a + w1, h1), (b, b + w2, h2)]), n)


@settings(max_examples=20, deadline=None)
@given(blocks=_two_blocks, n=st.integers(2, 40))
def test_masses_bitwise_fixed_without_source(blocks, n):
    # c_f = 0 makes every stage's qdot exactly 0.0, so q + h * 0.0 keeps its bits
    p0 = _two_block_state(blocks, n)
    cfg = SolverConfig(t_end=0.3, snapshot_times=np.linspace(0.0, 0.3, 4), store_steps=True)
    traj = integrate(p0, builtin_catalog("attractive_congested"), cfg)
    for p in traj.steps + traj.snapshots:
        assert np.array_equal(p.q, p0.q)


def test_source_free_run_tracks_a_tight_reference():
    # without a source only the positions are unknowns; the run stays as
    # close to a tol-1e-12, max_step-limited run as the (x, q) run did
    # (9.4e-8 here) at every snapshot
    s = builtin_catalog("attractive_congested")
    p0 = quantile_init(InitialDensity.from_samples(*np.array(_ASYMMETRIC_PROFILE).T), 800)
    traj = integrate(p0, s, SolverConfig(t_end=1.0))
    ref = integrate(p0, s, SolverConfig(t_end=1.0, rel_tol=1e-12, abs_tol=1e-12, max_step=1e-3))
    for a, b in zip(traj.snapshots, ref.snapshots, strict=True):
        assert a.t == b.t and np.max(np.abs(a.x - b.x)) <= 5e-7, a.t
        assert np.array_equal(a.q, p0.q)


@settings(max_examples=20, deadline=None)
@given(blocks=_two_blocks, n=st.integers(2, 40),
       name=st.sampled_from(["attractive_congested", "repulsive_source"]))
def test_every_accepted_step_passes_the_guard(blocks, n, name):
    p0 = _two_block_state(blocks, n)
    cfg = SolverConfig(t_end=0.3, snapshot_times=np.linspace(0.0, 0.3, 4), store_steps=True)
    traj = integrate(p0, builtin_catalog(name), cfg)
    assert len(traj.steps) == traj.step_stats.accepted + 1
    for p in traj.steps:
        ok, reason, _ = step_guard(np.array(p.x))
        assert ok, reason


# ------------------------------------------------------------ step control

def test_no_controller_thrashing_at_n3200():
    # the stability-limited regime: the PI controller keeps rejections rare
    s = builtin_catalog("attractive_congested")
    p0 = quantile_init(builtin_initial("attractive_congested"), 3200)
    stats = integrate(p0, s, SolverConfig(t_end=0.1)).step_stats
    rejected = stats.rejected_error + stats.rejected_guard
    assert rejected / stats.accepted < 0.10, stats.as_dict()


def test_retry_after_rejection_tracks_a_pulse():
    # uniform speed 1 + a Lorentzian pulse at t = 0.5 translates the block by
    # its integral; the steps rejected while entering the pulse must restart
    # from the accepted state's derivative (terminal error was ~1000 tol when
    # a retry reused the rejected endpoint's)
    w = 0.01
    s = make_scenario(V=lambda t, x: (1.0 + 1.0 / (1.0 + ((t - 0.5) / w) ** 2))
                      * np.ones_like(np.asarray(x, dtype=float)))
    p0 = quantile_init(InitialDensity.from_blocks([(0.0, 1.0, 1.0)]), 4)
    shift = 1.0 + w * (np.arctan(0.5 / w) + np.arctan(0.5 / w))
    for tol in (1e-6, 1e-8):
        cfg = SolverConfig(t_end=1.0, rel_tol=tol, abs_tol=tol,
                           snapshot_times=np.array([0.0, 1.0]))
        traj = integrate(p0, s, cfg)
        assert traj.step_stats.rejected_error > 0
        assert np.max(np.abs(traj.snapshots[-1].x - p0.x - shift)) <= 10 * tol


def test_dense_snapshots_do_not_inflate_steps():
    # a step shortened onto a snapshot leaves the controller's proposal and
    # error history alone, so 128 snapshot intervals cost about 128 steps
    s = builtin_catalog("attractive_congested")
    p0 = quantile_init(builtin_initial("attractive_congested"), 200)
    cfg = SolverConfig(t_end=1.0, snapshot_times=np.linspace(0.0, 1.0, 129))
    assert integrate(p0, s, cfg).step_stats.accepted <= 132


def test_scalar_ode_never_repeats_an_evaluation():
    # y' = 50 y forces rejections; FSAL keeps g(t, y) from the accepted state
    calls = []

    def g(t, y):
        calls.append((float(t), float(y)))
        return 50.0 * y

    out = solve_scalar_ode(g, 0.0, 1.0, [0.0, 0.5])
    assert out[-1] == pytest.approx(np.exp(25.0), rel=1e-6)
    assert len(set(calls)) == len(calls)


def test_snapshot_is_the_stored_step_at_its_time():
    s = builtin_catalog("attractive_congested")
    p0 = quantile_init(builtin_initial("attractive_congested"), 40)
    times = np.linspace(0.0, 0.5, 65)
    stored = integrate(p0, s, SolverConfig(t_end=0.5, snapshot_times=times, store_steps=True))
    plain = integrate(p0, s, SolverConfig(t_end=0.5, snapshot_times=times))
    steps = {p.t: p for p in stored.steps}
    assert len(steps) == len(stored.steps)
    for p in stored.snapshots:
        assert p is steps[p.t]
    # without stored steps, each snapshot is built from the state at its time
    assert np.array_equal(plain.times, times)
    for p, q in zip(plain.snapshots, stored.snapshots):
        assert p is not q and p.t == q.t
        assert np.array_equal(p.x, q.x) and np.array_equal(p.q, q.q)
