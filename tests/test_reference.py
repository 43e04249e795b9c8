import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from pbal import SolverConfig, builtin_catalog, builtin_initial
from pbal.density import ParticleSystem, l1_distance, to_density
from pbal.initial import InitialDensity
from pbal.reference import compare_l1, fv_run
from pbal.errors import GridEscapeError
from pbal.integrator import Trajectory
from pbal import dynamics, expressions, reference
from pbal.expressions import bump, compile_expression
from pbal.reference import (GridConfig, GridState, _flux_mirrored, grid_to_density,
                            initial_grid, interface_velocity, kernel_spectrum)
from pbal.scenario import CATALOG_NAMES, Potential, Source

from conftest import benchmark_file_scenario, const, make_scenario, zero_field_scenario


def test_zero_fields_state_unchanged():
    s = zero_field_scenario()
    cells = np.concatenate(([0.0, 0.0], np.ones(16), [0.0, 0.0]))
    rho0 = InitialDensity.from_blocks([(-0.8, 0.8, 1.0)])
    gtraj = fv_run(rho0, s, GridConfig(x_left=-1.0, x_right=1.0, j=20), 0.05,
                   snapshot_times=[0.0, 0.05])
    g, g2 = gtraj.snapshots
    assert np.allclose(g.cells, cells)
    assert np.allclose(g2.cells, g.cells)
    assert g2.t == pytest.approx(0.05)


def test_pure_growth_exponential():
    # f = rho, zero velocity: forward Euler compounds (1 + dt) per step, and
    # with no speed each step runs to the next of the equispaced snapshots
    src = Source(f=lambda t, x, rho: rho, c_f=1.0, drho_f_bound=const(1.0))
    s = make_scenario(source=src)
    rho0 = InitialDensity.from_blocks([(-0.75, -0.5, 0.1), (-0.5, -0.25, 0.2)])
    dt = 1e-3
    gtraj = fv_run(rho0, s, GridConfig(x_left=-1.0, x_right=0.0, j=4), 1.0,
                   snapshot_times=np.linspace(0.0, 1.0, 1001))
    assert gtraj.steps == 1000
    g = gtraj.snapshots[-1]
    assert np.allclose(g.cells, np.array([0.0, 1.0, 2.0, 0.0]) * 0.1 * np.e,
                       rtol=2 * dt)


def test_transport_shift_with_smearing():
    s = builtin_catalog("transport")
    rho0 = InitialDensity.from_blocks([(0.0, 1.0, 1.0)])
    dists = []
    for j in (250, 500, 1000):
        grid = GridConfig(x_left=-1.0, x_right=4.0, j=j)
        gtraj = fv_run(rho0, s, grid, 1.0, snapshot_times=[0.0, 1.0])
        shifted = to_density(ParticleSystem(1.0, [1.0, 2.0], [1.0]))
        dists.append(l1_distance(grid_to_density(gtraj.snapshots[-1]), shifted))
    assert dists[0] < 0.2
    assert dists[2] < dists[1] < dists[0]  # grid self-convergence


def test_mass_conservation_many_steps():
    s = builtin_catalog("transport")
    rho0 = InitialDensity.from_blocks([(0.0, 1.0, 1.0)])
    grid = GridConfig(x_left=-1.0, x_right=15.0, j=1600)
    g = initial_grid(rho0, grid)
    m0 = float(np.sum(g.cells) * g.dx)
    dt = 0.45 * g.dx  # speed 1
    gtraj = fv_run(rho0, s, grid, 1000 * dt)
    assert gtraj.steps == 1000
    g = gtraj.snapshots[-1]
    assert float(np.sum(g.cells) * g.dx) == pytest.approx(m0, rel=1e-12)


@pytest.mark.parametrize("t_end, times", [
    (1.0, [-0.25, 0.5, 1.0]), (1.0, [0.5, 1.5]), (1.0, [0.5, np.nan]), (np.nan, None),
], ids=["before-start", "after-end", "NaN-time", "NaN-end"])
def test_fv_run_checks_its_snapshot_times_as_integrate_does(t_end, times):
    # fv_run stepped back to t = -0.25 in a negative-dt Euler step, and
    # returned only the t = 0.5 snapshot for a late or NaN stop or a NaN t_end
    rho0 = InitialDensity.from_blocks([(0.0, 1.0, 1.0)])
    grid = GridConfig(x_left=-1.0, x_right=4.0, j=400)
    s = builtin_catalog("transport")
    cfg = SolverConfig(t_end=t_end, snapshot_times=times)
    with pytest.raises(ValueError) as expected:
        cfg.resolved()
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        fv_run(rho0, s, grid, t_end, snapshot_times=times)


def test_positivity_under_cfl():
    s = builtin_catalog("attractive_congested")
    rho0 = builtin_initial("attractive_congested")
    grid = GridConfig(x_left=-3.0, x_right=3.0, j=300)
    gtraj = fv_run(rho0, s, grid, 0.5, snapshot_times=[0.0, 0.25, 0.5])
    for g in gtraj.snapshots:
        assert np.all(g.cells >= 0.0)


def test_symmetry_preserved_repulsive():
    s = builtin_catalog("repulsive_source")
    rho0 = builtin_initial("repulsive_source")
    grid = GridConfig(x_left=-4.0, x_right=4.0, j=400)
    gtraj = fv_run(rho0, s, grid, 0.5, snapshot_times=[0.0, 0.5])
    cells = gtraj.snapshots[-1].cells
    assert float(np.max(np.abs(cells - cells[::-1]))) <= 1e-10


def _time_factor_potential():
    # W = |x| scaled by 1 + t
    return Potential(W=lambda x: np.abs(x), time_factor=lambda t: 1.0 + t,
                     pieces=((0.0, -1.0), (0.0, 1.0)))


def _exponential_potential():
    # W = exp(-|x|): no polynomial pieces
    return Potential(W=lambda x: np.exp(-np.abs(x)),
                     dxW_neg=lambda x: np.exp(x), dxW_pos=lambda x: -np.exp(-x))


def test_fft_convolution_matches_direct():
    rng = np.random.default_rng(7)
    cells = rng.uniform(0.0, 1.0, 80)
    for s, t in ((builtin_catalog("attractive_congested"), 0.0),
                 (make_scenario(potential=_time_factor_potential()), 0.7),
                 (make_scenario(potential=_exponential_potential()), 0.3)):
        g = GridState(-2.0, 0.05, cells, t)
        fast = interface_velocity(g, s)
        # direct primitive-difference sum
        ifaces = g.interfaces
        W = s.potential.W
        direct = np.empty(ifaces.size)
        for i, y in enumerate(ifaces):
            wd = W(y - ifaces)
            direct[i] = -np.sum(g.cells * (wd[:-1] - wd[1:]))
        assert np.allclose(fast, direct * s.potential.factor(t), atol=1e-10)
        spectrum = kernel_spectrum(s, g.dx, g.j)
        assert np.array_equal(interface_velocity(g, s, spectrum), fast)


_coef = st.floats(-1.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(
    c0=_coef,
    w_neg=st.lists(_coef, min_size=0, max_size=3),
    w_pos=st.lists(_coef, min_size=0, max_size=3),
    factor=st.one_of(st.none(), st.floats(-2.0, 2.0)),
    t=st.floats(0.0, 1.0),
    j=st.integers(1, 400),
    x_left=st.floats(-3.0, 1.0),
    width=st.floats(0.5, 6.0),
    block=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.2)),
    seed=st.integers(0, 2**32 - 1),
)
def test_interface_velocity_matches_direct_sum(c0, w_neg, w_pos, factor, t, j, x_left,
                                               width, block, seed):
    # random W, polynomial of degree <= 3 on each side and continuous at 0, on
    # a mostly-empty lattice: the prefix-moment path (pieces declared) and the
    # FFT path (the same W without pieces) both equal the direct sum
    neg, pos = (c0, *w_neg), (c0, *w_pos)
    pot = Potential(W=lambda u: np.where(u < 0.0, P.polyval(u, neg), P.polyval(u, pos)),
                    pieces=(neg, pos),
                    time_factor=None if factor is None else (lambda t: factor * (1.0 + t)))
    start = int(block[0] * (j - 1))
    stop = min(j, start + 1 + int(block[1] * j))
    cells = np.zeros(j)
    cells[start:stop] = np.random.default_rng(seed).uniform(0.0, 1.0, stop - start)
    g = GridState(x_left, width / j, cells, t)
    y = g.interfaces
    wd = pot.W(y[:, None] - y[None, :])
    U = -((wd[:, :-1] - wd[:, 1:]) @ cells) * pot.factor(t)
    bound = 1e-12 * max(1.0, float(np.max(np.abs(U))))
    for p in (pot, dataclasses.replace(pot, pieces=None)):
        fast = interface_velocity(g, make_scenario(potential=p))
        assert np.max(np.abs(fast - U)) <= bound


@pytest.mark.parametrize("v", [
    *(builtin_catalog(name).congestion.v for name in CATALOG_NAMES),
    *(compile_expression(text, ("r",))
      for text in ("1/(1 + r)**2", "max(1 - r, 0)", "exp(-r)", "bump(r/4)")),
    lambda r: 0.5,
], ids=[*CATALOG_NAMES, "inverse_square", "linear", "exp", "bump", "scalar"])
def test_flux_one_v_call_matches_two(v):
    # v on the padded density, sliced, gives the bits of v on each slice
    rng = np.random.default_rng(3)
    rho_ext = np.concatenate(([0.0], rng.uniform(0.0, 3.0, 60), [0.0]))
    rho_ext[10:20] = 0.0
    U = rng.normal(size=61)
    U[::7] = 0.0
    rho_l, rho_r = rho_ext[:-1], rho_ext[1:]
    two = np.maximum(U, 0.0) * rho_l * v(rho_r) + np.minimum(U, 0.0) * rho_r * v(rho_l)
    assert np.array_equal(_flux_mirrored(U, rho_ext, v), two)


def test_fv_run_cached_spectrum_matches_per_step(monkeypatch):
    s = make_scenario(potential=_exponential_potential())
    rho0 = builtin_initial("repulsive_source")
    grid = GridConfig(x_left=-4.0, x_right=4.0, j=300)
    times = np.linspace(0.0, 0.5, 5)
    built = []
    original = reference.kernel_spectrum
    monkeypatch.setattr(reference, "kernel_spectrum",
                        lambda *a: built.append(a) or original(*a))
    cached = fv_run(rho0, s, grid, 0.5, snapshot_times=times)
    assert len(built) == 1  # once per run

    # the per-step run ignores everything fv_run fixes: the spectrum and the bound V
    velocity = reference.interface_velocity
    monkeypatch.setattr(reference, "interface_velocity",
                        lambda g, s, spectrum=None, *, V=None: velocity(g, s))
    per_step = fv_run(rho0, s, grid, 0.5, snapshot_times=times)
    assert len(built) == 2 + per_step.steps  # fv_run's unused one, then one per step
    assert cached.steps == per_step.steps
    assert len(cached.snapshots) == len(per_step.snapshots) == 5
    for a, b in zip(cached.snapshots, per_step.snapshots):
        assert a.t == b.t and np.array_equal(a.cells, b.cells)

    # a potential with pieces is convolved by prefix moments: no spectrum at all
    monkeypatch.setattr(reference, "interface_velocity", velocity)
    spectra = []
    monkeypatch.setattr(reference, "kernel_spectrum",
                        lambda *a: spectra.append(original(*a)) or spectra[-1])
    fv_run(rho0, builtin_catalog("repulsive_source"), grid, 0.5, snapshot_times=times)
    assert spectra == [None]


def _wrapped(s):
    """``s`` with its V and f behind plain Python callables, which bind cannot see into."""
    V, f = s.advection.V, s.source.f
    return dataclasses.replace(
        s, advection=dataclasses.replace(s.advection, V=lambda t, x: V(t, x)),
        source=dataclasses.replace(s.source, f=lambda t, x, rho: f(t, x, rho)))


def _file_source(s):
    """``s`` with a source and a field that read t, x and rho in several parts."""
    return dataclasses.replace(
        s, advection=dataclasses.replace(
            s.advection, V=compile_expression("0.1*t - 0.2*bump(x/3)*x", ("t", "x"))),
        source=dataclasses.replace(s.source, f=compile_expression(
            "exp(-t)*rho*bump(x) + 0.1*bump(2*x)", ("t", "x", "rho"))))


@pytest.mark.parametrize("make", [lambda s: s, _file_source], ids=["catalog", "file-source"])
def test_fv_run_bound_expressions_match_plain_callables(make):
    # fv_run evaluates the x-only parts of V and f once, on its lattice; the
    # cells are bitwise those of a run that evaluates the whole expressions
    s = make(builtin_catalog("repulsive_source"))
    rho0 = builtin_initial("repulsive_source")
    grid = GridConfig(x_left=-4.0, x_right=4.0, j=400)
    times = np.linspace(0.0, 0.5, 6)
    bound = fv_run(rho0, s, grid, 0.5, snapshot_times=times)
    plain = fv_run(rho0, _wrapped(s), grid, 0.5, snapshot_times=times)
    assert bound.steps == plain.steps > 0
    for a, b in zip(bound.snapshots, plain.snapshots, strict=True):
        assert a.t == b.t and a.cells.tobytes() == b.cells.tobytes()


def test_fv_run_evaluates_bump_once_per_run(monkeypatch):
    # the lattice is fixed, so bump(x) over its centres is evaluated once per
    # run, not on every finite-volume step
    j = 400
    calls = []

    def counting(s):
        calls.append(np.size(s))
        return bump(s)

    monkeypatch.setitem(expressions._FUNCTIONS, "bump", counting)
    base = builtin_catalog("repulsive_source")
    s = dataclasses.replace(base, source=dataclasses.replace(
        base.source, f=compile_expression("rho*bump(x)", ("t", "x", "rho"))))
    gtraj = fv_run(builtin_initial("repulsive_source"), s,
                   GridConfig(x_left=-4.0, x_right=4.0, j=j), 0.2)
    assert gtraj.steps > 1
    assert calls == [j]


def test_grid_state_rejects_nan_and_keeps_its_own_cells():
    with pytest.raises(ValueError, match="non-negative"):
        GridState(0.0, 0.5, np.array([1.0, np.nan]), 0.0)
    cells = np.array([1.0, 2.0])
    g = GridState(0.0, 0.5, cells, 0.0)
    cells[0] = 5.0  # a writable array is copied
    assert g.cells.tolist() == [1.0, 2.0] and not g.cells.flags.writeable


@pytest.mark.parametrize("bad", [-1e-300, -1.0, np.nan], ids=["tiny-negative", "negative", "NaN"])
def test_grid_state_from_outside_keeps_its_checks(bad):
    # steps skip GridState's checks, which they have just done; any other
    # caller keeps them, a read-only array included
    cells = np.array([1.0, bad, 0.5])
    with pytest.raises(ValueError, match="non-negative"):
        GridState(0.0, 0.5, cells, 0.0)
    cells.setflags(write=False)
    with pytest.raises(ValueError, match="non-negative"):
        GridState(0.0, 0.5, cells, 0.0)


def _step_as_first_written(g, s, dt, U_if, f):
    """``reference._step`` with a fresh array for the padded density, every
    flux term and the update, and a validated ``GridState``."""
    rho_ext = np.concatenate(([0.0], g.cells, [0.0]))
    vr = np.asarray(s.congestion.v(rho_ext), dtype=float)
    if vr.ndim == 0:
        vr = np.full(rho_ext.shape, vr)
    F = (np.maximum(U_if, 0.0) * rho_ext[:-1] * vr[1:]
         + np.minimum(U_if, 0.0) * rho_ext[1:] * vr[:-1])
    new = g.cells - (dt / g.dx) * (F[1:] - F[:-1])
    if s.source.c_f != 0.0:
        new = new + dt * np.asarray(f(g.t, g.cells), dtype=float)
    new = np.maximum(new, 0.0)
    assert np.all(np.isfinite(new)) and new[0] == new[-1] == 0.0
    return GridState(x_left=g.x_left, dx=g.dx, cells=new, t=g.t + dt)


@pytest.mark.parametrize("which", ["repulsive_source", "file-source", "benchmark_file",
                                   "attractive_congested"])
def test_fv_run_equals_the_first_step_cell_for_cell(tmp_path, monkeypatch, which):
    # fv_run's steps work in buffers it reuses; the float operations and
    # their order are those of the step as first written
    if which == "benchmark_file":
        s, rho0 = benchmark_file_scenario(tmp_path)
    else:
        name = "repulsive_source" if which == "file-source" else which
        s, rho0 = builtin_catalog(name), builtin_initial(name)
        s = _file_source(s) if which == "file-source" else s
    grid = GridConfig(x_left=-4.0, x_right=4.0, j=800)
    times = np.linspace(0.0, 0.5, 6)
    reused = fv_run(rho0, s, grid, 0.5, snapshot_times=times)
    monkeypatch.setattr(reference, "_step", lambda g, s, dt, U, f, buffers:
                        _step_as_first_written(g, s, dt, U, f))
    fresh = fv_run(rho0, s, grid, 0.5, snapshot_times=times)
    assert reused.steps == fresh.steps > 0
    for a, b in zip(reused.snapshots, fresh.snapshots, strict=True):
        assert a.t == b.t and a.cells.tobytes() == b.cells.tobytes()
    # every stored array is its own read-only owner of finite, non-negative cells
    cells = [g.cells for g in reused.snapshots]
    assert len({id(c) for c in cells}) == len(cells) == times.size
    for c in cells:
        assert not c.flags.writeable and c.base is None
        assert np.all(np.isfinite(c)) and np.all(c >= 0.0)


def test_grid_escape_raises():
    s = builtin_catalog("transport")
    rho0 = InitialDensity.from_blocks([(0.0, 1.0, 1.0)])
    grid = GridConfig(x_left=-0.5, x_right=1.2, j=60)
    with pytest.raises(GridEscapeError):
        fv_run(rho0, s, grid, 1.0, snapshot_times=[0.0, 1.0])


def test_compare_l1_transport_calibrated():
    # frozen after calibration: the FV oracle smears the four jumps of the
    # two-block profile like sqrt(dx) each, giving ~0.11 of the mass at
    # (N, J) = (800, 2000); coarsening either side increases the distance
    s = builtin_catalog("transport")
    rho0 = builtin_initial("transport")
    snaps = np.array([0.0, 1.0])

    def dist(n, j):
        from pbal import SolverConfig, integrate, quantile_init
        traj = integrate(quantile_init(rho0, n), s,
                         SolverConfig(t_end=1.0, snapshot_times=snaps))
        grid = GridConfig(x_left=-4.0, x_right=4.0, j=j)
        gtraj = fv_run(rho0, s, grid, 1.0, snapshot_times=snaps)
        return compare_l1(traj, gtraj, [1.0])[0][1]

    base = dist(800, 2000)
    assert base <= 0.12 * rho0.total_mass
    assert dist(50, 2000) > base   # coarser particles
    assert dist(800, 500) > base   # coarser grid


def test_compare_l1_identical_density():
    # particle cells aligned with grid cells encode the same step function
    p = ParticleSystem(1.0, [0.0, 0.5, 1.0], [0.5, 0.25])
    traj = Trajectory(snapshots=[p])
    g = GridState(-0.5, 0.25, np.array([0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.0]), 1.0)
    from pbal.reference import GridTrajectory
    gtraj = GridTrajectory(snapshots=[g])
    out = compare_l1(traj, gtraj, [1.0])
    assert out[0][1] == pytest.approx(0.0, abs=1e-14)


def test_compare_l1_time_mismatch():
    p = ParticleSystem(0.0, [0.0, 1.0], [1.0])
    traj = Trajectory(snapshots=[p])
    from pbal.reference import GridTrajectory
    gtraj = GridTrajectory(snapshots=[GridState(0.0, 0.5, np.array([1.0, 1.0]), 0.5)])
    with pytest.raises(KeyError):
        compare_l1(traj, gtraj, [0.0])
