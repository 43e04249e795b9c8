import copy
import dataclasses
import json
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
from pbal.errors import GridEscapeError, NumericalFailureError
from pbal.integrator import Trajectory, snapshot_schedule
from pbal import dynamics, expressions, reference
from pbal.expressions import bump, compile_expression
from pbal.reference import (GridConfig, GridState, _flux_mirrored, grid_to_density,
                            initial_grid, interface_velocity, kernel_spectrum)
from pbal.scenario import _CATALOG, CATALOG_NAMES, Potential, Source, load_scenario

from conftest import (benchmark_file_scenario, const, make_scenario, unfixed_field_scenario,
                      zero_field_scenario)


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
    per_step, steps = _full_lattice_run(rho0, s, grid, 0.5, times, fixed=False)
    assert len(built) == 1 + steps  # one per step
    assert cached.steps == steps
    assert len(cached.snapshots) == len(per_step) == 5
    for a, b in zip(cached.snapshots, per_step):
        assert a.t == b.t and np.array_equal(a.cells, b.cells)

    # a potential with pieces is convolved by prefix moments: no spectrum at all
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
    """One step of the whole lattice with a fresh array for the padded
    density, every flux term and the update, checked as ``fv_run`` checks a
    step, and a validated ``GridState``."""
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
    peak = float(np.max(new))
    if not np.isfinite(peak):
        raise NumericalFailureError(f"finite-volume cells not finite at t = {g.t + dt:.6g}")
    for edge, cell in (("left", new[0]), ("right", new[-1])):
        if cell > 1e-10 * max(peak, 1e-300):
            raise GridEscapeError(f"support reached the {edge} grid boundary at "
                                  f"t = {g.t + dt:.6g}; enlarge the domain")
    return GridState(x_left=g.x_left, dx=g.dx, cells=new, t=g.t + dt)


def _full_lattice_run(rho0, s, grid, t_end, times, fixed=True):
    """``(snapshots, steps)`` of ``fv_run`` as one loop over the whole lattice:
    every step takes U and the CFL speed at all J+1 interfaces and steps
    every cell by ``_step_as_first_written``.  ``fixed=False`` also builds
    the kernel spectrum and evaluates V on every step, where ``fv_run`` does
    both once per run."""
    targets = list(snapshot_schedule(t_end, times))
    state = initial_grid(rho0, grid)
    spectrum = reference.kernel_spectrum(s, state.dx, state.j) if fixed else None
    V = expressions.bind(s.advection.V, 1, state.interfaces) if fixed else None
    f = expressions.bind(s.source.f, 1, state.centers)
    snapshots, steps = [], 0
    while targets and abs(targets[0] - state.t) <= 1e-14:
        snapshots.append(state)
        targets.pop(0)
    while state.t < t_end * (1 - 1e-15):
        U_if = interface_velocity(state, s, spectrum, V=V)
        speed = float(np.max(np.abs(U_if))) * s.congestion.v_sup
        dt = t_end - state.t if speed == 0.0 else reference.CFL * state.dx / speed
        next_stop = targets[0] if targets else t_end
        dt = min(dt, next_stop - state.t)
        state = _step_as_first_written(state, s, dt, U_if, f)
        steps += 1
        if abs(state.t - next_stop) <= 1e-13 * max(1.0, next_stop):
            state = GridState(state.x_left, state.dx, state.cells, next_stop)
            if targets:
                snapshots.append(state)
                targets.pop(0)
    return snapshots, steps


@pytest.mark.parametrize("which", ["repulsive_source", "file-source", "benchmark_file",
                                   "attractive_congested"])
def test_fv_run_equals_the_first_step_cell_for_cell(tmp_path, which):
    # fv_run steps a window of its cells in buffers it reuses; the float
    # operations and their order are those of the step as first written,
    # applied to every cell of the lattice
    if which == "benchmark_file":
        s, rho0 = benchmark_file_scenario(tmp_path)
    else:
        name = "repulsive_source" if which == "file-source" else which
        s, rho0 = builtin_catalog(name), builtin_initial(name)
        s = _file_source(s) if which == "file-source" else s
    grid = GridConfig(x_left=-4.0, x_right=4.0, j=800)
    times = np.linspace(0.0, 0.5, 6)
    reused = fv_run(rho0, s, grid, 0.5, snapshot_times=times)
    fresh, steps = _full_lattice_run(rho0, s, grid, 0.5, times)
    assert reused.steps == steps > 0
    for a, b in zip(reused.snapshots, fresh, strict=True):
        assert a.t == b.t and a.cells.tobytes() == b.cells.tobytes()
    # every stored array is its own read-only owner of finite, non-negative cells
    cells = [g.cells for g in reused.snapshots]
    assert len({id(c) for c in cells}) == len(cells) == times.size
    for c in cells:
        assert not c.flags.writeable and c.base is None
        assert np.all(np.isfinite(c)) and np.all(c >= 0.0)


def _with(tmp_path, name, **changes):
    """``(scenario, initial density)`` of catalog scenario ``name`` with the
    document's sections updated by ``changes``, loaded from a file."""
    doc = copy.deepcopy(_CATALOG[name])
    for section, keys in changes.items():
        doc[section].update(keys)
    path = tmp_path / f"{name}_changed.json"
    path.write_text(json.dumps(doc))
    return load_scenario(path)


def _window_cases(tmp_path):
    """``{id: (scenario, initial density, grid, t_end)}``: every way ``fv_run``
    takes U, its speed and the window.  A source that is nonzero on empty
    cells (``bump(x)`` reaches beyond the initial block, a scalar rate
    everywhere) widens the window to the whole lattice; ``f = rho`` returns
    the very cells the step overwrites."""
    grid = GridConfig(x_left=-4.0, x_right=4.0, j=800)
    cases = {name: (builtin_catalog(name), builtin_initial(name), grid, 1.0)
             for name in CATALOG_NAMES}  # transport has vacuum inside its support
    cases["benchmark_file"] = (*benchmark_file_scenario(tmp_path), grid, 1.0)
    cases["fft-kernel"] = (*_with(tmp_path, "repulsive_source", potential={
        "W": "exp(-abs(x))", "dxW_neg": "exp(x)", "dxW_pos": "-exp(-x)"}), grid, 1.0)
    cases["moving-V"] = (*unfixed_field_scenario(tmp_path), grid, 1.0)
    cases["two-term-chain"] = (*_with(tmp_path, "attractive_congested",
                                      potential={"W": "0.5*x**2 - abs(x)"}), grid, 1.0)
    cases["source-in-vacuum"] = (*_with(tmp_path, "repulsive_source", source={
        "f": "rho*bump(x) + 0.05*bump(x)", "c_f": 0.5}), grid, 1.0)
    cases["identity-source"] = (*_with(tmp_path, "transport", source={
        "f": "rho", "c_f": 1.0, "drho_f_bound": "1"}), grid, 1.0)  # f returns its rho
    cases["scalar-source"] = (make_scenario(V=const(1.0), source=Source(
        f=lambda t, x, rho: 0.05, c_f=1.0, drho_f_bound=const(0.0))),
        builtin_initial("transport"), grid, 0.5)
    s = builtin_catalog("transport")
    cases["grid-escape"] = (s, InitialDensity.from_blocks([(0.0, 1.0, 1.0)]),
                            GridConfig(x_left=-0.5, x_right=1.2, j=60), 1.0)
    return cases


@pytest.mark.parametrize("case", ["attractive_congested", "growth_transport",
                                  "repulsive_source", "transport", "benchmark_file",
                                  "fft-kernel", "moving-V", "two-term-chain",
                                  "source-in-vacuum", "identity-source", "scalar-source",
                                  "grid-escape"])
def test_fv_run_window_equals_the_full_lattice_loop(tmp_path, case):
    # stepping only the cells that can hold mass changes no bit: the same
    # steps, the same snapshots, or the same error at the same time
    s, rho0, grid, t_end = _window_cases(tmp_path)[case]
    times = np.linspace(0.0, t_end, 5)
    try:
        full, steps = _full_lattice_run(rho0, s, grid, t_end, times)
    except GridEscapeError as error:
        assert case in ("grid-escape", "scalar-source")  # the latter fills the edge cells
        with pytest.raises(GridEscapeError, match=f"^{re.escape(str(error))}$"):
            fv_run(rho0, s, grid, t_end, snapshot_times=times)
        return
    window = fv_run(rho0, s, grid, t_end, snapshot_times=times)
    assert window.steps == steps > 0
    for a, b in zip(window.snapshots, full, strict=True):
        assert a.t == b.t and a.cells.tobytes() == b.cells.tobytes()


@pytest.mark.parametrize("case", ["benchmark_file", "transport", "fft-kernel", "moving-V",
                                  "two-term-chain"])
def test_interface_velocity_window_is_the_whole_lattice_sliced(tmp_path, case):
    # for cells that are +0 outside the window, U on the window's interfaces
    # has the bits of U on the whole lattice, whatever path computes it
    s, rho0, grid, _ = _window_cases(tmp_path)[case]
    g = initial_grid(rho0, grid)
    held = np.flatnonzero(g.cells)
    for lo, hi in ((held[0], held[-1] + 1), (held[0] - 7, held[-1] + 30), (0, g.j)):
        U = interface_velocity(g, s, window=(lo, hi))
        assert U.tobytes() == interface_velocity(g, s)[lo:hi + 1].tobytes()


def test_fv_run_window_fails_as_the_full_lattice_on_an_infinite_speed():
    # a V infinite at an empty interface makes dt = 0 and the full step NaN;
    # a V that reads x keeps the window on the whole lattice, so the run
    # fails at the same time with the same message
    grid = GridConfig(x_left=-4.0, x_right=4.0, j=800)
    pole = float(initial_grid(builtin_initial("transport"), grid).interfaces[10])
    s = make_scenario(V=lambda t, x: 1.0 / (np.asarray(x) - pole))
    rho0 = builtin_initial("transport")
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailureError) as full:
            _full_lattice_run(rho0, s, grid, 1.0, [0.0, 1.0])
        with pytest.raises(NumericalFailureError, match=f"^{re.escape(str(full.value))}$"):
            fv_run(rho0, s, grid, 1.0, snapshot_times=[0.0, 1.0])


def test_grid_escape_raises():
    # mass moves one cell per step at speed 1, so the last cell first holds
    # mass at the end of step k, k cells after the last one that held it
    s = builtin_catalog("transport")
    rho0 = InitialDensity.from_blocks([(0.0, 1.0, 1.0)])
    grid = GridConfig(x_left=-0.5, x_right=1.2, j=60)
    with pytest.raises(GridEscapeError, match="right grid boundary") as error:
        fv_run(rho0, s, grid, 1.0, snapshot_times=[0.0, 1.0])
    k = grid.j - 1 - np.flatnonzero(initial_grid(rho0, grid).cells)[-1]
    t = float(re.search(r"at t = (\S+);", str(error.value)).group(1))
    assert k == 7 and t == pytest.approx(k * reference.CFL * grid.dx, rel=1e-5)


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
