"""Independent finite-volume oracle on a fixed uniform grid.

Forward-Euler upwind scheme whose interface flux mirrors the particle
scheme's downstream congestion: the transported density comes from the upwind
cell, the congestion factor from the cell the velocity points toward.
Interface velocities follow the particles' exact W-primitive contract: the
lattice edges are a step density's breakpoints, so polynomial pieces convolve
by the same O(J) prefix moments, and other kernels by FFT.  What the lattice
holds fixed is evaluated once per run: the kernel spectrum, and the parts of V
and f that read only x (``expressions.bind``).  ``fv_run``, the one entry
point, checks its snapshot times as ``integrate`` does, and a step whose
cells are not finite raises ``NumericalFailureError``.  For a constant V
and a kernel with constant gradient pieces, a step reads and writes only a
window of cells that holds all the mass, and takes U and the CFL speed on
that window; otherwise (a V that moves, a moment chain of more than one
term, an FFT kernel) the CFL speed needs U over the whole lattice, and the
window is the whole lattice.  Every step, snapshot and failure is bitwise
that of stepping the whole lattice.  ``GridState``
takes its cells by the state records' one rule, ``density._readonly``, and
``fv_run`` builds one only at a snapshot.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import dynamics, expressions
from .density import PiecewiseDensity, _readonly
from .errors import GridEscapeError, NumericalFailureError
from .initial import InitialDensity
from .integrator import snapshot_schedule
from .scenario import Scenario

CFL = 0.45


@dataclass(frozen=True)
class GridState:
    x_left: float
    dx: float
    cells: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "cells", _readonly(self.cells))
        if not np.all(self.cells >= 0):
            raise ValueError("cell averages must be non-negative numbers")

    @property
    def j(self):
        return self.cells.size

    @property
    def interfaces(self):
        return _lattice(self.x_left, self.dx, self.j)[0]

    @property
    def centers(self):
        return _lattice(self.x_left, self.dx, self.j)[1]


@functools.lru_cache(maxsize=8)
def _lattice(x_left, dx, j):
    """Read-only interfaces, centres and interface gaps of a uniform lattice;
    a run steps on one lattice, so they are built once, not on every step."""
    interfaces = x_left + dx * np.arange(j + 1)
    centers = x_left + dx * (np.arange(j) + 0.5)
    gaps = np.diff(interfaces)
    for a in (interfaces, centers, gaps):
        a.setflags(write=False)
    return interfaces, centers, gaps


@dataclass(frozen=True)
class GridConfig:
    x_left: float
    x_right: float
    j: int

    def __post_init__(self):
        if self.j < 1 or not (np.isfinite(self.dx) and self.dx > 0.0):
            raise ValueError(
                f"grid [{self.x_left}, {self.x_right}] with {self.j} cells: the cell "
                "width must be finite and positive"
            )

    @property
    def dx(self):
        return (self.x_right - self.x_left) / self.j


@dataclass
class GridTrajectory:
    snapshots: list = field(default_factory=list)
    steps: int = 0


def _fast_length(n):
    """Smallest 2-3-5-smooth integer >= n: a fast real FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def kernel_spectrum(s: Scenario, dx: float, j: int):
    """``(n, rfft(kernel, n))`` of the lattice kernel W((d+1)dx) - W(d dx),
    d = -J..J-1, or None when the grid is empty or the potential has
    polynomial pieces (``interface_velocity`` then convolves by prefix
    moments, which also covers the zero potential).

    It depends only on W, dx and J, so a run builds it once.  The transform
    length ``n`` is the smallest fast length holding the full linear
    convolution (3J - 1 terms).
    """
    pot = s.potential
    if pot.pieces is not None or j == 0:
        return None
    d = np.arange(-j, j)  # kernel index i - j for cells j = 1..J
    kernel = pot.W((d + 1) * dx) - pot.W(d * dx)
    n = _fast_length(3 * j - 1)
    return n, np.fft.rfft(kernel, n)


def _tails_repeat_edges(s: Scenario):
    """Whether U at every interface outside a window that holds all the mass
    is U at the window's nearer edge: a constant V and a kernel with constant
    gradient pieces (a moment chain of at most one term, W = 0 included),
    whose dxW * rho at an interface reads only the mass to its left and the
    total.  U and the CFL speed then need only the window's interfaces."""
    pot = s.potential
    return (getattr(s.advection.V, "constant", None) is not None
            and pot.moment_chain is not None and len(pot.moment_chain) <= 1)


def interface_velocity(g, s: Scenario, spectrum=None, *, V=None, window=None) -> np.ndarray:
    """U = V - dxW * rho at the J+1 interfaces, exact for the step density.

    ``g`` is a ``GridState`` or ``fv_run``'s record of the same four fields.
    The interfaces are the breakpoints of the step density, so a potential
    with polynomial pieces is convolved by ``dynamics.convolve_dxW_arrays``'
    prefix moments in O(J).  For any other W the W-primitive differences
    form a discrete convolution on the uniform lattice, evaluated by FFT;
    both are identical (to roundoff) to the direct sum.  ``spectrum`` is
    ``kernel_spectrum(s, g.dx, J)``, built here when omitted; ``V``, when
    given, is ``s.advection.V`` bound to the interfaces (a callable of t).

    ``window = (lo, hi)``, for cells that are +0 outside [lo, hi), gives U
    at the interfaces lo..hi only, bitwise as on the whole lattice.  For a
    scenario of ``_tails_repeat_edges`` only the window is convolved: the
    prefix sums of the cell masses restart at +0 at lo, where the whole
    lattice's are +0 too, and the total mass is the pairwise sum over the
    whole lattice, whose bits a sum over the window alone would change.
    Any other scenario is convolved on the whole lattice and U sliced.
    """
    j = g.cells.size
    lo, hi = (0, j) if window is None else window
    ifaces, _, gaps = _lattice(g.x_left, g.dx, j)
    if window is not None and _tails_repeat_edges(s):
        q = g.cells * gaps
        sums = dynamics._prefix_sums(q[lo:hi]), float(q.sum())
        return s.advection.V.constant - dynamics.convolve_dxW_arrays(
            g.t, ifaces[lo:hi + 1], g.cells[lo:hi], s, gaps=gaps[lo:hi], mass_sums=sums)
    Vt = getattr(s.advection.V, "constant", None)  # a constant is subtracted as a scalar
    if Vt is None:
        Vt = np.asarray(s.advection.V(g.t, ifaces) if V is None else V(g.t), dtype=float)
    if s.potential.pieces is not None:
        U = Vt - dynamics.convolve_dxW_arrays(g.t, ifaces, g.cells, s, gaps=gaps)
    else:
        if spectrum is None:
            spectrum = kernel_spectrum(s, g.dx, j)
        if spectrum is None:
            U = Vt - np.zeros(ifaces.size)
        else:
            n, kernel_hat = spectrum
            conv = np.fft.irfft(np.fft.rfft(g.cells, n) * kernel_hat, n)[j - 1: 2 * j]
            U = Vt - conv * s.potential.factor(g.t)
    return U[lo:hi + 1]


def _flux_mirrored(U, rho_ext, v, out=None):
    """Interface fluxes up * rho_l * v_r + dn * rho_r * v_l for the zero-padded
    cells ``rho_ext``, in the first of the two ``U``-sized buffers ``out``;
    ``v`` is read by ``dynamics.congestion_on``, as in ``dynamics.upwind_arrays``."""
    F, G = (np.empty(U.size), np.empty(U.size)) if out is None else out
    vr = dynamics.congestion_on(rho_ext, v)
    np.maximum(U, 0.0, out=F)
    F *= rho_ext[:-1]
    F *= vr[1:]
    np.minimum(U, 0.0, out=G)
    G *= rho_ext[1:]
    G *= vr[:-1]
    F += G
    return F


def _step(rho_ext, lo, hi, U, dt, dx, src, v, buffers):
    """One conservative forward-Euler step, in place, of the cells [lo, hi) of
    the zero-padded ``rho_ext``, given U at the interfaces lo..hi, the source
    rates ``src`` at the old cells (None without a source; they may be the
    cells themselves, so their increment is formed before any cell is
    written) and two scratch arrays of J+1 floats; returns the window's new
    cells."""
    F, G = (b[:hi - lo + 1] for b in buffers)
    _flux_mirrored(U, rho_ext[lo:hi + 2], v, out=(F, G))
    change = np.subtract(F[1:], F[:-1], out=G[1:])
    change *= dt / dx
    if src is not None:
        gain = np.multiply(dt, src[lo:hi], out=F[1:])  # F is read no more
    new = rho_ext[lo + 1:hi + 1]
    new -= change
    if src is not None:
        new += gain
    np.maximum(new, 0.0, out=new)  # clip roundoff-level negatives only
    return new


def initial_grid(rho0: InitialDensity, grid: GridConfig) -> GridState:
    """Exact cell averages of the initial density (CDF differences)."""
    edges = _lattice(grid.x_left, grid.dx, grid.j)[0]
    cum = np.asarray(rho0.cdf(edges), dtype=float)
    return GridState(x_left=grid.x_left, dx=grid.dx, cells=np.diff(cum) / grid.dx, t=0.0)


def fv_run(rho0: InitialDensity, s: Scenario, grid: GridConfig, t_end: float,
           snapshot_times=None) -> GridTrajectory:
    """Run to ``t_end`` recording snapshots at ``snapshot_times``, checked and
    defaulted by ``integrator.snapshot_schedule`` as ``integrate``'s are.

    The cells live in one zero-padded buffer, and a step reads and writes
    only the window [lo, hi), which holds all the mass.  When
    ``_tails_repeat_edges(s)`` holds it starts as the cells that hold mass
    and one more on each side, and grows by one cell per side after every
    step, never narrowing: the flux between two empty cells is +0, so mass
    moves at most one cell per step, and the cells outside the window stay
    +0, unwritten, as a step of the whole lattice leaves them.  U outside it
    repeats its edge values, so the CFL speed is read on the window too.
    Otherwise the window is the whole lattice.  The source's rates are taken
    on the whole lattice, and a rate that is nonzero outside the window
    widens it to the whole lattice for the rest of the run.  So the steps,
    the snapshots and a failure's message are bitwise those of stepping
    every cell.  A ``GridState`` is built only at a snapshot.
    """
    a, b = rho0.support
    if a < grid.x_left or b > grid.x_right:
        raise GridEscapeError(
            f"initial support [{a}, {b}] not inside grid [{grid.x_left}, {grid.x_right}]"
        )
    targets = list(snapshot_schedule(t_end, snapshot_times))
    g0 = initial_grid(rho0, grid)
    j, dx = g0.j, g0.dx
    spectrum = kernel_spectrum(s, dx, j)
    V = expressions.bind(s.advection.V, 1, g0.interfaces)
    f = expressions.bind(s.source.f, 1, g0.centers)
    rho_ext, buffers = np.zeros(j + 2), (np.empty(j + 1), np.empty(j + 1))
    run = SimpleNamespace(x_left=g0.x_left, dx=dx, cells=rho_ext[1:-1], t=g0.t)
    run.cells[:] = g0.cells
    held = np.flatnonzero(g0.cells)
    lo, hi = 0, j  # the speed reads U on the whole lattice unless its tails repeat edges
    if held.size and _tails_repeat_edges(s):
        lo, hi = max(held[0] - 1, 0), min(held[-1] + 2, j)
    traj = GridTrajectory()
    while targets and abs(targets[0] - g0.t) <= 1e-14:
        traj.snapshots.append(g0)
        targets.pop(0)
    while run.t < t_end * (1 - 1e-15):
        t, src = run.t, None
        if s.source.c_f != 0.0:
            src = np.asarray(f(t, run.cells), dtype=float)
            if src.ndim == 0:  # a constant rate
                src = np.full(j, src)
            if src[:lo].any() or src[hi:].any():
                lo, hi = 0, j
        U_if = interface_velocity(run, s, spectrum, V=V, window=(lo, hi))
        speed = float(np.abs(U_if).max()) * s.congestion.v_sup
        dt = t_end - t if speed == 0.0 else CFL * dx / speed
        next_stop = targets[0] if targets else t_end
        dt = min(dt, next_stop - t)
        new = _step(rho_ext, lo, hi, U_if, dt, dx, src, s.congestion.v, buffers)
        run.t = t + dt
        peak = float(new.max())  # NaN or inf exactly when a cell is not finite
        if not np.isfinite(peak):
            raise NumericalFailureError(f"finite-volume cells not finite at t = {run.t:.6g}")
        escape = 1e-10 * max(peak, 1e-300)
        if run.cells[0] > escape or run.cells[-1] > escape:
            edge = "left" if run.cells[0] > escape else "right"
            raise GridEscapeError(f"support reached the {edge} grid boundary at "
                                  f"t = {run.t:.6g}; enlarge the domain")
        traj.steps += 1
        lo, hi = max(lo - 1, 0), min(hi + 1, j)
        if abs(run.t - next_stop) <= 1e-13 * max(1.0, next_stop):
            run.t = next_stop
            if targets:
                traj.snapshots.append(GridState(g0.x_left, dx, run.cells, next_stop))
                targets.pop(0)
    return traj


def grid_to_density(g: GridState) -> PiecewiseDensity:
    return PiecewiseDensity(g.interfaces, g.cells)


def _at_time(snapshots, t):
    """The snapshot taken at time ``t`` (relative tolerance 1e-9)."""
    for snap in snapshots:
        if abs(snap.t - t) <= 1e-9 * max(1.0, abs(t)):
            return snap
    raise KeyError(f"no snapshot at t = {t}")


def compare_l1(traj, gtraj: GridTrajectory, times):
    """Exact L1 distance between particle and grid reconstructions at ``times``."""
    from .density import l1_distance, to_density

    out = []
    for t in np.asarray(times, dtype=float):
        p = _at_time(traj.snapshots, t)
        g = _at_time(gtraj.snapshots, t)
        out.append((float(t), float(l1_distance(to_density(p), grid_to_density(g)))))
    return out
