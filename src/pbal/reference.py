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
cells are not finite raises ``NumericalFailureError``.  ``GridState`` takes its
cells by the state records' one rule, ``density._readonly``; a step builds its
state around its own read-only cells without the constructor, whose
non-negativity check it has just made.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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


def interface_velocity(g: GridState, s: Scenario, spectrum=None, *, V=None) -> np.ndarray:
    """U = V - dxW * rho at the J+1 interfaces, exact for the step density.

    The interfaces are the breakpoints of the step density, so a potential
    with polynomial pieces is convolved by ``dynamics.convolve_dxW_arrays``'
    prefix moments in O(J).  For any other W the W-primitive differences form
    a discrete convolution on the uniform lattice, evaluated by FFT; both are
    identical (to roundoff) to the direct sum.  ``spectrum`` is
    ``kernel_spectrum(s, g.dx, g.j)``, built here when omitted; ``V``, when
    given, is ``s.advection.V`` bound to the interfaces (a callable of t).
    """
    ifaces, _, gaps = _lattice(g.x_left, g.dx, g.j)
    Vt = getattr(s.advection.V, "constant", None)  # a constant is subtracted as a scalar
    if Vt is None:
        Vt = np.asarray(s.advection.V(g.t, ifaces) if V is None else V(g.t), dtype=float)
    if s.potential.pieces is not None:
        return Vt - dynamics.convolve_dxW_arrays(g.t, ifaces, g.cells, s, gaps=gaps)
    if spectrum is None:
        spectrum = kernel_spectrum(s, g.dx, g.j)
    if spectrum is None:
        return Vt - np.zeros(ifaces.size)
    n, kernel_hat = spectrum
    jj = g.j
    conv = np.fft.irfft(np.fft.rfft(g.cells, n) * kernel_hat, n)[jj - 1: 2 * jj]
    return Vt - conv * s.potential.factor(g.t)


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


def _step(g, s, dt, U_if, f, buffers):
    """One conservative forward-Euler step given ``U_if``, ``f`` bound to the
    centres and the run's scratch arrays; the new cells are a fresh array."""
    rho_ext, F, G = buffers
    rho_ext[1:-1] = g.cells
    _flux_mirrored(U_if, rho_ext, s.congestion.v, out=(F, G))

    change = np.subtract(F[1:], F[:-1], out=G[1:])
    change *= dt / g.dx
    new = g.cells - change
    if s.source.c_f != 0.0:
        new += np.multiply(dt, np.asarray(f(g.t, g.cells), dtype=float), out=change)
    np.maximum(new, 0.0, out=new)  # clip roundoff-level negatives only

    peak = float(np.max(new))  # NaN or inf exactly when a cell is not finite
    if not np.isfinite(peak):
        raise NumericalFailureError(f"finite-volume cells not finite at t = {g.t + dt:.6g}")
    mass_scale = max(peak, 1e-300)
    if new[0] > 1e-10 * mass_scale or new[-1] > 1e-10 * mass_scale:
        raise GridEscapeError(
            f"support reached the grid boundary at t = {g.t:.6g}; enlarge the domain"
        )
    new.setflags(write=False)
    state = object.__new__(GridState)  # its checks of ``new`` are the ones above
    state.__dict__.update(x_left=g.x_left, dx=g.dx, cells=new, t=g.t + dt)
    return state


def initial_grid(rho0: InitialDensity, grid: GridConfig) -> GridState:
    """Exact cell averages of the initial density (CDF differences)."""
    edges = _lattice(grid.x_left, grid.dx, grid.j)[0]
    cum = np.asarray(rho0.cdf(edges), dtype=float)
    return GridState(x_left=grid.x_left, dx=grid.dx, cells=np.diff(cum) / grid.dx, t=0.0)


def fv_run(rho0: InitialDensity, s: Scenario, grid: GridConfig, t_end: float,
           snapshot_times=None) -> GridTrajectory:
    """Run to ``t_end`` recording snapshots at ``snapshot_times``, checked and
    defaulted by ``integrator.snapshot_schedule`` as ``integrate``'s are."""
    a, b = rho0.support
    if a < grid.x_left or b > grid.x_right:
        raise GridEscapeError(
            f"initial support [{a}, {b}] not inside grid [{grid.x_left}, {grid.x_right}]"
        )
    targets = list(snapshot_schedule(t_end, snapshot_times))
    state = initial_grid(rho0, grid)
    spectrum = kernel_spectrum(s, state.dx, state.j)
    V = expressions.bind(s.advection.V, 1, state.interfaces)
    f = expressions.bind(s.source.f, 1, state.centers)
    buffers = np.zeros(state.j + 2), np.empty(state.j + 1), np.empty(state.j + 1)
    traj = GridTrajectory()
    while targets and abs(targets[0] - state.t) <= 1e-14:
        traj.snapshots.append(state)
        targets.pop(0)
    while state.t < t_end * (1 - 1e-15):
        U_if = interface_velocity(state, s, spectrum, V=V)
        speed = float(np.max(np.abs(U_if))) * s.congestion.v_sup
        dt = t_end - state.t if speed == 0.0 else CFL * state.dx / speed
        next_stop = targets[0] if targets else t_end
        dt = min(dt, next_stop - state.t)
        state = _step(state, s, dt, U_if, f, buffers)
        traj.steps += 1
        if abs(state.t - next_stop) <= 1e-13 * max(1.0, next_stop):
            state = GridState(state.x_left, state.dx, state.cells, next_stop)
            if targets:
                traj.snapshots.append(state)
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
