"""Particle states, piecewise-constant reconstructions and their functionals.

A particle state is ``N+1`` strictly sorted positions ``x_0 .. x_N`` carrying
``N`` positive masses ``q_1 .. q_N``; the associated density is constant equal
to ``q_i / (x_i - x_{i-1})`` on each gap and zero outside.  All distances
(L1, W1) are computed exactly on merged breakpoint partitions.

A state record (``ParticleSystem``, ``PiecewiseDensity``, and the oracle's
``reference.GridState``) takes each array by one rule, ``_readonly``: it keeps
a read-only float array that owns its data, and keeps one read-only copy of
anything else.  So the states of a run without a source all hold ``p0.q``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateStateError, MassMismatchError

# A state is degenerate when a gap shrinks below this fraction of the span;
# the theory excludes collisions but finite precision needs a hard guard.
COLLISION_GAP_FRACTION = 1e-12


def collision_gap(x, gaps):
    """Index of the smallest of the ``gaps`` of ``x`` when one (or a NaN) is not
    above ``COLLISION_GAP_FRACTION`` times the span, else None."""
    if np.all(gaps > COLLISION_GAP_FRACTION * (x[-1] - x[0])):
        return None
    return int(np.argmin(gaps))


def _readonly(a):
    """``a`` when a read-only float array owning its data, else a read-only copy."""
    if type(a) is np.ndarray and a.dtype == float and not a.flags.writeable and a.flags.owndata:
        return a
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ParticleSystem:
    """Sorted particle positions with per-cell masses at a fixed time."""

    t: float
    x: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _readonly(self.x))
        object.__setattr__(self, "q", _readonly(self.q))
        if self.x.ndim != 1 or self.q.ndim != 1 or self.x.size != self.q.size + 1:
            raise DegenerateStateError(
                f"need N+1 positions and N masses, got {self.x.size} and {self.q.size}"
            )
        if self.q.size < 1:
            raise DegenerateStateError("at least one cell is required")
        gaps = np.diff(self.x)
        i = collision_gap(self.x, gaps)
        if i is not None:
            raise DegenerateStateError(f"particle collision: gap {gaps[i]:.3e} at index {i} "
                                       f"(span {self.x[-1] - self.x[0]:.3e})")
        if not np.all(self.q > 0.0):
            i = int(np.argmin(self.q))
            raise DegenerateStateError(f"non-positive mass q[{i}] = {self.q[i]:.3e}")

    @property
    def n(self):
        return self.q.size

    @property
    def heights(self):
        return self.q / np.diff(self.x)

    def total_mass(self):
        return float(np.sum(self.q))


@dataclass(frozen=True)
class PiecewiseDensity:
    """Non-negative step function: ``heights[i]`` on ``(breakpoints[i], breakpoints[i+1])``.

    Zero outside the breakpoint range.  Zero total mass is representable
    (empty arrays) so distance operations stay total.
    """

    breakpoints: np.ndarray = field(default_factory=lambda: np.empty(0))
    heights: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", _readonly(self.breakpoints))
        object.__setattr__(self, "heights", _readonly(self.heights))
        if self.heights.size and self.breakpoints.size != self.heights.size + 1:
            raise ValueError("need one more breakpoint than heights")
        if not np.all(np.diff(self.breakpoints) > 0):  # NaN included
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(self.heights < 0):
            raise ValueError("heights must be non-negative")

    def __call__(self, y, cell=None):
        """Pointwise evaluation (value at a breakpoint is the right cell's);
        ``cell`` is ``cell_index(self.breakpoints, y)`` when already known."""
        y = np.asarray(y, dtype=float)
        x = self.breakpoints
        if self.heights.size == 0:
            out = np.zeros_like(y)
        else:
            out = np.where((y >= x[0]) & (y < x[-1]),
                           self.heights[cell_index(x, y) if cell is None else cell], 0.0)
        return float(out) if out.ndim == 0 else out

    @property
    def support(self):
        if self.breakpoints.size == 0:
            return (0.0, 0.0)
        return (float(self.breakpoints[0]), float(self.breakpoints[-1]))


def to_density(p: ParticleSystem) -> PiecewiseDensity:
    """Piecewise-constant reconstruction with heights q_i / (x_i - x_{i-1})."""
    return PiecewiseDensity(p.x, p.q / np.diff(p.x))


def total_mass(d: PiecewiseDensity) -> float:
    if d.heights.size == 0:
        return 0.0
    return float(np.sum(d.heights * np.diff(d.breakpoints)))


def total_variation(d: PiecewiseDensity) -> float:
    """Sum of all jumps, including the two boundary jumps to zero."""
    if d.heights.size == 0:
        return 0.0
    ext = np.concatenate(([0.0], d.heights, [0.0]))
    return float(np.sum(np.abs(np.diff(ext))))


def cell_index(x, y):
    """Index i of the cell [x_i, x_{i+1}) holding each y, clipped to the
    cells 0 .. len(x) - 2 (points outside the support get an end cell)."""
    return np.clip(np.searchsorted(x, y, side="right") - 1, 0, x.size - 2)


def step_cdf_arrays(x, rho, y, cum=None, cell=None):
    """Cumulative mass of the step density (breakpoints x, heights rho) at y;
    ``cum`` is its value ``[0, cumsum(rho * diff(x))]`` at x and ``cell`` is
    ``cell_index(x, y)``, each passed if already built."""
    if cum is None:
        cum = np.concatenate(([0.0], np.cumsum(rho * np.diff(x))))
    if cell is None:
        cell = cell_index(x, y)
    inner = cum[cell] + rho[cell] * (np.clip(y, x[0], x[-1]) - x[cell])
    return np.where(y <= x[0], 0.0, np.where(y >= x[-1], cum[-1], inner))


def cdf(d: PiecewiseDensity, y, cell=None):
    """Cumulative mass to the left of ``y`` (piecewise linear, non-decreasing);
    ``cell`` is ``cell_index(d.breakpoints, y)`` when already known."""
    y = np.asarray(y, dtype=float)
    if d.heights.size == 0:
        out = np.zeros_like(y)
    else:
        out = step_cdf_arrays(d.breakpoints, d.heights, y, cell=cell)
    return float(out) if out.ndim == 0 else out


def _merge_with_cells(xa, xb):
    """The distinct values z of the sorted xa and xb, with ``cell_index(xa, z)``
    and ``cell_index(xb, z)``, by one merge (a stable sort of two sorted runs)
    instead of two searches: the count of xa's points up to the last of a run
    of equal values is the count of xa's points <= the value; likewise xb's."""
    pts = np.concatenate((xa, xb))
    order = np.argsort(pts, kind="stable")
    pts = pts[order]
    first = np.ones(pts.size, dtype=bool)
    np.not_equal(pts[1:], pts[:-1], out=first[1:])
    last = np.ones(pts.size, dtype=bool)
    last[:-1] = first[1:]
    in_a = np.cumsum(order < xa.size)[last]
    in_b = np.flatnonzero(last) + 1 - in_a
    return (pts[first], np.clip(in_a - 1, 0, xa.size - 2),
            np.clip(in_b - 1, 0, xb.size - 2))


def l1_distance(a: PiecewiseDensity, b: PiecewiseDensity) -> float:
    """Exact integral of |a - b| on the merged breakpoint partition, each
    density read at the panels' midpoints in the cells the merge gives."""
    z, cell_a, cell_b = _merge_with_cells(a.breakpoints, b.breakpoints)
    mids = 0.5 * (z[:-1] + z[1:])
    at = np.arange(mids.size) + (mids >= z[1:])  # a midpoint rounded onto the right end
    return float(np.sum(np.abs(a(mids, cell_a[at]) - b(mids, cell_b[at])) * np.diff(z)))


def w1_distance(a: PiecewiseDensity, b: PiecewiseDensity) -> float:
    """Kantorovich-Rubinstein W1 = integral of |CDF_a - CDF_b|, exact.

    Both measures must carry the same total mass (relative tolerance 1e-12);
    the transport distance is infinite, here an error, otherwise.
    """
    ma, mb = total_mass(a), total_mass(b)
    scale = max(ma, mb, 1e-300)
    if abs(ma - mb) > 1e-12 * scale:
        raise MassMismatchError(f"total masses differ: {ma} vs {mb}")
    z, cell_a, cell_b = _merge_with_cells(a.breakpoints, b.breakpoints)
    if z.size < 2:
        return 0.0
    du = cdf(a, z, cell_a) - cdf(b, z, cell_b)
    lo, hi = du[:-1], du[1:]
    width = np.diff(z)
    same = lo * hi >= 0.0
    area_same = 0.5 * (np.abs(lo) + np.abs(hi)) * width
    denom = np.where(same, 1.0, np.abs(lo - hi))
    area_cross = 0.5 * (lo * lo + hi * hi) / denom * width
    return float(np.sum(np.where(same, area_same, area_cross)))


def pushforward_affine(p_from: ParticleSystem, p_to: ParticleSystem) -> PiecewiseDensity:
    """Push the source masses onto the target partition (cell-to-cell affine map)."""
    if p_from.n != p_to.n:
        raise ValueError(f"particle counts differ: {p_from.n} vs {p_to.n}")
    return PiecewiseDensity(p_to.x, p_from.q / np.diff(p_to.x))
