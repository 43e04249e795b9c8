"""Initial data and the equal-mass quantile discretization.

``quantile_init`` places ``x_0`` and ``x_N`` at the ends of the convex hull of
the support and the interior particles at the leftmost points where the CDF
reaches the levels ``i * mass / N``; every cell carries mass ``mass / N``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .density import ParticleSystem, PiecewiseDensity, cdf as pw_cdf, collision_gap
from .density import total_mass as pw_mass
from .errors import InitCollisionError, ScenarioFormatError

BISECT_TOL = 1e-14


@dataclass(frozen=True)
class InitialDensity:
    """Non-negative compactly supported density with an evaluable CDF."""

    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    total_mass: float

    def __post_init__(self):
        a, b = self.support
        if not b > a:
            raise ValueError(f"empty support [{a}, {b}]")
        if not 0.0 < self.total_mass < np.inf:
            raise ValueError(f"total mass must be finite and positive, got {self.total_mass}")

    @staticmethod
    def from_blocks(blocks) -> "InitialDensity":
        """Build from disjoint constant blocks [(a, b, height), ...]."""
        blocks = sorted((float(a), float(b), float(h)) for a, b, h in blocks)
        pts, heights = [], []
        for a, b, h in blocks:
            if b <= a or h < 0:
                raise ValueError(f"bad block ({a}, {b}, {h})")
            if pts and a < pts[-1]:
                raise ValueError("blocks must not overlap")
            if pts and a > pts[-1]:
                pts.append(a)
                heights.append(0.0)
            elif not pts:
                pts.append(a)
            heights.append(h)
            pts.append(b)
        step = PiecewiseDensity(np.array(pts), np.array(heights))
        with np.errstate(over="ignore"):  # a mass that overflows is rejected as inf
            mass = pw_mass(step)
        return InitialDensity(pdf=step, cdf=lambda y: pw_cdf(step, y), support=step.support,
                              total_mass=mass)

    @staticmethod
    def from_samples(xs, ys) -> "InitialDensity":
        """Linearly interpolated sample grid; exact piecewise-quadratic CDF."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or xs.shape != ys.shape:
            raise ValueError("need matching 1-d arrays with at least two samples")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("sample positions and values must be finite")
        if np.any(xs[1:] <= xs[:-1]):
            raise ValueError("sample positions must be strictly increasing")
        if np.any(ys < 0):
            raise ValueError("sample values must be non-negative")
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN mass is rejected
            panel = 0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)
            cum = np.concatenate(([0.0], np.cumsum(panel)))
            slope = np.diff(ys) / np.diff(xs)

        def pdf(y):
            y = np.asarray(y, dtype=float)
            out = np.interp(y, xs, ys, left=0.0, right=0.0)
            return float(out) if out.ndim == 0 else out

        def cdf_fn(y):
            y = np.asarray(y, dtype=float)
            yc = np.clip(y, xs[0], xs[-1])
            i = np.clip(np.searchsorted(xs, yc, side="right") - 1, 0, xs.size - 2)
            dy = yc - xs[i]
            out = cum[i] + ys[i] * dy + 0.5 * slope[i] * dy * dy
            out = np.where(y >= xs[-1], cum[-1], out)
            return float(out) if out.ndim == 0 else out

        return InitialDensity(pdf=pdf, cdf=cdf_fn, support=(float(xs[0]), float(xs[-1])),
                              total_mass=float(cum[-1]))

    def quantiles(self, levels) -> np.ndarray:
        """The leftmost x with CDF(x) >= m for every mass level m, by bisection.

        All levels bisect together, one vectorized CDF call per halving, and
        each stops on its own under the ``BISECT_TOL`` width test.
        """
        a, b = self.support
        m = np.minimum(np.asarray(levels, dtype=float), self.total_mass)
        lo = np.full(m.shape, a)
        # invariant: cdf(lo) < m <= cdf(hi); a level already met at a is done
        done = (m <= 0.0) | (np.asarray(self.cdf(lo)) >= m)
        hi = np.where(done, a, b)
        tol = BISECT_TOL * max(1.0, abs(a), abs(b))
        todo = np.flatnonzero(hi - lo > tol)
        while todo.size:
            mid = 0.5 * (lo[todo] + hi[todo])
            up = np.asarray(self.cdf(mid)) >= m[todo]
            hi[todo[up]] = mid[up]
            lo[todo[~up]] = mid[~up]
            todo = todo[hi[todo] - lo[todo] > tol]
        return hi


def quantile_init(rho0: InitialDensity, n: int) -> ParticleSystem:
    """Equal-mass quantile splitting of ``rho0`` into ``n`` cells at t = 0."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a, b = rho0.support
    mass = rho0.total_mass
    x = np.empty(n + 1)
    x[0], x[n] = a, b
    x[1:n] = rho0.quantiles(np.arange(1, n) * mass / n)
    i = collision_gap(x, np.diff(x))
    if i is not None:
        raise InitCollisionError(
            f"quantile levels {i} and {i + 1} nearly coincide at x = {x[i]:.6g}; "
            "increase N or perturb the initial density (interior vacuum / spike)"
        )
    return ParticleSystem(t=0.0, x=x, q=np.full(n, mass / n))


def load_initial_csv(path) -> InitialDensity:
    """Two-column CSV (position, value) with linear interpolation."""
    try:
        with warnings.catch_warnings():  # an empty file is reported below, once
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, delimiter=",", dtype=float)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError("expected two columns (position, value)")
        return InitialDensity.from_samples(data[:, 0], data[:, 1])
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from None
