"""Adaptive explicit time integration of the particle system.

Embedded Dormand-Prince 5(4) pair with a standard proportional controller,
growth clamped to 5x per step.  The right-hand side is only piecewise smooth
(the upwind branch switches when a free velocity crosses zero), so a step
whose endpoint sign pattern disagrees with its start is halved down to
``min_step`` and then accepted; accuracy is first order locally at switching
times.  Ordering and mass positivity are enforced on every accepted step.
Snapshots are genuine scheme states: step endpoints are forced onto the
requested snapshot times, never interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dynamics
from .density import ParticleSystem
from .errors import CollisionExtinctionError, EnvelopeBlowupError
from .scenario import Scenario

# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is the next step's first).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B5 - _B4

MAX_GROWTH = 5.0
MIN_SHRINK = 0.2
SAFETY = 0.9


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    rel_tol: float = 1e-8
    abs_tol: float = 1e-8
    max_step: Optional[float] = None
    min_step: Optional[float] = None
    snapshot_times: Optional[np.ndarray] = None
    guard_gap: float = 1e-12
    store_steps: bool = False

    def resolved(self):
        max_step = self.max_step if self.max_step is not None else self.t_end / 10.0
        min_step = self.min_step if self.min_step is not None else 1e-10 * self.t_end
        if self.snapshot_times is None:
            snaps = np.linspace(0.0, self.t_end, 11)
        else:
            snaps = np.sort(np.asarray(self.snapshot_times, dtype=float))
        if not (self.t_end > 0 and self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("t_end and tolerances must be positive")
        if not min_step < max_step:
            raise ValueError(f"need min_step < max_step, got {min_step} >= {max_step}")
        if snaps.size and (snaps[0] < -1e-15 or snaps[-1] > self.t_end * (1 + 1e-12)):
            raise ValueError("snapshot_times must lie in [0, t_end]")
        return max_step, min_step, snaps


@dataclass
class StepStats:
    accepted: int = 0
    rejected_error: int = 0
    rejected_guard: int = 0
    rejected_switch: int = 0
    rhs_evals: int = 0

    def as_dict(self):
        return {
            "accepted": self.accepted,
            "rejected_error": self.rejected_error,
            "rejected_guard": self.rejected_guard,
            "rejected_switch": self.rejected_switch,
            "rhs_evals": self.rhs_evals,
        }


@dataclass
class Trajectory:
    snapshots: list = field(default_factory=list)
    step_stats: StepStats = field(default_factory=StepStats)
    steps: Optional[list] = None

    @property
    def times(self):
        return np.array([p.t for p in self.snapshots])

    def at_time(self, t, tol=1e-9):
        for p in self.snapshots:
            if abs(p.t - t) <= tol * max(1.0, abs(t)):
                return p
        raise KeyError(f"no snapshot at t = {t}")


def step_guard(x_next, q_next, cfg: SolverConfig):
    """Check a candidate state for ordering and mass positivity.

    Returns ``(ok, reason, index)``: the index of the offending gap or cell
    mass, None when the state is accepted.
    """
    gaps = np.diff(x_next)
    span = x_next[-1] - x_next[0]
    if span <= 0 or np.any(gaps < cfg.guard_gap * span):
        i = int(np.argmin(gaps))
        return False, f"ordering: gap {gaps[i]:.3e} at index {i}", i
    if np.any(q_next <= 0.0):
        i = int(np.argmin(q_next))
        return False, f"mass: q[{i}] = {q_next[i]:.3e} <= 0", i
    return True, "", None


def _sign_pattern(U, scale):
    band = 1e-12 * scale
    return np.where(U > band, 1, np.where(U < -band, -1, 0))


def _switch_between(U0, U1):
    scale = max(1.0, float(np.max(np.abs(U0))), float(np.max(np.abs(U1))))
    s0 = _sign_pattern(U0, scale)
    s1 = _sign_pattern(U1, scale)
    return bool(np.any(s0 * s1 < 0))


def integrate(p0: ParticleSystem, s: Scenario, cfg: SolverConfig) -> Trajectory:
    """Advance the system to ``cfg.t_end`` recording states at the snapshot times."""
    max_step, min_step, snaps = cfg.resolved()
    n = p0.n
    y = np.concatenate((p0.x, p0.q))
    t = float(p0.t)
    traj = Trajectory(steps=[] if cfg.store_steps else None)
    stats = traj.step_stats

    def f_eval(ti, yi):
        xdot, qdot, U, _ = dynamics.rhs_arrays(ti, yi[: n + 1], yi[n + 1:], s)
        stats.rhs_evals += 1
        return np.concatenate((xdot, qdot)), U

    snap_iter = list(snaps)
    while snap_iter and abs(snap_iter[0] - t) <= 1e-14 * max(1.0, abs(t)):
        traj.snapshots.append(ParticleSystem(t=t, x=y[: n + 1], q=y[n + 1:]))
        snap_iter.pop(0)
    if cfg.store_steps:
        traj.steps.append(ParticleSystem(t=t, x=y[: n + 1], q=y[n + 1:]))

    k1, U1 = f_eval(t, y)
    h = min(max_step, cfg.t_end - t)
    k = np.empty((7, y.size))

    while t < cfg.t_end * (1 - 1e-15):
        next_stop = snap_iter[0] if snap_iter else cfg.t_end
        h = min(h, max_step, next_stop - t)
        hit_stop = h >= next_stop - t - 1e-14 * max(1.0, next_stop)

        k[0] = k1
        failed_stage = None
        try:
            for i in range(1, 6):
                yi = y + h * (k[:i].T @ _A[i])
                k[i], _ = f_eval(t + _C[i] * h, yi)
            y5 = y + h * (k[:6].T @ _A[6])
            k[6], U7 = f_eval(t + h, y5)
        except dynamics.StageFailure as exc:
            failed_stage = exc

        if failed_stage is not None:
            stats.rejected_guard += 1
            if h <= min_step * (1 + 1e-9):
                raise CollisionExtinctionError(
                    f"step underflow at t = {t:.6g}: intermediate state degenerate "
                    f"({failed_stage} at index {failed_stage.index})",
                    t=t, index=failed_stage.index,
                )
            h = max(0.5 * h, min_step)
            continue

        err_vec = h * (k.T @ _E)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))

        if err > 1.0:
            stats.rejected_error += 1
            if h <= min_step * (1 + 1e-9):
                raise CollisionExtinctionError(
                    f"step underflow at t = {t:.6g}: error control cannot converge", t=t
                )
            h = max(h * max(MIN_SHRINK, SAFETY * err ** -0.2), min_step)
            continue

        ok, reason, bad = step_guard(y5[: n + 1], y5[n + 1:], cfg)
        if not ok:
            stats.rejected_guard += 1
            if h <= min_step * (1 + 1e-9):
                raise CollisionExtinctionError(
                    f"collision/extinction at t = {t:.6g} ({reason})", t=t, index=bad
                )
            h = max(0.5 * h, min_step)
            continue

        if _switch_between(U1, U7) and h > min_step * (1 + 1e-9):
            # Upwind branch flips inside the step: halve until the endpoint
            # patterns agree or the step floor is reached (then accept).
            stats.rejected_switch += 1
            h = max(0.5 * h, min_step)
            continue

        # accepted
        stats.accepted += 1
        t = next_stop if hit_stop else t + h
        y = y5
        k1 = k[6]
        U1 = U7
        if cfg.store_steps:
            traj.steps.append(ParticleSystem(t=t, x=y[: n + 1], q=y[n + 1:]))
        while snap_iter and t >= snap_iter[0] - 1e-14 * max(1.0, snap_iter[0]):
            traj.snapshots.append(ParticleSystem(t=snap_iter[0], x=y[: n + 1], q=y[n + 1:]))
            snap_iter.pop(0)
        growth = MAX_GROWTH if err == 0.0 else min(MAX_GROWTH, max(MIN_SHRINK, SAFETY * err ** -0.2))
        h = min(max_step, max(h * growth, min_step))

    return traj


def solve_scalar_ode(g, t0, y0, t_eval, rel_tol=1e-8, abs_tol=1e-8, blowup=1e14):
    """Scalar envelope ODE driver on the same embedded pair.

    Returns the solution sampled at ``t_eval``; values after a blow-up time
    are ``inf``.  Used by the diagnostics envelopes, where ``g`` may grow
    superlinearly for inadmissible data.
    """
    t_eval = np.asarray(t_eval, dtype=float)
    out = np.full(t_eval.size, np.inf)
    t = float(t0)
    y = float(y0)
    idx = 0
    while idx < t_eval.size and t_eval[idx] <= t + 1e-14 * max(1.0, abs(t)):
        out[idx] = y
        idx += 1
    if idx >= t_eval.size:
        return out
    t_end = float(t_eval[-1])
    h = (t_end - t) / 50.0
    min_step = 1e-13 * max(1.0, t_end - t)
    k = np.empty(7)
    k[0] = g(t, y)
    while t < t_end * (1 - 1e-15) and idx < t_eval.size:
        next_stop = t_eval[idx]
        h = min(h, next_stop - t) if next_stop > t else h
        hit = h >= next_stop - t - 1e-14 * max(1.0, next_stop)
        try:
            for i in range(1, 6):
                k[i] = g(t + _C[i] * h, y + h * float(k[:i] @ _A[i]))
            y5 = y + h * float(k[:6] @ _A[6])
            k[6] = g(t + h, y5)
        except (OverflowError, FloatingPointError):
            return out
        if not np.isfinite(y5) or abs(y5) > blowup:
            return out
        err_val = abs(h * float(k @ _E)) / (abs_tol + rel_tol * max(abs(y), abs(y5)))
        if err_val > 1.0 and h > min_step:
            h = max(h * max(MIN_SHRINK, SAFETY * err_val ** -0.2), min_step)
            k[0] = g(t, y)
            continue
        t = next_stop if hit else t + h
        y = y5
        k[0] = k[6]
        while idx < t_eval.size and t >= t_eval[idx] - 1e-14 * max(1.0, t_eval[idx]):
            out[idx] = y
            idx += 1
        growth = MAX_GROWTH if err_val == 0.0 else min(MAX_GROWTH, max(MIN_SHRINK, SAFETY * err_val ** -0.2))
        h = max(h * growth, min_step)
    if idx < t_eval.size and not np.isfinite(out[idx]):
        raise EnvelopeBlowupError(f"envelope solution exceeded {blowup:g} before t = {t_end}")
    return out
