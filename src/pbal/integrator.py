"""Adaptive explicit time integration of the particle system.

``integrate`` and the scalar envelope solver share one embedded
Dormand-Prince 5(4) core with FSAL and Hairer's DOPRI5 PI step-size
controller (no growth right after a rejection).  The particle system is
stability-limited, where a proportional controller oscillates.  Step
endpoints are forced onto the snapshot times, so snapshots are genuine scheme
states; a step shortened to land on one leaves the controller's proposal and
error history alone.  A step is accepted when its error is at most 1 and
its state passes the ordering guard; an upwind switch needs no rule of its
own, since dx_i/dt = v_sel,i * U_i is 0 on both branches where U_i changes
sign.  A degenerate stage state or a near-collision halves the step, and at
the step floor raises ``CollisionExtinctionError``.

One workspace per ``_dopri5`` call holds the stages ``k``, the stage state
and the error vector.  ``_stage_sum`` forms each stage state ``y + h *
(k[:i].T @ A_i)`` and the error vector there by the operations of that
expression (``np.matmul(..., out=)``, ``*= h``, ``+= y``), so every output
keeps its bits; stage 1, a matmul with inner dimension 1, is the one product
``k_0 * a_10``.  Only ``y_new`` is allocated per step, so an accepted state
is never overwritten, and ``integrate``'s error norm reuses two buffers.

Per run, ``integrate`` builds ``dynamics.plan(s, p0)`` once, the record of
what no state of the run can change, and every RHS evaluation reads it.
``snapshot_schedule`` holds the rules for a run's snapshot times, which
``SolverConfig.resolved`` and the finite-volume oracle's ``fv_run`` share.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import dynamics
from .density import ParticleSystem, collision_gap
from .errors import CollisionExtinctionError
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
# PI controller exponents (Hairer's DOPRI5): err**-ALPHA * err_old**BETA.
BETA = 0.08
ALPHA = 0.2 - 0.75 * BETA
ERR_OLD_FLOOR = 1e-4


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    rel_tol: float = 1e-8
    abs_tol: float = 1e-8
    max_step: Optional[float] = None
    min_step: Optional[float] = None
    snapshot_times: Optional[np.ndarray] = None
    store_steps: bool = False

    def resolved(self, t0=0.0):  # t0: the run's initial time
        snaps = snapshot_schedule(self.t_end, self.snapshot_times, t0)
        for name in ("rel_tol", "abs_tol"):
            if not 0.0 < getattr(self, name) < np.inf:  # also false for NaN
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        max_step = self.max_step if self.max_step is not None else self.t_end / 10.0
        min_step = self.min_step if self.min_step is not None else 1e-10 * self.t_end
        if not 0.0 < min_step < np.inf:  # a step floor never reached hangs integrate
            raise ValueError(f"min_step must be finite and positive, got {min_step}")
        if not min_step < max_step:
            raise ValueError(f"need min_step < max_step, got {min_step} >= {max_step}")
        return max_step, min_step, snaps


def snapshot_schedule(t_end, snapshot_times=None, t0=0.0):
    """Sorted snapshot times of a run from ``t0`` to ``t_end`` (11 equispaced
    from 0 by default), the one rule of ``integrate`` and ``fv_run``: it raises
    ``ValueError`` unless ``t_end`` is finite, positive and not before ``t0``
    and every time is finite and in [t0, t_end], so every stop is reached."""
    if not 0.0 < t_end < np.inf:  # also false for NaN
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    times = np.linspace(0.0, t_end, 11) if snapshot_times is None else snapshot_times
    snaps = np.sort(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(snaps)):
        raise ValueError("snapshot_times must be finite")
    if t_end < t0:
        raise ValueError(f"t_end {t_end} is before the initial time {t0}")
    if snaps.size and (snaps[0] < t0 - 1e-15 or snaps[-1] > t_end * (1 + 1e-12)):
        raise ValueError(f"snapshot_times {snaps[0]}..{snaps[-1]} must lie in [{t0}, t_end]")
    return snaps


@dataclass
class StepStats:
    accepted: int = 0
    rejected_error: int = 0
    rejected_guard: int = 0
    rhs_evals: int = 0

    def as_dict(self):
        return asdict(self)


@dataclass
class Trajectory:
    snapshots: list = field(default_factory=list)
    step_stats: StepStats = field(default_factory=StepStats)
    steps: Optional[list] = None

    @property
    def times(self):
        return np.array([p.t for p in self.snapshots])


def step_guard(x_next, gaps=None):
    """Check a candidate state's ordering by ``density.collision_gap``, the
    test ``ParticleSystem`` applies.

    Returns ``(ok, reason, index)``: the index of the offending gap, None when
    the state is accepted.  ``gaps`` is ``np.diff(x_next)`` when the caller
    already has it.  Mass positivity needs no check here: a state with a
    non-positive cell mass fails its FSAL stage evaluation first.
    """
    if gaps is None:
        gaps = np.diff(x_next)
    i = collision_gap(x_next, gaps)
    if i is not None:
        return False, f"ordering: gap {gaps[i]:.3e} at index {i}", i
    return True, "", None


def _growth(err, err_old):
    """PI step-size factor; ``err_old = 1`` gives the P factor of a rejection."""
    if err == 0.0:
        return MAX_GROWTH
    return min(MAX_GROWTH, max(MIN_SHRINK, SAFETY * err ** -ALPHA * err_old ** BETA))


_SHRINK, _HALVE = "shrink", "halve"  # a judge's verdicts on a rejected step


def _stage_sum(k, a, h, out, y=None):
    """``h * (k[:len(a)].T @ a)``, plus ``y`` when given, formed in ``out``
    with the float operations of that expression, so bit for bit."""
    if len(a) == 1:  # a matmul with inner dimension 1 is the one product
        np.multiply(k[0, ...], a[0], out=out)
    else:
        np.matmul(k[: len(a)].T, a, out=out)
    out *= h
    if y is not None:
        out += y
    return out


def _dopri5(f, t, y, stops, h, max_step, min_step, norm, judge, stage_errors=()):
    """Dormand-Prince 5(4) steps from ``(t, y)`` through the increasing ``stops``.

    ``f(t, y, dy)`` writes dy/dt into the array ``dy`` and returns ``aux``.
    ``judge(t, h, y_new, aux_new, err, failure)`` holds the caller's rejection
    rules, ``aux_new`` being ``f``'s return at ``y_new``: None accepts the
    step, ``_SHRINK``/``_HALVE`` reject it, raising stops.  ``failure`` is a
    stage's ``stage_errors`` exception (``y_new``, ``aux_new``, ``err`` are
    None then).
    Yields ``(t, y, n)`` at the start and after every accepted step, ``n`` the
    number of stops reached, each exactly.
    """
    def advance(j):
        while j < len(stops) and stops[j] <= t + 1e-14 * max(1.0, abs(stops[j])):
            j += 1
        return j

    j = advance(0)
    yield t, y, j
    if j == len(stops):
        return
    shape = np.shape(y)
    k = np.empty((7,) + shape)
    stage, err_vec = np.empty(shape), np.empty(shape)
    f(t, y, k[0, ...])  # k[i, ...] is a view also when y is a scalar
    err_old, after_reject = ERR_OLD_FLOOR, False
    h = min(h, max_step)
    while j < len(stops):
        remaining = stops[j] - t
        hit = h >= remaining - 1e-14 * max(1.0, abs(stops[j]))
        h_try = min(h, remaining)
        try:
            for i in range(1, 6):
                f(t + _C[i] * h_try, _stage_sum(k, _A[i], h_try, stage, y), k[i, ...])
            y_new = _stage_sum(k, _A[6], h_try, np.empty(shape), y)
            aux_new = f(t + h_try, y_new, k[6, ...])
        except stage_errors as exc:
            verdict = judge(t, h_try, None, None, None, exc)
        else:
            err = norm(y, y_new, _stage_sum(k, _E, h_try, err_vec))
            verdict = judge(t, h_try, y_new, aux_new, err, None)
        if verdict is not None:
            after_reject = True
            h = max(h_try * (_growth(err, 1.0) if verdict is _SHRINK else 0.5), min_step)
            continue
        t = stops[j] if hit else t + h_try
        y = y_new
        k[0] = k[6]  # FSAL: the next step's first stage
        if h_try == h:
            # a step shortened onto a stop does not feed the controller
            growth = _growth(err, err_old)
            h = min(max_step, max(h_try * (min(growth, 1.0) if after_reject else growth), min_step))
            err_old, after_reject = max(err, ERR_OLD_FLOOR), False
        j = advance(j)
        yield t, y, j


def _error_norm(abs_tol, rel_tol, size, count):
    """``norm(y, y5, err_vec)``: the root of ``sum(ratio**2) / count``, where
    ``ratio = err_vec / (abs_tol + rel_tol * max(|y|, |y5|))`` over ``size``
    floats, by the operations of that expression in two buffers, so bit for
    bit.  With ``count > size`` it is the RMS over ``count`` components whose
    last ``count - size`` ratios are 0."""
    work = np.empty((2, size))

    def norm(y, y5, err_vec):
        scale = np.maximum(np.abs(y, out=work[0]), np.abs(y5, out=work[1]), out=work[0])
        scale *= rel_tol
        scale += abs_tol
        ratio = np.divide(err_vec, scale, out=work[1])
        return float(np.sqrt(np.sum(np.square(ratio, out=ratio)) / count))

    return norm


def integrate(p0: ParticleSystem, s: Scenario, cfg: SolverConfig) -> Trajectory:
    """Advance the system to ``cfg.t_end`` recording states at the snapshot times.

    The run starts at ``p0.t``, so ``cfg``'s snapshot times and ``t_end``
    may not precede it.  The unknowns are the positions, followed by the
    masses unless ``dynamics.plan(s, p0)``, built once, fixes them (no
    source); every RHS evaluation reads that plan.  The error norm is the
    RMS over positions and masses either way.
    """
    max_step, min_step, snaps = cfg.resolved(p0.t)
    n = p0.n
    traj = Trajectory(steps=[] if cfg.store_steps else None)
    stats = traj.step_stats
    plan = dynamics.plan(s, p0)

    def masses(y):
        return y[n + 1:] if plan.q is None else plan.q

    def f_eval(ti, yi, dy):
        # the ordering guard reads the gaps off the candidate's FSAL stage
        x = yi[: n + 1]
        gaps = x[1:] - x[:-1]  # np.diff(x), without its call overhead
        dynamics.rhs_arrays(ti, x, masses(yi), s, gaps=gaps, out=dy, plan=plan)
        stats.rhs_evals += 1
        return gaps

    y0 = np.concatenate((p0.x,) if plan.q is not None else (p0.x, p0.q))
    norm = _error_norm(cfg.abs_tol, cfg.rel_tol, y0.size, 2 * n + 1)

    def judge(t, h, y5, gaps, err, failure):
        at_floor = h <= min_step * (1 + 1e-9)
        if failure is not None:
            stats.rejected_guard += 1
            verdict, index = _HALVE, failure.index
            why = (f"step underflow at t = {t:.6g}: intermediate state degenerate "
                   f"({failure} at index {index})")
        elif err > 1.0:
            stats.rejected_error += 1
            verdict, index = _SHRINK, None
            why = f"step underflow at t = {t:.6g}: error control cannot converge"
        else:
            ok, reason, index = step_guard(y5[: n + 1], gaps)
            if ok:
                stats.accepted += 1
                return None
            stats.rejected_guard += 1
            verdict, why = _HALVE, f"collision/extinction at t = {t:.6g} ({reason})"
        if at_floor:
            raise CollisionExtinctionError(why, t=t, index=index)
        return verdict

    stops = [*snaps, cfg.t_end]
    recorded = 0
    steps = _dopri5(f_eval, float(p0.t), y0, stops,
                    cfg.t_end - p0.t, max_step, min_step, norm, judge,
                    stage_errors=dynamics.StageFailure)
    for t, y, reached in steps:
        if cfg.store_steps:
            traj.steps.append(ParticleSystem(t=t, x=y[: n + 1], q=masses(y)))
        for ts in snaps[recorded:reached]:  # a snapshot is the stored step at its time
            stored = cfg.store_steps and traj.steps[-1].t == ts
            traj.snapshots.append(traj.steps[-1] if stored
                                  else ParticleSystem(t=ts, x=y[: n + 1], q=masses(y)))
        recorded = reached
    return traj


def solve_scalar_ode(g, t0, y0, t_eval):
    """Scalar envelope ODE driver on the same embedded pair (tolerances 1e-8).

    Returns the solution sampled at ``t_eval``; values after a blow-up time
    (|y| > 1e14) are ``inf``.  Used by the diagnostics envelopes, where ``g``
    may grow superlinearly for inadmissible data.
    """
    t_eval = np.asarray(t_eval, dtype=float)
    out = np.full(t_eval.size, np.inf)
    span = float(t_eval[-1]) - t0 if t_eval.size else 0.0
    min_step = 1e-13 * max(1.0, span)

    def norm(y, y5, err_vec):
        return abs(float(err_vec)) / (1e-8 + 1e-8 * max(abs(y), abs(y5)))

    def f(t, y, dy):
        dy[...] = g(t, float(y))

    def judge(t, h, y5, _, err, failure):
        if not np.isfinite(y5) or abs(y5) > 1e14:
            raise OverflowError  # blow-up: the rest of ``out`` stays inf
        return _SHRINK if err > 1.0 and h > min_step else None

    steps = _dopri5(f, float(t0), float(y0), t_eval,
                    span / 50.0, np.inf, min_step, norm, judge)
    done = 0
    try:  # a blowing-up stage overflows or makes inf - inf; ``judge`` ends it
        with np.errstate(over="ignore", invalid="ignore"):
            for _, y, reached in steps:
                out[done:reached] = y
                done = reached
    except (OverflowError, FloatingPointError):
        pass
    return out
