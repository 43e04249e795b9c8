"""Spans around the public functions of each pbal module, and their reduction.

The wrappers are installed from the benchmark's own files, not inside the
program: each name is replaced in the module where its caller looks it up at
call time (``pbal.cli.quantile_init``, because ``cli`` imported the name;
``pbal.dynamics.rhs_arrays``, because ``integrate`` reaches it through the
module).  A span is ``(id, parent, name, start, end, ok)`` with
``time.monotonic`` stamps, ``ok`` false when the call raised; a span opened in a thread with no open span of its own (a ``sweep``
pool worker) takes the op's root span as its parent.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from collections import defaultdict


class Recorder:
    """Spans and counters of one op, kept in memory until the op ends."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, name, value):
        with self._lock:
            self.counts[name] += value

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span named ``name`` per call; ``count(recorder,
        args, result, seconds)`` then reads counters off a call that returned."""

        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            with self._lock:
                if stack:
                    parent = stack[-1]
                elif self.root is None:
                    self.root, parent = sid, None
                else:
                    parent = self.root
            stack.append(sid)
            ok = False
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.monotonic()
                stack.pop()
                with self._lock:
                    self.spans.append((sid, parent, name, start, end, ok))
            if count is not None:
                count(self, args, result, end - start)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# what is wrapped, and the counters read at each boundary

def _quantile_init(rec, args, p0, seconds):
    rec.add(f"initial.quantile_init_s.n{p0.n}", seconds)


def _step_stats(rec, args, traj, seconds):
    n = args[0].n
    rec.add(f"integrator.integrate_s.n{n}", seconds)
    for key, value in traj.step_stats.as_dict().items():
        rec.add(f"integrator.{key}", value)
        rec.add(f"integrator.{key}.n{n}", value)


def _rhs_particles(rec, args, result, seconds):
    rec.add("dynamics.rhs_particles", len(args[1]))


def _good_v_states(rec, args, result, seconds):
    traj = args[0]
    rec.add("diagnostics.good_v_states", len(traj.steps or traj.snapshots))


def _entropy_evals(rec, args, report, seconds):
    rec.add("diagnostics.entropy_evals", len(report.residuals) * report.metadata["snapshots"])


def _fv_steps(rec, args, gtraj, seconds):
    rec.add("reference.fv_steps", gtraj.steps)


def _bytes_at(index):
    def count(rec, args, result, seconds):
        rec.add("io.bytes_written", os.path.getsize(args[index]))
    return count


# (module, attribute, span name, counter); the per-N counters (``.n3200``)
# stay in the spans file and feed no metric
TARGETS = [
    ("pbal.cli", "main", "cli.main", None),
    ("pbal.cli", "_run_one", "cli.job", None),
    ("pbal.cli", "_resolve_scenario", "scenario.resolve", None),
    ("pbal.cli", "quantile_init", "initial.quantile_init", _quantile_init),
    ("pbal.cli", "integrate", "integrator.integrate", _step_stats),
    ("pbal.dynamics", "rhs_arrays", "dynamics.rhs", _rhs_particles),
    ("pbal.dynamics", "convolve_dxW_arrays", "dynamics.convolve", None),
    ("pbal.dynamics", "source_rate_arrays", "dynamics.source", None),
    ("pbal.diagnostics", "compute_envelopes", "diagnostics.compute_envelopes", None),
    ("pbal.diagnostics", "check_bounds", "diagnostics.check_bounds", None),
    ("pbal.diagnostics", "good_v_audit", "diagnostics.good_v_audit", _good_v_states),
    ("pbal.diagnostics", "entropy_residual", "diagnostics.entropy_residual", _entropy_evals),
    ("pbal.diagnostics", "equicontinuity_modulus", "diagnostics.equicontinuity_modulus", None),
    ("pbal.cli", "fv_run", "reference.fv_run", _fv_steps),
    ("pbal.reference", "interface_velocity", "reference.interface_velocity", None),
    ("pbal.reference", "compare_l1", "reference.compare_l1", None),
    # distances: each module that holds its own reference to the functions;
    # reference.compare_l1 imports pbal.density's at call time
    ("pbal.cli", "l1_distance", "density.distance", None),
    ("pbal.density", "l1_distance", "density.distance", None),
    ("pbal.diagnostics", "l1_distance", "density.distance", None),
    ("pbal.diagnostics", "w1_distance", "density.distance", None),
    ("pbal.io", "write_particle_csv", "io.write", _bytes_at(1)),
    ("pbal.io", "write_grid_csv", "io.write", _bytes_at(1)),
    ("pbal.io", "write_density_svg", "io.write", _bytes_at(1)),
    ("pbal.io", "write_manifest", "io.write", _bytes_at(0)),
    ("pbal.io", "write_report", "io.write", _bytes_at(0)),
    ("pbal.io", "write_envelope_csv", "io.write", _bytes_at(0)),
]


def install(recorder: Recorder):
    """Replace every target with its recording wrapper."""
    for module_name, attr, span_name, count in TARGETS:
        module = importlib.import_module(module_name)
        setattr(module, attr, recorder.wrap(span_name, getattr(module, attr), count))


# ---------------------------------------------------------------------------
# reduction

def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def reduce_spans(spans):
    """Per span name: ``calls``, ``raised``, inclusive ``total_s`` and ``self_s``.

    A span's self time is its duration minus the union of its children's
    intervals, so children that overlap (pool threads) are subtracted once.
    """
    children = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        children[parent].append((start, end))
    out = defaultdict(lambda: {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, _, name, start, end, ok in spans:
        row = out[name]
        row["calls"] += 1
        row["raised"] += not ok
        row["total_s"] += end - start
        row["self_s"] += (end - start) - _covered(children.get(sid, ()), start, end)
    return dict(out)


PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.job_concurrency": "ratio",
    "scenario.resolve_s": "s",
    "initial.quantile_init_s": "s",
    "initial.quantile_init_calls": "count",
    "integrator.integrate_s": "s",
    "integrator.self_s": "s",
    "integrator.accepted": "count",
    "integrator.rejected_error": "count",
    "integrator.rejected_guard": "count",
    "integrator.rejected_switch": "count",
    "integrator.rhs_evals": "count",
    "integrator.accept_ratio": "ratio",
    "dynamics.rhs_s": "s",
    "dynamics.rhs_calls": "count",
    "dynamics.rhs_raised": "count",
    "dynamics.rhs_us_per_particle": "us",
    "dynamics.convolve_s": "s",
    "dynamics.source_s": "s",
    "diagnostics.entropy_residual_s": "s",
    "diagnostics.entropy_evals": "count",
    "diagnostics.good_v_audit_s": "s",
    "diagnostics.good_v_states": "count",
    "diagnostics.compute_envelopes_s": "s",
    "diagnostics.check_bounds_s": "s",
    "diagnostics.equicontinuity_modulus_s": "s",
    "reference.fv_run_s": "s",
    "reference.fv_steps": "count",
    "reference.interface_velocity_s": "s",
    "reference.compare_l1_s": "s",
    "density.distance_s": "s",
    "density.distance_calls": "count",
    "io.write_s": "s",
    "io.bytes_written": "B",
    "trace.overhead_s": "s",
}


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced op (all but ``trace.overhead_s``)."""
    by_name = reduce_spans(spans)

    def stat(name, key):
        return by_name.get(name, {}).get(key, 0)

    def total(name):
        return stat(name, "total_s")

    def count(name):
        return int(counts.get(name, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    step_keys = ("accepted", "rejected_error", "rejected_guard", "rejected_switch", "rhs_evals")
    steps = {k: count(f"integrator.{k}") for k in step_keys}
    attempts = sum(steps[k] for k in step_keys[:4])
    return {
        "cli.self_s": stat("cli.main", "self_s"),
        "cli.job_concurrency": ratio(total("cli.job"), total("cli.main")),
        "scenario.resolve_s": total("scenario.resolve"),
        "initial.quantile_init_s": total("initial.quantile_init"),
        "initial.quantile_init_calls": stat("initial.quantile_init", "calls"),
        "integrator.integrate_s": total("integrator.integrate"),
        "integrator.self_s": stat("integrator.integrate", "self_s"),
        **{f"integrator.{k}": v for k, v in steps.items()},
        "integrator.accept_ratio": ratio(steps["accepted"], attempts),
        "dynamics.rhs_s": total("dynamics.rhs"),
        # an evaluation that raised (StageFailure on a degenerate stage) did no
        # RHS work, and the integrator does not count it in rhs_evals either
        "dynamics.rhs_calls": stat("dynamics.rhs", "calls") - stat("dynamics.rhs", "raised"),
        "dynamics.rhs_raised": stat("dynamics.rhs", "raised"),
        "dynamics.rhs_us_per_particle": 1e6 * ratio(total("dynamics.rhs"),
                                                    count("dynamics.rhs_particles")),
        "dynamics.convolve_s": total("dynamics.convolve"),
        "dynamics.source_s": total("dynamics.source"),
        "diagnostics.entropy_residual_s": total("diagnostics.entropy_residual"),
        "diagnostics.entropy_evals": count("diagnostics.entropy_evals"),
        "diagnostics.good_v_audit_s": total("diagnostics.good_v_audit"),
        "diagnostics.good_v_states": count("diagnostics.good_v_states"),
        "diagnostics.compute_envelopes_s": total("diagnostics.compute_envelopes"),
        "diagnostics.check_bounds_s": total("diagnostics.check_bounds"),
        "diagnostics.equicontinuity_modulus_s": total("diagnostics.equicontinuity_modulus"),
        "reference.fv_run_s": total("reference.fv_run"),
        "reference.fv_steps": count("reference.fv_steps"),
        "reference.interface_velocity_s": total("reference.interface_velocity"),
        "reference.compare_l1_s": total("reference.compare_l1"),
        "density.distance_s": total("density.distance"),
        "density.distance_calls": stat("density.distance", "calls"),
        "io.write_s": total("io.write"),
        "io.bytes_written": count("io.bytes_written"),
    }


def largest_self(spans):
    """Span name with the largest summed self time, and that time."""
    by_name = reduce_spans(spans)
    name = max(by_name, key=lambda k: by_name[k]["self_s"])
    return name, by_name[name]["self_s"]
