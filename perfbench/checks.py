"""Correctness checks on the files each workload's CLI command writes.

Each check returns a list of failure messages; an empty list means the op's
output is correct.  A missing or unreadable file is a failure, not an error.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

# sweep: N = 800..3200 refinement rates ranged over 0.78-0.98 on the seeded inputs
MIN_SWEEP_RATE = 0.75
# validate: final particle-vs-grid L1 distance, as a share of the initial mass
MAX_VALIDATE_L1 = 0.03
# audit: mass of a source-free scenario is conserved to roundoff
MASS_RTOL = 1e-9


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _guard(check):
    """Turn a missing or malformed output file into a failure message."""

    @functools.wraps(check)
    def guarded(out: Path, *args):
        try:
            return check(Path(out), *args)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output in {out}: {type(exc).__name__}: {exc}"]

    return guarded


@_guard
def check_audit(out: Path, n: int):
    """Bounds all hold, no good-v violation, res_neg <= 1/N, constant mass."""
    failures = []
    bad = [r for r in _read_json(out / "bounds.json") if r["ok"] is not True]
    if bad:
        failures.append(f"{len(bad)} bound records not ok, first: {bad[0]}")
    violations = _read_json(out / "good_v.json")
    if violations:
        failures.append(f"{len(violations)} good-v violations")
    res_neg = _read_json(out / "entropy.json")["res_neg"]
    if not res_neg <= 1.0 / n:
        failures.append(f"res_neg = {res_neg} > 1/N = {1.0 / n}")
    mass = [float(r["mass"]) for r in _read_csv(out / "envelopes.csv")]
    if not mass:
        failures.append("envelopes.csv has no rows")
    elif max(abs(m - mass[0]) for m in mass) > MASS_RTOL * abs(mass[0]):
        failures.append(f"mass drifts from {mass[0]} to range [{min(mass)}, {max(mass)}]")
    return failures


@_guard
def check_sweep(out: Path):
    """l1_spacetime decreases with N, and every refinement rate is >= 0.75."""
    rows = _read_csv(out / "sweep.csv")
    if len(rows) < 2:
        return [f"sweep.csv has {len(rows)} rows, need at least 2"]
    failures = []
    ns = [int(r["n"]) for r in rows]
    l1 = [float(r["l1_spacetime"]) for r in rows]
    if ns != sorted(ns) or any(b >= a for a, b in zip(l1, l1[1:])):
        failures.append(f"l1_spacetime does not decrease with N: {list(zip(ns, l1))}")
    rates = [float(r["rate"]) for r in rows[1:]]
    if not all(rate >= MIN_SWEEP_RATE for rate in rates):
        failures.append(f"refinement rates {rates} below {MIN_SWEEP_RATE}")
    return failures


@_guard
def check_validate(out: Path, mass0: float):
    """The final particle-vs-grid L1 distance is <= 0.03 x the initial mass."""
    rows = _read_csv(out / "validate.csv")
    if not rows:
        return ["validate.csv has no rows"]
    final = float(rows[-1]["l1"])
    if not (math.isfinite(final) and final <= MAX_VALIDATE_L1 * mass0):
        return [f"final L1 {final} > {MAX_VALIDATE_L1} x mass {mass0}"]
    return []


def check_trace(metrics):
    """Every RHS evaluation the integrator counted passed through the traced
    ``dynamics.rhs_arrays``, and no other caller reached it.  Both counts
    leave out evaluations that raised."""
    if metrics["dynamics.rhs_calls"] != metrics["integrator.rhs_evals"]:
        return [f"dynamics.rhs_calls = {metrics['dynamics.rhs_calls']} but "
                f"integrator.rhs_evals = {metrics['integrator.rhs_evals']}"]
    return []
