"""pbal benchmark runner: one workload, one seed, a closed loop of CLI ops.

    python3 perfbench/run.py --workload audit_congested --seed 1 --seconds 32 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
this file sits in.  Each op is one ``pbal`` command (``pbal.cli.main(argv)``)
in a fresh process, started only after the previous one ended.  Op ``k``
gets its own input, generated from ``--seed`` and ``k``; the outputs of every
op are checked.  Ops repeat while the next one is expected to end within half
an op past ``--seconds``, and at least one runs.  With ``--trace 1`` untraced
and traced ops alternate, each pair on one input, and at least one pair runs.

``--trace 0`` reports the end-to-end metrics (medians over the run's ops);
``--trace 1`` reports the per-layer metrics of the traced ops, reduced from
their spans, plus ``trace.overhead_s``: traced minus untraced ``wall_s``,
median over the pairs.
The last line of standard output is the JSON result; a result file with the
machine record, every op and (traced) the spans is written under
``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import checks, inputs, machine, tracing  # noqa: E402

# Import-only processes per run, so the set-up median has enough samples.
SETUP_PROBES = 3
# A run ends within this many seconds: an op still running then is killed
# and counts as failed, and no further op starts.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# workloads: an op's seeded inputs, its command, and the check of its output

def _audit_congested(work: Path, seed: int, index: int):
    initial = inputs.write_initial_csv(work / "initial.csv", seed, index)
    out = work / "out"
    argv = ["audit", "--scenario", "attractive_congested", "--n", "800", "--snapshots", "385",
            "--initial", str(initial), "--out", str(out)]
    return argv, lambda: checks.check_audit(out, 800)


def _sweep_congested(work: Path, seed: int, index: int):
    initial = inputs.write_initial_csv(work / "initial.csv", seed, index)
    out = work / "out"
    argv = ["sweep", "--scenario", "attractive_congested", "--n", "800", "1600", "3200",
            "--initial", str(initial), "--out", str(out)]
    return argv, lambda: checks.check_sweep(out)


def _validate_file_kernel(work: Path, seed: int, index: int):
    scenario = work / "scenario.json"
    mass0 = inputs.write_scenario(scenario, seed, index)
    out = work / "out"
    argv = ["validate", "--scenario", str(scenario), "--n", "800", "--j", "4000",
            "--out", str(out)]
    return argv, lambda: checks.check_validate(out, mass0)


WORKLOADS = {
    "audit_congested": _audit_congested,
    "sweep_congested": _sweep_congested,
    "validate_file_kernel": _validate_file_kernel,
}


# ---------------------------------------------------------------------------
# one op in a fresh process

def _spawn(op_dir: Path, argv, trace: bool, deadline: float):
    """Run ``perfbench.op`` once, killed at the monotonic ``deadline``; returns
    (spawn stamp, exit code, rusage, record)."""
    result = op_dir / "result.json"
    cmd = [sys.executable, "-m", "perfbench.op", str(result), "1" if trace else "0", *argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))))
    with open(op_dir / "stdout.txt", "wb") as out, open(op_dir / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=op_dir, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - spawned, 0.0), proc.kill)
        killer.start()
        try:
            # wait4 gives this child's own CPU time and peak RSS (all its threads)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        record = json.loads(result.read_text())
    except (OSError, ValueError):
        record = {}
    return spawned, proc.returncode, usage, record


def probe_setup(op_dir: Path, deadline: float):
    """Seconds from process start until ``pbal.cli`` is imported."""
    op_dir.mkdir(parents=True)
    spawned, code, _, record = _spawn(op_dir, [], False, deadline)
    if code != 0 or "ready" not in record:
        raise RuntimeError(f"set-up probe failed (exit {code}); see {op_dir}")
    return record["ready"] - spawned


def run_op(op_dir: Path, workload: str, seed: int, index: int, trace: bool, deadline: float):
    op_dir.mkdir(parents=True)
    argv, check = WORKLOADS[workload](op_dir, seed, index)
    spawned, code, usage, record = _spawn(op_dir, argv, trace, deadline)
    op = {
        "input": index,
        "trace": trace,
        "exit": code,
        "elapsed_s": time.monotonic() - spawned,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    failures = []
    if "ready" in record:
        op["setup_s"] = record["ready"] - spawned
        if not Path(record["cli_file"]).resolve().is_relative_to(ROOT / "src"):
            failures.append(f"pbal.cli imported from {record['cli_file']}, not this checkout")
    if "end" in record:
        op["wall_s"] = record["end"] - record["start"]
    if record.get("error"):
        failures.append(record["error"].strip().splitlines()[-1])
    elif code != 0 or record.get("rc") != 0:
        stderr = (op_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()
        failures.append(f"exit code {code}, main returned {record.get('rc')}"
                        + (f": {stderr[-1]}" if stderr else ""))
    if not failures:
        failures.extend(check())
    if trace and "spans" in record:
        op["layers"] = tracing.layer_metrics(record["spans"], record["counts"])
        op["largest_self"] = tracing.largest_self(record["spans"])
        if not failures:
            failures.extend(checks.check_trace(op["layers"]))
        op["spans"], op["counts"] = record["spans"], record["counts"]
    op["failures"] = failures
    shutil.rmtree(op_dir / "out", ignore_errors=True)
    return op


# ---------------------------------------------------------------------------
# one run

def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(ops, setups):
    good = [op for op in ops if not op["failures"]] or ops
    out = {"setup_s": _median(setups + [op["setup_s"] for op in ops if "setup_s" in op])}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        out[key] = _median([op[key] for op in good if key in op])
    return out


def per_layer(ops):
    traced = [op for op in ops if "layers" in op]
    out = {name: _median([op["layers"][name] for op in traced])
           for name in traced[0]["layers"]} if traced else {}
    # ops alternate untraced, traced; each pair ran on one input
    out["trace.overhead_s"] = _median([t["wall_s"] - u["wall_s"]
                                       for u, t in zip(ops[::2], ops[1::2])
                                       if "wall_s" in u and "wall_s" in t])
    return out


def _summary(ops, metrics, units, setups):
    failed = sum(1 for op in ops if op["failures"])
    lines = [f"ops: {len(ops)} attempted, {failed} failed; set-up probes: {len(setups)}"]
    for name, value in metrics.items():
        lines.append(f"  {name:40s} {value:14.6g} {units[name]}")
    lines.append(f"  {'fail_ratio':40s} {failed / len(ops):14.6g} ratio")
    for k, op in enumerate(ops):
        tag = "traced" if op["trace"] else "untraced"
        wall = op.get("wall_s", float("nan"))
        lines.append(f"  op {k} ({tag}): wall {wall:.4f} s, cpu {op['cpu_s']:.4f} s, "
                     f"rss {op['peak_rss_mb']:.1f} MB"
                     + (f", largest self time: {op['largest_self'][0]} "
                        f"{op['largest_self'][1]:.4f} s" if "largest_self" in op else "")
                     + (f", FAILED: {'; '.join(op['failures'])}" if op["failures"] else ""))
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "pbal" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'pbal'} is missing",
              file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench_runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}")
    run_dir.mkdir(parents=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine.record(ROOT)}

    try:
        setups = [probe_setup(run_dir / f"probe{k}", deadline) for k in range(SETUP_PROBES)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ops = []
    started = time.monotonic()
    min_ops = 2 if args.trace else 1
    while True:
        k = len(ops)
        trace_op = bool(args.trace) and k % 2 == 1
        # a traced op runs on the same input as the untraced op before it
        index = k // 2 if args.trace else k
        ops.append(run_op(run_dir / f"op{k}", args.workload, args.seed, index, trace_op, deadline))
        now = time.monotonic()
        # the next op starts if it should end within half an op past --seconds
        if now >= deadline or (len(ops) >= min_ops
                               and now - started + ops[-1]["elapsed_s"] / 2 > args.seconds):
            break

    if args.trace:
        metrics, units = per_layer(ops), tracing.PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(ops, setups), END_TO_END_UNITS
    failed = sum(1 for op in ops if op["failures"])
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        # NaN (no op measured it) is not JSON; null says the same
        "metrics": {name: {"value": None if value != value else value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record.update(setup_probes_s=setups, result=result,
                  ops=[{k: v for k, v in op.items() if k not in ("spans", "counts")} for op in ops])
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        # spans were kept in memory per op; written once, at the end of the run
        (run_dir / "spans.json").write_text(json.dumps(
            [{"op": k, "spans": op["spans"], "counts": op["counts"]}
             for k, op in enumerate(ops) if "spans" in op]))

    print(f"pbal benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(_summary(ops, metrics, units, setups))
    print(f"result file: {run_dir / 'result.json'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
