"""Alternating parent/change runs of the benchmark, reduced to a BENCH file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change . \\
        --workload validate_file_kernel --seed 1 --pairs 10 --seconds 10 \\
        --claim wall_s --out BENCH_14.json

Each side is a git revision, exported with ``git archive``, or a directory,
copied without ``.git``, ``__pycache__`` or earlier benchmark runs.  Both
sides therefore start from a clean tree: under ``PYTHONDONTWRITEBYTECODE=1``
a stale ``__pycache__`` is recompiled in every op and shows in ``setup_s``.
Pair ``k`` runs the parent first when ``k`` is even.  A run is one
``perfbench/run.py`` process in its side's copy, one run at a time; its JSON
result line and its result file are read back, and the run directory is
removed.

The runs become one section of ``--out`` (created when missing, other
sections kept), keyed ``"<workload> seed=<S> trace=<T> seconds=<X>"``, with
`` series=<n>`` appended for the n-th series of a key already there: for
an untraced run, each end-to-end metric's median and quartiles per side,
the pairs each side won and every run's value, and beside them a
``compare`` block of the same fields whose per-run values are medians over
only the ops of the inputs that every run ran (listed as ``inputs``); for a
traced run, each per-layer metric's median over the traced ops of the inputs
that every run traced.  A run covers the inputs that fit in its time, so
only the common inputs compare like with like.  ``--claim METRIC`` also
records whether METRIC's gain meets the rule of the benchmark guide: the
change wins at least nine tenths of the pairs, and the medians differ by
more than the parent's interquartile range; the claim entry of a series is
``seed_<S>``, with its key's `` series=<n>`` appended.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORDER = "alternating; pair k runs the parent first when k is even"
# lower is better for every end-to-end metric of the benchmark
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".perfbench_runs", ".pytest_cache",
                               ".hypothesis")


def export(side: str, dest: Path) -> str:
    """A clean copy of ``side`` (a directory or a git revision) at ``dest``;
    returns what the copy is: the full commit, or ``working tree``."""
    if Path(side).is_dir():
        shutil.copytree(side, dest, ignore=_SKIP)
        return "working tree"
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{side}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its JSON result, and from its
    result file the machine record, each traced op's input and layers, and
    each untraced op's input and end-to-end values when it did not fail."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", "1" if trace else "0"],
                         cwd=tree, env=env, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result_file = Path(next(line for line in lines if line.startswith("result file: "))
                       .removeprefix("result file: "))
    record = json.loads(result_file.read_text())
    shutil.rmtree(result_file.parent)
    return {"result": json.loads(lines[-1]), "machine": record["machine"],
            "traced": [(op["input"], op["layers"]) for op in record["ops"] if "layers" in op],
            "untraced": [(op["input"], {name: op[name] for name in END_TO_END if name in op})
                         for op in record["ops"] if not op["trace"] and not op["failures"]]}


def _quartiles(values):
    """``{median, q1, q3}``, the quartiles by linear interpolation between
    the sorted values (``statistics.quantiles``' inclusive method)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent, change, unit):
    """Summary of one lower-is-better metric over paired runs; ``parent[k]``
    and ``change[k]`` are pair ``k``'s values."""
    p, c = _quartiles(parent), _quartiles(change)
    return {
        "unit": unit,
        "parent": p,
        "change": c,
        "change_better_pairs": sum(b < a for a, b in zip(parent, change)),
        "change_worse_pairs": sum(b > a for a, b in zip(parent, change)),
        "parent_iqr": p["q3"] - p["q1"],
        "median_change_rel": c["median"] / p["median"] - 1.0,
        "runs_parent": list(parent),
        "runs_change": list(change),
    }


def _values(runs, name):
    return [run["result"]["metrics"][name]["value"] for run in runs]


def _common_inputs(runs, kind):
    """The inputs that every run's ``kind`` ops (traced or untraced) cover."""
    return set.intersection(*({i for i, _ in run[kind]} for run in runs))


def _common_medians(runs, name, inputs):
    """Each run's median of ``name`` over its untraced ops on ``inputs``."""
    return [statistics.median(values[name] for i, values in run["untraced"] if i in inputs)
            for run in runs]


def reduce_runs(parent_runs, change_runs, seconds, trace):
    """The BENCH section of paired runs (``parent_runs[k]`` and
    ``change_runs[k]`` form pair ``k``)."""
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same, non-zero number of runs on each side")
    section = {
        "pairs": len(parent_runs),
        "seconds": seconds,
        "order": ORDER,
        "ops_attempted": {side: [run["result"]["attempted"] for run in runs]
                          for side, runs in (("parent", parent_runs), ("change", change_runs))},
        "ops_failed": {side: sum(run["result"]["failed"] for run in runs)
                       for side, runs in (("parent", parent_runs), ("change", change_runs))},
    }
    if trace:
        # a run traces the inputs that fit in its time, so a faster side traces
        # more of them; the layer medians are over the inputs every run traced
        common = _common_inputs(parent_runs + change_runs, "traced")
        section["inputs"] = sorted(common)
        for side, runs in (("parent", parent_runs), ("change", change_runs)):
            ops = [layers for run in runs for i, layers in run["traced"] if i in common]
            section[side] = {name: statistics.median(op[name] for op in ops) for name in ops[0]}
            overhead = [v for v in _values(runs, "trace.overhead_s") if v is not None]
            if overhead:
                section[side]["trace.overhead_s"] = statistics.median(overhead)
        return section
    common = _common_inputs(parent_runs + change_runs, "untraced")
    section["inputs"] = sorted(common)
    for name, unit in END_TO_END.items():
        section[name] = compare(_values(parent_runs, name), _values(change_runs, name), unit)
        if common:
            section[name]["compare"] = compare(_common_medians(parent_runs, name, common),
                                               _common_medians(change_runs, name, common), unit)
    return section


def claim(section, metric):
    """Whether ``metric`` improved in ``section`` by the paired-runs rule."""
    m = section[metric]
    median_parent, median_change = m["parent"]["median"], m["change"]["median"]
    met = (m["change_better_pairs"] >= 0.9 * section["pairs"]
           and median_parent - median_change > m["parent_iqr"]
           and section["ops_failed"]["change"] <= section["ops_failed"]["parent"])
    return {"pairs": section["pairs"], "change_better": m["change_better_pairs"],
            "median_parent": median_parent, "median_change": median_change,
            "parent_iqr": m["parent_iqr"], "met": met}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision or directory")
    ap.add_argument("--change", required=True, help="git revision or directory")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--claim", help="end-to-end metric whose gain the change claims")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as work:
        trees = {side: Path(work) / side for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), trees[side]) for side in trees}
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                runs[side].append(run_once(trees[side], args.workload, args.seed,
                                           args.seconds, bool(args.trace)))
                print(f"pair {k} {side}: {runs[side][-1]['result']['metrics']}", file=sys.stderr)

    bench = json.loads(args.out.read_text()) if args.out.exists() else {
        "what": "paired parent/change runs of perfbench/run.py, one fresh process per op",
        "setup": "tools/bench_pairs.py: perfbench/run.py --workload W --seed S --seconds T "
                 "--trace 0|1 on a clean copy of each tree (no __pycache__; "
                 "PYTHONDONTWRITEBYTECODE=1), one run at a time",
        "notes": [],
    }
    machine = dict(runs["parent"][0]["machine"])
    for side in ("parent", "change"):
        commits[f"{side}_source_sha256"] = runs[side][0]["machine"]["source_sha256"]
    machine.pop("source_sha256")
    machine.pop("git_commit")
    bench["machine"], bench["commits"] = machine, commits
    key = f"{args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}"
    sections = bench.setdefault("runs", {})
    series = 1 + sum(k == key or k.startswith(f"{key} series=") for k in sections)
    suffix = f" series={series}" if series > 1 else ""  # earlier series of the key stay
    section = reduce_runs(runs["parent"], runs["change"], args.seconds, bool(args.trace))
    sections[key + suffix] = section
    if args.claim:
        entry = bench.setdefault("claim", {"metric": args.claim, "workload": args.workload})
        entry[f"seed_{args.seed}{suffix}"] = claim(section, args.claim)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
