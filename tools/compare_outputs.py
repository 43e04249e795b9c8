"""Run the same pbal commands in two trees and compare the files they write.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE [--work DIR]

Each tree is a directory holding ``src/pbal``; ``git archive REV | tar -x -C
DIR`` makes one of a revision.  The commands are the benchmark's three
workloads on seed-1 inputs 0-2 (their commands and inputs as
``perfbench/run.py`` of this checkout makes them) and ``run``, ``audit`` and
``validate`` (J = 1000) of the four catalog scenarios at N = 200.  Each
command runs once per tree, one at a time, in a fresh process with that
tree's ``src`` on the path, in a directory of its own under
``DIR/parent`` or ``DIR/change``; its standard output and exit code go to
``stdout.txt`` there.

Every file under a command's ``out`` directory and its ``stdout.txt`` is
compared with its namesake in the other tree, and one line is printed per
file: ``identical``, or the largest absolute and relative difference over
the numbers of the two files when the text around the numbers agrees.  JSON
files are compared as sorted dumps without ``wall_clock_s``.  The exit code
is 0 when every file is identical, else 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.run import WORKLOADS  # noqa: E402

CATALOG = ("attractive_congested", "growth_transport", "repulsive_source", "transport")
SEED, INPUTS = 1, (0, 1, 2)
CATALOG_N, CATALOG_J = 200, 1000
IGNORED_KEYS = ("wall_clock_s",)
NUMBER = re.compile(r"-?\b(?:NaN|Infinity|nan|inf)\b|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_MAIN = "import sys; from pbal.cli import main; sys.exit(main(sys.argv[1:]))"


def commands(work: Path):
    """``(directory, argv)`` of every command, its inputs written to its
    directory under ``work``."""
    out = []
    for workload, make in WORKLOADS.items():
        for index in INPUTS:
            cwd = work / f"{workload}-{index}"
            cwd.mkdir(parents=True)
            out.append((cwd, make(cwd, SEED, index)[0]))
    for name in CATALOG:
        for command in ("run", "audit", "validate"):
            cwd = work / f"{command}-{name}"
            cwd.mkdir(parents=True)
            extra = ["--j", str(CATALOG_J)] if command == "validate" else []
            out.append((cwd, [command, "--scenario", name, "--n", str(CATALOG_N),
                              "--out", str(cwd / "out"), *extra]))
    return out


def run_tree(tree: Path, work: Path):
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
    for cwd, argv in commands(work):
        done = subprocess.run([sys.executable, "-c", _MAIN, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True)
        (cwd / "stdout.txt").write_text(f"exit {done.returncode}\n{done.stdout}")


def _without(doc, keys):
    if isinstance(doc, dict):
        return {k: _without(v, keys) for k, v in doc.items() if k not in keys}
    if isinstance(doc, list):
        return [_without(v, keys) for v in doc]
    return doc


def _text(path: Path):
    text = path.read_text()
    if path.suffix == ".json":
        return json.dumps(_without(json.loads(text), IGNORED_KEYS), sort_keys=True, indent=0)
    return text


def compare_files(a: Path, b: Path) -> str:
    """``identical``, the largest differences of the numbers, or what differs."""
    try:
        ta, tb = _text(a), _text(b)
    except (UnicodeDecodeError, ValueError):
        return "identical" if a.read_bytes() == b.read_bytes() else "differs (not text)"
    if ta == tb:
        return "identical"
    if NUMBER.sub("#", ta) != NUMBER.sub("#", tb):
        return "differs outside its numbers"
    abs_diff = rel_diff = 0.0
    for u, v in zip(NUMBER.findall(ta), NUMBER.findall(tb)):
        x, y = float(u), float(v)
        if x == y or math.isnan(x) and math.isnan(y):
            continue
        d = abs(x - y)
        abs_diff, rel_diff = max(abs_diff, d), max(rel_diff, d / max(abs(x), abs(y)))
    return f"max abs diff {abs_diff:.3g}, max rel diff {rel_diff:.3g}"


def compared_files(work: Path):
    """Each command's ``stdout.txt`` and the files under its ``out``,
    relative to ``work``."""
    return {p.relative_to(work) for p in work.glob("*/stdout.txt")} | \
        {p.relative_to(work) for p in work.glob("*/out/**/*") if p.is_file()}


def compare_dirs(parent: Path, change: Path):
    """``(file, verdict)`` for every compared file of either directory."""
    files_p, files_c = compared_files(parent), compared_files(change)
    out = []
    for rel in sorted(files_p | files_c):
        if rel not in files_c:
            out.append((rel, "only in parent"))
        elif rel not in files_p:
            out.append((rel, "only in change"))
        else:
            out.append((rel, compare_files(parent / rel, change / rel)))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="parent tree (a directory holding src/pbal)")
    ap.add_argument("change", type=Path, help="change tree")
    ap.add_argument("--work", type=Path, default=None,
                    help="new directory to keep the runs in (a temporary one when omitted)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        work = args.work if args.work is not None else Path(tmp)
        for side in ("parent", "change"):
            run_tree(getattr(args, side), work / side)
        verdicts = compare_dirs(work / "parent", work / "change")
    for rel, verdict in verdicts:
        print(f"{rel}: {verdict}")
    same = sum(verdict == "identical" for _, verdict in verdicts)
    print(f"{same} of {len(verdicts)} files identical")
    return 0 if same == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
