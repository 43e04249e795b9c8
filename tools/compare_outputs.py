"""Run the same pbal commands in two trees and compare the files they write.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE [--work DIR]

Each tree is a directory holding ``src/pbal``; ``git archive REV | tar -x -C
DIR`` makes one of a revision.  The commands are the benchmark's three
workloads on seed-1 inputs 0-2 (their commands and inputs as
``perfbench/run.py`` of this checkout makes them), ``run``, ``audit`` and
``validate`` (J = 1000) of the four catalog scenarios at N = 200, ``run
--plot`` of ``PLOTTED`` at N = 200 (the one command writing ``density.svg``),
and ``run``, ``audit`` and ``validate`` at N = 200 of three scenario files
for what the catalog lacks: ``UNFIXED_FIELD`` (no source, so the masses are
fixed, but a U that moves, which the oracle takes over its whole lattice),
``EXP_KERNEL`` (a kernel with no polynomial pieces, which the particles
convolve in difference form and the oracle by FFT) and ``QUADRATIC_KERNEL``
(polynomial pieces of degree 2, so a moment chain of more than one term,
evaluated by ``expressions.polyval``).  Each command runs once per tree,
one at a time, in a fresh process with that tree's ``src`` on the path, in a
directory of its own under ``DIR/parent`` or ``DIR/change``; its standard
output and exit code go to ``stdout.txt`` there, and its peak RSS and CPU
seconds (user plus system, both from ``os.wait4``) are kept.

Every file under a command's ``out`` directory and its ``stdout.txt`` is
compared with its namesake in the other tree, and one line is printed per
file: ``identical``, or the largest absolute and relative difference over
the numbers of the two files when the text around the numbers agrees.  JSON
files are compared as sorted dumps without ``wall_clock_s``.  Then one line
per command gives its peak RSS and CPU seconds in the parent and the change,
so a change that leaves the outputs alone still shows what it did to memory
and to its CPU time.  The exit code is 0 when every file is identical,
else 1.
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
# attractive_congested with V = -x in place of V = 0
UNFIXED_FIELD = {
    "congestion": {"v": "max(1 - r, 0)", "v_sup": 1.0, "vprime_bound": "1", "decay_g": "2*r"},
    "advection": {"V": "-x", "dxV": "-1", "F": "2", "G": "1", "lambda": "1"},
    "potential": {"W": "abs(x)"},
    "source": {"f": "0*(x + rho)", "c_f": 0.0},
    "metadata": {"name": "unfixed_field", "branch": "v_decays",
                 "initial": {"blocks": [[-0.75, 0.0, 0.9], [0.0, 0.65, 0.5]]}},
}
# repulsive_source with W = exp(-|x|) in place of W = -|x|
EXP_KERNEL = {
    "congestion": {"v": "1/(1 + r)", "v_sup": 1.0, "vprime_bound": "1"},
    "advection": {"V": "0", "dxV": "0", "F": "2", "G": "1", "lambda": "1"},
    "potential": {"W": "exp(-abs(x))", "dxW_neg": "exp(x)", "dxW_pos": "-exp(-x)"},
    "source": {"f": "rho*bump(x)", "c_f": 0.5, "drho_f_bound": "1",
               "eta_mass": "2*r*(1 - bump(min(abs(X), 1)))"},
    "metadata": {"name": "exp_kernel", "branch": "w_repulsive",
                 "initial": {"blocks": [[-2.0 / 3.0, 2.0 / 3.0, 0.75]]}},
}
# attractive_congested with W = x^2/2 - |x| in place of W = |x|
QUADRATIC_KERNEL = {
    "congestion": {"v": "max(1 - r, 0)", "v_sup": 1.0, "vprime_bound": "1", "decay_g": "2*r"},
    "advection": {"V": "0", "dxV": "0", "F": "2", "G": "1", "lambda": "1"},
    "potential": {"W": "0.5*x**2 - abs(x)"},
    "source": {"f": "0*(x + rho)", "c_f": 0.0},
    "metadata": {"name": "quadratic_kernel", "branch": "v_decays",
                 "initial": {"blocks": [[-0.75, 0.0, 0.9], [0.0, 0.65, 0.5]]}},
}
FILES = {"unfixed_field": (UNFIXED_FIELD, ("run", "audit", "validate")),
         "exp_kernel": (EXP_KERNEL, ("run", "audit", "validate")),
         "quadratic_kernel": (QUADRATIC_KERNEL, ("run", "audit", "validate"))}
PLOTTED = "repulsive_source"


def commands(work: Path):
    """``(directory, argv)`` of every command, its inputs written to its
    directory under ``work``."""
    out = []
    for workload, make in WORKLOADS.items():
        for index in INPUTS:
            cwd = work / f"{workload}-{index}"
            cwd.mkdir(parents=True)
            out.append((cwd, make(cwd, SEED, index)[0]))
    runs = [(name, None, ("run", "audit", "validate")) for name in CATALOG]
    runs += [(name, doc, kinds) for name, (doc, kinds) in FILES.items()]
    runs += [(PLOTTED, None, ("plot",))]
    for name, doc, kinds in runs:
        for kind in kinds:
            cwd = work / f"{kind}-{name}"
            cwd.mkdir(parents=True)
            scenario = name
            if doc is not None:
                scenario = str(cwd / f"{name}.json")
                Path(scenario).write_text(json.dumps(doc, indent=2) + "\n")
            command, extra = kind, []
            if kind == "validate":
                extra = ["--j", str(CATALOG_J)]
            elif kind == "plot":
                command, extra = "run", ["--plot"]
            out.append((cwd, [command, "--scenario", scenario, "--n", str(CATALOG_N),
                              "--out", str(cwd / "out"), *extra]))
    return out


def run_tree(tree: Path, work: Path):
    """Run every command in ``tree``; ``{directory name: (peak RSS in MB, CPU
    seconds)}``."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
    usages = {}
    for cwd, argv in commands(work):
        with subprocess.Popen([sys.executable, "-c", _MAIN, *argv], cwd=cwd, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True) as proc:
            text = proc.stdout.read()
            # wait4 gives this child's own peak RSS (in KB on Linux) and CPU time
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        (cwd / "stdout.txt").write_text(f"exit {proc.returncode}\n{text}")
        usages[cwd.name] = (usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime)
    return usages


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
        usages = {side: run_tree(getattr(args, side), work / side)
                  for side in ("parent", "change")}
        verdicts = compare_dirs(work / "parent", work / "change")
    for rel, verdict in verdicts:
        print(f"{rel}: {verdict}")
    for name, (rss_p, cpu_p) in usages["parent"].items():
        rss_c, cpu_c = usages["change"][name]
        print(f"{name}: peak RSS {rss_p:.1f} -> {rss_c:.1f} MB ({rss_c / rss_p:.2f}x), "
              f"CPU {cpu_p:.3f} -> {cpu_c:.3f} s")
    same = sum(verdict == "identical" for _, verdict in verdicts)
    print(f"{same} of {len(verdicts)} files identical")
    return 0 if same == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
