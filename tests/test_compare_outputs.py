"""The output comparison of tools/compare_outputs.py, on two hand-made run directories."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

CSV = "t,modulus\n0,0.125\n0.5,-2.5e-03\n1,nan\n"
MANIFEST = {"n": 200, "wall_clock_s": 0.25, "step_stats": {"accepted": 40, "rhs_evals": 250}}


def _write(root, manifest, csv, stdout="exit 0\nrun ok\n", extra=None):
    out = root / "run-x" / "out"
    out.mkdir(parents=True)
    (out / "manifest.json").write_text(json.dumps(manifest))
    (out / "snapshots.csv").write_text(csv)
    (root / "run-x" / "stdout.txt").write_text(stdout)
    (root / "run-x" / "initial.csv").write_text("an input, never compared")
    if extra:
        (out / extra).write_text("1\n")


def test_identical_apart_from_wall_clock(tmp_path):
    _write(tmp_path / "a", MANIFEST, CSV)
    _write(tmp_path / "b", dict(MANIFEST, wall_clock_s=9.5), CSV)
    assert compare_outputs.compare_dirs(tmp_path / "a", tmp_path / "b") == [
        (Path("run-x/out/manifest.json"), "identical"),
        (Path("run-x/out/snapshots.csv"), "identical"),
        (Path("run-x/stdout.txt"), "identical"),
    ]


def test_doctored_csv_and_json_report_their_largest_differences(tmp_path):
    _write(tmp_path / "a", MANIFEST, CSV, extra="parent_only.csv")
    doctored = dict(MANIFEST, step_stats={"accepted": 40, "rhs_evals": 260})
    _write(tmp_path / "b", doctored, CSV.replace("0.125", "0.1250001").replace("e-03", "e-02"),
           stdout="exit 2\nerror: run failed\n")
    got = dict(compare_outputs.compare_dirs(tmp_path / "a", tmp_path / "b"))
    assert got[Path("run-x/out/manifest.json")] == "max abs diff 10, max rel diff 0.0385"
    # 0.025 - 0.0025 is the largest absolute, 0.0225 / 0.025 the largest relative difference
    assert got[Path("run-x/out/snapshots.csv")] == "max abs diff 0.0225, max rel diff 0.9"
    assert got[Path("run-x/stdout.txt")] == "differs outside its numbers"
    assert got[Path("run-x/out/parent_only.csv")] == "only in parent"
    assert len(got) == 4
