"""The pair runner's reduction, on hand-built runs and on the committed BENCH_13.json."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(wall, attempted=10, failed=0, ops=None, **others):
    """A run whose medians are its metrics; ``ops`` maps each untraced op's
    input to its wall_s (one op on input 0 with the run's wall_s if None)."""
    values = dict(wall_s=wall, cpu_s=2 * wall, peak_rss_mb=37.0, setup_s=0.25, **others)
    ops = {0: wall} if ops is None else ops
    return {"result": {"attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}},
            "untraced": [(i, dict(wall_s=w, cpu_s=2 * w, peak_rss_mb=37.0, setup_s=0.25))
                         for i, w in ops.items()]}


def test_reduce_hand_built_pairs():
    parent = [_run(w, attempted=a) for w, a in zip([0.30, 0.34, 0.32, 0.36, 0.31],
                                                   [12, 11, 12, 10, 12])]
    change = [_run(w, failed=f) for w, f in zip([0.25, 0.26, 0.33, 0.24, 0.31],
                                                [0, 1, 0, 0, 0])]
    section = bench_pairs.reduce_runs(parent, change, 10.0, trace=False)
    assert section["pairs"] == 5 and section["order"] == bench_pairs.ORDER
    assert section["ops_attempted"] == {"parent": [12, 11, 12, 10, 12], "change": [10] * 5}
    assert section["ops_failed"] == {"parent": 0, "change": 1}
    wall = section["wall_s"]
    # sorted parent runs 0.30 0.31 0.32 0.34 0.36: linear quartiles at 1 and 3 of 0..4
    assert wall["parent"] == pytest.approx({"median": 0.32, "q1": 0.31, "q3": 0.34})
    assert wall["change"] == pytest.approx({"median": 0.26, "q1": 0.25, "q3": 0.31})
    # pair 2 is worse, pair 4 a tie, which counts for neither side
    assert (wall["change_better_pairs"], wall["change_worse_pairs"]) == (3, 1)
    assert wall["parent_iqr"] == pytest.approx(0.03)
    assert wall["median_change_rel"] == pytest.approx(0.26 / 0.32 - 1.0)
    assert wall["runs_parent"] == [0.30, 0.34, 0.32, 0.36, 0.31]
    assert section["peak_rss_mb"]["change_better_pairs"] == 0  # all ties
    assert section["peak_rss_mb"]["unit"] == "MB"

    # 3 of 5 pairs is short of nine tenths; so is a change with more failed ops
    assert bench_pairs.claim(section, "wall_s") == {
        "pairs": 5, "change_better": 3, "median_parent": 0.32, "median_change": 0.26,
        "parent_iqr": pytest.approx(0.03), "met": False}
    won = bench_pairs.reduce_runs(parent, [_run(w - 0.05) for w in [0.30, 0.34, 0.32, 0.36, 0.31]],
                                  10.0, trace=False)
    assert bench_pairs.claim(won, "wall_s")["met"]
    failing = bench_pairs.reduce_runs(parent, [_run(w - 0.05, failed=1) for w in
                                               [0.30, 0.34, 0.32, 0.36, 0.31]], 10.0, trace=False)
    assert not bench_pairs.claim(failing, "wall_s")["met"]


def test_reduce_compares_end_to_end_medians_over_the_common_inputs():
    # the change ran input 2, a slow one, in one run; the parent skipped
    # input 1 in one run, after a failed op.  Each run's median covers the
    # inputs it ran; the compare block covers inputs 0 and 3 only
    parent = [_run(0.4, ops={0: 0.3, 1: 0.5, 3: 0.4}), _run(0.35, ops={0: 0.3, 3: 0.4})]
    change = [_run(0.5, ops={0: 0.28, 1: 0.5, 2: 0.9, 3: 0.38}),
              _run(0.38, ops={0: 0.29, 1: 0.48, 3: 0.38})]
    section = bench_pairs.reduce_runs(parent, change, 10.0, trace=False)
    assert section["inputs"] == [0, 3]
    wall = section["wall_s"]
    assert (wall["runs_parent"], wall["runs_change"]) == ([0.4, 0.35], [0.5, 0.38])
    assert (wall["change_better_pairs"], wall["change_worse_pairs"]) == (0, 2)
    common = wall["compare"]
    assert common["runs_parent"] == pytest.approx([0.35, 0.35])
    assert common["runs_change"] == pytest.approx([0.33, 0.335])
    assert (common["change_better_pairs"], common["change_worse_pairs"]) == (2, 0)
    assert common["parent"] == pytest.approx({"median": 0.35, "q1": 0.35, "q3": 0.35})
    assert common.keys() == {k for k in wall if k != "compare"}
    assert section["cpu_s"]["compare"]["runs_change"] == pytest.approx([0.66, 0.67])
    # with no input common to every run there is nothing to compare
    apart = bench_pairs.reduce_runs([_run(0.3, ops={0: 0.3})], [_run(0.3, ops={1: 0.3})],
                                    10.0, trace=False)
    assert apart["inputs"] == [] and "compare" not in apart["wall_s"]


def _traced(overhead, *ops):
    run = _run(0.3, **{"trace.overhead_s": overhead})
    run["traced"] = [(i, {"reference.fv_run_s": s, "reference.fv_steps": n}) for i, s, n in ops]
    return run


def test_reduce_traced_runs_over_the_inputs_every_run_traced():
    # the faster change traced input 2 too; its counts differ, and are left out
    parent = [_traced(None, (0, 0.20, 911), (1, 0.22, 905))]
    change = [_traced(0.01, (0, 0.15, 911), (1, 0.17, 905), (2, 0.90, 1500))]
    section = bench_pairs.reduce_runs(parent, change, 10.0, trace=True)
    assert section["inputs"] == [0, 1]
    assert section["parent"] == {"reference.fv_run_s": pytest.approx(0.21),
                                 "reference.fv_steps": 908}
    assert section["change"] == {"reference.fv_run_s": pytest.approx(0.16),
                                 "reference.fv_steps": 908, "trace.overhead_s": 0.01}


def test_reduce_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        bench_pairs.reduce_runs([_run(0.3)], [], 10.0, trace=False)


def test_a_repeated_series_keeps_the_earlier_one(tmp_path, monkeypatch):
    # two series of one workload, seed and length: both sections and both
    # claim entries stay in --out
    walls = iter([0.30, 0.25, 0.40, 0.20, 0.31, 0.26, 0.41, 0.21])

    def fake_run(tree, workload, seed, seconds, trace):
        run = _run(next(walls))
        run["machine"] = {"source_sha256": tree.name, "git_commit": None, "cpus": 2}
        return run

    monkeypatch.setattr(bench_pairs, "export", lambda side, dest: side)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "HEAD~1", "--change", "HEAD", "--workload", "audit_congested",
            "--pairs", "2", "--seconds", "10", "--claim", "wall_s", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    first = json.loads(out.read_text())
    assert bench_pairs.main(argv) == 0
    bench = json.loads(out.read_text())
    key = "audit_congested seed=1 trace=0 seconds=10"
    assert list(bench["runs"]) == [key, f"{key} series=2"]
    assert bench["runs"][key] == first["runs"][key]
    assert list(bench["claim"]) == ["metric", "workload", "seed_1", "seed_1 series=2"]
    assert bench["claim"]["seed_1"] == first["claim"]["seed_1"]
    # pair 1 runs the change first
    assert bench["runs"][key]["wall_s"]["runs_parent"] == [0.30, 0.20]
    assert bench["runs"][f"{key} series=2"]["wall_s"]["runs_parent"] == [0.31, 0.21]


def test_reduce_reproduces_the_committed_bench_13():
    bench = json.loads((ROOT / "BENCH_13.json").read_text())
    for key, section in bench["runs"].items():
        if "trace=1" in key:
            continue
        for name, metric in section.items():
            if name in bench_pairs.END_TO_END:
                got = bench_pairs.compare(metric["runs_parent"], metric["runs_change"],
                                          metric["unit"])
                assert got.keys() == metric.keys()
                for field, value in metric.items():  # approx compares flat dicts and lists
                    assert got[field] == pytest.approx(value, rel=1e-12), (key, name, field)
