"""BENCHMARK.json describes what run.py measures and prints."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run, tracing  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_runner():
    assert [w["name"] for w in CONFIG["workloads"]] == sorted(run.WORKLOADS)


def test_metrics_and_units_match_runner():
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == tracing.PER_LAYER_UNITS


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
