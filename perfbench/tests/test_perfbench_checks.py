"""Output checks behind fail_ratio: clean CLI outputs pass, corrupted ones fail.

The clean outputs come from the real CLI at small N on the benchmark's own
seeded inputs; each negative control corrupts one of them the way a broken
program would.
"""

import csv
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from pbal.cli import main  # noqa: E402
from perfbench import checks, inputs  # noqa: E402

SEED = 7


def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


@pytest.fixture(scope="module")
def audit_out(tmp_path_factory):
    work = tmp_path_factory.mktemp("audit")
    initial = inputs.write_initial_csv(work / "initial.csv", SEED)
    out = work / "out"
    assert main(["audit", "--scenario", "attractive_congested", "--n", "50", "--snapshots", "65",
                 "--initial", str(initial), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    work = tmp_path_factory.mktemp("sweep")
    initial = inputs.write_initial_csv(work / "initial.csv", SEED)
    out = work / "out"
    assert main(["sweep", "--scenario", "attractive_congested", "--n", "400", "800", "1600",
                 "--initial", str(initial), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def validate_out(tmp_path_factory):
    work = tmp_path_factory.mktemp("validate")
    scenario = work / "scenario.json"
    mass0 = inputs.write_scenario(scenario, SEED)
    out = work / "out"
    assert main(["validate", "--scenario", str(scenario), "--n", "200", "--j", "2000",
                 "--out", str(out)]) == 0
    return out, mass0


def copy_of(src, tmp_path):
    dst = tmp_path / "out"
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    return dst


def test_clean_outputs_pass(audit_out, sweep_out, validate_out):
    assert checks.check_audit(audit_out, 50) == []
    assert checks.check_sweep(sweep_out) == []
    assert checks.check_validate(*validate_out) == []


def test_bounds_record_not_ok_fails(audit_out, tmp_path):
    out = copy_of(audit_out, tmp_path)
    records = json.loads((out / "bounds.json").read_text())
    records[len(records) // 2]["ok"] = False
    (out / "bounds.json").write_text(json.dumps(records))
    assert any("bound records not ok" in f for f in checks.check_audit(out, 50))


def test_good_v_violation_fails(audit_out, tmp_path):
    out = copy_of(audit_out, tmp_path)
    (out / "good_v.json").write_text(json.dumps(
        [{"t": 0.5, "family": "max", "index": 3, "c": None, "lhs": -1.0, "rhs": 0.0}]))
    assert checks.check_audit(out, 50) == ["1 good-v violations"]


def test_entropy_residual_above_one_over_n_fails(audit_out, tmp_path):
    out = copy_of(audit_out, tmp_path)
    report = json.loads((out / "entropy.json").read_text())
    report["res_neg"] = 1.5 / 50
    (out / "entropy.json").write_text(json.dumps(report))
    assert any("res_neg" in f for f in checks.check_audit(out, 50))


def test_mass_drift_fails(audit_out, tmp_path):
    out = copy_of(audit_out, tmp_path)

    def drift(rows):
        rows[-1]["mass"] = repr(float(rows[-1]["mass"]) * (1 + 1e-6))

    rewrite_csv(out / "envelopes.csv", drift)
    assert any("mass drifts" in f for f in checks.check_audit(out, 50))


def test_missing_output_fails(tmp_path):
    assert "unreadable output" in checks.check_audit(tmp_path, 50)[0]
    assert "unreadable output" in checks.check_sweep(tmp_path)[0]
    assert "unreadable output" in checks.check_validate(tmp_path, 1.0)[0]


def test_sweep_whose_l1_grows_fails(sweep_out, tmp_path):
    out = copy_of(sweep_out, tmp_path)

    def grow(rows):
        rows[-1]["l1_spacetime"] = repr(2.0 * float(rows[0]["l1_spacetime"]))

    rewrite_csv(out / "sweep.csv", grow)
    assert any("does not decrease" in f for f in checks.check_sweep(out))


def test_sweep_with_slow_rate_fails(sweep_out, tmp_path):
    out = copy_of(sweep_out, tmp_path)

    def slow(rows):
        rows[-1]["rate"] = "0.5"

    rewrite_csv(out / "sweep.csv", slow)
    assert any("below" in f for f in checks.check_sweep(out))


def test_validate_l1_above_gate_fails(validate_out, tmp_path):
    out = copy_of(validate_out[0], tmp_path)

    def far(rows):
        rows[-1]["l1"] = "0.05"

    rewrite_csv(out / "validate.csv", far)
    assert checks.check_validate(out, 1.0) == ["final L1 0.05 > 0.03 x mass 1.0"]


def test_trace_count_mismatch_fails():
    assert checks.check_trace({"dynamics.rhs_calls": 10, "integrator.rhs_evals": 10}) == []
    assert checks.check_trace({"dynamics.rhs_calls": 11, "integrator.rhs_evals": 10})


def test_inputs_are_seeded():
    assert inputs.initial_profile(3, 1) == inputs.initial_profile(3, 1)
    assert inputs.initial_blocks(3, 1) == inputs.initial_blocks(3, 1)
    for other in ((4, 1), (3, 2)):
        assert inputs.initial_profile(3, 1) != inputs.initial_profile(*other)
        assert inputs.initial_blocks(3, 1) != inputs.initial_blocks(*other)
    for seed in range(20):
        assert max(y for _, y in inputs.initial_profile(seed)) < 0.9
        assert inputs.blocks_mass(inputs.initial_blocks(seed)) == pytest.approx(1.0)
