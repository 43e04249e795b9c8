"""The benchmark's ``checks.check_trace`` holds for every CLI command: the
calls of ``dynamics.rhs_arrays`` that returned are the RHS evaluations that
``integrate`` counted, so no diagnostic or oracle path reaches the particle
RHS."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import checks, tracing  # noqa: E402
from pbal import cli  # noqa: E402

COMMANDS = {
    "run": ["run", "--n", "40"],
    "sweep": ["sweep", "--n", "20", "40"],
    "audit": ["audit", "--n", "40", "--snapshots", "64"],
    "validate": ["validate", "--n", "40", "--j", "200"],
}


@pytest.mark.parametrize("scenario", ["attractive_congested", "repulsive_source"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_check_trace_holds_for_every_command(monkeypatch, tmp_path, command, scenario):
    # every name the tracer wraps, wrapped for this test only
    recorder = tracing.Recorder()
    for module_name, attr, span, count in tracing.TARGETS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, recorder.wrap(span, getattr(module, attr), count))
    argv = [*COMMANDS[command], "--scenario", scenario, "--t-end", "0.5",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_OK
    metrics = tracing.layer_metrics(recorder.spans, recorder.counts)
    assert metrics["integrator.rhs_evals"] > 0
    assert checks.check_trace(metrics) == []
