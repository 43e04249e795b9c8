"""The benchmark's tracer wraps pbal functions by name; every name it wraps
must exist, so that removing one fails here and not in a traced run."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import tracing  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in tracing.TARGETS],
                         ids=lambda v: v)
def test_tracer_target_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
