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


def test_fv_run_calls_traced_layers_through_their_modules(monkeypatch):
    # the tracer wraps module attributes, so reference.interface_velocity_s and
    # dynamics.convolve_s see the oracle only while fv_run and
    # interface_velocity look these names up through their modules
    from pbal import builtin_catalog, builtin_initial, dynamics, reference

    counts = {"velocity": 0, "convolve": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(reference, "interface_velocity",
                        counting("velocity", reference.interface_velocity))
    monkeypatch.setattr(dynamics, "convolve_dxW_arrays",
                        counting("convolve", dynamics.convolve_dxW_arrays))
    gtraj = reference.fv_run(builtin_initial("repulsive_source"),
                             builtin_catalog("repulsive_source"),
                             reference.GridConfig(x_left=-4.0, x_right=4.0, j=200), 0.5)
    assert gtraj.steps > 0
    assert counts == {"velocity": gtraj.steps, "convolve": gtraj.steps}


def test_integrate_calls_rhs_through_its_module(monkeypatch):
    # dynamics.rhs_calls counts the returning calls of the module attribute
    # and dynamics.rhs_particles reads x as the second positional argument;
    # integrator.rhs_evals must count the same calls
    from pbal import SolverConfig, builtin_catalog, builtin_initial, dynamics, integrate
    from pbal import quantile_init

    calls = []
    rhs = dynamics.rhs_arrays

    def counting(*args, **kwargs):
        result = rhs(*args, **kwargs)
        calls.append(len(args[1]))
        return result

    monkeypatch.setattr(dynamics, "rhs_arrays", counting)
    n = 200
    p0 = quantile_init(builtin_initial("attractive_congested"), n)
    traj = integrate(p0, builtin_catalog("attractive_congested"), SolverConfig(t_end=0.2))
    assert traj.step_stats.rhs_evals > 0
    assert calls == [n + 1] * traj.step_stats.rhs_evals
