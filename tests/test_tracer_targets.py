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


@pytest.mark.parametrize("kind", ["U_fixed", "masses_fixed", "nothing_fixed"])
def test_integrate_calls_rhs_through_its_module(monkeypatch, tmp_path, kind):
    # dynamics.rhs_calls counts the returning calls of the module attribute
    # and dynamics.rhs_particles reads x as the second positional argument;
    # integrator.rhs_evals must count the same calls, whatever the run's plan
    from pbal import SolverConfig, builtin_catalog, builtin_initial, dynamics, integrate
    from pbal import quantile_init
    from conftest import unfixed_field_scenario

    if kind == "masses_fixed":
        s, initial = unfixed_field_scenario(tmp_path)
    else:
        name = "attractive_congested" if kind == "U_fixed" else "repulsive_source"
        s, initial = builtin_catalog(name), builtin_initial(name)
    n = 200
    p0 = quantile_init(initial, n)
    plan = dynamics.plan(s, p0)
    assert [plan.q is not None, plan.U is not None] == {
        "U_fixed": [True, True], "masses_fixed": [True, False], "nothing_fixed": [False, False]}[kind]

    calls = []
    rhs = dynamics.rhs_arrays

    def counting(*args, **kwargs):
        result = rhs(*args, **kwargs)
        calls.append(len(args[1]))
        return result

    monkeypatch.setattr(dynamics, "rhs_arrays", counting)
    traj = integrate(p0, s, SolverConfig(t_end=0.2))
    assert traj.step_stats.rhs_evals > 0
    assert calls == [n + 1] * traj.step_stats.rhs_evals
