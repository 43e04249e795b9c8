import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pbal.cli import main
from pbal.diagnostics import MIN_SNAPSHOTS
from pbal.expressions import compile_expression
from pbal.scenario import load_scenario

SRC = Path(__file__).resolve().parents[1] / "src"


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_run_transport_smoke(tmp_path):
    out = tmp_path / "run"
    code = main(["run", "--scenario", "transport", "--n", "50",
                 "--t-end", "1.0", "--out", str(out)])
    assert code == 0
    header, rows = read_csv_rows(out / "snapshots.csv")
    assert header == ["t", "i", "x_left", "x_right", "q", "rho"]
    times = sorted({row[0] for row in rows})
    assert len(times) == 11  # default snapshot count
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n"] == 50
    assert manifest["step_stats"]["accepted"] > 0


def test_run_growth_terminal_mass(tmp_path):
    out = tmp_path / "growth"
    code = main(["run", "--scenario", "growth_transport", "--n", "100",
                 "--out", str(out)])
    assert code == 0
    _, rows = read_csv_rows(out / "snapshots.csv")
    t_final = max(float(r[0]) for r in rows)
    mass = sum(float(r[4]) for r in rows if float(r[0]) == t_final)
    assert abs(mass - np.e) / np.e <= 1e-6


def test_run_invalid_n(tmp_path):
    assert main(["run", "--scenario", "transport", "--n", "0",
                 "--out", str(tmp_path)]) == 2


def test_run_unknown_scenario(tmp_path):
    assert main(["run", "--scenario", "nonsense", "--n", "10",
                 "--out", str(tmp_path)]) == 2


def test_run_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", "--scenario", "repulsive_source", "--n", "40",
                     "--out", str(out)]) == 0
    assert (a / "snapshots.csv").read_bytes() == (b / "snapshots.csv").read_bytes()


def test_run_collision_exit_code(tmp_path):
    # attractive kink potential with v == 1: particles collide in finite time
    doc = {
        "congestion": {"v": "1", "v_sup": 1.0},
        "advection": {"F": "2", "G": "1", "lambda": "1"},
        "potential": {"W": "abs(x)", "dxW_neg": "-1", "dxW_pos": "1"},
        "source": {},
        "metadata": {"name": "colliding", "branch": "w_repulsive",
                     "initial": {"blocks": [[-0.5, 0.5, 1.0]]}},
    }
    path = tmp_path / "colliding.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(path), "--n", "8",
                 "--t-end", "2.0", "--out", str(tmp_path / "out")])
    assert code == 3


def test_sweep_requires_two_n(tmp_path, capsys):
    assert main(["sweep", "--scenario", "transport", "--n", "100"]) == 2


def test_sweep_transport(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--scenario", "transport", "--n", "50", "100", "200",
                 "--t-end", "0.5", "--out", str(out)])
    assert code == 0
    header, rows = read_csv_rows(out / "sweep.csv")
    assert header == ["n", "l1_spacetime", "rate"]
    dists = [float(r[1]) for r in rows]
    assert len(dists) == 2
    assert dists[1] < dists[0]


def test_sweep_stationary_bounded_by_init_quantization(tmp_path):
    # zero fields: the space-time distance equals the init-quantization gap,
    # so every table entry is below twice the init L1 distance and decreasing
    doc = {
        "congestion": {"v": "1", "v_sup": 1.0},
        "advection": {"V": "0", "F": "0", "G": "0", "lambda": "1"},
        "potential": {"W": "0"},
        "source": {},
        "metadata": {"name": "stationary", "branch": "w_repulsive",
                     "initial": {"blocks": [[-1.0, -0.5, 1.0], [0.0, 1.0, 0.5]]}},
    }
    path = tmp_path / "stationary.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sweep"
    code = main(["sweep", "--scenario", str(path), "--n", "50", "100", "200",
                 "--t-end", "1.0", "--out", str(out)])
    assert code == 0
    _, rows = read_csv_rows(out / "sweep.csv")
    dists = {int(r[0]): float(r[1]) for r in rows}

    from pbal import quantile_init
    from pbal.density import l1_distance, to_density
    from pbal.initial import InitialDensity
    rho0 = InitialDensity.from_blocks([(-1.0, -0.5, 1.0), (0.0, 1.0, 0.5)])
    exact = to_density(quantile_init(rho0, 4000))  # fine proxy for rho0
    for n, d in dists.items():
        init_gap = l1_distance(to_density(quantile_init(rho0, n)), exact)
        assert d <= 2.0 * init_gap + 1e-9
    assert dists[100] < dists[50]


def test_sweep_plot_and_svg(tmp_path):
    out = tmp_path / "plot"
    code = main(["run", "--scenario", "attractive_congested", "--n", "30",
                 "--t-end", "0.5", "--out", str(out), "--plot"])
    assert code == 0
    svg = (out / "density.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_audit_transport_green(tmp_path):
    out = tmp_path / "audit"
    code = main(["audit", "--scenario", "transport", "--n", "60",
                 "--t-end", "1.0", "--out", str(out)])
    assert code == 0
    good_v = json.loads((out / "good_v.json").read_text())
    assert good_v == []
    bounds = json.loads((out / "bounds.json").read_text())
    assert all(rec["ok"] for rec in bounds)
    entropy = json.loads((out / "entropy.json").read_text())
    assert entropy["res_neg"] <= 1e-5  # transport residual is exactly zero up to quadrature


def test_audit_flags_and_violation_exit(tmp_path, monkeypatch):
    # custom phi/c grids are honored; an injected good-v violation exits 1
    out = tmp_path / "audit1"
    code = main(["audit", "--scenario", "transport", "--n", "40",
                 "--snapshots", "65", "--phi-grid", "2x3", "--c-grid", "0,0.5",
                 "--out", str(out)])
    assert code == 0
    entropy = json.loads((out / "entropy.json").read_text())
    assert len(entropy["residuals"]) == 2 * 3 * 2 * 2  # 2 widths x (2x3) x 2 cs

    from pbal import diagnostics as dg

    def fake_audit(traj, s):
        return [dg.GoodVViolation(0.0, "constant", 0, 0.5, 1.0, 0.0)]

    monkeypatch.setattr("pbal.cli.diagnostics.good_v_audit", fake_audit)
    code = main(["audit", "--scenario", "transport", "--n", "20",
                 "--snapshots", "65", "--out", str(tmp_path / "audit2")])
    assert code == 1


@pytest.mark.parametrize("flag, value", [
    ("--c-grid", "nan,0.5"), ("--c-grid", "inf"), ("--c-grid", "0,,1"), ("--c-grid", ""),
    ("--phi-grid", "0x0"), ("--phi-grid", "3x-1"), ("--phi-grid", "0,,1"), ("--phi-grid", ""),
])
def test_audit_bad_grid_exit_2(tmp_path, capsys, flag, value):
    # a NaN constant used to hide every residual (res_neg = 0) and a zero
    # count to fail inside min(); each is a usage error naming its flag
    assert main(["audit", "--scenario", "transport", "--n", "20", "--t-end", "0.2",
                 flag, value, "--out", str(tmp_path / "out")]) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, named", [
    ("0.5,0.5000001,0.5", "0.5, 0.5000001, 0.5"),  # alike under %g, and a repeat
    ("0,0.25,-0", "0, -0"),
    ("1e-7,1.0000001e-7,0.3", "1e-7, 1.0000001e-7"),
])
def test_audit_c_grid_alike_under_g_exit_2(tmp_path, capsys, value, named):
    # entropy.json keys its residuals by the constant under %g, so these
    # constants used to drop residuals with exit 0
    assert main(["audit", "--scenario", "transport", "--n", "20", "--snapshots", "65",
                 "--c-grid", value, "--phi-grid", "1x1", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "--c-grid" in err and named in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--t-end", "--rel-tol", "--abs-tol"])
@pytest.mark.parametrize("value", ["inf", "nan", "0", "-0.5"])
def test_non_finite_time_or_tolerance_exit_2(tmp_path, capsys, flag, value):
    # --rel-tol inf ran with error control off, --t-end inf failed with a
    # numpy RuntimeWarning and a message about min_step
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--scenario", "transport", "--n", "20", flag, value,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert flag in err and "finite positive" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_audit_malformed_scenario(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["audit", "--scenario", str(path), "--n", "10",
                 "--out", str(tmp_path / "a")]) == 2


def test_audit_scenario_file_constant_dxV(tmp_path):
    doc = {
        "congestion": {"v": "1/(1 + r)", "v_sup": 1.0, "vprime_bound": "1"},
        "advection": {"V": "0", "dxV": "0", "F": "2", "G": "1", "lambda": "1"},
        "potential": {"W": "-abs(x)", "dxW_neg": "1", "dxW_pos": "-1", "atom_w": -2.0},
        "source": {"f": "rho*bump(x)", "c_f": 0.5, "drho_f_bound": "1"},
        "metadata": {"name": "file_audit", "branch": "w_repulsive",
                     "initial": {"blocks": [[-0.6, 0.6, 0.8]]}},
    }
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "audit"
    assert main(["audit", "--scenario", str(path), "--n", "20", "--t-end", "0.5",
                 "--snapshots", "65", "--out", str(out)]) == 0
    assert (out / "entropy.json").exists()


def test_inconsistent_potential_exit_2(tmp_path, capsys):
    base = {"W": "abs(x)", "dxW_neg": "-1", "dxW_pos": "1", "atom_w": 2.0}
    for bad, field in (({"dxW_neg": "1"}, "dxW_neg"), ({"atom_w": 1.0}, "atom_w")):
        doc = {
            "congestion": {"v": "max(1 - r, 0)", "v_sup": 1.0, "vprime_bound": "1",
                           "decay_g": "2*r"},
            "advection": {},
            "potential": dict(base, **bad),
            "source": {},
            "metadata": {"branch": "v_decays", "initial": {"blocks": [[0.0, 1.0, 0.5]]}},
        }
        path = tmp_path / "inconsistent.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(path), "--n", "10",
                     "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err


def _with_potential(tmp_path, potential, name="scenario.json"):
    doc = json.loads(_file_scenario(tmp_path).read_text())
    path = tmp_path / name
    path.write_text(json.dumps(dict(doc, potential=potential)))
    return path


_EXP_POTENTIAL = {"W": "exp(-abs(x))", "dxW_neg": "exp(x)", "dxW_pos": "-exp(-x)"}


@pytest.mark.parametrize("key", ["dxW_neg", "dxW_pos"])
def test_potential_without_pieces_needs_both_branches(tmp_path, capsys, key):
    # nothing derives the branches of a W without polynomial pieces; an
    # omitted one is an error, never a gradient of 0
    path = _with_potential(tmp_path, {k: v for k, v in _EXP_POTENTIAL.items() if k != key})
    assert main(["run", "--scenario", str(path), "--n", "10",
                 "--out", str(tmp_path / "out")]) == 2
    assert f"missing required field potential.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("key, wrong", [("dxW_neg", "-exp(x)"), ("dxW_pos", "exp(-x)"),
                                        ("dxW_pos", "-exp(-1.001*x)")])
def test_branch_contradicting_W_without_pieces_exit_2(tmp_path, capsys, key, wrong):
    path = _with_potential(tmp_path, dict(_EXP_POTENTIAL, **{key: wrong}))
    assert main(["run", "--scenario", str(path), "--n", "10",
                 "--out", str(tmp_path / "out")]) == 2
    assert f"potential.{key}(" in capsys.readouterr().err
    s, _ = load_scenario(_with_potential(tmp_path, _EXP_POTENTIAL))
    assert s.potential.pieces is None and s.potential.atom_w(0.0) == -2.0


def test_audit_of_W_alone_equals_declared_branches(tmp_path):
    # the branches and the atom of a W with pieces are derived from it
    W = "-abs(x) + 0.5*x**2"
    outs = []
    for k, potential in enumerate(({"W": W}, {"W": W, "dxW_neg": "x + 1",
                                               "dxW_pos": "x - 1", "atom_w": -2.0})):
        path = _with_potential(tmp_path, potential, f"scenario{k}.json")
        outs.append(tmp_path / f"audit{k}")
        assert main(["audit", "--scenario", str(path), "--n", "20", "--t-end", "0.5",
                     "--snapshots", "65", "--out", str(outs[-1])]) == 0
    names = sorted(f.name for f in outs[0].iterdir())
    assert names == sorted(f.name for f in outs[1].iterdir()) and "entropy.json" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_validate_grid_too_small(tmp_path, capsys):
    code = main(["validate", "--scenario", "repulsive_source", "--n", "50",
                 "--j", "100", "--x-max", "1.0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "envelope" in err


@pytest.mark.parametrize("x_max", ["nan", "inf", "-1", "1e308"])
def test_validate_bad_x_max_exit_2(tmp_path, capsys, x_max):
    # NaN passed the envelope check and a half-width too large for a finite
    # dx left the oracle with no step, so compare_l1 raised a KeyError
    out = tmp_path / "val"
    assert main(["validate", "--scenario", "repulsive_source", "--n", "50",
                 "--j", "100", "--t-end", "0.1", "--x-max", x_max,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("--x-max" in err) if x_max != "1e308" else ("cell width" in err)
    assert not out.exists()


def test_validate_transport(tmp_path):
    # first-order upwind smears the two-block jumps; refinement must help
    finals = {}
    for j in (500, 2000):
        out = tmp_path / f"val{j}"
        code = main(["validate", "--scenario", "transport", "--n", "200",
                     "--j", str(j), "--t-end", "1.0", "--x-max", "4.0",
                     "--out", str(out)])
        assert code == 0
        _, rows = read_csv_rows(out / "validate.csv")
        finals[j] = float(rows[-1][1])
    assert finals[2000] < finals[500]
    assert finals[2000] <= 0.2


def test_scenario_file_end_to_end(tmp_path):
    doc = {
        "congestion": {"v": "max(1 - r, 0)", "v_sup": 1.0, "vprime_bound": "1",
                       "decay_g": "2*r"},
        "advection": {"V": "1", "F": "1", "G": "1", "lambda": "1"},
        "potential": {"W": "0"},
        "source": {},
        "metadata": {"name": "file_scenario", "branch": "v_decays",
                     "initial": {"blocks": [[0.0, 1.0, 0.5]]}},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--n", "20",
                 "--out", str(out)]) == 0
    assert (out / "snapshots.csv").exists()


def test_initial_csv_override(tmp_path):
    csv = tmp_path / "init.csv"
    xs = np.linspace(-1, 1, 101)
    ys = np.maximum(1 - np.abs(xs), 0)
    csv.write_text("\n".join(f"{x},{y}" for x, y in zip(xs, ys)))
    out = tmp_path / "out"
    code = main(["run", "--scenario", "transport", "--n", "30",
                 "--initial", str(csv), "--out", str(out)])
    assert code == 0


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency: importing the CLI pulls in no scipy
    code = "import sys, pbal.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
    mentions = [str(p) for p in (SRC / "pbal").rglob("*.py") if "scipy" in p.read_text()]
    assert mentions == []


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads(first_import, caller):
    """OpenBLAS's thread count (``None`` when the BLAS reports none) and the
    three thread variables, read in a fresh process after ``first_import``
    with only the ``caller``'s thread variables set."""
    code = (f"import os, {first_import}; from perfbench.machine import _blas; "
            f"print(_blas()['threads'], *(os.environ.get(v) for v in {_THREAD_VARS!r}))")
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env.update(caller, PYTHONPATH=os.pathsep.join((str(SRC), str(SRC.parent))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    return (None if out[0] == "None" else int(out[0])), out[1:]


@pytest.mark.parametrize("caller", [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}])
def test_numpy_loads_with_one_blas_thread_unless_the_caller_sizes_it(caller):
    threads, seen = _blas_threads("pbal.cli", caller)
    # the variable pbal sets for the load is gone again; the caller's stay
    assert seen == [caller.get(v, "None") for v in _THREAD_VARS]
    if threads is None:  # a BLAS that reports no thread count
        return
    if caller:
        # the caller's count, as OpenBLAS caps it at the CPUs it finds
        assert threads == _blas_threads("numpy", caller)[0]
    else:
        assert threads == 1


_QUADRATIC_POTENTIAL = {"W": "0.5*x**2 - abs(x)"}
# After main(argv), or the import alone: the modules loaded that a command
# should not need (OpenSSL through hashlib, and numpy.polynomial).
_LOADED = ("import sys; from pbal.cli import main; rc = main(sys.argv[1:]) if sys.argv[1:] else 0; "
           "print(rc, *sorted(m for m in sys.modules if m in ('hashlib', '_hashlib') "
           "or m.split('.')[:2] == ['numpy', 'polynomial']))")


@pytest.mark.parametrize("command, loaded", [
    ((), []),
    (("validate", "--n", "20", "--j", "200"), []),
    (("audit", "--n", "20"), []),
    (("sweep", "--n", "20", "40"), []),
    # the one reader of the fingerprint: run's manifest on a scenario file
    (("run", "--n", "20"), ["_hashlib", "hashlib"]),
])
def test_a_command_loads_only_what_it_reads(tmp_path, command, loaded):
    path = _with_potential(tmp_path, _QUADRATIC_POTENTIAL)
    argv = [*command, "--scenario", str(path), "--out", str(tmp_path / "out")] if command else []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env, capture_output=True,
                         text=True, check=True, cwd=tmp_path).stdout.splitlines()[-1].split()
    assert out[0] in ("0", "1") and out[1:] == loaded


def test_package_imports_no_numpy_polynomial():
    # the run-time check above covers the paths its commands take; this, every line
    uses = re.compile(r"^\s*(from|import) numpy\.polynomial|\bnp\.polynomial\b", re.M)
    assert [str(p) for p in (SRC / "pbal").rglob("*.py") if uses.search(p.read_text())] == []


def test_run_manifest_hashes_the_scenario_file_text(tmp_path):
    path = _with_potential(tmp_path, _QUADRATIC_POTENTIAL)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--n", "20", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario_hash"] == hashlib.sha256(path.read_text().encode()).hexdigest()[:16]


def _file_scenario(tmp_path, **sections):
    doc = {
        "congestion": {"v": "1/(1 + r)", "v_sup": 1.0, "vprime_bound": "1"},
        "advection": {"V": "0", "dxV": "0", "F": "2", "G": "1", "lambda": "1"},
        "potential": {"W": "-abs(x)", "dxW_neg": "1", "dxW_pos": "-1", "atom_w": -2.0},
        "source": {"f": "rho*bump(x)", "c_f": 0.5, "drho_f_bound": "1"},
        "metadata": {"name": "file_run", "branch": "w_repulsive",
                     "initial": {"blocks": [[-0.6, 0.6, 0.8]]}},
    }
    for section, body in sections.items():
        doc[section] = dict(doc[section], **body)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("section, typo", [
    ("potential", {"dxw_neg": "1"}),
    ("advection", {"lamda": "1"}),
    ("metadata", {"brnach": "v_decays"}),
])
def test_unknown_scenario_key_exit_2(tmp_path, capsys, section, typo):
    path = _file_scenario(tmp_path, **{section: typo})
    assert main(["run", "--scenario", str(path), "--n", "10",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert repr(next(iter(typo))) in err and section in err


@pytest.mark.parametrize("section, body", [
    ("congestion", {"v_sup": 10**400}),
    ("advection", {"V": 10**400}),
    ("potential", {"atom_w": -(10**400)}),
    ("metadata", {"initial": {"blocks": [[-0.6, 0.6, 10**400]]}}),
    ("congestion", {"v_sup": float("nan")}),
    ("source", {"c_f": float("nan")}),
    ("metadata", {"initial": {"samples": [[0.0, 1.0], [float("nan"), 0.0]]}}),
    ("congestion", {"v_sup": float("inf")}),
    ("source", {"c_f": float("inf")}),
    ("potential", {"atom_w": float("-inf")}),
], ids=["v_sup-huge", "V-huge", "atom_w-huge", "blocks-huge", "v_sup-NaN", "c_f-NaN",
        "samples-NaN", "v_sup-Infinity", "c_f-Infinity", "atom_w-Infinity"])
def test_non_finite_scenario_number_exit_2(tmp_path, capsys, section, body):
    # json writes these as a 401-digit integer, NaN and Infinity
    path = _file_scenario(tmp_path, **{section: body})
    assert main(["run", "--scenario", str(path), "--n", "10",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "too large for a float" in err or "not finite" in err


@pytest.mark.parametrize("section, body, key, problem", [
    ("source", {"c_f": -1}, "source.c_f", "must be non-negative, got -1.0"),
    ("congestion", {"v_sup": -1}, "congestion.v_sup", "must be non-negative, got -1.0"),
    ("source", {"c_f": True}, "source.c_f", "is not a real number: True"),
    ("congestion", {"v_sup": False}, "congestion.v_sup", "is not a real number: False"),
    ("metadata", {"initial": {"blocks": [[-0.6, 0.6, True]]}}, "metadata.initial.blocks",
     "is not a real number: True"),
    ("advection", {"V": True}, "advection.V", "is not a real number: True"),
    ("advection", {"V": "x + True"}, "advection.V", "constant not allowed: True"),
    ("source", {"c_f": "0.5"}, "source.c_f", "is not a real number: '0.5'"),
    ("congestion", {"v_sup": " 1e0 "}, "congestion.v_sup", "is not a real number: ' 1e0 '"),
    ("metadata", {"initial": {"blocks": [[-0.6, 0.6, "0.85"]]}}, "metadata.initial.blocks",
     "is not a real number: '0.85'"),
    ("metadata", {"initial": {"samples": [[-1.0, 0.0], ["0", 1.0], [1.0, 0.0]]}},
     "metadata.initial.samples", "is not a real number: '0'"),
], ids=["c_f-negative", "v_sup-negative", "c_f-true", "v_sup-false", "block-height-true",
        "V-true", "V-text-True", "c_f-string", "v_sup-string", "block-height-string",
        "sample-string"])
def test_signed_or_boolean_scenario_number_exit_2(tmp_path, capsys, section, body, key, problem):
    # -1 used to run (audit then printed "bounds VIOLATED" with exit 0), and
    # JSON true was read as 1.0 and the string "0.5" as 0.5
    path = _file_scenario(tmp_path, **{section: body})
    assert main(["run", "--scenario", str(path), "--n", "10",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {key}") and problem in err and err.count("\n") == 1


@pytest.mark.parametrize("V", [10**400, "y"], ids=["huge", "unknown-name"])
def test_expression_error_names_its_key(tmp_path, capsys, V):
    path = _file_scenario(tmp_path, advection={"V": V})
    assert main(["run", "--scenario", str(path), "--n", "10",
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{path}: advection.V" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, text, message", [
    ("advection", "V", "min()", "min() takes at least one argument, got 0"),
    ("advection", "V", "max()", "max() takes at least one argument, got 0"),
    ("advection", "V", "abs()", "abs() takes exactly one argument, got 0"),
    ("advection", "V", "abs(x, 1)", "abs() takes exactly one argument, got 2"),
    ("advection", "V", "exp(x, x)", "exp() takes exactly one argument, got 2"),
    ("source", "f", "rho*bump(x, 1)", "bump() takes exactly one argument, got 2"),
    ("source", "f", "rho*bump()", "bump() takes exactly one argument, got 0"),
], ids=["min-0", "max-0", "abs-0", "abs-2", "exp-2", "bump-2", "bump-0"])
def test_call_with_wrong_argument_count_exit_2(tmp_path, capsys, section, key, text, message):
    # caught when the expression compiles, not as an IndexError or TypeError
    # when the loader or the solver first calls it
    path = _file_scenario(tmp_path, **{section: {key: text}})
    assert main(["run", "--scenario", str(path), "--n", "10",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path}: {section}.{key}: {message}" in err and "Traceback" not in err


def test_min_and_max_take_one_or_more_arguments():
    e = compile_expression("min(x) + max(x, 2*x, -x)", ("x",))
    assert np.array_equal(e(np.array([-1.0, 2.0])), [0.0, 6.0])


def test_overflowing_constant_exit_2(tmp_path, capsys):
    # the constant folds to a float overflow when the file is loaded; no
    # integer tower is ever built
    path = _file_scenario(tmp_path, advection={"V": "x + 9**9**9"})
    assert main(["run", "--scenario", str(path), "--n", "10",
                 "--out", str(tmp_path / "out")]) == 2
    assert "9**9**9" in capsys.readouterr().err


def test_unused_dx2W_is_still_checked(tmp_path, capsys):
    # nothing reads potential.dx2W, but a malformed one is an error, not ignored
    path = _file_scenario(tmp_path, potential={"dx2W": "y"})
    assert main(["run", "--scenario", str(path), "--n", "10",
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{path}: potential.dx2W" in capsys.readouterr().err


@pytest.mark.parametrize("V", ["+".join(["x"] * 5000), "-" * 200_000 + "x"],
                         ids=["5000-term-sum", "200000-minus-chain"])
def test_too_deep_expression_exit_2(tmp_path, capsys, V):
    # parsing, walking or compiling runs out of stack (RecursionError) or of
    # parser memory (MemoryError): a format error naming the key, no traceback
    path = _file_scenario(tmp_path, advection={"V": V})
    assert main(["run", "--scenario", str(path), "--n", "10",
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{path}: advection.V: expression is nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("V", [
    "x + 1/(1 - 1)*0." + "0" * 200_000,
    "x + (" + " " * 200_000,
    "x + y" + "y" * 200_000,
], ids=["folds-to-no-float", "unparsable", "unknown-name"])
def test_long_expression_error_is_bounded(tmp_path, capsys, V):
    # the message quotes a bounded prefix of a 200,000-character expression
    path = _file_scenario(tmp_path, advection={"V": V})
    assert main(["run", "--scenario", str(path), "--n", "10",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path}: advection.V" in err and len(err.encode()) < 1024


def test_non_finite_oracle_exit_3(tmp_path, capsys):
    # rho/rho is NaN on the oracle's empty cells (the particles have none):
    # a numerical failure naming t, not a missing snapshot
    path = _file_scenario(tmp_path, source={"f": "rho*bump(x)*(rho/rho)"})
    with np.errstate(invalid="ignore"):
        code = main(["validate", "--scenario", str(path), "--n", "50", "--j", "400",
                     "--t-end", "0.2"])
    err = capsys.readouterr().err
    assert code == 3
    assert "cells not finite at t = " in err and "Traceback" not in err


def test_audit_of_a_blowing_up_envelope_warns_nothing(tmp_path):
    # lambda = 1 + r^2 sends the support envelope S to infinity in finite time;
    # its integration overflows on the way, which must neither warn nor fail
    path = _file_scenario(tmp_path, advection={"lambda": "1 + r**2"})
    out = tmp_path / "audit"
    code = f"""
import sys
from pbal.cli import main
sys.exit(main(["audit", "--scenario", {str(path)!r}, "--n", "20", "--t-end", "3",
               "--snapshots", "65", "--out", {str(out)!r}]))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    header, rows = read_csv_rows(out / "envelopes.csv")
    S = np.array([float(row[header.index("S")]) for row in rows])
    blown = np.flatnonzero(np.isinf(S))
    assert 0 < blown[0] < S.size - 1 and blown.size == S.size - blown[0]
    assert np.all(np.isfinite(S[:blown[0]]))


@pytest.mark.parametrize("x_max", [[], ["--x-max", "7"]], ids=["default", "x_max"])
def test_validate_with_a_blowing_up_support_envelope_exit_3(tmp_path, capsys, x_max):
    # the grid must hold the support up to t_end, which S says is unbounded
    path = _file_scenario(tmp_path, advection={"lambda": "1 + r**2"})
    assert main(["validate", "--scenario", str(path), "--n", "20", "--j", "100",
                 "--t-end", "3", *x_max]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: the support envelope S blows up at t = 0.257812, " \
                  "before t_end = 3\n"


def _run_with(tmp_path, section, body):
    """Exit code of a short run of the file scenario with ``section`` replaced."""
    doc = json.loads(_file_scenario(tmp_path).read_text())
    path = tmp_path / "replaced.json"
    path.write_text(json.dumps(dict(doc, **{section: body})))
    return main(["run", "--scenario", str(path), "--n", "10", "--t-end", "0.2",
                 "--out", str(tmp_path / "out")])


def test_source_without_c_f_exit_2(tmp_path, capsys):
    # c_f = 0 (the default) declares no source: the dynamics, the oracle and
    # the envelopes skip f, so f = rho would be dropped without a word
    assert _run_with(tmp_path, "source", {"f": "rho"}) == 2
    assert "source.c_f" in capsys.readouterr().err
    assert _run_with(tmp_path, "source", {"f": "0*(x + rho)"}) == 0


@pytest.mark.parametrize("dxV, code", [(None, 2), ("-1", 0), ("5", 2)],
                         ids=["omitted", "right", "wrong"])
def test_dxV_checked_against_V(tmp_path, capsys, dxV, code):
    # an omitted dxV is "0", checked like a declared one
    advection = {"V": "-x", "F": "2", "G": "1 + r", "lambda": "1"}
    if dxV is not None:
        advection["dxV"] = dxV
    assert _run_with(tmp_path, "advection", advection) == code
    assert ("advection.dxV(" in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize("potential", [
    {"W": "min(x, 1)", "dxW_neg": "1", "dxW_pos": "min(1, max(0, 1 + 1e9*(1 - x)))"},
    {"W": "abs(x - 1)", "dxW_neg": "-1", "dxW_pos": "(x - 1)/abs(x - 1)"},
], ids=["min", "abs"])
def test_kernel_branches_skip_the_kinks_of_W(tmp_path, capsys, potential):
    # at x = 1 the one-sided differences of W disagree: a branch may take
    # either side's value there (or none), and the point is not checked
    s, _ = load_scenario(_with_potential(tmp_path, potential))
    assert s.potential.pieces is None and s.potential.atom_w(0.0) == 0.0
    # a branch that is wrong at a smooth point is still rejected
    path = _with_potential(tmp_path, dict(potential, dxW_pos="1"), "wrong.json")
    assert main(["run", "--scenario", str(path), "--n", "10",
                 "--out", str(tmp_path / "out")]) == 2
    assert "potential.dxW_pos(" in capsys.readouterr().err


def test_sweep_integrates_a_repeated_n_once(tmp_path, monkeypatch):
    from pbal import cli

    ns = []
    integrate = cli.integrate
    monkeypatch.setattr(cli, "integrate", lambda p0, s, cfg: ns.append(p0.n) or integrate(p0, s, cfg))
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", "attractive_congested", "--n", "50", "50", "100",
                 "--t-end", "0.1", "--out", str(out)]) == 0
    assert ns == [50, 100]
    _, rows = read_csv_rows(out / "sweep.csv")
    assert [int(r[0]) for r in rows] == [50]
    assert main(["sweep", "--scenario", "attractive_congested", "--n", "50", "50"]) == 2


@pytest.mark.parametrize("count", ["0", "1", "-3"])
@pytest.mark.parametrize("argv", [
    ["run", "--n", "10"],
    ["sweep", "--n", "10", "20"],
    ["audit", "--n", "10"],
    ["validate", "--n", "10", "--j", "50"],
], ids=lambda argv: argv[0])
def test_fewer_than_two_snapshots_exit_2(tmp_path, capsys, argv, count):
    # the snapshot grid holds t = 0 and t = t_end, so it needs two times
    assert main([*argv, "--scenario", "transport", "--snapshots", count,
                 "--out", str(tmp_path / "out")]) == 2
    assert "--snapshots" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count", ["10", "63"])
def test_audit_with_fewer_snapshots_than_the_trapezoid_takes_exit_2(tmp_path, capsys, count):
    # the entropy residual needs MIN_SNAPSHOTS; a smaller count is refused, not raised
    assert main(["audit", "--scenario", "transport", "--n", "10", "--snapshots", count,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f">= {MIN_SNAPSHOTS}, got {count}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, problem", [
    ("0,0\n0.5,1\ninf,0\n", "sample positions and values must be finite"),
    ("0,0\n0.5,nan\n1,0\n", "sample positions and values must be finite"),
    ("0,1e308\n1,1e308\n2,1e308\n", "total mass must be finite and positive, got inf"),
    ("0,0\nabc,1\n", "'abc'"),  # numpy's own message, with the file's name in front
    ("", "expected two columns (position, value)"),  # and no numpy warning first
], ids=["inf-position", "nan-value", "overflowing-mass", "not-a-number", "empty"])
def test_bad_initial_csv_exit_2_naming_the_file(tmp_path, capsys, text, problem):
    csv = tmp_path / "init.csv"
    csv.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--scenario", "transport", "--n", "10", "--initial", str(csv),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv}: ") and problem in err and err.count("\n") == 1


@pytest.mark.parametrize("initial, key", [
    ({"blocks": [[-0.6, 0.6, 0.8]], "samples": [[-0.6, 0.0], [0.6, 0.0]]},
     "got 'blocks' and 'samples'"),
    ({"blocks": [[-0.6, 0.6, 0.8]], "bogus": 1}, "unknown key(s) 'bogus'"),
    ({}, "got neither"),
], ids=["both-keys", "stray-key", "no-key"])
def test_initial_keys_are_strict(tmp_path, capsys, initial, key):
    path = _file_scenario(tmp_path, metadata={"initial": initial})
    assert main(["run", "--scenario", str(path), "--n", "10",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "metadata.initial" in err and key in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_overflowing_initial_blocks_exit_2(tmp_path, capsys):
    path = _file_scenario(tmp_path, metadata={"initial": {"blocks": [[0, 10, 1e308]]}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--scenario", str(path), "--n", "10",
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"error: {path}: metadata.initial.blocks: "
                                       "total mass must be finite and positive, got inf\n")


def test_cli_runs_leave_numpy_ma_unimported(tmp_path):
    # np.unique reaches numpy.ma, an import of about 17 ms and 1 MB; the
    # breakpoint merges sort instead
    csv = tmp_path / "init.csv"
    csv.write_text("-0.5,0\n-0.48,0.8\n0.48,0.8\n0.5,0\n")
    code = f"""
import sys
from pbal.cli import main
runs = [
    ["validate", "--scenario", "repulsive_source", "--n", "40", "--j", "200", "--t-end", "0.2"],
    ["audit", "--scenario", "attractive_congested", "--n", "30", "--t-end", "0.2",
     "--initial", {str(csv)!r}, "--snapshots", "65", "--out", {str(tmp_path / "audit")!r}],
    ["sweep", "--scenario", "attractive_congested", "--n", "20", "40", "--t-end", "0.2"],
]
for argv in runs:
    assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"


@pytest.mark.parametrize("obj", [
    {"b": [1.0, float("nan"), 1e-300], "a": {"t": np.float64(0.1)}, "c": None},
    [{"t": 0.5, "ok": True, "c": np.float64(-0.0)}],
    [],
], ids=["dict", "records", "empty"])
def test_json_writers_write_the_dumps_text(tmp_path, obj):
    from pbal import io

    want = json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n"
    io.write_report(tmp_path / "report.json", obj)
    assert (tmp_path / "report.json").read_bytes() == want.encode()
    if isinstance(obj, dict):
        io.write_manifest(tmp_path / "manifest.json", **obj)
        assert (tmp_path / "manifest.json").read_bytes() == want.encode()


def test_writers_stream_their_rows(tmp_path):
    # 64 snapshots at N = 2000 make a 12.4 MB CSV; joined whole it held the
    # rows three times over (44 MB traced), streamed it holds about one; the
    # SVG of 16 of them held every staircase and polyline (3 MB) before writing
    import tracemalloc
    from types import SimpleNamespace

    from pbal import io
    from pbal.density import ParticleSystem

    rng = np.random.default_rng(7)
    traj = SimpleNamespace(snapshots=[
        ParticleSystem(t=k / 63, x=np.cumsum(rng.uniform(0.5, 1.5, 2001)),
                       q=rng.uniform(0.5, 1.5, 2000)) for k in range(64)])
    path = tmp_path / "snapshots.csv"
    svg = SimpleNamespace(snapshots=traj.snapshots[:16])
    for write, part, to in ((io.write_particle_csv, traj, path),
                            (io.write_density_svg, svg, tmp_path / "density.svg")):
        tracemalloc.start()
        try:
            write(part, to)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (write.__name__, peak)
    fmt = io._fmt
    lines = ["t,i,x_left,x_right,q,rho"]
    for p in traj.snapshots:
        rho = p.heights
        lines.extend(",".join((fmt(p.t), str(i + 1), fmt(p.x[i]), fmt(p.x[i + 1]), fmt(p.q[i]),
                               fmt(rho[i]))) for i in range(p.n))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
