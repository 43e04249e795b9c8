import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pbal.cli import main
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

    from pbal import InitialDensity, l1_distance, quantile_init, to_density
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

    def fake_audit(traj, s, c_grid=None, slack=1e-10):
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
                 "--snapshots", "9", "--out", str(out)]) == 0
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
                     "--snapshots", "9", "--out", str(outs[-1])]) == 0
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


@pytest.mark.parametrize("V", [10**400, "y"], ids=["huge", "unknown-name"])
def test_expression_error_names_its_key(tmp_path, capsys, V):
    path = _file_scenario(tmp_path, advection={"V": V})
    assert main(["run", "--scenario", str(path), "--n", "10",
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{path}: advection.V" in capsys.readouterr().err


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
