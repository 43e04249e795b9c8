"""Command-line driver.

Subcommands: ``run`` (single integration), ``sweep`` (N-refinement Cauchy
table), ``audit`` (bounds / entropy / structural inequalities), ``validate``
(cross-check against the finite-volume oracle).  Exit codes: 0 success,
1 invariant violation found, 2 usage or configuration error, 3 numerical
failure (collision, extinction, blow-up, grid escape).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from . import diagnostics, io, reference
from .density import l1_distance, to_density
from .errors import NumericalFailureError, PbalError
from .initial import load_initial_csv, quantile_init
from .integrator import SolverConfig, integrate
from .reference import GridConfig, fv_run
from .scenario import CATALOG_NAMES, catalog_entry, load_scenario

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _resolve_scenario(ref, initial_path=None):
    """Catalog name or path to a scenario document, plus the initial density."""
    if ref in CATALOG_NAMES:
        scenario, rho0 = catalog_entry(ref)
    else:
        if not os.path.exists(ref):
            raise argparse.ArgumentTypeError(
                f"scenario {ref!r} is neither a catalog name ({', '.join(CATALOG_NAMES)}) "
                "nor an existing file"
            )
        scenario, rho0 = load_scenario(ref)
    if initial_path is not None:
        rho0 = load_initial_csv(initial_path)
    if rho0 is None:
        raise PbalError(f"scenario {ref!r} provides no initial density; pass --initial")
    return scenario, rho0


def _solver_config(args, store_steps=False):
    return SolverConfig(
        t_end=args.t_end,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        snapshot_times=np.linspace(0.0, args.t_end, args.snapshots),
        store_steps=store_steps,
    )


def _run_one(scenario, rho0, n, cfg, p0=None):
    """Integrate the quantile discretization of ``rho0`` (or the given ``p0``)."""
    if p0 is None:
        p0 = quantile_init(rho0, n)
    return integrate(p0, scenario, cfg)


def cmd_run(args):
    scenario, rho0 = _resolve_scenario(args.scenario, args.initial)
    cfg = _solver_config(args)
    os.makedirs(args.out, exist_ok=True)
    t0 = time.perf_counter()
    traj = _run_one(scenario, rho0, args.n, cfg)
    wall = time.perf_counter() - t0

    csv_path = os.path.join(args.out, "snapshots.csv")
    io.write_particle_csv(traj, csv_path)
    outputs = [csv_path]
    if args.plot:
        svg_path = os.path.join(args.out, "density.svg")
        io.write_density_svg(traj, svg_path)
        outputs.append(svg_path)
    manifest = os.path.join(args.out, "manifest.json")
    io.write_manifest(
        manifest,
        scenario=scenario.name,
        scenario_hash=scenario.fingerprint,
        n=args.n,
        config={
            "t_end": args.t_end, "rel_tol": args.rel_tol, "abs_tol": args.abs_tol,
            "snapshots": args.snapshots,
        },
        step_stats=traj.step_stats.as_dict(),
        wall_clock_s=round(wall, 6),
        outputs=[os.path.basename(p) for p in outputs],
    )
    final = traj.snapshots[-1]
    print(f"run {scenario.name} n={args.n}: {traj.step_stats.accepted} steps, "
          f"mass(T)={final.total_mass():.9g}, support=[{final.x[0]:.6g}, {final.x[-1]:.6g}]")
    return EXIT_OK


def _space_time_l1(traj_a, traj_b):
    """Time trapezoid of the spatial L1 distance at shared snapshot times."""
    times = traj_a.times
    dists = np.array([
        l1_distance(to_density(pa), to_density(pb))
        for pa, pb in zip(traj_a.snapshots, traj_b.snapshots)
    ])
    return float(np.trapezoid(dists, times))


def cmd_sweep(args):
    ns = sorted(set(args.n))
    if len(ns) < 2:
        print("sweep needs at least two values of N", file=sys.stderr)
        return EXIT_USAGE
    scenario, rho0 = _resolve_scenario(args.scenario, args.initial)
    cfg = _solver_config(args)
    trajs = {n: _run_one(scenario, rho0, n, cfg) for n in ns}

    rows = []
    print(f"{'N':>6} {'||rho_2N - rho_N||_L1':>24} {'rate':>8}")
    prev = None
    for n in ns:
        if 2 * n not in trajs:
            continue
        d = _space_time_l1(trajs[n], trajs[2 * n])
        rate = float("nan") if prev is None or d == 0 else np.log2(prev / d)
        rows.append((n, d, rate))
        print(f"{n:>6} {d:>24.6e} {rate:>8.3f}")
        prev = d
    if not rows:
        print("no (N, 2N) pairs in the sweep; pass doubling values", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        io.write_envelope_csv(os.path.join(args.out, "sweep.csv"),
                              [(n, float(d), float(r)) for n, d, r in rows],
                              header=("n", "l1_spacetime", "rate"))
    return EXIT_OK


def cmd_audit(args):
    scenario, rho0 = _resolve_scenario(args.scenario, args.initial)
    cfg = _solver_config(args, store_steps=True)
    traj = _run_one(scenario, rho0, args.n, cfg)
    os.makedirs(args.out, exist_ok=True)

    phis = None if args.phi_grid is None else diagnostics.default_phi_grid(traj, *args.phi_grid)
    env = diagnostics.compute_envelopes(scenario, traj.snapshots[0], args.t_end)
    bounds = diagnostics.check_bounds(traj, env, scenario)
    violations = diagnostics.good_v_audit(traj, scenario)
    residual = diagnostics.entropy_residual(traj, scenario, phis=phis, cs=args.c_grid)
    h = float(cfg.snapshot_times[1] - cfg.snapshot_times[0])
    moduli = diagnostics.equicontinuity_modulus(traj, h)

    io.write_report(os.path.join(args.out, "bounds.json"),
                    [dataclasses.asdict(r) for r in bounds.records])
    io.write_report(os.path.join(args.out, "good_v.json"),
                    [dataclasses.asdict(v) for v in violations])
    io.write_report(os.path.join(args.out, "entropy.json"), {
        "res_neg": residual.res_neg,
        "residuals": {f"phi{j}_c{c:g}": e for (j, c), e in residual.residuals.items()},
        "metadata": residual.metadata,
    })
    io.write_envelope_csv(os.path.join(args.out, "equicontinuity.csv"),
                          [(float(t), float(m)) for t, m in moduli],
                          header=("t", "modulus"))
    io.write_envelope_csv(os.path.join(args.out, "envelopes.csv"), bounds.rows,
                          header=diagnostics.ENVELOPE_COLUMNS)

    print(f"audit {scenario.name} n={args.n}: bounds "
          f"{'ok' if bounds.ok else 'VIOLATED'}, good-v violations: {len(violations)}, "
          f"res_neg = {residual.res_neg:.3e}")
    if violations:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_validate(args):
    scenario, rho0 = _resolve_scenario(args.scenario, args.initial)
    p0 = quantile_init(rho0, args.n)
    env_S = diagnostics.envelope_S(scenario, max(abs(p0.x[0]), abs(p0.x[-1])),
                                   args.t_end, p0.total_mass())
    required = env_S(args.t_end)
    if not np.isfinite(required):
        raise NumericalFailureError(f"the support envelope S blows up at t = "
                                    f"{env_S.blowup_time:.6g}, before t_end = {args.t_end:g}")
    margin = 0.1 * max(required, 1.0)
    if args.x_max is not None and args.x_max < required + margin:
        raise PbalError(f"grid half-width {args.x_max} too small: the support envelope "
                        f"needs >= {required + margin:.6g}")
    half = args.x_max if args.x_max is not None else float(np.ceil(required + margin))
    grid = GridConfig(x_left=-half, x_right=half, j=args.j)

    cfg = _solver_config(args)
    traj = _run_one(scenario, rho0, args.n, cfg, p0=p0)
    gtraj = fv_run(rho0, scenario, grid, args.t_end, snapshot_times=cfg.snapshot_times)
    table = reference.compare_l1(traj, gtraj, cfg.snapshot_times)

    mass0 = rho0.total_mass
    print(f"{'t':>8} {'L1 distance':>14} {'rel. to mass':>14}")
    for t, d in table:
        print(f"{t:>8.4f} {d:>14.6e} {d / mass0:>14.6e}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        io.write_envelope_csv(os.path.join(args.out, "validate.csv"),
                              [(float(t), float(d)) for t, d in table],
                              header=("t", "l1"))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line; --help prints the usage
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser():
    ap = _Parser(
        prog="pbal",
        description="Deterministic particle solver for 1D congested nonlocal "
                    "balance laws, with a-priori bound and entropy diagnostics.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def at_least(low):
        def integer(text):
            value = int(text)
            if value < low:
                raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text}")
            return value
        return integer

    positive_int = at_least(1)

    def phi_grid(text):
        counts = text.lower().split("x")
        if len(counts) != 2 or not all(c.isdigit() and int(c) >= 1 for c in counts):
            raise argparse.ArgumentTypeError(
                f"expected TIMExSPACE counts, both >= 1, like 3x5; got {text!r}")
        return tuple(map(int, counts))

    def number(text):
        try:
            return float(text)
        except ValueError:
            return np.nan

    def c_grid(text):
        values = [number(v) for v in text.split(",")]
        if not np.all(np.isfinite(values)):
            raise argparse.ArgumentTypeError(
                f"expected comma-separated finite numbers, like 0,0.5; got {text!r}")
        keys = [f"{c:g}" for c in values]  # entropy.json's keys
        alike = [v for v, c, k in zip(text.split(","), values, keys)
                 if values.count(c) > 1 or keys.count(k) > 1]
        if alike:
            raise argparse.ArgumentTypeError(f"constants repeat under %g: {', '.join(alike)}")
        return values

    def finite_positive(text):
        value = number(text)
        if not (np.isfinite(value) and value > 0.0):
            raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
        return value

    def common(p, snapshots=11, fewest=2):
        p.add_argument("--scenario", required=True,
                       help=f"catalog name ({', '.join(CATALOG_NAMES)}) or scenario file")
        p.add_argument("--t-end", type=finite_positive, default=1.0, dest="t_end")
        p.add_argument("--rel-tol", type=finite_positive, default=1e-8, dest="rel_tol")
        p.add_argument("--abs-tol", type=finite_positive, default=1e-8, dest="abs_tol")
        p.add_argument("--snapshots", type=at_least(fewest), default=snapshots,
                       help="number of equispaced snapshot times, 0 and t-end included")
        p.add_argument("--initial", default=None,
                       help="two-column CSV (position, value) overriding the initial density")

    p_run = sub.add_parser("run", help="single integration, snapshot CSV + manifest")
    common(p_run)
    p_run.add_argument("--n", type=positive_int, required=True)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--plot", action="store_true", help="emit an SVG of the snapshots")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="N-refinement Cauchy table")
    common(p_sweep)
    p_sweep.add_argument("--n", type=positive_int, nargs="+", required=True,
                         help="particle counts (doubling values give rates)")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_audit = sub.add_parser("audit", help="bounds, good-v, entropy and modulus reports")
    common(p_audit, snapshots=257, fewest=diagnostics.MIN_SNAPSHOTS)
    p_audit.add_argument("--n", type=positive_int, required=True)
    p_audit.add_argument("--out", default="audit")
    p_audit.add_argument("--phi-grid", type=phi_grid, default=None, dest="phi_grid",
                         help="test-function grid as TIMExSPACE centers, e.g. 3x5")
    p_audit.add_argument("--c-grid", type=c_grid, default=None, dest="c_grid",
                         help="comma-separated entropy constants (default: empirical)")
    p_audit.set_defaults(func=cmd_audit)

    p_val = sub.add_parser("validate", help="cross-check against the finite-volume oracle")
    common(p_val)
    p_val.add_argument("--n", type=positive_int, required=True)
    p_val.add_argument("--j", type=positive_int, required=True, help="grid cell count")
    p_val.add_argument("--x-max", type=finite_positive, default=None, dest="x_max",
                       help="grid half-width (checked against the support envelope)")
    p_val.add_argument("--out", default=None)
    p_val.set_defaults(func=cmd_validate)
    return ap


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (PbalError, ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
