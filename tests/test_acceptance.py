"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Runs share trajectories through the conftest cache; the stated runtime budget
of every criterion covers its own fresh computation and is asserted on the
wall clock of this process' work for that criterion (cache hits count as 0).
"""

import time

import numpy as np

from pbal import builtin_catalog, builtin_initial
from pbal import diagnostics as dg
from pbal import dynamics, reference
from pbal.density import (ParticleSystem, PiecewiseDensity, l1_distance, to_density,
                          total_variation, w1_distance)

from conftest import catalog_run, random_particles

CATALOG = ("transport", "growth_transport", "attractive_congested", "repulsive_source")


def report(k, ok, detail):
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def spacetime_l1(traj_a, traj_b):
    times = traj_a.times
    dists = [l1_distance(to_density(pa), to_density(pb))
             for pa, pb in zip(traj_a.snapshots, traj_b.snapshots)]
    return float(np.trapezoid(dists, times))


def test_criterion_1_exact_transport_convergence():
    t0 = time.perf_counter()
    shifted = PiecewiseDensity(np.array([0.0, 0.5, 1.0, 2.0]),
                               np.array([1.0, 0.0, 0.5]))  # two-block profile + 1
    errs = []
    for n in (100, 200, 400, 800):
        traj = catalog_run("transport", n, t_end=1.0, k_snapshots=65)
        errs.append(l1_distance(to_density(traj.snapshots[-1]), shifted))
    ratios = [e1 / e2 for e1, e2 in zip(errs, errs[1:])]
    elapsed = time.perf_counter() - t0
    ok = all(r >= 1.4 for r in ratios) and all(np.diff(errs) < 0) and elapsed <= 10.0
    report(1, ok, f"errors={['%.3e' % e for e in errs]} ratios={['%.2f' % r for r in ratios]} "
                  f"({elapsed:.1f}s <= 10s)")


def test_criterion_2_mass_envelope_saturation():
    t0 = time.perf_counter()
    traj = catalog_run("growth_transport", 100, t_end=1.0, k_snapshots=65)
    q0 = traj.snapshots[0].total_mass()
    qT = traj.snapshots[-1].total_mass()
    rel = abs(qT - q0 * np.e) / (q0 * np.e)
    s = builtin_catalog("growth_transport")
    q_env = dg.envelope_Q(s, 1.0)
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-6 and abs(q_env - np.e) <= 1e-9 and elapsed <= 2.0
    report(2, ok, f"|q(T)-q0 e|/q0 e = {rel:.2e} <= 1e-6, Q(1)={q_env:.9f} ({elapsed:.1f}s <= 2s)")


def test_criterion_3_a_priori_bound_suite():
    t0 = time.perf_counter()
    details = []
    ok = True
    for name in ("attractive_congested", "repulsive_source"):
        s = builtin_catalog(name)
        tv_max = {}
        for n in (100, 200, 400, 800):
            k = 385 if name == "attractive_congested" else 65
            traj = catalog_run(name, n, t_end=1.0, k_snapshots=k)
            env = dg.compute_envelopes(s, traj.snapshots[0], 1.0)
            rep = dg.check_bounds(traj, env, s)
            ok = ok and rep.ok
            tv_max[n] = max(total_variation(to_density(p)) for p in traj.snapshots)
        spread = max(tv_max[n] for n in (200, 400, 800)) / min(tv_max[n] for n in (200, 400, 800))
        ok = ok and spread < 2.0
        details.append(f"{name}: bounds ok, TV spread {spread:.3f} < 2")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 60.0
    report(3, ok, "; ".join(details) + f" ({elapsed:.1f}s <= 60s)")


def test_criterion_4_good_v_audit():
    t0 = time.perf_counter()
    total_states = 0
    violations = []
    for name in CATALOG:
        s = builtin_catalog(name)
        traj = catalog_run(name, 200, t_end=1.0, k_snapshots=65, store_steps=True)
        total_states += len(traj.steps)
        violations.extend(dg.good_v_audit(traj, s))
    # negative control: upstream congestion on a state with rho_i < c < rho_{i+1}
    s = builtin_catalog("attractive_congested")
    p = ParticleSystem(0.0, [0.0, 1.0, 2.0], [0.2, 0.8])
    U = np.array([1.0, 1.0, 1.0])
    rho_ext = np.array([0.0, 0.2, 0.8, 0.0])
    wrong = dg.good_v_violations_state(0.0, p.x, p.q, U, s.congestion.v(rho_ext[:-1]),
                                       s.congestion.v)
    elapsed = time.perf_counter() - t0
    ok = not violations and len(wrong) >= 1 and elapsed <= 30.0
    report(4, ok, f"{total_states} accepted states audited, 0 violations; "
                  f"negative control: {len(wrong)} violation(s) ({elapsed:.1f}s <= 30s)")


def test_criterion_5_entropy_residual_scaling():
    t0 = time.perf_counter()
    s = builtin_catalog("attractive_congested")
    res = {}
    for n in (100, 200, 400, 800):
        traj = catalog_run("attractive_congested", n, t_end=1.0, k_snapshots=385)
        res[n] = dg.entropy_residual(traj, s).res_neg
    checks = {n: res[2 * n] <= 0.6 * res[n] + 1e-6 for n in (100, 200, 400)}
    elapsed = time.perf_counter() - t0
    ok = all(checks.values()) and elapsed <= 120.0
    report(5, ok, "res_neg=" + str({n: f"{v:.2e}" for n, v in res.items()})
           + f" doubling checks {checks} ({elapsed:.1f}s <= 120s)")


def test_criterion_6_self_convergence():
    t0 = time.perf_counter()
    details = []
    ok = True
    for name in CATALOG:
        k = 385 if name == "attractive_congested" else 65
        trajs = {n: catalog_run(name, n, t_end=1.0, k_snapshots=k)
                 for n in (100, 200, 400, 800)}
        d = [spacetime_l1(trajs[n], trajs[2 * n]) for n in (100, 200, 400)]
        ratios = [a / b for a, b in zip(d, d[1:])]
        good = all(np.diff(d) < 0) and all(r >= 1.3 for r in ratios)
        ok = ok and good
        details.append(f"{name}: d={['%.2e' % v for v in d]} ratios={['%.2f' % r for r in ratios]}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 120.0
    report(6, ok, "; ".join(details) + f" ({elapsed:.1f}s <= 120s)")


def test_criterion_7_oracle_agreement():
    t0 = time.perf_counter()
    s = builtin_catalog("repulsive_source")
    rho0 = builtin_initial("repulsive_source")
    snaps = np.linspace(0.0, 1.0, 11)
    dists = {}
    for n, j in ((800, 2000), (1600, 4000)):
        traj = catalog_run("repulsive_source", n, t_end=1.0, k_snapshots=11)
        grid = reference.GridConfig(x_left=-7.0, x_right=7.0, j=j)
        gtraj = reference.fv_run(rho0, s, grid, 1.0, snapshot_times=snaps)
        dists[(n, j)] = reference.compare_l1(traj, gtraj, [1.0])[0][1]
    rel = dists[(800, 2000)] / rho0.total_mass
    refined = dists[(1600, 4000)] < dists[(800, 2000)]
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.05 and refined and elapsed <= 60.0
    report(7, ok, f"L1(800,2000)={dists[(800, 2000)]:.3e} ({rel:.3f} of mass, <= 0.05), "
                  f"refined {dists[(1600, 4000)]:.3e} decreasing: {refined} "
                  f"({elapsed:.1f}s <= 60s)")


def test_criterion_8_equicontinuity_uniform_in_n():
    t0 = time.perf_counter()
    h = 1.0 / 64
    K = {}
    for n in (100, 200, 400, 800):
        traj = catalog_run("growth_transport", n, t_end=1.0, k_snapshots=65)
        mods = dg.equicontinuity_modulus(traj, h)
        K[n] = max(m for _, m in mods) / h
    spread = max(K.values()) / min(K.values())
    elapsed = time.perf_counter() - t0
    ok = spread < 2.0 and elapsed <= 30.0
    report(8, ok, f"K(N)={({n: f'{v:.4f}' for n, v in K.items()})} spread={spread:.4f} < 2 "
                  f"({elapsed:.1f}s <= 30s)")


def _w1_quantile_oracle(a, b, samples=10**6):
    """Brute-force quantile coupling: W1 = int_0^mass |F_a^{-1} - F_b^{-1}| du,
    evaluated on 1e6 midpoint mass levels."""
    mass = float(np.sum(a.heights * np.diff(a.breakpoints)))
    u = mass * (np.arange(samples) + 0.5) / samples
    cum_a = np.concatenate(([0.0], np.cumsum(a.heights * np.diff(a.breakpoints))))
    cum_b = np.concatenate(([0.0], np.cumsum(b.heights * np.diff(b.breakpoints))))
    qa = np.interp(u, cum_a, a.breakpoints)
    qb = np.interp(u, cum_b, b.breakpoints)
    return mass * float(np.mean(np.abs(qa - qb)))


def _l1_riemann(a, b, samples=10**6):
    lo = min(a.breakpoints[0], b.breakpoints[0]) - 0.05
    hi = max(a.breakpoints[-1], b.breakpoints[-1]) + 0.05
    xs = np.linspace(lo, hi, samples)
    return float(np.trapezoid(np.abs(a(xs) - b(xs)), xs))


def _l1_merged_reimpl(a, b):
    z = np.unique(np.concatenate((a.breakpoints, b.breakpoints)))
    mids = 0.5 * (z[:-1] + z[1:])
    return float(np.sum(np.abs(a(mids) - b(mids)) * np.diff(z)))


def test_criterion_9_exactness_micro_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)

    # convolution against the quadratic potential: closed-form moments
    from conftest import make_scenario, quadratic_potential
    s = make_scenario(potential=quadratic_potential(), F=10.0,
                      G=lambda r: 1 + np.asarray(r, dtype=float),
                      lam=lambda r: 1 + np.asarray(r, dtype=float))
    conv_ok = True
    for _ in range(20):
        p = random_particles(rng, 12)
        mass = float(np.sum(p.q))
        rho = p.q / np.diff(p.x)
        m1 = float(np.sum(rho * (p.x[1:] ** 2 - p.x[:-1] ** 2) / 2.0))
        y = float(rng.uniform(-3, 3))
        got = float(dynamics.convolve_dxW_arrays(p.t, p.x, p.heights, s, y)[0])
        want = y * mass - m1
        conv_ok = conv_ok and abs(got - want) <= 1e-12 * max(1.0, abs(want))

    # W1 and L1 against brute-force oracles on random small instances
    w1_ok = l1_ok = merged_ok = True
    for k in range(20):
        n1, n2 = rng.integers(2, 9, 2)
        bp1 = np.sort(rng.uniform(-2, 2, n1 + 1))
        bp2 = np.sort(rng.uniform(-2, 2, n2 + 1))
        h1 = rng.uniform(0.1, 1.0, n1)
        h2 = rng.uniform(0.1, 1.0, n2)
        h2 *= np.sum(h1 * np.diff(bp1)) / np.sum(h2 * np.diff(bp2))
        a = PiecewiseDensity(bp1, h1)
        b = PiecewiseDensity(bp2, h2)
        w1_ok = w1_ok and abs(w1_distance(a, b) - _w1_quantile_oracle(a, b)) <= 1e-3
        l1_ok = l1_ok and abs(l1_distance(a, b) - _l1_riemann(a, b)) <= 1e-3
        merged_ok = merged_ok and abs(l1_distance(a, b) - _l1_merged_reimpl(a, b)) <= 1e-10

    elapsed = time.perf_counter() - t0
    ok = conv_ok and w1_ok and l1_ok and merged_ok and elapsed <= 10.0
    report(9, ok, f"convolution 1e-12: {conv_ok}; W1 vs 1e6-sample MC 1e-3: {w1_ok}; "
                  f"L1 vs Riemann 1e-3: {l1_ok}; merged-partition 1e-10: {merged_ok} "
                  f"({elapsed:.1f}s <= 10s)")
