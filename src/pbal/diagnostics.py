"""A-priori envelopes, bound checks, entropy residuals and regularity moduli.

The envelopes are obtained by integrating their comparison ODEs directly
(same embedded RK machinery as the particle solver) instead of inverting the
nonlinear comparison primitives.  The entropy residual evaluates the
Kruzkov-type inequality of the scheme on a documented grid of bump test
functions and constants; its negative part must shrink like max q_i(0) ~ 1/N.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import dynamics
from .density import (ParticleSystem, l1_distance,  # noqa: F401
                      to_density, total_variation, w1_distance)  # perfbench's tracer wraps both
from .expressions import bump, bump_and_prime
from .integrator import Trajectory, solve_scalar_ode
from .scenario import Branch, Scenario


# ---------------------------------------------------------------------------
# envelope curves

@dataclass(frozen=True)
class Curve:
    """Sampled monotone curve with linear interpolation; inf past blow-up."""

    ts: np.ndarray
    ys: np.ndarray

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        tb = self.blowup_time
        if tb is None:
            out = np.interp(t, self.ts, self.ys)
        else:
            k = int(np.searchsorted(self.ts, tb))  # the samples before it, ts increasing
            below = np.interp(t, self.ts[:k], self.ys[:k]) if k else np.inf
            out = np.where(t >= tb, np.inf, below)
        return float(out) if out.ndim == 0 else out

    @property
    def blowup_time(self):
        finite = np.isfinite(self.ys)
        if finite.all():
            return None
        return float(self.ts[int(np.argmin(finite))])


@dataclass(frozen=True)
class EnvelopeCurves:
    Q: Callable
    S: Callable
    R: Callable
    B: Optional[Callable]
    q0: float
    S0: float
    R0: float
    B0: float


# Gauss-Kronrod (7, 15) rule on [-1, 1] (QUADPACK qk15): the 15 Kronrod
# nodes, their weights, and the 7-point Gauss weights on every other node.
_GK_X = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                  0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                  0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                  0.207784955007898467600689403773245, 0.0])
_GK_WK = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                   0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                   0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                   0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_GK_WG = np.array([0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
                   0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327])
_GK_X = np.concatenate((-_GK_X, _GK_X[-2::-1]))
_GK_WK = np.concatenate((_GK_WK, _GK_WK[-2::-1]))
_GK_WG = np.concatenate((_GK_WG, _GK_WG[-2::-1]))


def _gk15(F, a, b):
    """Kronrod estimate of int_a^b F and its distance to the Gauss estimate."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fx = np.broadcast_to(np.asarray(F(c + h * _GK_X), dtype=float), _GK_X.shape)
    k, g = h * float(fx @ _GK_WK), h * float(fx @ _GK_WG)
    return k, abs(k - g)


def _integrate_gk(F, a, b):
    """Globally adaptive Gauss-Kronrod (7, 15) quadrature of a vectorized F.

    Bisects the panel with the largest error estimate until the summed
    estimate is below 1e-10 absolute or relative, or there are 50 panels.
    """
    val, err = _gk15(F, a, b)
    panels = [(-err, a, b, val)]
    total, total_err = val, err
    while total_err > 1e-10 * max(1.0, abs(total)) and len(panels) < 50:
        _, lo, hi, _ = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        for x0, x1 in ((lo, mid), (mid, hi)):
            v, e = _gk15(F, x0, x1)
            heapq.heappush(panels, (-e, x0, x1, v))
        total = math.fsum(p[3] for p in panels)
        total_err = -math.fsum(p[0] for p in panels)
    return total


def _scalar(fn):
    """``fn`` as a float-valued callable; a constant expression's value is read once."""
    c = getattr(fn, "constant", None)
    return (lambda *args: c) if c is not None else (lambda *args: float(fn(*args)))


def envelope_Q(s: Scenario, t: float) -> float:
    """Mass amplification exp(c_f * int_0^t F), the integral F t for a constant F."""
    if s.source.c_f == 0.0 or t == 0.0:
        return 1.0
    F = s.advection.growth_F
    c = getattr(F, "constant", None)
    return math.exp(s.source.c_f * (c * t if c is not None else _integrate_gk(F, 0.0, t)))


ENVELOPE_GRID = 257  # samples of every envelope curve on [0, t_end]


def _envelope(rate, y0, t_end) -> Curve:
    """The solution of y' = rate(t, y), y(0) = y0, on the envelope grid."""
    ts = np.linspace(0.0, t_end, ENVELOPE_GRID)
    return Curve(ts, solve_scalar_ode(rate, 0.0, y0, ts))


def envelope_S(s: Scenario, S0: float, t_end: float, q0: float) -> Curve:
    """Support envelope: integrates s' = |v|inf F(t) [1 + q(0) Q(t)] lambda(s)."""
    vsup = s.congestion.v_sup
    F = _scalar(s.advection.growth_F)
    lam = _scalar(s.advection.growth_lambda)

    def rate(t, y):
        return vsup * F(t) * (1.0 + q0 * envelope_Q(s, t)) * lam(max(y, 0.0))

    return _envelope(rate, S0, t_end)


def _c1_remark(s: Scenario, q0: float, S_curve: Curve):
    """C1(t) = F(t) [G(S(t)) + G(2 S(t)) q(0) Q(t)], uniform in N."""
    F, G = _scalar(s.advection.growth_F), _scalar(s.advection.growth_G)

    def c1(t):
        st = S_curve(t)
        if not np.isfinite(st):
            return np.inf
        return F(t) * (G(st) + G(2.0 * st) * q0 * envelope_Q(s, t))

    return c1


def envelope_R(s: Scenario, R0: float, t_end: float, q0: float, S_curve: Curve) -> Curve:
    """Density envelope along the scenario's declared no-collapse branch."""
    vsup = s.congestion.v_sup
    F = _scalar(s.advection.growth_F)
    cf = s.source.c_f
    c1 = _c1_remark(s, q0, S_curve)

    if s.no_collapse_branch is Branch.V_DECAYS:
        if s.congestion.decay_g is None:
            raise ValueError("v_decays branch requires decay_g")
        g = _scalar(s.congestion.decay_g)

        def rate(t, y):
            # C2(t) <= F(t): the refined time-dependent constants
            return (c1(t) * vsup + F(t) + cf * F(t)) * g(max(y, 0.0))
    else:

        def rate(t, y):
            return (c1(t) * vsup + cf * F(t)) * max(y, 0.0)

    return _envelope(rate, R0, t_end)


def envelope_B(s: Scenario, B0: float, t_end: float, q0: float, S_curve: Curve,
               R_curve: Curve) -> Optional[Curve]:
    """Total-variation envelope TV' <= alpha(t) + beta(t) TV.

    Requires the interval-mass bound for the measure dominating |D_x f|
    (``eta_mass``); without it no envelope is computable and the caller falls
    back to monitoring raw TV.
    """
    if s.source.eta_mass is None:
        return None
    vsup = s.congestion.v_sup
    F, G = _scalar(s.advection.growth_F), _scalar(s.advection.growth_G)
    Gv = _scalar(s.congestion.vprime_bound)
    Gf = _scalar(s.source.drho_f_bound)
    cf = s.source.c_f
    eta = _scalar(s.source.eta_mass)

    def rate(t, y):
        St, Rt = S_curve(t), R_curve(t)
        if not (np.isfinite(St) and np.isfinite(Rt)):
            return np.inf
        Ft = F(t)
        base = G(St) + G(2.0 * St) * q0 * envelope_Q(s, t)
        alpha = (
            vsup * Rt * Ft * base
            + 2.0 * vsup * Rt * Ft * G(2.0 * St) * (q0 * envelope_Q(s, t) + 2.0 * St * Rt)
            + vsup * Rt * Ft * (base + Rt)
            + 2.0 * cf * Ft * Rt
            + 2.0 * eta(t, Rt, St)
        )
        beta = (
            2.0 * vsup * Rt * Ft * G(2.0 * St)
            + (vsup + Rt * Gv(Rt)) * Ft * (base + Rt)
            + Ft * Gf(Rt)
        )
        return alpha + beta * max(y, 0.0)

    return _envelope(rate, B0, t_end)


def compute_envelopes(s: Scenario, p0: ParticleSystem, t_end: float) -> EnvelopeCurves:
    """Envelope bundle seeded from the initial particle state."""
    q0 = p0.total_mass()
    S0 = max(abs(float(p0.x[0])), abs(float(p0.x[-1])))
    d0 = to_density(p0)
    R0 = float(np.max(d0.heights))
    B0 = total_variation(d0)
    S = envelope_S(s, S0, t_end, q0)
    R = envelope_R(s, R0, t_end, q0, S)
    B = envelope_B(s, B0, t_end, q0, S, R)
    return EnvelopeCurves(Q=lambda t: envelope_Q(s, t), S=S, R=R, B=B,
                          q0=q0, S0=S0, R0=R0, B0=B0)


# ---------------------------------------------------------------------------
# bound checking

@dataclass(frozen=True)
class BoundRecord:
    t: float
    check: str
    value: float
    bound: float
    margin: float
    ok: bool


ENVELOPE_COLUMNS = ("t", "mass", "mass_lo", "mass_hi", "x0", "xN", "S",
                    "rho_max", "R", "tv", "B")


@dataclass
class BoundsReport:
    records: list
    ok: bool
    rows: list  # one tuple per snapshot, in ENVELOPE_COLUMNS order


def check_bounds(traj: Trajectory, env: EnvelopeCurves, s: Scenario) -> BoundsReport:
    """Compare every snapshot against the envelope curves, each up to 1e-6
    relative; violations are findings (records with ok=False), not errors."""
    records, rows = [], []
    q0 = env.q0

    def add(t, check, value, bound, upper=True):
        margin = (bound - value) if upper else (value - bound)
        tol = 1e-6 * max(1.0, abs(bound)) if np.isfinite(bound) else 0.0
        records.append(BoundRecord(t, check, float(value), float(bound),
                                   float(margin), bool(margin >= -tol)))

    for p in traj.snapshots:
        t = p.t
        Q = env.Q(t)
        mass = p.total_mass()
        add(t, "mass_upper", mass, q0 * Q)
        add(t, "mass_lower", mass, q0 / Q, upper=False)
        St = env.S(t)
        add(t, "support_right", float(p.x[-1]), St)
        add(t, "support_left", float(p.x[0]), -St, upper=False)
        rho_max, R = float(np.max(p.heights)), env.R(t)
        add(t, "density_max", rho_max, R)
        tv = total_variation(to_density(p))
        B = np.inf if env.B is None else env.B(t)
        add(t, "tv_raw" if env.B is None else "tv", tv, B)
        rows.append(tuple(float(v) for v in (t, mass, q0 / Q, q0 * Q, p.x[0], p.x[-1], St,
                                             rho_max, R, tv, B)))
    return BoundsReport(records=records, ok=all(r.ok for r in records), rows=rows)


# ---------------------------------------------------------------------------
# entropy residual

@dataclass(frozen=True)
class TestFunction:
    """Tensor bump phi(t, x) = b((t - t0)/tau) b((x - x0)/ell)."""

    t0: float
    tau: float
    x0: float
    ell: float

    def phi(self, t, x):
        return bump((t - self.t0) / self.tau) * bump((x - self.x0) / self.ell)

    def dt_phi(self, t, x):
        _, bt_p = bump_and_prime((t - self.t0) / self.tau)
        return bt_p / self.tau * bump((x - self.x0) / self.ell)

    def dx_phi(self, t, x):
        _, bx_p = bump_and_prime((x - self.x0) / self.ell)
        return bump((t - self.t0) / self.tau) * bx_p / self.ell

    @property
    def t_support(self):
        return (self.t0 - self.tau, self.t0 + self.tau)

    @property
    def x_support(self):
        return (self.x0 - self.ell, self.x0 + self.ell)


def default_phi_grid(traj: Trajectory, n_time: int = 3, n_space: int = 5):
    """Documented default: 3 time centers x 5 space centers x 2 widths."""
    times = traj.times
    T = float(times[-1])
    xmin = min(float(p.x[0]) for p in traj.snapshots)
    xmax = max(float(p.x[-1]) for p in traj.snapshots)
    span = xmax - xmin
    t_centers = np.linspace(0.3, 0.7, n_time) * T
    x_centers = np.linspace(xmin + 0.1 * span, xmax - 0.1 * span, n_space)
    widths = [(0.28 * T, 0.45 * span), (0.18 * T, 0.28 * span)]
    return [
        TestFunction(t0=float(tc), tau=tau, x0=float(xc), ell=ell)
        for (tau, ell) in widths
        for tc in t_centers
        for xc in x_centers
    ]


def _c_grid(states):
    """Documented default constants: 0, quarters of the largest height, 1.1x it."""
    r_max = max(float(np.max(p.heights)) for p in states)
    return [0.0, r_max / 4.0, r_max / 2.0, 3.0 * r_max / 4.0, r_max, 1.1 * r_max]


MIN_SNAPSHOTS = 64  # the fewest snapshots the entropy residual's time trapezoid takes


@dataclass
class EntropyResidualReport:
    residuals: dict            # (phi index, c) -> E(phi, c)
    res_neg: float             # max(0, -min over the grid); NaN if a residual is not finite
    phis: list
    cs: list
    metadata: dict = field(default_factory=dict)


def _snapshot_quadrature(p: ParticleSystem, s: Scenario, x_lo, x_hi, w_max):
    """Sorted nodes of ``dynamics``' cell rule on [x_lo, x_hi]: each gap between
    x_lo, the particles inside and x_hi split by ``dynamics.cell_panels`` into
    panels no wider than min(w_max, CELL_CAP).  Every node lies inside its gap,
    so one search per gap, at its left end, finds the cell of all its nodes."""
    inner = p.x[(p.x > x_lo) & (p.x < x_hi)]
    pts = np.concatenate(([x_lo], inner, [x_hi]))  # sorted and distinct: x_lo < x_hi
    a, b = pts[:-1], pts[1:]
    mid, half, m = dynamics.cell_panels(a, b, min(w_max, dynamics.CELL_CAP))
    g = dynamics.GL4_NODES
    nodes = (mid[:, None] + half[:, None] * g).ravel()
    weights = (half[:, None] * dynamics.GL4_WEIGHTS).ravel()

    gaps = np.diff(p.x)
    rho = p.q / gaps
    idx = np.repeat(np.searchsorted(p.x, a, side="right") - 1, g.size * m)
    inside = (idx >= 0) & (idx < rho.size)
    cell = np.clip(idx, 0, rho.size - 1)
    rho_at = np.where(inside, rho[cell], 0.0)
    U = dynamics.u_field_arrays(p.t, p.x, rho, s, nodes, gaps=gaps, cell=cell)
    dxU = dynamics.dxU_field_arrays(p.t, p.x, rho, s, nodes, rho_at, gaps=gaps, cell=cell)
    fvals = np.asarray(s.source.f(p.t, nodes, rho_at), dtype=float)
    mrho = rho_at * np.asarray(s.congestion.v(rho_at), dtype=float)
    return nodes, weights, rho_at, U, dxU, fvals, mrho


def entropy_residual(traj: Trajectory, s: Scenario, phis=None, cs=None) -> EntropyResidualReport:
    """Kruzkov residual E(phi, c) over the test grid.

    Space integrals take ``dynamics``' cell rule on cell-exact panels no
    wider than min(ell)/32 or ``dynamics.CELL_CAP``; the time integral is the
    trapezoid over the stored snapshots (at least ``MIN_SNAPSHOTS``).  The
    constants ``cs`` must be distinct.

    With phi = b_t(t) b_x(x) the space integral at one snapshot is
    b_t' (A_c . b_x) + b_t (B_c . b_x' + C_c . b_x), where the weighted node
    vectors A_c = |rho - c|, B_c = sgn (m(rho) - m(c)) U and
    C_c = sgn (f - m(c) dxU) carry all the dependence on c.  Test functions
    sharing a spatial bump share its dot products, taken over the nodes of
    the bump's support only.
    """
    times = traj.times
    if times.size < MIN_SNAPSHOTS:
        raise ValueError(f"need >= {MIN_SNAPSHOTS} snapshots for the time trapezoid, "
                         f"got {times.size}")
    if phis is None:
        phis = default_phi_grid(traj)
    if cs is None:
        cs = _c_grid(traj.snapshots)
    if not phis or not cs:
        raise ValueError("need at least one test function and one entropy constant")
    for tf in phis:
        if not (0.0 < tf.tau < math.inf and 0.0 < tf.ell < math.inf):
            raise ValueError(f"test function widths must be finite and positive, got {tf}")
    cs = [float(c) for c in cs]
    if not all(map(math.isfinite, cs)):
        raise ValueError(f"entropy constants must be finite, got {cs}")
    if len(set(cs)) < len(cs):  # the residuals are keyed by (phi index, c)
        raise ValueError(f"entropy constants must be distinct, got {cs}")
    t_lo, t_hi = float(times[0]), float(times[-1])
    for tf in phis:
        a, b = tf.t_support
        if a < t_lo - 1e-12 or b > t_hi + 1e-12:
            raise ValueError(
                f"test function time support [{a}, {b}] exceeds snapshot coverage [{t_lo}, {t_hi}]"
            )

    x_lo = min(tf.x_support[0] for tf in phis)
    x_hi = max(tf.x_support[1] for tf in phis)
    w_max = min(tf.ell for tf in phis) / 32.0

    c_arr = np.array(cs)[:, None]
    mc = c_arr * np.array([float(s.congestion.v(c)) for c in cs])[:, None]
    # time factors of every test function at every snapshot
    tau = np.array([tf.tau for tf in phis])
    ut = (times[:, None] - np.array([tf.t0 for tf in phis])) / tau
    bt, bt_p = bump_and_prime(ut)
    bt_p = bt_p / tau
    live = (bt != 0.0) | (bt_p != 0.0)
    # distinct spatial bumps and the test functions that use each
    groups = {}
    for j, tf in enumerate(phis):
        groups.setdefault((tf.x0, tf.ell), []).append(j)
    x0 = np.array([key[0] for key in groups])
    ell = np.array([key[1] for key in groups])
    members = [np.array(js) for js in groups.values()]

    theta = np.zeros((len(phis), c_arr.size, times.size))
    for k, p in enumerate(traj.snapshots):
        if not live[k].any():
            continue
        nodes, wts, rho_at, U, dxU, fvals, mrho = _snapshot_quadrature(p, s, x_lo, x_hi, w_max)
        # the bits of |rho - c| wts, sgn (mrho - mc) U wts and
        # sgn (f - mc dxU) wts, built in place
        A = rho_at - c_arr
        sgn = np.sign(A)
        np.abs(A, out=A)
        A *= wts
        B = mrho - mc
        B *= sgn
        B *= U
        B *= wts
        C = mc * dxU
        np.subtract(fvals, C, out=C)
        C *= sgn
        C *= wts
        starts = np.searchsorted(nodes, x0 - ell, side="left")
        stops = np.searchsorted(nodes, x0 + ell, side="right")
        for g, js in enumerate(members):
            if not live[k, js].any():
                continue
            sl = slice(starts[g], stops[g])
            u = (nodes[sl] - x0[g]) / ell[g]
            bx, bx_p = bump_and_prime(u)
            bx_p = bx_p / ell[g]
            Abx = A[:, sl] @ bx
            rest = B[:, sl] @ bx_p + C[:, sl] @ bx
            theta[js, :, k] = bt_p[k, js, None] * Abx + bt[k, js, None] * rest

    residuals = {}
    for j in range(len(phis)):
        for ci, c in enumerate(cs):
            residuals[(j, c)] = float(np.trapezoid(theta[j, ci], times))
    values = list(residuals.values())
    # min() and max() pass a NaN through or drop it depending on its position
    res_neg = max(0.0, -min(values)) if all(map(math.isfinite, values)) else math.nan
    return EntropyResidualReport(
        residuals=residuals,
        res_neg=res_neg,
        phis=list(phis),
        cs=cs,
        metadata={
            "snapshots": int(times.size),
            "note": "weak-form error measure nu1 = 2 mu1; mu0 = 0 for the scheme",
        },
    )


# ---------------------------------------------------------------------------
# equicontinuity modulus

def transport_w1(p0: ParticleSystem, p1: ParticleSystem):
    """W1(rho_0, Xi# rho_0) for the increasing cell-to-cell affine map Xi from
    ``p0``'s cells onto ``p1``'s, so the integral of |Xi(x) - x| against rho_0.

    On cell i the displacement runs affinely between d_{i-1} and d_i, d =
    p1.x - p0.x, so the cell adds q_i (|d_{i-1}| + |d_i|) / 2 when they share
    a sign and q_i (d_{i-1}^2 + d_i^2) / (2 (|d_{i-1}| + |d_i|)) when not."""
    d = p1.x - p0.x
    a, b = np.abs(d[:-1]), np.abs(d[1:])
    mean = a + b
    cross = (d[:-1] < 0.0) != (d[1:] < 0.0)  # a + b > 0 on these cells
    mean[cross] = (a[cross] ** 2 + b[cross] ** 2) / mean[cross]
    mean *= 0.5
    return float(p0.q @ mean)


def equicontinuity_modulus(traj: Trajectory, h: float):
    """Two-term transport/mass bound on the time modulus at lag ``h``.

    For consecutive snapshots t, t+h the bound is W1(rho(t), Xi# rho(t)) +
    ||Xi# rho(t) - rho(t+h)||_1 where Xi is the cell-to-cell affine map; the
    first term is ``transport_w1``'s closed form.
    """
    times = traj.times
    spacings = np.diff(times)
    if times.size < 2 or not np.all(np.abs(spacings - h) <= 1e-9 * max(1.0, abs(h))):
        raise ValueError(f"snapshot spacing does not match h = {h}")
    out = []
    for p0, p1 in zip(traj.snapshots[:-1], traj.snapshots[1:]):
        gaps = np.diff(p1.x)  # Xi# rho(t) and rho(t+h) are both steps on p1.x
        l1 = float(np.sum(np.abs(p0.q / gaps - p1.q / gaps) * gaps))
        out.append((float(p0.t), float(transport_w1(p0, p1) + l1)))
    return out


# ---------------------------------------------------------------------------
# good-v audit

@dataclass(frozen=True)
class GoodVViolation:
    t: float
    family: str
    index: int
    c: Optional[float]
    lhs: float
    rhs: float


def good_v_violations_state(t, x, q, U, v_sel, v_callable):
    """Check the four structural inequalities on one state, each up to 1e-10.

    They are algebraic consequences of the monotone congestion and the
    downstream upwinding, so any violation flags a wrong upwind choice.  The
    "constant" family holds for every real c at once: at interface i, with
    heights a, b on either side and sigma = sgn(b - a), its left side is
    2 sigma (v_sel - v(c)) U for c strictly between a and b, half that at
    c = a or b and 0 elsewhere, so it is largest as c tends to a or to b; each
    end where that limit exceeds the slack is reported with c set to it.
    """
    slack = 1e-10
    x = np.asarray(x, dtype=float)
    q = np.asarray(q, dtype=float)
    U = np.asarray(U, dtype=float)
    v_sel = np.asarray(v_sel, dtype=float)
    rho = q / np.diff(x)
    rho_ext = np.concatenate(([0.0], rho, [0.0]))
    xdot = v_sel * U
    dxdot = xdot[1:] - xdot[:-1]
    dU = U[1:] - U[:-1]
    v_ext = dynamics.congestion_on(rho_ext, v_callable)
    v_rho = v_ext[1:-1]
    out = []

    def emit(family, hits, lhs, rhs, shift=1, c=None):
        if not hits.any():
            return
        rhs = np.broadcast_to(rhs, lhs.shape)
        out.extend(GoodVViolation(t, family, int(i) + shift, None if c is None else float(c[i]),
                                  float(lhs[i]), float(rhs[i]))
                   for i in np.flatnonzero(hits))

    is_max = (rho >= rho_ext[:-2]) & (rho >= rho_ext[2:])
    is_min = (rho <= rho_ext[:-2]) & (rho <= rho_ext[2:])
    lhs_max = dxdot
    rhs_max = v_rho * dU
    emit("max", is_max & (lhs_max < rhs_max - slack), lhs_max, rhs_max)
    emit("min", is_min & (lhs_max > rhs_max + slack), lhs_max, rhs_max)

    sig = np.sign(rho_ext[1:] - rho_ext[:-1])
    dsig = sig[1:] - sig[:-1]
    lhs_step = dsig * dxdot
    rhs_step = dsig * v_rho * dU
    emit("step", lhs_step > rhs_step + slack, lhs_step, rhs_step)

    for end, v_end in ((rho_ext[:-1], v_ext[:-1]), (rho_ext[1:], v_ext[1:])):
        lhs_c = 2.0 * sig * (v_sel - v_end) * U
        emit("constant", lhs_c > slack, lhs_c, 0.0, shift=0, c=end)
    return out


def good_v_audit(traj: Trajectory, s: Scenario):
    """Audit every stored state (all accepted steps when recorded, else the
    snapshots) against the four inequality families, each state on its own."""
    states = traj.steps if traj.steps else traj.snapshots
    violations = []
    for p in states:
        rho = p.heights
        U = dynamics.u_field_arrays(p.t, p.x, rho, s)
        v_sel = dynamics.upwind_arrays(rho, s, U)
        violations.extend(good_v_violations_state(p.t, p.x, p.q, U, v_sel, s.congestion.v))
    return violations
