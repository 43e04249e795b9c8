"""Right-hand side of the particle/mass ODE system.

Velocities are ``x_i' = v_i U_i`` with the free field ``U = V - dxW * rho``
evaluated through exact W-primitive differences (no quadrature, no special
handling of the gradient kink at 0), the congestion factor ``v_i`` taken from
the cell the velocity points toward, and cell masses fed by the source
integral over the cell, by the cell rule (one Gauss rule on panels from one
splitter) that the audit also uses.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

from .density import cell_index, step_cdf_arrays
from .scenario import Scenario

# The cell rule, for the source integrals here and the audit's panels: the
# 4-node Gauss-Legendre rule (exact to degree 7) on panels no wider than
# CELL_CAP, a wider cell or gap being split by ``cell_panels``.  The rule on a
# panel of width w errs by w^9 (4!)^4 / (9 (8!)^3) times the integrand's
# eighth derivative somewhere in the panel, so by at most CELL_CAP^9 / 1.78e9
# max|g^(8)|, below 1e-20 max|g^(8)|.
CELL_CAP = 1.0 / 16.0
GL4_NODES, GL4_WEIGHTS = np.polynomial.legendre.leggauss(4)


def cell_panels(a, b, cap):
    """The fewest equal panels no wider than ``cap`` on each interval [a_k,
    b_k]: edges a_k + i (b_k - a_k)/m_k and the last edge b_k, the floats
    ``np.linspace(a_k, b_k, m_k + 1)`` gives.  Returns the panels' midpoints
    and half-widths, interval by interval, and the count m_k of each."""
    m = np.maximum(1, np.ceil((b - a) / cap)).astype(np.intp)
    k = np.repeat(np.arange(a.size), m)
    first = np.cumsum(m) - m
    i = (np.arange(k.size) - first[k]).astype(float)
    step = (b - a) / m
    lo = i * step[k] + a[k]
    hi = (i + 1.0) * step[k] + a[k]
    hi[first + m - 1] = b
    return 0.5 * (lo + hi), 0.5 * (hi - lo), m


class StageFailure(Exception):
    """Internal: an integrator stage produced an unusable intermediate state;
    ``index`` is the offending gap or cell."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


def _heights(q, gaps):
    if not gaps.min() > 0.0:  # also false for a NaN gap
        raise StageFailure("non-increasing particle positions", int(np.argmin(gaps)))
    if not q.min() > 0.0:
        raise StageFailure("non-positive cell mass", int(np.argmin(q)))
    return q / gaps


def _prefix_sums(cell):
    """``[0, cumsum(cell)]`` for per-cell integrals against the step density:
    the integrals over z < x_i at every particle x_i."""
    cum = np.empty(cell.size + 1)
    cum[0] = 0.0
    np.cumsum(cell, out=cum[1:])
    return cum


def mass_sums(q):
    """``(cum, total)``: the prefix sums ``[0, cumsum(q)]`` of cell masses
    ``q`` and their sum, what the m = 0 moment of a convolution reads."""
    return _prefix_sums(q), float(q.sum())


def _prefix_moment(x, rho, y, m, shift, cum, cell):
    """Integral of (z - shift)^m against the step density over z < y (m >= 1),
    from its prefix sums ``cum`` at the particles plus the partial cell;
    ``cell`` is ``cell_index(x, y)``."""
    Yc = np.clip(y, x[0], x[-1]) - shift
    inner = cum[cell] + rho[cell] * (Yc ** (m + 1) - (x[cell] - shift) ** (m + 1)) / (m + 1)
    return np.where(y <= x[0], 0.0, np.where(y >= x[-1], cum[-1], inner))


def _poly(coef, Y):
    return coef[0] if len(coef) == 1 else P.polyval(Y, coef)


def _moment_convolution(x, rho, chain, y, gaps, cell, sums=None):
    """Prefix-moment form of the primitive differences for a kernel with
    polynomial pieces, ``chain`` being one of its ``Potential`` chains.

    With g+ and g- the derivative pieces, Taylor expansion of g(Y - Z) about the
    support centre gives, with L_m(y) = int_{z<y} Z^m rho and T_m its total,
    sum_m (-1)^m / m! [(g+ - g-)^(m)(Y) L_m(y) + g-^(m)(Y) T_m], O(N) per moment.
    ``y = None`` evaluates at the particles, where L_m is the prefix sum itself
    (the partial-cell term is exactly 0.0), so no point is searched for.
    Constant gradient pieces need neither Y nor a moment m >= 1.
    ``sums`` is ``mass_sums(q)`` of masses fixed over a run, read in place of
    ``mass_sums(rho * gaps)``.
    """
    cum, M = mass_sums(rho * gaps) if sums is None else sums
    if y is not None and cell is None:
        cell = cell_index(x, y)
    C = cum if y is None else step_cdf_arrays(x, rho, y, cum, cell)
    g_jump, g_neg = chain[0]
    if len(chain) == 1:  # g_jump[0] * C + g_neg[0] * M, in C's buffer unless it is the caller's
        C = np.multiply(C, g_jump[0], out=None if C is cum and sums is not None else C)
        C += g_neg[0] * M
        return C
    shift = 0.5 * (x[0] + x[-1])
    X = x - shift
    Y = X if y is None else y - shift
    out = _poly(g_jump, Y) * C + _poly(g_neg, Y) * M
    for m, (g_jump, g_neg) in enumerate(chain[1:], 1):
        cum = _prefix_sums(rho * (X[1:] ** (m + 1) - X[:-1] ** (m + 1)) / (m + 1))
        L = cum if y is None else _prefix_moment(x, rho, y, m, shift, cum, cell)
        out = out + (-1) ** m * (_poly(g_jump, Y) * L + _poly(g_neg, Y) * cum[-1])
    return out


def convolve_dxW_arrays(t, x, rho, s: Scenario, y=None, *, gaps=None, cell=None,
                        mass_sums=None):
    """(dxW * rhobar)(y) = sum_j rho_j [W(y - x_j) - W(y - x_{j+1})], exact for
    step densities: by prefix moments when the potential declares polynomial
    pieces, by the (len(y), N+1) difference matrix otherwise.  ``y = None``
    means at the particles ``x``.  ``gaps = np.diff(x)`` and ``cell =
    cell_index(x, y)`` may be passed when the caller already has them, and
    ``mass_sums(q)`` of the cell masses ``q`` as ``mass_sums``."""
    pot = s.potential
    if pot.pieces is None:
        return convolve_dxW_generic(t, x, rho, s, x if y is None else y)
    if y is not None:
        y = np.atleast_1d(np.asarray(y, dtype=float))
    if pot.is_zero:
        return np.zeros(np.shape(x if y is None else y))
    out = _moment_convolution(x, rho, pot.moment_chain, y,
                              np.diff(x) if gaps is None else gaps, cell, mass_sums)
    if pot.time_factor is not None:
        out *= pot.factor(t)
    return out


def convolve_dxW_generic(t, x, rho, s: Scenario, y):
    """The difference-form contract without shortcuts (cross-check target)."""
    pot = s.potential
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if pot.is_zero:
        return np.zeros_like(y)
    return _difference_convolution(pot.W, x, rho, y) * pot.factor(t)


# Floats in one chunk of the difference matrix: its rows are formed a chunk
# at a time, so its memory is O(N) per chunk whatever the number of points.
DIFFERENCE_CHUNK = 1 << 16


def _difference_convolution(F, x, rho, y):
    """sum_j rho_j [F(y - x_j) - F(y - x_{j+1})] through the matrix of F
    values, ``DIFFERENCE_CHUNK // (N+1)`` rows of it at a time: the step
    density convolved with F', exact for an F continuous at 0, whose
    derivative has no atom there."""
    out = np.empty(y.size)
    rows = max(1, DIFFERENCE_CHUNK // x.size)
    for lo in range(0, y.size, rows):
        fd = F(y[lo: lo + rows, None] - x[None, :])
        np.matmul(fd[:, :-1] - fd[:, 1:], rho, out=out[lo: lo + rows])
    return out


def u_field_arrays(t, x, rho, s: Scenario, y=None, *, gaps=None, cell=None, mass_sums=None):
    """U = V - dxW * rhobar at ``y``; ``y = None`` means at the particles ``x``.
    ``gaps``, ``cell`` and ``mass_sums`` are passed on to ``convolve_dxW_arrays``."""
    if y is not None:
        y = np.atleast_1d(np.asarray(y, dtype=float))
    V = getattr(s.advection.V, "constant", None)  # a constant is subtracted as a scalar
    if V is None:
        V = s.advection.V(t, x if y is None else y)
    conv = convolve_dxW_arrays(t, x, rho, s, y, gaps=gaps, cell=cell, mass_sums=mass_sums)
    return np.subtract(V, conv, out=conv, dtype=float)


def upwind_arrays(rho, s: Scenario, U):
    """Congestion factor from the downstream cell (the tie U_i = 0 goes downstream).

    The exterior densities rho_0 = rho_{N+1} = 0 apply at the boundary
    indices, so the leading/trailing particle may move at v(0) U.
    """
    rho_ext = np.zeros(rho.size + 2)
    rho_ext[1:-1] = rho
    vr = congestion_on(rho_ext, s.congestion.v)
    return np.where(U >= 0.0, vr[1:], vr[:-1])


def congestion_on(rho_ext, v):
    """``v`` on the zero-padded heights ``rho_ext``, one call, as a float
    array of their shape (a constant v may return a scalar)."""
    vr = np.asarray(v(rho_ext), dtype=float)
    return np.full(rho_ext.shape, vr) if vr.ndim == 0 else vr


def _gauss_panels(f, t, mid, half, rho, out=None):
    """The cell rule for ``f(t, x, rho)`` on each panel, node-major."""
    nodes = np.multiply.outer(GL4_NODES, half)
    nodes += mid
    vals = np.asarray(f(t, nodes, rho), dtype=float)
    if vals.shape != nodes.shape:  # a source that does not read x
        vals = np.broadcast_to(vals, nodes.shape)
    out = np.matmul(GL4_WEIGHTS, vals, out=out)
    out *= half
    return out


def source_rate_arrays(t, x, rho, s: Scenario, *, gaps=None, out=None):
    """Source integral over each cell by the cell rule: each cell one panel,
    then the cells wider than ``CELL_CAP`` again on their ``cell_panels``;
    ``gaps`` is ``np.diff(x)`` when the caller already has it, and the rates
    go into ``out`` (``rho.size`` floats) when given."""
    src = s.source
    if src.c_f == 0.0:
        if out is None:
            return np.zeros(rho.size)
        out.fill(0.0)
        return out
    gaps = np.diff(x) if gaps is None else gaps
    mid = 0.5 * (x[1:] + x[:-1])
    out = _gauss_panels(src.f, t, mid, 0.5 * gaps, rho, out)
    wide = np.flatnonzero(gaps > CELL_CAP)
    if wide.size:
        mid, half, m = cell_panels(x[wide], x[wide + 1], CELL_CAP)
        panels = _gauss_panels(src.f, t, mid, half, np.repeat(rho[wide], m))
        out[wide] = np.add.reduceat(panels, np.cumsum(m) - m)
    return out


def rhs_arrays(t, x, q, s: Scenario, *, gaps=None, out=None, mass_sums=None):
    """Array-level RHS used by the integrator hot loop; raises StageFailure on
    transiently invalid intermediate states.

    Returns ``(xdot, qdot, U, v_sel)``; ``xdot`` and ``qdot`` are the two
    parts of ``out``, a buffer of ``x.size + q.size`` floats (allocated when
    None).  ``out`` may hold ``x.size`` floats only, for ``xdot``; ``qdot``
    is then a new array.  ``gaps`` is ``np.diff(x)`` and ``mass_sums`` is
    ``mass_sums(q)`` when the caller already has them.
    """
    if gaps is None:
        gaps = np.diff(x)
    rho = _heights(q, gaps)
    U = u_field_arrays(t, x, rho, s, gaps=gaps, mass_sums=mass_sums)
    v_sel = upwind_arrays(rho, s, U)
    if out is None:
        out = np.empty(x.size + q.size)
    xdot = np.multiply(v_sel, U, out=out[: x.size])
    qdot = source_rate_arrays(t, x, rho, s, gaps=gaps,
                              out=out[x.size:] if out.size > x.size else None)
    return xdot, qdot, U, v_sel


def dxU_field_arrays(t, x, rho, s: Scenario, y, rho_at_y, *, gaps=None, cell=None):
    """dxU = dxV - dx2W * rhobar - w rhobar, all terms exact.  The dx2W term
    convolves as dxW does: by ``Potential.dx2W_chain``, or else by differences
    of G(u) = dxW_neg(min(u, 0)) + dxW_pos(max(u, 0)), the gradient without
    its jump at 0 (the atom w).  ``gaps`` and ``cell`` are as for
    ``convolve_dxW_arrays``."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    pot = s.potential
    out = np.asarray(s.advection.dxV(t, y), dtype=float).copy()
    if pot.is_zero:
        return out
    if pot.pieces is None:
        def G(u):
            return pot.dxW_neg(np.minimum(u, 0.0)) + pot.dxW_pos(np.maximum(u, 0.0))
        out -= _difference_convolution(G, x, rho, y) * pot.factor(t)
    elif pot.dx2W_chain:
        out -= _moment_convolution(x, rho, pot.dx2W_chain, y,
                                   np.diff(x) if gaps is None else gaps, cell) * pot.factor(t)
    out -= pot.atom_w(t) * rho_at_y
    return out
