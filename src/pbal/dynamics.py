"""Right-hand side of the particle/mass ODE system.

Velocities are ``x_i' = v_i U_i`` with the free field ``U = V - dxW * rho``
evaluated through exact W-primitive differences (no quadrature, no special
handling of the gradient kink at 0), the congestion factor ``v_i`` taken from
the cell the velocity points toward, and cell masses fed by the source
integral over the cell.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

from .density import cell_index, step_cdf_arrays
from .scenario import Scenario

# 8-node Gauss-Legendre rule: exact for polynomial integrands up to degree 15.
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


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


def _prefix_moment(x, rho, y, m, shift, cum, cell):
    """Integral of (z - shift)^m against the step density over z < y (m >= 1),
    from its prefix sums ``cum`` at the particles plus the partial cell;
    ``cell`` is ``cell_index(x, y)``."""
    Yc = np.clip(y, x[0], x[-1]) - shift
    inner = cum[cell] + rho[cell] * (Yc ** (m + 1) - (x[cell] - shift) ** (m + 1)) / (m + 1)
    return np.where(y <= x[0], 0.0, np.where(y >= x[-1], cum[-1], inner))


def _poly(coef, Y):
    return coef[0] if len(coef) == 1 else P.polyval(Y, coef)


def _moment_convolution(x, rho, chain, y, gaps, cell):
    """Prefix-moment form of the primitive differences for a kernel with
    polynomial pieces, ``chain`` being one of its ``Potential`` chains.

    With g+ and g- the derivative pieces, Taylor expansion of g(Y - Z) about the
    support centre gives, with L_m(y) = int_{z<y} Z^m rho and T_m its total,
    sum_m (-1)^m / m! [(g+ - g-)^(m)(Y) L_m(y) + g-^(m)(Y) T_m], O(N) per moment.
    ``y = None`` evaluates at the particles, where L_m is the prefix sum itself
    (the partial-cell term is exactly 0.0), so no point is searched for.
    Constant gradient pieces need neither Y nor a moment m >= 1.
    """
    mass = rho * gaps
    cum = _prefix_sums(mass)
    if y is not None and cell is None:
        cell = cell_index(x, y)
    C = cum if y is None else step_cdf_arrays(x, rho, y, cum, cell)
    M = float(mass.sum())
    g_jump, g_neg = chain[0]
    if len(chain) == 1:
        return g_jump[0] * C + g_neg[0] * M
    shift = 0.5 * (x[0] + x[-1])
    X = x - shift
    Y = X if y is None else y - shift
    out = _poly(g_jump, Y) * C + _poly(g_neg, Y) * M
    for m, (g_jump, g_neg) in enumerate(chain[1:], 1):
        cum = _prefix_sums(rho * (X[1:] ** (m + 1) - X[:-1] ** (m + 1)) / (m + 1))
        L = cum if y is None else _prefix_moment(x, rho, y, m, shift, cum, cell)
        out = out + (-1) ** m * (_poly(g_jump, Y) * L + _poly(g_neg, Y) * cum[-1])
    return out


def convolve_dxW_arrays(t, x, rho, s: Scenario, y=None, *, gaps=None, cell=None):
    """(dxW * rhobar)(y) = sum_j rho_j [W(y - x_j) - W(y - x_{j+1})], exact for
    step densities: by prefix moments when the potential declares polynomial
    pieces, by the (len(y), N+1) difference matrix otherwise.  ``y = None``
    means at the particles ``x``.  ``gaps = np.diff(x)`` and ``cell =
    cell_index(x, y)`` may be passed when the caller already has them."""
    pot = s.potential
    if pot.pieces is None:
        return convolve_dxW_generic(t, x, rho, s, x if y is None else y)
    if y is not None:
        y = np.atleast_1d(np.asarray(y, dtype=float))
    if pot.is_zero:
        return np.zeros(np.shape(x if y is None else y))
    out = _moment_convolution(x, rho, pot.moment_chain, y,
                              np.diff(x) if gaps is None else gaps, cell)
    out *= pot.factor(t)
    return out


def convolve_dxW_generic(t, x, rho, s: Scenario, y):
    """The difference-form contract without shortcuts (cross-check target)."""
    pot = s.potential
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if pot.is_zero:
        return np.zeros_like(y)
    return _difference_convolution(pot.W, x, rho, y) * pot.factor(t)


def _difference_convolution(F, x, rho, y):
    """sum_j rho_j [F(y - x_j) - F(y - x_{j+1})] through the (len(y), N+1)
    matrix of F values: the step density convolved with F', exact for an F
    continuous at 0, whose derivative has no atom there."""
    fd = F(y[:, None] - x[None, :])
    return (fd[:, :-1] - fd[:, 1:]) @ rho


def u_field_arrays(t, x, rho, s: Scenario, y=None, *, gaps=None, cell=None):
    """U = V - dxW * rhobar at ``y``; ``y = None`` means at the particles ``x``.
    ``gaps`` and ``cell`` are passed on to ``convolve_dxW_arrays``."""
    if y is not None:
        y = np.atleast_1d(np.asarray(y, dtype=float))
    V = s.advection.V(t, x if y is None else y)
    conv = convolve_dxW_arrays(t, x, rho, s, y, gaps=gaps, cell=cell)
    return np.subtract(V, conv, out=conv, dtype=float)


def upwind_arrays(rho, s: Scenario, U):
    """Congestion factor from the downstream cell (the tie U_i = 0 goes downstream).

    The exterior densities rho_0 = rho_{N+1} = 0 apply at the boundary
    indices, so the leading/trailing particle may move at v(0) U.
    """
    rho_ext = np.zeros(rho.size + 2)
    rho_ext[1:-1] = rho
    vr = np.asarray(s.congestion.v(rho_ext), dtype=float)
    if vr.ndim == 0:  # a constant v may return a scalar
        vr = np.full(rho_ext.shape, vr)
    return np.where(U >= 0.0, vr[1:], vr[:-1])


def source_rate_arrays(t, x, rho, s: Scenario, *, gaps=None):
    """Source integral over each cell by the 8-node Gauss rule; ``gaps`` is
    ``np.diff(x)`` when the caller already has it."""
    src = s.source
    if src.c_f == 0.0:
        return np.zeros(rho.size)
    mid = 0.5 * (x[1:] + x[:-1])
    half = 0.5 * (np.diff(x) if gaps is None else gaps)
    nodes = mid[:, None] + half[:, None] * GL_NODES[None, :]
    vals = np.broadcast_to(np.asarray(src.f(t, nodes, rho[:, None]), dtype=float), nodes.shape)
    return (vals @ GL_WEIGHTS) * half


def rhs_arrays(t, x, q, s: Scenario, *, gaps=None, out=None):
    """Array-level RHS used by the integrator hot loop; raises StageFailure on
    transiently invalid intermediate states.

    Returns ``(xdot, qdot, U, v_sel)``; ``xdot`` and ``qdot`` are the two
    parts of ``out``, a buffer of ``x.size + q.size`` floats (allocated when
    None).  ``gaps`` is ``np.diff(x)`` when the caller already has it.
    """
    if gaps is None:
        gaps = np.diff(x)
    rho = _heights(q, gaps)
    U = u_field_arrays(t, x, rho, s, gaps=gaps)
    v_sel = upwind_arrays(rho, s, U)
    if out is None:
        out = np.empty(x.size + q.size)
    xdot = np.multiply(v_sel, U, out=out[: x.size])
    qdot = out[x.size:]
    qdot[:] = source_rate_arrays(t, x, rho, s, gaps=gaps)
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
