"""Right-hand side of the particle/mass ODE system.

Velocities are ``x_i' = v_i U_i`` with the free field ``U = V - dxW * rho``
evaluated through exact W-primitive differences (no quadrature, no special
handling of the gradient kink at 0), the congestion factor ``v_i`` taken from
the cell the velocity points toward, and cell masses fed by the source
integral over the cell.
"""

from __future__ import annotations

from itertools import zip_longest

import numpy as np
from numpy.polynomial import polynomial as P

from .density import step_cdf_arrays
from .scenario import Scenario

# 8-node Gauss-Legendre rule: exact for polynomial integrands up to degree 15.
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


class StageFailure(Exception):
    """Internal: an integrator stage produced an unusable intermediate state;
    ``index`` is the offending gap or cell."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


def _heights(x, q):
    gaps = np.diff(x)
    if not np.all(gaps > 0.0):
        raise StageFailure("non-increasing particle positions", int(np.argmin(gaps)))
    if not np.all(q > 0.0):
        raise StageFailure("non-positive cell mass", int(np.argmin(q)))
    return q / gaps


def _prefix_sums(x, rho, m, shift):
    """Per-cell integrals of (z - shift)^m against the step density, and their
    prefix sums [0, cumsum]: the integrals over z < x_i at every particle x_i
    (m = 0 unshifted: the cell masses and the CDF at the particles)."""
    if m == 0:
        cell = rho * np.diff(x)
    else:
        X = x - shift
        cell = rho * (X[1:] ** (m + 1) - X[:-1] ** (m + 1)) / (m + 1)
    return cell, np.concatenate(([0.0], np.cumsum(cell)))


def _prefix_moment(x, rho, y, m, shift, cum):
    """Integral of (z - shift)^m against the step density over z < y (m >= 1),
    from its prefix sums ``cum`` at the particles plus the partial cell."""
    idx = np.clip(np.searchsorted(x, y, side="right") - 1, 0, rho.size - 1)
    Yc = np.clip(y, x[0], x[-1]) - shift
    inner = cum[idx] + rho[idx] * (Yc ** (m + 1) - (x[idx] - shift) ** (m + 1)) / (m + 1)
    return np.where(y <= x[0], 0.0, np.where(y >= x[-1], cum[-1], inner))


def _derivative(coef, scale=1):
    """Ascending coefficients of the derivative of ``coef``, divided by ``scale``."""
    return [k * coef[k] / scale for k in range(1, len(coef))] or [0.0]


def _poly(coef, Y):
    return coef[0] if len(coef) == 1 else P.polyval(Y, coef)


def _moment_convolution(x, rho, pieces, y):
    """Prefix-moment form of the W-primitive differences for a W whose pieces
    on each side of 0 are the polynomials ``pieces = (W_neg, W_pos)``.

    With g+ and g- the gradient pieces, Taylor expansion of g(Y - Z) about the
    support centre gives, with L_m(y) = int_{z<y} Z^m rho and T_m its total,
    sum_m (-1)^m / m! [(g+ - g-)^(m)(Y) L_m(y) + g-^(m)(Y) T_m], O(N) per moment.
    ``y = None`` evaluates at the particles, where L_m is the prefix sum itself
    (the partial-cell term is exactly 0.0), so no point is searched for.
    """
    g_neg = _derivative(pieces[0])
    g_jump = [p - n for p, n in zip_longest(_derivative(pieces[1]), g_neg, fillvalue=0.0)]
    shift = 0.5 * (x[0] + x[-1])
    Y = (x if y is None else y) - shift
    mass, cum = _prefix_sums(x, rho, 0, shift)
    C = cum if y is None else step_cdf_arrays(x, rho, y, cum)
    M = float(np.sum(mass))
    out = _poly(g_jump, Y) * C + _poly(g_neg, Y) * M
    for m in range(1, len(g_jump)):
        g_jump, g_neg = _derivative(g_jump, m), _derivative(g_neg, m)
        _, cum = _prefix_sums(x, rho, m, shift)
        L = cum if y is None else _prefix_moment(x, rho, y, m, shift, cum)
        out = out + (-1) ** m * (_poly(g_jump, Y) * L + _poly(g_neg, Y) * cum[-1])
    return out


def convolve_dxW_arrays(t, x, rho, s: Scenario, y=None):
    """(dxW * rhobar)(y) = sum_j rho_j [W(y - x_j) - W(y - x_{j+1})], exact for
    step densities: by prefix moments when the potential declares polynomial
    pieces, by the (len(y), N+1) difference matrix otherwise.  ``y = None``
    means at the particles ``x``."""
    pot = s.potential
    if pot.pieces is None:
        return convolve_dxW_generic(t, x, rho, s, x if y is None else y)
    if y is not None:
        y = np.atleast_1d(np.asarray(y, dtype=float))
    if pot.is_zero:
        return np.zeros_like(x if y is None else y)
    return _moment_convolution(x, rho, pot.pieces, y) * pot.factor(t)


def convolve_dxW_generic(t, x, rho, s: Scenario, y):
    """The difference-form contract without shortcuts (cross-check target)."""
    pot = s.potential
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if pot.is_zero:
        return np.zeros_like(y)
    wd = pot.W(y[:, None] - x[None, :])
    return ((wd[:, :-1] - wd[:, 1:]) @ rho) * pot.factor(t)


def u_field_arrays(t, x, rho, s: Scenario, y=None):
    """U = V - dxW * rhobar at ``y``; ``y = None`` means at the particles ``x``."""
    if y is not None:
        y = np.atleast_1d(np.asarray(y, dtype=float))
    V = s.advection.V(t, x if y is None else y)
    return np.asarray(V, dtype=float) - convolve_dxW_arrays(t, x, rho, s, y)


def upwind_arrays(rho, s: Scenario, U):
    """Congestion factor from the downstream cell (the tie U_i = 0 goes downstream).

    The exterior densities rho_0 = rho_{N+1} = 0 apply at the boundary
    indices, so the leading/trailing particle may move at v(0) U.
    """
    rho_ext = np.concatenate(([0.0], rho, [0.0]))
    vr = np.asarray(s.congestion.v(rho_ext), dtype=float)
    if vr.ndim == 0:  # a constant v may return a scalar
        vr = np.full(rho_ext.shape, vr)
    return np.where(U >= 0.0, vr[1:], vr[:-1])


def source_rate_arrays(t, x, rho, s: Scenario):
    src = s.source
    if src.c_f == 0.0:
        return np.zeros(rho.size)
    mid = 0.5 * (x[1:] + x[:-1])
    half = 0.5 * np.diff(x)
    nodes = mid[:, None] + half[:, None] * GL_NODES[None, :]
    vals = np.broadcast_to(np.asarray(src.f(t, nodes, rho[:, None]), dtype=float), nodes.shape)
    return (vals @ GL_WEIGHTS) * half


def rhs_arrays(t, x, q, s: Scenario):
    """Array-level RHS used by the integrator hot loop; raises StageFailure on
    transiently invalid intermediate states."""
    rho = _heights(x, q)
    U = u_field_arrays(t, x, rho, s)
    v_sel = upwind_arrays(rho, s, U)
    xdot = v_sel * U
    qdot = source_rate_arrays(t, x, rho, s)
    return xdot, qdot, U, v_sel


def dxU_field_arrays(t, x, rho, s: Scenario, y, rho_at_y):
    """dxU = dxV - dx2W * rhobar - w rhobar, all terms exact."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    adv = s.advection
    pot = s.potential
    out = np.asarray(adv.dxV(t, y), dtype=float).copy()
    if not pot.is_zero:
        if not pot.dx2W_zero:
            a = y[:, None] - x[None, 1:]
            b = y[:, None] - x[None, :-1]
            out -= (pot.dx2W_integral(a, b) @ rho) * pot.factor(t)
        out -= float(pot.atom_w(t)) * rho_at_y
    return out
