"""Torsion of an operator field, evaluated two independent ways.

The coordinate route contracts exact entry values and entry gradients:

    N^i_jk = L^l_j dL^i_k/dx^l - L^l_k dL^i_j/dx^l
           - L^i_l dL^l_k/dx^j + L^i_l dL^l_j/dx^k

The oracle route starts from the invariant form
N[u, v] = L^2 [u,v] + [Lu, Lv] - L[u, Lv] - L[Lu, v] with u = d_j, v = d_k
constant coordinate fields (so [u,v] = 0) and computes the remaining Lie
brackets by central finite differences of operator VALUES only. The two
routes share no derivative code, which is what makes their agreement a
meaningful check.

Operator evaluations carry a leading points axis (see ``field.py``), and
torsion components have shape (..., n, n, n), one tensor per point.
Both routes contract a whole batch at once, each product of L with a
derivative array as one stacked matmul (``@``), whose bits for a point do
not depend on the rest of its batch. The sweep evaluates its samples chunk
by chunk, and ``torsion_bracket_fd`` evaluates the stencils of all its
points, (..., 2n+1, n), in one ``operator_eval``. The stencil's centre is
the point itself, so the oracle also hands back the exact evaluation there,
which the coordinate route can contract without evaluating the operator
again.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .field import OperatorField, operator_eval
from .jet import Jet2, _jet
from .report import Identity, entry_scale

__all__ = [
    "torsion_from_eval",
    "torsion_bracket_fd",
    "torsion_identity",
    "DEFAULT_MIN_DENOMINATOR",
]

# Sweeps reject sample points whose guard margin (|f_y| for the derived
# families) falls below this; near-singular entries legitimately blow up
# and would mask the torsion signal. Rejections are counted, never silent.
DEFAULT_MIN_DENOMINATOR = 0.05


def _left(L: np.ndarray, T: np.ndarray) -> np.ndarray:
    """sum over l of L[..., i, l] * T[..., l, j, k], as one stacked matmul
    of (n, n) by (n, n*n)."""
    n = L.shape[-1]
    return (L @ T.reshape(T.shape[:-3] + (n, n * n))).reshape(T.shape)


def _right(T: np.ndarray, L: np.ndarray) -> np.ndarray:
    """sum over l of T[..., i, k, l] * L[..., l, j], as one stacked matmul
    of (n*n, n) by (n, n)."""
    n = L.shape[-1]
    return (T.reshape(T.shape[:-3] + (n * n, n)) @ L).reshape(T.shape)


def torsion_from_eval(ev: Jet2) -> np.ndarray:
    """Contract an operator evaluation, L's matrix jet, into torsion.

    Two stacked matmuls carry the contraction. With G[..., i, k, l] =
    dL^i_k/dx^l, GL[..., i, k, j] = sum_l G^i_kl L^l_j holds t2 at (i, j, k)
    and t1 at (i, k, j), and LG[..., i, j, k] = sum_l L^i_l G^l_jk holds t4
    at (i, j, k) and t3 at (i, k, j). So M = GL - LG is t2 - t4, its (j, k)
    transpose is t1 - t3, and N = (t1 - t3) - (t2 - t4) = M^T - M is
    antisymmetric in (j, k) to the last bit, not just to rounding. Values
    (..., n, n) and gradients (..., n, n, n) give components (..., n, n, n).
    """
    L = ev.value
    M = _right(ev.gradient, L)
    M -= _left(L, ev.gradient)
    return np.swapaxes(M, -2, -1) - M


def torsion_bracket_fd(L: OperatorField, p: Sequence[float],
                       h: float = 1e-4) -> tuple:
    """Torsion at the points p (..., n) from the bracket definition with
    central differences.

    Uses only operator values at each point's 2n+1 stencil points (the
    point, then p + h e_l and p - h e_l for l = 1..n), all evaluated in one
    batch of shape (..., 2n+1, n); entry derivatives never enter the
    components, so they are an independent oracle for the coordinate route,
    torsion_from_eval(operator_eval(L, p)), with O(h^2) truncation error.
    Returns (centre, components): the stencil's evaluation at p itself,
    equal to operator_eval(L, p), and the components (..., n, n, n).
    """
    p = np.asarray(p, dtype=float)
    n = L.dim
    if h <= 0.0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    step = h * np.eye(n)
    c = p[..., None, :]
    ev = operator_eval(L, np.concatenate([c, c + step, c - step], axis=-2))
    V = ev.value
    centre = _jet(V[..., 0, :, :], ev.gradient[..., 0, :, :, :], None)
    # D[..., i, j, l] ~ d L^i_j / dx^l by central differences.
    D = np.moveaxis((V[..., 1:n + 1, :, :] - V[..., n + 1:, :, :])
                    / (2.0 * h), -3, -1)
    # With constant u = d_j, v = d_k (so [u, v] = 0):
    # [Lu, Lv]^i = sum_l (L^l_j d_l L^i_k - L^l_k d_l L^i_j), the (j, k)
    # transpose of DL minus DL, where DL[..., i, k, j] = sum_l D^i_kl L^l_j;
    # -L[u, Lv]^i - L[Lu, v]^i = sum_m L^i_m (d_k L^m_j - d_j L^m_k), L on
    # the left of D - D^T.
    DL = _right(D, centre.value)
    N = np.swapaxes(DL, -2, -1) - DL
    N += _left(centre.value, D - np.swapaxes(D, -2, -1))
    return centre, N


def torsion_identity(tol: float, guard=None,
                     min_margin: float = 0.0) -> Identity:
    """Vanishing torsion as a sweep identity. The gate is relative: max |N|
    / (1 + max |L entry|) <= tol; the raw residual is the component max."""
    def residual(ev: Jet2, P, src) -> tuple:
        raw = np.max(np.abs(torsion_from_eval(ev)), axis=(-3, -2, -1))
        return raw, entry_scale(ev.value)

    return Identity("torsion_relative", tol, residual, guard, min_margin)

