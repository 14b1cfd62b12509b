"""Small dense matrix routines on float stacks, through LAPACK.

Every routine takes a stack of matrices (..., n, n), one per point, and
its result for a matrix is bit for bit the one it gets on its own.
`plu_det` (numpy's det) is an independent cross-check for the recursive
characteristic-polynomial coefficients: two unrelated algorithms must
agree on det before a result is trusted. `invert_with_det` (numpy's inv)
and `matmul` take order-1 matrix jets (value and gradient) and give the
gradients in closed form as stacked matmuls, one matrix per coordinate.
"""

from __future__ import annotations

import numpy as np

from .jet import Jet2, _jet

__all__ = ["plu_det", "invert_with_det", "matmul"]


def plu_det(M: np.ndarray):
    """Determinant of a float matrix by LAPACK's partial-pivot LU (numpy).

    M may be one matrix (n, n) or a stack (..., n, n); the result has the
    stack's shape, each matrix factored on its own. An exactly zero pivot
    column gives 0.0, but two equal rows give a rounding-size det, not
    0.0: the LU's elimination need not cancel exactly. numpy forms det as
    sign * exp(sum log|u_ii|), and a pivot LAPACK returns as zero from
    below the normal range also reads 0.0, without flagging log(0) as a
    division by zero.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[-1] if M.ndim else 0
    if M.ndim < 2 or M.shape[-2] != n:
        raise ValueError("matrix must be square")
    with np.errstate(divide="ignore"):
        return np.linalg.det(M)


def _value(A: Jet2) -> np.ndarray:
    """The values of an order-1 matrix jet; an order-2 jet raises."""
    if A.hessian is not None:
        raise ValueError("the jet matrix routines take order-1 jets")
    return A.value


def _per_coordinate(gradient: np.ndarray) -> np.ndarray:
    """A gradient (..., n, n, m) as m matrices (..., m, n, n), one per
    coordinate, so that a stacked matmul multiplies each of them; a view."""
    return gradient.swapaxes(-1, -2).swapaxes(-2, -3)


def _per_entry(x: np.ndarray) -> np.ndarray:
    """m matrices (..., m, n, n) as a gradient (..., n, n, m); a view."""
    return x.swapaxes(-3, -2).swapaxes(-2, -1)


def invert_with_det(A: Jet2):
    """Inverse and determinant of a stack of order-1 matrix jets.

    A has batch shape (..., n, n), one matrix per point; det is
    `plu_det`'s. One LAPACK call inverts every matrix whose det is nonzero;
    one with det 0.0, for which LAPACK would raise for the whole stack,
    reads NaN. The gradient -A^-1 dA A^-1 is stacked matmuls over the
    gradient axis; where A is nearly singular it may overflow without
    raising, for the caller's gates to reject. Returns (inverse, det): an
    order-1 jet of batch (..., n, n) and det's values (...). An order-2 A
    raises ValueError.
    """
    a = _value(A)
    det = plu_det(a)
    singular = (det == 0.0)[..., None, None]
    inv = np.where(singular, np.nan, np.linalg.inv(
        np.where(singular, np.eye(a.shape[-1]), a)))
    inv_m = inv[..., None, :, :]
    with np.errstate(over="ignore", invalid="ignore"):
        d_inv = -(inv_m @ _per_coordinate(A.gradient) @ inv_m)
    return _jet(inv, _per_entry(d_inv), None), det


def matmul(A: Jet2, B: Jet2) -> Jet2:
    """Product of two stacks of square order-1 matrix jets, batch (..., n, n).

    The values are a stacked matmul; the gradient dA B + A dB is two more,
    one matrix per coordinate. An order-2 operand raises ValueError.
    """
    a, b = _value(A), _value(B)
    grad = (_per_coordinate(A.gradient) @ b[..., None, :, :]
            + a[..., None, :, :] @ _per_coordinate(B.gradient))
    return _jet(a @ b, _per_entry(grad), None)
