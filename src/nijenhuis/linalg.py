"""Small dense matrix routines: partial-pivot elimination on float stacks.

Every routine takes a stack of matrices (..., n, n), one per point, and
its result for a matrix is bit for bit the one it gets on its own.
`invert_with_det` and `matmul` take order-1 matrix jets (value and
gradient). They are a Gauss-Jordan elimination and a product written out
here: each matrix gets its own pivots, every sum of values runs in a fixed
order, and the gradients come in closed form as stacked matmuls, one
matrix per coordinate. `plu_det` is LAPACK's partial-pivot LU (numpy's
det), which factors each matrix of a stack on its own. It serves as an
independent cross-check for the recursive characteristic-polynomial
coefficients: two unrelated algorithms must agree on det before a result
is trusted.
"""

from __future__ import annotations

import numpy as np

from .jet import DenominatorVanishes, Jet2, _jet, divide

__all__ = ["plu_det", "invert_with_det", "matmul", "NumericallySingular"]


class NumericallySingular(ArithmeticError):
    """Pivoting found no usable pivot; the matrix is singular to working precision."""

    def __init__(self, pivot_magnitude: float, mask=None):
        self.pivot_magnitude = pivot_magnitude
        self.mask = mask
        super().__init__(
            f"matrix numerically singular (best pivot {pivot_magnitude:.6e})")


def plu_det(M: np.ndarray):
    """Determinant of a float matrix by LAPACK's partial-pivot LU (numpy).

    M may be one matrix (n, n) or a stack (..., n, n); the result has the
    stack's shape, each matrix factored on its own. An exactly zero pivot
    column gives 0.0. numpy forms det as sign * exp(sum log|u_ii|), and a
    pivot LAPACK returns as zero from below the normal range also reads
    0.0, without flagging log(0) as a division by zero.
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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked products of values: sum over k of a[..., i, k] * b[..., k, j],
    added from k = 0 up, so a matrix's result does not depend on its
    stack."""
    acc = a[..., :, 0, None] * b[..., None, 0, :]
    for k in range(1, a.shape[-1]):
        acc = acc + a[..., :, k, None] * b[..., None, k, :]
    return acc


def _per_coordinate(gradient: np.ndarray) -> np.ndarray:
    """A gradient (..., n, n, m) as m matrices (..., m, n, n), one per
    coordinate, so that a stacked matmul multiplies each of them; a view."""
    return gradient.swapaxes(-1, -2).swapaxes(-2, -3)


def _per_entry(x: np.ndarray) -> np.ndarray:
    """m matrices (..., m, n, n) as a gradient (..., n, n, m); a view."""
    return x.swapaxes(-3, -2).swapaxes(-2, -1)


def invert_with_det(A: Jet2):
    """Gauss-Jordan inverse with partial pivoting of a stack of matrix jets.

    A is an order-1 jet of batch shape (..., n, n): one n x n matrix per
    point. Every matrix's values are eliminated as floats with its own
    pivots, the first row of largest |value| down the column, exactly as it
    would be alone, and det is the signed product of those pivots. The
    gradients come in closed form, d(A^-1) = -A^-1 dA A^-1 and
    d det = det tr(dA A^-1), the products as stacked matmuls over the
    gradient axis and the trace added from i = 0 up. Returns (inverse, det),
    order-1 jets of batch shapes (..., n, n) and (...). Raises
    NumericallySingular when a matrix's best pivot is zero, and
    DenominatorVanishes when a pivot row cannot be divided by its pivot
    (`jet.divide`'s test); either error's mask marks the failing matrices.
    An order-2 A raises ValueError.
    """
    value = _value(A)
    shape = np.shape(value)
    if len(shape) < 2 or shape[-2] != shape[-1]:
        raise ValueError("matrix must be square")
    n, batch = shape[-1], shape[:-2]
    a = value.reshape(-1, n, n)
    # the augmented matrix [A | I]
    a = np.concatenate([a, np.broadcast_to(np.eye(n), a.shape)], axis=-1)
    det = np.ones(a.shape[0])
    for k in range(n):
        mag = np.abs(a[:, k:, k])
        best = mag.max(axis=1)
        bad = best <= 0.0
        if bad.any():
            raise NumericallySingular(best[bad][0], mask=bad.reshape(batch))
        piv = k + np.argmax(mag, axis=1)
        swap = np.flatnonzero(piv != k)
        if swap.size:
            rows = a[swap, k].copy()
            a[swap, k] = a[swap, piv[swap]]
            a[swap, piv[swap]] = rows
            det[swap] = -det[swap]
        pivot = a[:, k, k, None]
        det *= pivot[:, 0]
        try:
            row = divide(a[:, k], pivot)
        except DenominatorVanishes as exc:
            raise DenominatorVanishes(
                exc.denominator, mask=exc.mask.any(axis=-1).reshape(batch),
                numerator=exc.numerator) from None
        # every other row r becomes a[r] - a[r, k] * row; row k becomes row
        a -= a[:, :, k, None] * row[:, None, :]
        a[:, k] = row
    inv = a[:, :, n:]
    m = A.gradient.shape[-1]
    dA_inv = _per_coordinate(A.gradient.reshape(-1, n, n, m)) @ inv[:, None]
    trace = dA_inv[..., 0, 0]
    for i in range(1, n):
        trace = trace + dA_inv[..., i, i]
    d_inv = _per_entry(-(inv[:, None] @ dA_inv))
    return (_jet(inv.reshape(batch + (n, n)),
                 d_inv.reshape(batch + (n, n, m)), None),
            _jet(det.reshape(batch)[()],
                 (det[:, None] * trace).reshape(batch + (m,)), None))


def matmul(A: Jet2, B: Jet2) -> Jet2:
    """Product of two stacks of square order-1 matrix jets, batch (..., n, n).

    Entry (i, j) adds A[i, k] * B[k, j] over k = 0..n-1 from left to right,
    so the values are the jet product's bit for bit. Its gradient
    dA B + A dB is two stacked matmuls, one matrix per coordinate. An
    order-2 operand raises ValueError.
    """
    a, b = _value(A), _value(B)
    grad = (_per_coordinate(A.gradient) @ b[..., None, :, :]
            + a[..., None, :, :] @ _per_coordinate(B.gradient))
    return _jet(_dot(a, b), _per_entry(grad), None)
