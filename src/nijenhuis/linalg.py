"""Small dense matrix routines: partial-pivot elimination over floats or jets.

These matrices are tiny (n <= 10 or so), so a straightforward Gauss-Jordan
with partial pivoting is both fast enough and easy to audit. Every routine
takes a stack of matrices (..., n, n), one per point, and eliminates all of
them at once: each matrix gets its own pivots, so its result is bit for bit
the one it gets on its own. The float determinant also serves as an
independent cross-check for the recursive characteristic-polynomial
coefficients: two unrelated algorithms must agree on det before a result
is trusted.
"""

from __future__ import annotations

import numpy as np

from .jet import DenominatorVanishes, Jet2, _jet, _zeros

__all__ = ["plu_det", "invert_with_det", "matmul", "NumericallySingular"]

_ALL = slice(None)


class NumericallySingular(ArithmeticError):
    """Pivoting found no usable pivot; the matrix is singular to working precision."""

    def __init__(self, pivot_magnitude: float, mask=None):
        self.pivot_magnitude = pivot_magnitude
        self.mask = mask
        super().__init__(
            f"matrix numerically singular (best pivot {pivot_magnitude:.6e})")


def plu_det(M: np.ndarray):
    """Determinant of a float matrix by partial-pivot LU elimination.

    M may be one matrix (n, n) or a stack (..., n, n); the result has the
    stack's shape. Each matrix is eliminated with its own pivots, exactly
    as it would be alone.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[-1] if M.ndim else 0
    if M.ndim < 2 or M.shape[-2] != n:
        raise ValueError("matrix must be square")
    batch = M.shape[:-2]
    a = M.reshape(-1, n, n).copy()
    stack = np.arange(a.shape[0])
    det = np.ones(a.shape[0])
    dead = np.zeros(a.shape[0], dtype=bool)   # a zero pivot: det is 0
    for k in range(n):
        piv = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
        dead |= a[stack, piv, k] == 0.0
        swap = np.flatnonzero(piv != k)
        if swap.size:
            rows = a[swap, k].copy()
            a[swap, k] = a[swap, piv[swap]]
            a[swap, piv[swap]] = rows
            det[swap] = -det[swap]
        pivot = np.where(dead, 1.0, a[:, k, k])
        det *= pivot
        for r in range(k + 1, n):
            a[:, r, k:] -= (a[:, r, k] / pivot)[:, None] * a[:, k, k:]
    det[dead] = 0.0
    return det.reshape(batch)[()]


def _take(a: Jet2, rows, cols) -> Jet2:
    """A stack of matrix jets indexed on its two trailing (matrix) axes."""
    idx = (Ellipsis, rows, cols)
    h = a.hessian
    return _jet(a.value[idx], a.gradient[idx + (_ALL,)],
                None if h is None else h[idx + (_ALL, _ALL)])


def _reshape(a: Jet2, batch: tuple) -> Jet2:
    """The jet with its batch axes reshaped to `batch`."""
    n, h = a.dim, a.hessian
    return _jet(a.value.reshape(batch)[()], a.gradient.reshape(batch + (n,)),
                None if h is None else h.reshape(batch + (n, n)))


def invert_with_det(A: Jet2):
    """Gauss-Jordan inverse with partial pivoting of a stack of jet matrices.

    A is a jet of batch shape (..., n, n): one n x n matrix per point.
    Every matrix is eliminated with its own pivots, the first row of
    largest |value| down the column, exactly as it would be alone; all
    derivatives come from the jet product and quotient rules, at A's order
    (an order-1 A carries no Hessians through the elimination). Returns
    (inverse, det), jets of batch shapes (..., n, n) and (...). Raises
    NumericallySingular when a matrix's best pivot is zero, and
    DenominatorVanishes when a pivot row cannot be divided by its pivot;
    either error's mask marks the failing matrices.
    """
    shape = np.shape(A.value)
    if len(shape) < 2 or shape[-2] != shape[-1]:
        raise ValueError("matrix must be square")
    n, batch = shape[-1], shape[:-2]
    a = _reshape(A, (-1, n, n))
    stack = np.arange(a.value.shape[0])
    eye = np.broadcast_to(np.eye(n), a.value.shape)
    # the augmented matrix [A | I]; the identity's derivatives are zero
    h = a.hessian
    a = _jet(np.concatenate([a.value, eye], axis=-1),
             np.concatenate([a.gradient, np.zeros_like(a.gradient)], axis=-2),
             None if h is None else
             np.concatenate([h, _zeros(h.shape)], axis=-3))
    # a row swap negates det; negation commutes exactly with the products,
    # so the signs are applied once at the end
    sign = np.ones((stack.size, 1, 1))
    det = 1.0
    for k in range(n):
        mag = np.abs(a.value[:, k:, k])
        piv = np.argmax(mag, axis=1)
        best = mag[stack, piv]
        bad = best <= 0.0
        if bad.any():
            raise NumericallySingular(best[bad][0], mask=bad.reshape(batch))
        piv += k
        swap = piv != k
        if swap.any():
            perm = np.tile(np.arange(n), (stack.size, 1))
            perm[:, k] = piv
            perm[stack, piv] = k
            a = a.at((stack[:, None], perm))
            sign[swap] = -sign[swap]
        pivot = _take(a, slice(k, k + 1), slice(k, k + 1))
        det = det * pivot
        try:
            row = _take(a, slice(k, k + 1), _ALL) / pivot
        except DenominatorVanishes as exc:
            raise DenominatorVanishes(
                exc.denominator,
                mask=exc.mask.any(axis=(-2, -1)).reshape(batch),
                numerator=exc.numerator) from None
        # every other row r becomes a[r] - a[r, k] * row; row k becomes row
        a = a - _take(a, _ALL, slice(k, k + 1)) * row
        a.value[:, k] = row.value[:, 0]
        a.gradient[:, k] = row.gradient[:, 0]
        if a.hessian is not None:
            a.hessian[:, k] = row.hessian[:, 0]
    det = det * Jet2(sign, np.zeros(sign.shape + (A.dim,)))
    return (_reshape(_take(a, _ALL, slice(n, None)), batch + (n, n)),
            _reshape(det, batch))


def matmul(A: Jet2, B: Jet2) -> Jet2:
    """Product of two stacks of square jet matrices, batch (..., n, n).

    Entry (i, j) adds A[i, k] * B[k, j] over k = 0..n-1 from left to right.
    """
    n = A.value.shape[-1]
    acc = _take(A, _ALL, slice(0, 1)) * _take(B, slice(0, 1), _ALL)
    for k in range(1, n):
        acc = acc + (_take(A, _ALL, slice(k, k + 1))
                     * _take(B, slice(k, k + 1), _ALL))
    return acc
