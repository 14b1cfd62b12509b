"""Small dense matrix routines: partial-pivot elimination over floats or jets.

These matrices are tiny (n <= 10 or so), so a straightforward Gauss-Jordan
with partial pivoting is both fast enough and easy to audit. The float
determinant below also serves as an independent cross-check for the
recursive characteristic-polynomial coefficients: two unrelated algorithms
must agree on det before a result is trusted.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .jet import Jet2

__all__ = ["plu_det", "invert_with_det", "matmul", "NumericallySingular"]


class NumericallySingular(ArithmeticError):
    """Pivoting found no usable pivot; the matrix is singular to working precision."""

    def __init__(self, pivot_magnitude: float):
        self.pivot_magnitude = pivot_magnitude
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


def _magnitude(x) -> float:
    return abs(x.value) if isinstance(x, Jet2) else abs(x)


def invert_with_det(rows: Sequence[Sequence], min_pivot: float = 0.0):
    """Gauss-Jordan inverse with partial pivoting, generic over the element ring.

    Elements may be floats or Jet2 (mixing allowed; jet coercion absorbs the
    0.0/1.0 identity seeds). Pivots are chosen by |value|. Returns
    (inverse_rows, det); raises NumericallySingular when the best available
    pivot magnitude is <= min_pivot.
    """
    n = len(rows)
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    det = 1.0
    for k in range(n):
        piv = max(range(k, n), key=lambda r: _magnitude(a[r][k]))
        mag = _magnitude(a[piv][k])
        if mag <= min_pivot:
            raise NumericallySingular(mag)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            inv[k], inv[piv] = inv[piv], inv[k]
            det = -det
        pivot = a[k][k]
        det = det * pivot
        for j in range(n):
            a[k][j] = a[k][j] / pivot
            inv[k][j] = inv[k][j] / pivot
        for r in range(n):
            if r == k:
                continue
            factor = a[r][k]
            if _magnitude(factor) == 0.0:
                continue
            for j in range(n):
                a[r][j] = a[r][j] - factor * a[k][j]
                inv[r][j] = inv[r][j] - factor * inv[k][j]
    return inv, det


def matmul(A: Sequence[Sequence], B: Sequence[Sequence]) -> list:
    """Product of two square matrices with float or jet elements."""
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = A[i][0] * B[0][j]
            for k in range(1, n):
                acc = acc + A[i][k] * B[k][j]
            row.append(acc)
        out.append(row)
    return out
