"""Characteristic-polynomial coefficients and the invariant-recovery identity.

Convention throughout: chi(t) = det(t*Id - M) = t^n + sigma_1 t^(n-1) + ...
+ sigma_n, so sigma_1 = -tr M and sigma_n = (-1)^n det M. Coefficients come
from the trace recursion M_1 = M, c_k = -tr(M_k)/k, M_(k+1) = M(M_k + c_k*Id);
every call cross-checks sigma_n against an elimination determinant computed
by unrelated code before returning. ``charpoly`` takes one matrix (n, n) or
a stack (..., n, n), so a sweep checks a whole chunk of samples at once.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .field import ScalarField
from .linalg import plu_det
from .report import Identity, entry_scale

__all__ = ["charpoly", "coordinate_sigma", "sigma_identity"]


def charpoly(M: np.ndarray) -> np.ndarray:
    """Coefficients (sigma_1, ..., sigma_n) of det(t*Id - M).

    M (n, n) gives shape (n,); a stack M (..., n, n) gives (..., n).
    Raises ValueError on non-finite entries and ArithmeticError if the
    recursion's sigma_n disagrees with the elimination determinant (the
    internal dual-route check) at any matrix of the stack.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[-1] if M.ndim else 0
    if M.ndim < 2 or M.shape[-2] != n or n < 1:
        raise ValueError("matrix must be square and nonempty")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    sigma = np.empty(M.shape[:-1])
    Mk = M.copy()
    eye = np.eye(n)
    for k in range(1, n + 1):
        c = -np.trace(Mk, axis1=-2, axis2=-1) / k
        sigma[..., k - 1] = c
        if k < n:
            Mk = M @ (Mk + c[..., None, None] * eye)
    det = plu_det(M)
    expected_last = det if n % 2 == 0 else -det
    scale = 1.0 + np.abs(det) + np.max(np.abs(sigma), axis=-1)
    bad = np.abs(sigma[..., n - 1] - expected_last) > 1e-8 * scale
    if bad.any():
        first = np.argwhere(bad)[0] if bad.ndim else ()
        raise ArithmeticError(
            "characteristic coefficient recursion disagrees with the "
            "elimination determinant: "
            f"sigma_n={float(sigma[(*first, n - 1)])!r}, "
            f"(-1)^n det={float(np.asarray(expected_last)[tuple(first)])!r}")
    return sigma


def coordinate_sigma(f: ScalarField, n: int, signs: Sequence[float]
                     ) -> Callable[..., np.ndarray]:
    """Expected coefficients (signs * (x1, ..., x(n-1)), f) of points (..., n).

    signs has length n-1; a -1 covers the planar convention where the first
    coefficient is -x1 rather than x1. The result is expected(P, fj), which
    reads f's values from fj, f's jet at P.
    """
    signs = np.asarray(signs, dtype=float)
    if signs.shape != (n - 1,):
        raise ValueError(f"signs must have length {n - 1}")

    def expected(P, fj):
        return np.concatenate([signs * P[..., :n - 1], fj.value[..., None]],
                              axis=-1)

    return expected


def sigma_identity(expected: Callable[[np.ndarray, object], np.ndarray],
                   tol: float, guard=None, min_margin: float = 0.0
                   ) -> Identity:
    """Invariant recovery as a sweep identity: charpoly of the operator's
    values against expected(P, src), src the sweep's source at P. The gate
    divides the max deviation by (1 + max |L entry|), since quotient
    entries inflate roundoff."""
    def residual(ev, P, src):
        sigma = charpoly(ev.value)
        raw = np.max(np.abs(sigma - expected(P, src)), axis=-1)
        return raw, entry_scale(ev.value)

    return Identity("sigma_max_deviation", tol, residual, guard, min_margin)

