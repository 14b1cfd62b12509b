"""Characteristic-polynomial coefficients and invariant-recovery sweeps.

Convention throughout: chi(t) = det(t*Id - M) = t^n + sigma_1 t^(n-1) + ...
+ sigma_n, so sigma_1 = -tr M and sigma_n = (-1)^n det M. Coefficients come
from the trace recursion M_1 = M, c_k = -tr(M_k)/k, M_(k+1) = M(M_k + c_k*Id);
every call cross-checks sigma_n against an elimination determinant computed
by unrelated code before returning. ``charpoly`` takes one matrix (n, n) or
a stack (..., n, n), and the sweeps evaluate their samples chunk by chunk.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .field import OperatorField, ScalarField
from .linalg import plu_det
from .report import Identity, VerificationReport, run_sweep, sample_box

__all__ = ["charpoly", "coordinate_sigma", "sigma_identity",
           "verify_sigma_fields", "verify_sigma_coords"]


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
        sigma = charpoly(ev.values)
        raw = np.max(np.abs(sigma - expected(P, src)), axis=-1)
        return raw, 1.0 + np.max(np.abs(ev.values), axis=(-2, -1))

    return Identity("sigma", "sigma_max_deviation", tol, residual, guard,
                    min_margin)


def verify_sigma_fields(L: OperatorField,
                        expected: Callable[[np.ndarray, object], np.ndarray],
                        domain, samples: int, seed: int, tol: float,
                        min_denominator: float = 0.0,
                        subject: str = "",
                        params: Optional[dict] = None) -> VerificationReport:
    """Sweep of sigma_identity: expected(P, src) maps points (..., n) and
    L's source there (None when L has none) to coefficients (..., n)."""
    return run_sweep(
        sample_box(domain, L.dim, samples, seed),
        [sigma_identity(expected, tol, L.guard, min_denominator)],
        subject=subject or f"invariant recovery for {L.label or 'operator'}",
        params=params if params is not None else
        {"dim": L.dim, "samples": samples, "seed": seed, "tol": tol},
        source=L.source, operator=L)[0]


def verify_sigma_coords(L: OperatorField, f: ScalarField, n: int,
                        domain, samples: int, seed: int, tol: float,
                        signs: Optional[Sequence[int]] = None,
                        min_denominator: float = 0.0) -> VerificationReport:
    """Sweep asserting sigma_i = (+/-) p_i for i < n and sigma_n = f(p),
    with f the sweep's source; signs (length n-1, default all +1) covers
    the planar convention sigma_1 = -x1."""
    if L.source not in (None, f):
        raise ValueError("L must take f as its source, or have none")
    if signs is None:
        signs = np.ones(n - 1)
    return run_sweep(
        sample_box(domain, L.dim, samples, seed),
        [sigma_identity(coordinate_sigma(f, n, signs), tol, L.guard,
                        min_denominator)],
        subject=f"coordinate invariant recovery for {L.label or 'operator'}",
        params={"dim": n, "f": f.label, "samples": samples, "seed": seed,
                "tol": tol, "signs": [float(s) for s in signs]},
        source=f, operator=L)[0]
