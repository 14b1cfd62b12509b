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

from .field import OperatorField, ScalarField, operator_eval
from .linalg import plu_det
from .report import VerificationReport, run_sweep, sample_box

__all__ = ["charpoly", "verify_sigma_fields", "verify_sigma_coords"]


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
            f"elimination determinant: sigma_n={sigma[(*first, n - 1)]!r}, "
            f"(-1)^n det={np.asarray(expected_last)[tuple(first)]!r}")
    return sigma


def _sigma_sweep(L: OperatorField,
                 expected: Callable[[np.ndarray], np.ndarray],
                 points: np.ndarray, tol: float, subject: str, params: dict,
                 min_denominator: float, collect: bool) -> VerificationReport:
    """Sweep of charpoly(L(P)) against expected(P), both (..., n)."""

    def eval_chunk(P):
        ev = operator_eval(L, P)
        sigma = charpoly(ev.values)
        raw = np.max(np.abs(sigma - expected(P)), axis=-1)
        scale = 1.0 + np.max(np.abs(ev.values), axis=(-2, -1))
        return raw, raw / scale, {}

    return run_sweep(
        points, eval_chunk, tol, subject=subject, params=params,
        gate_name="sigma_max_deviation",
        guard=L.guard, min_margin=min_denominator, collect=collect)


def verify_sigma_fields(L: OperatorField,
                        expected: Callable[[np.ndarray], np.ndarray],
                        domain, samples: int, seed: int, tol: float,
                        min_denominator: float = 0.0,
                        subject: str = "",
                        params: Optional[dict] = None,
                        collect: bool = False) -> VerificationReport:
    """Sweep asserting charpoly(L(p)) matches expected(p) componentwise.

    expected(p) maps one point (n,) to its n coefficients. The raw residual
    is the absolute max deviation; the pass gate divides by
    (1 + max |L entry|) since quotient entries inflate roundoff.
    """
    return _sigma_sweep(
        L, lambda P: np.array([expected(p) for p in P], dtype=float),
        sample_box(domain, L.dim, samples, seed), tol,
        subject or f"invariant recovery for {L.label or 'operator'}",
        params if params is not None else
        {"dim": L.dim, "samples": samples, "seed": seed, "tol": tol},
        min_denominator, collect)


def verify_sigma_coords(L: OperatorField, f: ScalarField, n: int,
                        domain, samples: int, seed: int, tol: float,
                        signs: Optional[Sequence[int]] = None,
                        min_denominator: float = 0.0,
                        collect: bool = False) -> VerificationReport:
    """Sweep asserting sigma_i = (+/-) p_i for i < n and sigma_n = f(p).

    signs (length n-1, default all +1) covers the planar convention where
    the first coefficient is -x1 rather than x1.
    """
    if signs is None:
        signs = np.ones(n - 1)
    signs = np.asarray(signs, dtype=float)
    if signs.shape != (n - 1,):
        raise ValueError(f"signs must have length {n - 1}")

    def expected(P):
        return np.concatenate([signs * P[..., :n - 1], f(P).value[..., None]],
                              axis=-1)

    return _sigma_sweep(
        L, expected, sample_box(domain, L.dim, samples, seed), tol,
        f"coordinate invariant recovery for {L.label or 'operator'}",
        {"dim": n, "f": f.label, "samples": samples, "seed": seed,
         "tol": tol, "signs": [float(s) for s in signs]},
        min_denominator, collect)
