"""Builders for the explicit operator families.

All families share one organizing idea: the coefficients of the operator's
characteristic polynomial chi(t) = t^n + sigma_1 t^(n-1) + ... + sigma_n are
prescribed functions of the coordinates, and the operator is recovered from
them. Concretely:

- ``build_companion``: the first-column companion matrix of n coefficient
  fields sigma_1..sigma_n, so its coefficients are the fields themselves.
- ``build_diff_nondegenerate``: sigma_1..sigma_n are arbitrary fields with an
  invertible Jacobi matrix J = (d sigma_i / d x_j); L = J^(-1) Ltilde J with
  Ltilde the first-column companion matrix of the sigma values.
- ``build_2d``: the planar family with tr L = x1 and det L = f(x1, y)
  (so sigma_1 = -x1, sigma_2 = f): the regular family of f at n = 2,
  negated.
- ``build_regular_family``: the n-dimensional family with sigma_i = x_i for
  i < n and sigma_n = f, valid where f_y != 0; its last row carries the
  quotient entries whose smoothness across f_y = 0 is the object of the
  singularity diagnostics.
- ``build_morse_canonical``: the polynomial family that extends the regular
  family of f = sign*y^2 smoothly across y = 0 (n > 2).

Family rules, guards and ``conjugation_residual`` take one point (n,) or an
array of points (..., n), as the field contract in ``field.py`` describes.
Each family names its source: f itself for the regular and planar
families, the stacked coefficient jets for companion and diffnondeg, and
none for the Morse canonical family. Every rule returns the operator as
one order-1 matrix jet of batch (..., n, n), so no entry Hessian is ever
formed. Every rule builds its value and gradient as whole arrays: the
regular and Morse canonical families write their last two rows over
shared companion rows, with the bits, signed zeros and first failing
entry of the order-2 jet arithmetic they spell out entry by entry, and
the planar family negates the regular one's. ``conjugation_residual`` states
J L = Ltilde J for a family built from f with that family's own signs of
x1..x(n-1) in sigma.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .jet import (Jet2, SingularPointError, DenominatorVanishes, _jet,
                  _vanishes)
from .field import ScalarField, OperatorField, SingularEntry
from .linalg import invert_with_det, matmul

__all__ = [
    "DegeneratePointError",
    "companion_matrix",
    "build_companion",
    "build_diff_nondegenerate",
    "build_2d",
    "build_regular_family",
    "build_morse_canonical",
    "conjugation_residual",
    "EPS_DET_PER_DIM",
    "COND_MAX",
]

# Jacobian invertibility threshold, scaled by dimension: |det J| < n * this
# is treated as differential degeneracy rather than an invertible matrix.
EPS_DET_PER_DIM = 1e-10

# Largest condition number kappa_1(J) = |J|_1 |J^-1|_1 of an accepted J.
# An inverse formed from a backward-stable LU is the exact inverse of
# J + dJ with |dJ| <= c_n u |J|, u = 2^-53, so its relative error is up to
# about c_n u kappa(J) (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 14). L = J^-1 Ltilde J and its gradient, from which the
# torsion is contracted, carry that error, so at kappa_1 = 1e-10 / u = 9e5
# rounding in J^-1 alone can reach the default torsion tolerance 1e-10. The
# gate sits at the power of ten below, which leaves a factor of 9 for c_n.
COND_MAX = 1e5


def _det_gated(det, n: int):
    """Where the det gate rejects J: not |det J| >= n * EPS_DET_PER_DIM."""
    return ~(np.abs(det) >= EPS_DET_PER_DIM * n)


class DegeneratePointError(SingularPointError):
    """The Jacobi matrix of the coefficient fields is singular at the
    point, or too ill-conditioned for its inverse to be trusted.

    With a mask (batched evaluation), ``point``, ``det`` and ``cond`` hold
    the failing points, their det J and kappa_1(J). The message names the
    gate that rejected the first of them.
    """

    def __init__(self, point, det, cond, mask=None):
        point = np.asarray(point, dtype=float)
        det = np.asarray(det, dtype=float)
        cond = np.asarray(cond, dtype=float)
        if mask is not None and np.ndim(mask):
            point, det, cond = point[mask], det[mask], cond[mask]
        self.mask = mask
        self.point = point
        self.det = det[()]
        self.cond = cond[()]
        where = "point" if point.ndim == 1 else "points"
        gate, kappa = "differentially degenerate", ""
        if not _det_gated(det.flat[0], point.shape[-1]):
            gate = "ill-conditioned J"
            kappa = (f"kappa_1(J) = {cond.flat[0]:.6e} > COND_MAX = "
                     f"{COND_MAX:.0e}, ")
        super().__init__(f"{gate} at {where} {point.tolist()} "
                         f"({kappa}det J = {det.flat[0]:.6e})")


def companion_matrix(sigma_values: Sequence[float]) -> np.ndarray:
    """First-column companion matrix of coefficient values.

    Column 1 holds (-sigma_1, ..., -sigma_n); the superdiagonal of the first
    n-1 rows is 1; everything else is 0. Values of shape (..., n) give
    matrices of shape (..., n, n).
    """
    sigma = np.asarray(sigma_values, dtype=float)
    n = sigma.shape[-1] if sigma.ndim else 0
    if n < 2:
        raise ValueError(f"companion matrix needs n >= 2, got n={n}")
    M = np.zeros(sigma.shape + (n,))
    M[..., :, 0] = -sigma
    M[..., np.arange(n - 1), np.arange(1, n)] = 1.0
    return M


def _sigma_source(sigma: Sequence[ScalarField]):
    """The source of the coefficient families: the jets of sigma_1..sigma_n
    at the points p, stacked into one jet of batch shape (..., n)."""
    def source(p):
        jets = [s(p) for s in sigma]
        return _jet(np.stack([jt.value for jt in jets], axis=-1),
                    np.stack([jt.gradient for jt in jets], axis=-2),
                    np.stack([jt.hessian for jt in jets], axis=-3))

    return source


def _companion_jets(sigma: Jet2) -> Jet2:
    """Companion matrices of the stacked coefficient jets sigma (batch
    (..., n)), as one order-1 jet of batch shape (..., n, n)."""
    value = companion_matrix(sigma.value)
    gradient = np.zeros(value.shape + (sigma.dim,))
    gradient[..., 0, :] = -sigma.gradient
    return _jet(value, gradient, None)


def _check_sigma(sigma: Sequence[ScalarField]) -> int:
    n = len(sigma)
    if n < 2:
        raise ValueError(f"need at least 2 coefficient fields, got {n}")
    for s in sigma:
        if s.dim != n:
            raise ValueError(
                f"{n} coefficient fields must depend on {n} variables, "
                f"got a field of dimension {s.dim}")
    return n


def build_companion(sigma: Sequence[ScalarField]) -> OperatorField:
    """Operator field whose first column is (-sigma_1, ..., -sigma_n).

    The unit superdiagonal makes its characteristic coefficients the n
    coefficient fields themselves, at every point.
    """
    sigma = list(sigma)
    n = _check_sigma(sigma)

    def rule(p, sj):
        return _companion_jets(sj)

    return OperatorField(n, rule, label="companion",
                         source=_sigma_source(sigma))


def build_diff_nondegenerate(sigma: Sequence[ScalarField]) -> OperatorField:
    """Operator field J^(-1) Ltilde J from n coefficient fields.

    J's values are the coefficient gradients and its gradients the
    coefficient Hessians. One LAPACK inversion per chunk gives J^(-1) and
    det J (`invert_with_det`). Evaluation raises DegeneratePointError where
    |det J| < n * EPS_DET_PER_DIM (an exactly singular J among them), and
    where the condition number |J|_1 |J^(-1)|_1 exceeds COND_MAX, so that
    rounding in J^(-1) cannot decide a verdict. Both products run on the
    whole batch at once (`matmul`). J and Ltilde are order-1 jets, so the
    entry gradients come in closed form and no Hessian is formed (an
    entry's second derivatives would need third derivatives of the
    coefficients, and nothing downstream reads them).
    """
    sigma = list(sigma)
    n = _check_sigma(sigma)

    def rule(p, sj):
        J = _jet(sj.gradient, sj.hessian, None)
        Jinv, det = invert_with_det(J)
        with np.errstate(over="ignore"):
            cond = (np.linalg.norm(J.value, 1, axis=(-2, -1))
                    * np.linalg.norm(Jinv.value, 1, axis=(-2, -1)))
        bad = _det_gated(det, n) | ~(cond <= COND_MAX)
        if bad.any():
            raise DegeneratePointError(p, det, cond, mask=bad)
        return matmul(Jinv, matmul(_companion_jets(sj), J))

    return OperatorField(n, rule, label="diffnondeg",
                         source=_sigma_source(sigma))


def _coordinate_rows(p: np.ndarray, eye: np.ndarray):
    """Value and gradient arrays at the points p (..., n) of the companion
    rows of sigma_i = x_i, -x_i (gradient -e_i, eye = np.eye(n)) and the
    unit superdiagonal, for a family to write its rows n-1 and n over."""
    value = companion_matrix(p)
    gradient = np.zeros(value.shape + (len(eye),))
    gradient[..., :-1, 0, :] = -eye[:-1]
    return value, gradient


def _fy_margin(p, fj: Jet2):
    """Guard of the families with f_y denominators: |f_y| from f's jet."""
    return abs(fj.gradient[..., -1])


def build_2d(f: ScalarField) -> OperatorField:
    """Planar operator family with tr L = x1, det L = f (sigma_1 = -x1):
    -build_regular_family(f, 2), so its entries are
    [[x1 - f_x, -f_y], [(-x1 f_x + f_x^2 + f)/f_y, f_x]]. Entry (2,1)
    requires f_y != 0.
    """
    regular = build_regular_family(f, 2)
    return OperatorField(2, lambda p, fj: -regular.matrix_rule(p, fj),
                         label="2d", guard=_fy_margin, source=f)


def build_regular_family(f: ScalarField, n: int) -> OperatorField:
    """The n-dimensional family with sigma_i = x_i (i < n), sigma_n = f.

    Rows 1..n-2 are companion rows (-x_i in column 1, unit superdiagonal).
    Row n-1 is (-x_(n-1) + f_x1, f_x2, ..., f_x(n-1), f_y). Row n is
    ((sum x_i f_xi - f_x1 f_x(n-1) - f)/f_y, -(f_x(j-1) + f_xj f_x(n-1))/f_y
    for columns j = 2..n-1, -f_x(n-1)). For n = 2 only the last two rows
    exist and the same formulas apply. The trace telescopes to -x1 exactly.
    Valid where f_y != 0; quotient entries raise SingularEntry at f_y = 0.
    """
    if n < 2:
        raise ValueError(f"family needs n >= 2, got n={n}")
    if f.dim != n:
        raise ValueError(f"f has dimension {f.dim}, expected {n}")

    eye = np.eye(n)

    def numerators(p, fj):
        """Row n's numerators over f_y, with gradients: sum x_i f_xi -
        f_x1 f_x(n-1) - f (the sum added from i = 1 up) in column 1, and
        f_x(c-1) + f_xc f_x(n-1) in column c."""
        g, H = fj.gradient, fj.hessian
        fx, Hx = g[..., :n - 1], H[..., :n - 1, :]
        prod = fx * g[..., n - 2, None]
        dprod = (fx[..., None] * H[..., None, n - 2, :]
                 + g[..., n - 2, None, None] * Hx)
        terms = p[..., :n - 1] * fx
        dterms = p[..., :n - 1, None] * Hx + fx[..., None] * eye[:-1]
        s, ds = terms[..., :1], dterms[..., :1, :]
        for i in range(1, n - 1):
            s, ds = s + terms[..., i, None], ds + dterms[..., i, None, :]
        return (np.concatenate([s - prod[..., :1] - fj.value[..., None],
                                fx[..., :-1] + prod[..., 1:]], axis=-1),
                np.concatenate([ds - dprod[..., :1, :] - g[..., None, :],
                                Hx[..., :-1, :] + dprod[..., 1:, :]],
                               axis=-2))

    def quotients(num, dnum, fj):
        """The numerators over f_y, with gradients."""
        fy, dfy = fj.gradient[..., n - 1, None], fj.hessian[..., n - 1, :]
        q = num / fy
        return q, (dnum - q[..., None] * dfy[..., None, :]) / fy[..., None]

    def first_fault(p, fj):
        """Raise the first fault in entry by entry order: column c's
        numerator overflows, f_y vanishes beside it, its quotient
        overflows; an overflow raises again under the caller's errstate."""
        with np.errstate(all="ignore"):
            num, dnum = numerators(p, fj)
            q, dq = quotients(num, dnum, fj)
        bad = _vanishes(num, fj.gradient[..., n - 1, None])
        fault = np.stack([~(np.isfinite(num) & np.isfinite(dnum).all(-1)),
                          bad, ~np.isfinite(dq).all(-1)], axis=-1)
        first = np.flatnonzero(fault.reshape(-1, 3 * n - 3).any(axis=0))[0]
        c, kind = divmod(first, 3)
        if kind != 1:
            quotients(*numerators(p, fj), fj)
        fy = fj.gradient[..., n - 1]
        raise SingularEntry(n, c + 1, p, DenominatorVanishes(
            fy, mask=bad[..., c], numerator=num[..., c]))

    def rule(p, fj):
        L, dL = _coordinate_rows(p, eye)
        g, H = fj.gradient, fj.hessian
        # row n-1: -x_(n-1) + f_x1, then f_x2, ..., f_y
        L[..., n - 2, 0] += g[..., 0]
        dL[..., n - 2, 0, :] += H[..., 0, :]
        L[..., n - 2, 1:], dL[..., n - 2, 1:, :] = g[..., 1:], H[..., 1:, :]
        try:
            num, dnum = numerators(p, fj)
        except FloatingPointError:
            num = None
        if num is None or _vanishes(num, g[..., n - 1, None]).any():
            first_fault(p, fj)
        q, dq = quotients(num, dnum, fj)
        # row n: the quotients, then f_x(n-1), columns 2..n negated
        L[..., n - 1, :-1], L[..., n - 1, -1] = q, g[..., n - 2]
        dL[..., n - 1, :-1, :], dL[..., n - 1, -1, :] = dq, H[..., n - 2, :]
        L[..., n - 1, 1:] *= -1.0
        dL[..., n - 1, 1:, :] *= -1.0
        return _jet(L, dL, None)

    return OperatorField(n, rule, label="regular", guard=_fy_margin,
                         source=f)


def build_morse_canonical(n: int, sign: int) -> OperatorField:
    """Polynomial family at a Morse singularity of the determinant (n > 2).

    Companion rows for i = 1..n-2, entry (n-1, n) = sign*2y, entry (n, 1)
    = -y/2, zeros elsewhere in the last two rows. Equals
    build_regular_family(sign*y^2, n) wherever y != 0 and is smooth across
    y = 0.
    """
    if n < 3:
        raise ValueError(
            f"the Morse canonical family requires n > 2, got n={n}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")

    eye = np.eye(n)

    def rule(p, _):
        L, dL = _coordinate_rows(p, eye)
        y = p[..., n - 1]
        for (i, j), c in (((n - 2, n - 1), 2.0 * sign), ((n - 1, 0), -0.5)):
            L[..., i, j] = y * c   # c*y, with the gradient of a jet product
            dL[..., i, j, :] = y[..., None] * 0.0 + c * eye[n - 1]
        return _jet(L, dL, None)

    return OperatorField(n, rule, label=f"morse-canonical({sign:+d})")


def conjugation_residual(P: np.ndarray, fj: Jet2, L: Jet2,
                         signs=1.0) -> tuple:
    """Residual and magnitude scale of the identity J L = Ltilde J at the
    points P (..., n), from f's jet fj and the operator's matrix jet L there.

    The coefficients are sigma = (signs * (x_1, ..., x_(n-1)), f), signs a
    number or n-1 of them, as ``coordinate_sigma`` takes them: +1 for the
    regular family, -1 for the planar one. J is their Jacobi matrix, the
    diagonal signs over the gradient row of f, and Ltilde the companion
    matrix of their values at P. Returns (max |J L - Ltilde J|, 1 + max
    entry magnitude of the two products), each of the batch shape
    P.shape[:-1].
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[-1]
    J = np.zeros(P.shape[:-1] + (n, n))
    diagonal = np.arange(n - 1)
    J[..., diagonal, diagonal] = signs
    J[..., n - 1, :] = fj.gradient
    Ltilde = companion_matrix(np.concatenate(
        [signs * P[..., :n - 1], fj.value[..., None]], axis=-1))
    left = J @ L.value
    right = Ltilde @ J
    axes = (-2, -1)
    resid = np.max(np.abs(left - right), axis=axes)
    scale = 1.0 + np.maximum(np.max(np.abs(left), axis=axes),
                             np.max(np.abs(right), axis=axes))
    return resid[()], scale[()]
