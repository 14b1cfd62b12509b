"""Builders for the explicit operator families.

All families share one organizing idea: the coefficients of the operator's
characteristic polynomial chi(t) = t^n + sigma_1 t^(n-1) + ... + sigma_n are
prescribed functions of the coordinates, and the operator is recovered from
them. Concretely:

- ``build_diff_nondegenerate``: sigma_1..sigma_n are arbitrary fields with an
  invertible Jacobi matrix J = (d sigma_i / d x_j); L = J^(-1) Ltilde J with
  Ltilde the first-column companion matrix of the sigma values.
- ``build_2d``: the planar family with tr L = x1 and det L = f(x1, y)
  (so sigma_1 = -x1, sigma_2 = f).
- ``build_regular_family``: the n-dimensional family with sigma_i = x_i for
  i < n and sigma_n = f, valid where f_y != 0; its last row carries the
  quotient entries whose smoothness across f_y = 0 is the object of the
  singularity diagnostics.
- ``build_morse_canonical``: the polynomial family that extends the regular
  family of f = sign*y^2 smoothly across y = 0 (n > 2).

Family rules, guards and ``conjugation_residual`` take one point (n,) or an
array of points (..., n), as the field contract in ``field.py`` describes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .jet import (Jet2, SingularPointError, DenominatorVanishes,
                  coordinate_jet, stack_jets)
from .field import (ScalarField, OperatorField, SingularEntry, as_jet,
                    operator_eval)
from .linalg import plu_det, invert_with_det, matmul, NumericallySingular

__all__ = [
    "DegeneratePointError",
    "companion_matrix",
    "build_diff_nondegenerate",
    "build_2d",
    "build_regular_family",
    "build_morse_canonical",
    "conjugation_residual",
    "EPS_DET_PER_DIM",
]

# Jacobian invertibility threshold, scaled by dimension: |det J| < n * this
# is treated as differential degeneracy rather than an invertible matrix.
EPS_DET_PER_DIM = 1e-10


class DegeneratePointError(SingularPointError):
    """The Jacobi matrix of the coefficient fields is singular at the point.

    With a mask (batched evaluation), ``point`` and ``det`` hold the
    failing points and their determinants.
    """

    def __init__(self, point, det, mask=None):
        point = np.asarray(point, dtype=float)
        det = np.asarray(det, dtype=float)
        if mask is not None and np.ndim(mask):
            point, det = point[mask], det[mask]
        self.mask = mask
        self.point = point
        self.det = det[()]
        where = "point" if point.ndim == 1 else "points"
        super().__init__(
            f"differentially degenerate at {where} {point.tolist()} "
            f"(det J = {det.flat[0]:.6e})")


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
    for i in range(n - 1):
        M[..., i, i + 1] = 1.0
    return M


def _companion_jets(sigma_jets: Sequence[Jet2]) -> list:
    """Companion matrix with jet entries in the first column."""
    n = len(sigma_jets)
    rows = []
    for i in range(n):
        row = [0.0] * n
        row[0] = -sigma_jets[i]
        if i < n - 1:
            row[i + 1] = 1.0
        rows.append(row)
    return rows


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


def build_diff_nondegenerate(sigma: Sequence[ScalarField],
                             label: str = "diffnondeg") -> OperatorField:
    """Operator field J^(-1) Ltilde J from n coefficient fields.

    Evaluation checks |det J| >= n * EPS_DET_PER_DIM at each point and
    raises DegeneratePointError below that. The conjugation is carried out
    in jet arithmetic so entry gradients come out exact; entry Hessians are
    truncated (J's entries only know the coefficient Hessians) and are never
    consumed downstream. The determinant check runs on the whole batch; the
    pivoted jet inverse runs point by point.
    """
    sigma = list(sigma)
    n = _check_sigma(sigma)

    def at_point(p, jets, det):
        Jjets = [[Jet2(jt.gradient[j], jt.hessian[j]) for j in range(n)]
                 for jt in jets]
        Ltilde = _companion_jets(jets)
        try:
            Jinv, _ = invert_with_det(Jjets)
        except NumericallySingular:
            raise DegeneratePointError(p, det) from None
        return matmul(Jinv, matmul(Ltilde, Jjets))

    def rule(p):
        jets = [s(p) for s in sigma]
        det = plu_det(np.stack([jt.gradient for jt in jets], axis=-2))
        bad = np.abs(det) < EPS_DET_PER_DIM * n
        if bad.any():
            raise DegeneratePointError(p, det, mask=bad)
        batch = p.shape[:-1]
        if not batch:
            return at_point(p, jets, det)
        cells = [at_point(p[idx], [jt.at(idx) for jt in jets], det[idx])
                 for idx in np.ndindex(batch)]
        return [[stack_jets([as_jet(c[i][j], n) for c in cells], batch)
                 for j in range(n)] for i in range(n)]

    return OperatorField(n, rule, label=label)


def _partials(fj: Jet2):
    """Split a jet of f into jets of f_x1..f_x(n-1) and f_y.

    The derivative jets have exact values and gradients (read off the
    gradient and Hessian of f) and zero Hessians; callers only use entry
    values and gradients, so the truncation never surfaces.
    """
    n = fj.dim
    parts = [Jet2(fj.gradient[..., k], fj.hessian[..., k, :])
             for k in range(n)]
    return parts[:-1], parts[-1]


def build_2d(f: ScalarField, label: str = "2d") -> OperatorField:
    """Planar operator family with tr L = x1, det L = f (sigma_1 = -x1).

    Entries: [[x1 - f_x, -f_y], [(-x1 f_x + f_x^2 + f)/f_y, f_x]]. Entry
    (2,1) requires f_y != 0.
    """
    if f.dim != 2:
        raise ValueError(f"planar family needs a 2-variable f, got dim {f.dim}")

    def rule(p):
        fj = f(p)
        (fx,), fy = _partials(fj)
        x = coordinate_jet(1, p)
        try:
            low = (-(x * fx) + fx * fx + fj) / fy
        except DenominatorVanishes as exc:
            raise SingularEntry(2, 1, p, exc) from None
        return [[x - fx, -fy], [low, fx]]

    def guard(p):
        return abs(f(p).gradient[..., -1])

    return OperatorField(2, rule, label=label, guard=guard)


def build_regular_family(f: ScalarField, n: int,
                         label: str = "regular") -> OperatorField:
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

    def rule(p):
        fj = f(p)
        fx, fy = _partials(fj)
        xs = [coordinate_jet(i + 1, p) for i in range(n - 1)]
        rows = []
        for i in range(n - 2):
            row = [0.0] * n
            row[0] = -xs[i]
            row[i + 1] = 1.0
            rows.append(row)
        row = [0.0] * n
        row[0] = -xs[n - 2] + fx[0]
        for c in range(1, n - 1):
            row[c] = fx[c]
        row[n - 1] = fy
        rows.append(row)
        num = xs[0] * fx[0]
        for i in range(1, n - 1):
            num = num + xs[i] * fx[i]
        num = num - fx[0] * fx[n - 2] - fj
        row = [0.0] * n
        try:
            row[0] = num / fy
        except DenominatorVanishes as exc:
            raise SingularEntry(n, 1, p, exc) from None
        for c in range(1, n - 1):
            try:
                row[c] = -((fx[c - 1] + fx[c] * fx[n - 2]) / fy)
            except DenominatorVanishes as exc:
                raise SingularEntry(n, c + 1, p, exc) from None
        row[n - 1] = -fx[n - 2]
        rows.append(row)
        return rows

    def guard(p):
        return abs(f(p).gradient[..., -1])

    return OperatorField(n, rule, label=label, guard=guard)


def build_morse_canonical(n: int, sign: int,
                          label: str = "morse-canonical") -> OperatorField:
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

    def rule(p):
        y = coordinate_jet(n, p)
        rows = []
        for i in range(n - 2):
            row = [0.0] * n
            row[0] = -coordinate_jet(i + 1, p)
            row[i + 1] = 1.0
            rows.append(row)
        row = [0.0] * n
        row[0] = -coordinate_jet(n - 1, p)
        row[n - 1] = (2.0 * sign) * y
        rows.append(row)
        row = [0.0] * n
        row[0] = (-0.5) * y
        rows.append(row)
        return rows

    return OperatorField(n, rule, label=f"{label}({sign:+d})")


def conjugation_residual(f: ScalarField, n: int, p: Sequence[float],
                         L: OperatorField | None = None) -> tuple:
    """Residual and magnitude scale of the identity J L = Ltilde J at p.

    J here is the specialized Jacobi matrix of (x_1, ..., x_(n-1), f): an
    identity block over the gradient row of f. Ltilde is the companion
    matrix of (p_1, ..., p_(n-1), f(p)). L defaults to the regular family
    of f. Returns (max |J L - Ltilde J|, 1 + max entry magnitude of the
    two products), each of the batch shape p.shape[:-1].
    """
    if L is None:
        L = build_regular_family(f, n)
    p = np.asarray(p, dtype=float)
    fj = f(p)
    Lv = operator_eval(L, p).values
    J = np.zeros(p.shape[:-1] + (n, n))
    J[...] = np.eye(n)
    J[..., n - 1, :] = fj.gradient
    Ltilde = companion_matrix(
        np.concatenate([p[..., :n - 1], fj.value[..., None]], axis=-1))
    left = J @ Lv
    right = Ltilde @ J
    axes = (-2, -1)
    resid = np.max(np.abs(left - right), axis=axes)
    scale = 1.0 + np.maximum(np.max(np.abs(left), axis=axes),
                             np.max(np.abs(right), axis=axes))
    return resid[()], scale[()]
