"""Singular-determinant machinery: smoothness fractions, the remainder PDE
system, and numerical parametric Morse reduction.

The regular family's last row is made of quotients over f_y. Where f_y
vanishes, the operator extends smoothly only if the quotient numerators
vanish too; ``smoothness_numerators`` classifies a point accordingly.
When the determinant coefficient has a Morse critical point in y,
``morse_reduce`` splits f = sign*(y - c(x))^2-part + R(x) numerically, and
``pde_residuals`` evaluates the system the remainder R must satisfy for the
operator to extend across the singular locus (whose only smooth solution is
R = 0 for n > 2, with the extra planar solution R = x1^2/4 at n = 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .jet import Jet2, stack_jets
from .expr import Call, Const, Neg, Pow, Var, parse_expression
from .field import ScalarField
from .report import (VerificationReport, CheckResult, normalize_box,
                     run_sweep)

__all__ = [
    "FractionDiagnostic",
    "PdeResiduals",
    "MorseData",
    "NonMorseError",
    "NewtonDivergenceError",
    "smoothness_numerators",
    "pde_residuals",
    "morse_reduce",
    "quadratic_factor",
    "morse_coordinate",
    "verify_morse_normal_form",
    "morse_remainder_field",
    "verify_pde",
    "remainder_from_expression",
    "EPS_MORSE",
    "DELTA_TAYLOR",
]

# Below this |f_yy| the critical point is declared non-Morse: the reducer
# refuses rather than producing garbage.
EPS_MORSE = 1e-6

# Within |y - c| < DELTA_TAYLOR the raw quotient (f - R)/(y - c)^2 loses all
# precision, so the quadratic factor switches to a Taylor-based evaluation.
DELTA_TAYLOR = 1e-3


class NonMorseError(ArithmeticError):
    """The critical point of y -> f(x, y) has |f_yy| below EPS_MORSE."""

    def __init__(self, x, c: float, fyy: float):
        self.x = np.asarray(x, dtype=float)
        self.c = float(c)
        self.fyy = float(fyy)
        super().__init__(
            f"non-Morse critical point at x={self.x.tolist()}, y={c!r} "
            f"(f_yy = {fyy:.6e})")


class NewtonDivergenceError(ArithmeticError):
    """Newton iteration on f_y failed to converge."""

    def __init__(self, x, y0: float, iters: int, detail: str):
        self.x = np.asarray(x, dtype=float)
        self.y0 = float(y0)
        self.iters = iters
        super().__init__(
            f"Newton iteration diverged from y0={y0!r} at "
            f"x={self.x.tolist()} after {iters} iterations: {detail}")


@dataclass
class FractionDiagnostic:
    """Pointwise classification of the quotient entries' smoothness.

    numerators[0] = sum_i x_i f_xi - f_x1 f_x(n-1) - f, and numerators[j-1]
    = f_x(j-1) + f_xj f_x(n-1) for j = 2..n-1 (the quotient numerators of
    the family's last row, up to sign). denominator = f_y(p).
    """

    point: np.ndarray
    numerators: np.ndarray
    denominator: float
    verdict: str


@dataclass
class PdeResiduals:
    """Residuals of the remainder system at a base point x.

    r0 is the first equation sum x_i R_i - R_1 R_(n-1) - R. chain holds
    R_(j-1) + R_j R_(n-1) for j = 2..n-1. relations holds the equivalent
    power form R_(n-i) - (-1)^(i-1) R_(n-1)^i for i = 2..n-1. factor2 is
    n R_1 + (n-1) x_1 R_2 + ... + 2 x_(n-2) R_(n-1) - x_(n-1); it is
    informational, not a pass gate: R = 0 solves the system through the
    other factor of the equation it came from while factor2 = -x_(n-1).
    """

    r0: float
    chain: np.ndarray
    relations: np.ndarray
    factor2: float

    def system_max(self) -> float:
        """Max |residual| over the gating system (r0, chain, relations)."""
        parts = [abs(self.r0)]
        if self.chain.size:
            parts.append(float(np.max(np.abs(self.chain))))
        if self.relations.size:
            parts.append(float(np.max(np.abs(self.relations))))
        return max(parts)


@dataclass
class MorseData:
    """Result of the parametric reduction at a base point x.

    c is the critical point of y -> f(x, y), R = f(x, c), sign the sign of
    f_yy there. newton_iters counts jet evaluations of f (convergence is
    checked before each step, so an already-critical seed reports 1).
    """

    x: np.ndarray
    c: float
    R: float
    sign: int
    newton_iters: int
    fyy: float


def smoothness_numerators(f: ScalarField, n: int, p: Sequence[float],
                          eps_div: float = 1e-12,
                          tol_num: float = 1e-10) -> FractionDiagnostic:
    """Classify p as regular / singular-denominator-zero-numerators / obstructed.

    regular: |f_y| >= eps_div (the quotients are plainly smooth there).
    Otherwise the denominator vanishes and the verdict depends on the
    numerators: all below tol_num (scaled) means the fractions can still
    extend smoothly; any larger numerator is an obstruction.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if f.dim != n:
        raise ValueError(f"f has dimension {f.dim}, expected {n}")
    p = np.asarray(p, dtype=float)
    fj = f(p)
    g = fj.gradient
    fx = g[:n - 1]
    fy = float(g[n - 1])
    n0 = float(np.dot(p[:n - 1], fx) - fx[0] * fx[n - 2] - fj.value)
    numerators = [n0]
    for c in range(1, n - 1):
        numerators.append(float(fx[c - 1] + fx[c] * fx[n - 2]))
    numerators = np.asarray(numerators)
    scale = 1.0 + abs(fj.value) + float(np.max(np.abs(g)))
    if abs(fy) >= eps_div:
        verdict = "regular"
    elif np.any(np.abs(numerators) > tol_num * scale):
        verdict = "obstructed"
    else:
        verdict = "singular-denominator-zero-numerators"
    return FractionDiagnostic(point=p, numerators=numerators,
                              denominator=fy, verdict=verdict)


def remainder_from_expression(text: str, n: int) -> ScalarField:
    """Parse a remainder R(x1..x(n-1)) as a field over the base coordinates.

    The text is parsed with the full n-variable grammar so the base
    coordinates keep their natural names x1..x(n-1); any reference to the
    fiber coordinate y is rejected. The returned field has dimension n - 1.
    """
    ast = parse_expression(text, n)

    def uses_y(e) -> bool:
        if isinstance(e, Var):
            return e.index == n
        if isinstance(e, Const):
            return False
        if isinstance(e, Neg):
            return uses_y(e.operand)
        if isinstance(e, Pow):
            return uses_y(e.base)
        if isinstance(e, Call):
            return uses_y(e.arg)
        return uses_y(e.left) or uses_y(e.right)

    if uses_y(ast):
        raise ValueError(
            f"a remainder must be a function of x1..x{n - 1} only; "
            "it may not reference y")
    return ScalarField.from_expression(ast, n - 1)


def pde_residuals(R: ScalarField, n: int, x: Sequence[float]) -> PdeResiduals:
    """Evaluate the remainder system for R(x_1, ..., x_(n-1)) at x."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    m = n - 1
    if R.dim != m:
        raise ValueError(
            f"R must depend on {m} variables for n={n}, got dim {R.dim}")
    x = np.asarray(x, dtype=float)
    jet = R(x)
    g = jet.gradient
    last = float(g[m - 1])
    r0 = float(np.dot(x, g) - g[0] * last - jet.value)
    chain = np.asarray([float(g[c - 1] + g[c] * last)
                        for c in range(1, m)])
    relations = np.asarray([float(g[m - i] - (-1.0) ** (i - 1) * last ** i)
                            for i in range(2, m + 1)])
    factor2 = n * float(g[0]) - float(x[m - 1])
    for k in range(2, m + 1):
        factor2 += (n - k + 1) * float(x[k - 2]) * float(g[k - 1])
    return PdeResiduals(r0=r0, chain=chain, relations=relations,
                        factor2=factor2)


def morse_reduce(f: ScalarField, n: int, x: Sequence[float],
                 y0: float = 0.0, max_iters: int = 50,
                 tol_newton: float = 1e-13) -> MorseData:
    """Newton on y -> f_y(x, y) from y0; returns the critical-slice data.

    Raises NonMorseError when |f_yy| < EPS_MORSE at the critical point, and
    NewtonDivergenceError when the iteration cannot converge (iterate escapes,
    the step divisor f_yy vanishes away from a root, or iterations run out).
    """
    if f.dim != n:
        raise ValueError(f"f has dimension {f.dim}, expected {n}")
    x = np.asarray(x, dtype=float)
    if x.shape != (n - 1,):
        raise ValueError(f"base point must have {n - 1} coordinates")
    y = float(y0)
    for it in range(1, max_iters + 1):
        jet = f(np.append(x, y))
        fy = float(jet.gradient[n - 1])
        fyy = float(jet.hessian[n - 1, n - 1])
        if abs(fy) <= tol_newton * (1.0 + abs(fyy)):
            if abs(fyy) < EPS_MORSE:
                raise NonMorseError(x, y, fyy)
            sign = 1 if fyy > 0 else -1
            return MorseData(x=x, c=y, R=float(jet.value), sign=sign,
                             newton_iters=it, fyy=fyy)
        if abs(fyy) < EPS_MORSE:
            # not at a root of f_y, yet the Newton divisor has vanished
            raise NewtonDivergenceError(
                x, y0, it, f"f_yy vanished at y={y!r} with f_y={fy!r}")
        y = y - fy / fyy
        if not math.isfinite(y) or abs(y) > 1e8:
            raise NewtonDivergenceError(x, y0, it, f"iterate left the domain (y={y!r})")
    raise NewtonDivergenceError(x, y0, max_iters,
                                "maximum iterations reached")


def quadratic_factor(f: ScalarField, data: MorseData, y: float) -> float:
    """The factor g(x, y) with f(x, y) = data.R + g * (y - c)^2.

    Away from the critical point this is the raw quotient. Within
    |y - c| < DELTA_TAYLOR the quotient cancels catastrophically, so g is
    evaluated as f_yy(x, c + (y - c)/3) / 2: probing the second derivative
    a third of the way toward y matches the exact factor to second order
    in (y - c).
    """
    d = float(y) - data.c
    base = data.x
    if abs(d) >= DELTA_TAYLOR:
        value = float(f(np.append(base, y)).value)
        return (value - data.R) / (d * d)
    probe = data.c + d / 3.0
    jet = f(np.append(base, probe))
    return float(jet.hessian[-1, -1]) / 2.0


def morse_coordinate(f: ScalarField, data: MorseData, y: float) -> float:
    """The reduced coordinate ytilde = (y - c) * sqrt(|g(x, y)|).

    Fixed to be positive for y > c (orientation is a free choice the
    reduction has to make).
    """
    g = quadratic_factor(f, data, y)
    return (float(y) - data.c) * math.sqrt(abs(g))


def verify_morse_normal_form(f: ScalarField, n: int, box,
                             grid: int = 21, tol: float = 1e-9,
                             y0: float = 0.0,
                             collect: bool = False) -> VerificationReport:
    """Check f(x, y) = sign * ytilde^2 + R(x) on a full grid over the box.

    The box covers all n axes; the first n-1 are the base grid (one Newton
    reduction per slice), the last is the y grid. Reduction failures
    propagate (they are errors of the input, not sample rejections).
    """
    import itertools
    import time
    if grid < 2:
        raise ValueError(f"grid must be >= 2 points per axis, got {grid}")
    t0 = time.perf_counter()
    bounds = normalize_box(box, n)
    axes = [np.linspace(lo, hi, grid) for lo, hi in bounds[:n - 1]]
    y_axis = np.linspace(bounds[n - 1, 0], bounds[n - 1, 1], grid)
    max_defect = 0.0
    worst: Optional[np.ndarray] = None
    count = 0
    rows = [] if collect else None
    for base in itertools.product(*axes):
        data = morse_reduce(f, n, np.asarray(base), y0=y0)
        for y in y_axis:
            p = np.append(data.x, y)
            ytil = morse_coordinate(f, data, y)
            value = float(f(p).value)
            defect = abs(value - (data.sign * ytil * ytil + data.R))
            count += 1
            if worst is None or defect > max_defect:
                max_defect = defect
                worst = p
            if collect:
                rows.append((p, defect, defect, {}))
    passed = max_defect <= tol
    report = VerificationReport(
        subject=f"normal-form defect grid for f={f.label or '<rule>'}",
        params={"dim": n, "f": f.label, "grid": grid, "tol": tol, "y0": y0},
        accepted=count, rejected=0, max_residual=max_defect,
        worst_point=worst,
        checks=[CheckResult("normal_form_defect", max_defect, passed)],
        passed=passed, wall_ms=(time.perf_counter() - t0) * 1e3,
        points=rows)
    return report


def morse_remainder_field(f: ScalarField, n: int,
                          y0: float = 0.0) -> ScalarField:
    """The remainder R(x) = f(x, c(x)) as a scalar field over the base.

    Gradient and Hessian follow from implicit differentiation of
    f_y(x, c(x)) = 0: dR/dx_i = f_xi(x, c), and the Hessian picks up the
    rank-one correction -f_xy f_xy^T / f_yy. Every evaluation runs its own
    Newton reduction from the same fixed seed, keeping the field pure.
    """
    if f.dim != n:
        raise ValueError(f"f has dimension {f.dim}, expected {n}")
    m = n - 1

    def rule(x):
        if x.ndim > 1:
            batch = x.shape[:-1]
            return stack_jets([rule(xi) for xi in x.reshape(-1, m)], batch)
        data = morse_reduce(f, n, x, y0=y0)
        jet = f(np.append(x, data.c))
        grad = jet.gradient[:m].copy()
        cross = jet.hessian[:m, m]
        cgrad = -cross / data.fyy
        hess = jet.hessian[:m, :m] + np.outer(cross, cgrad)
        return Jet2(data.R, grad, hess)

    return ScalarField(rule, m, label=f"remainder of {f.label or '<rule>'}")


def verify_pde(R: ScalarField, n: int, points, tol: float = 1e-10,
               subject: str = "", params: Optional[dict] = None,
               collect: bool = False) -> VerificationReport:
    """Sweep of the remainder system over base points.

    Gate is the absolute system max (the residuals are polynomial in the
    jet outputs); factor2 rides along as a non-gating check. Each chunk is
    evaluated point by point, since R may run a Newton reduction per point.
    """
    def eval_chunk(X):
        res = [pde_residuals(R, n, x) for x in X]
        raw = np.array([r.system_max() for r in res])
        return raw, raw, {"factor2": np.array([r.factor2 for r in res])}

    return run_sweep(
        points, eval_chunk, tol,
        subject=subject or f"remainder system sweep for R={R.label or '<rule>'}",
        params=params if params is not None else
        {"dim": n, "R": R.label, "tol": tol},
        gate_name="pde_system",
        extra_checks=("factor2",), collect=collect)
