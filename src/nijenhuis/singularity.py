"""Singular-determinant machinery: smoothness fractions, the remainder PDE
system, and numerical parametric Morse reduction.

The regular family's last row is made of quotients over f_y. Where f_y
vanishes, the operator extends smoothly only if the quotient numerators
vanish too; ``smoothness_numerators`` classifies a point accordingly.
When the determinant coefficient has a Morse critical point in y,
``morse_reduce`` splits f = sign*(y - c(x))^2-part + R(x) numerically, and
``pde_residuals`` evaluates the system the remainder R must satisfy for the
operator to extend across the singular locus. R = 0 solves it, as do the
affine remainders R_t = -((-t)^n + (-t)^(n-1) x1 + ... + (-t) x_(n-1))
(checked for several t at n = 2, 3, 4) and, at n = 2, R = x1^2/4.

The reduction, its quadratic factor and the normal-form defect read only
f, f_y and f_yy, so they evaluate f's fiber jet, ``f(p, fiber=True)``,
which differentiates along y alone. A reduction that fails (non-Morse, or
Newton diverges) raises a SingularPointError whose mask marks the failing
base points, so a remainder sweep rejects them like any singular point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .jet import Jet2, SingularPointError, _outer
from .expr import Var, parse_expression
from .field import ScalarField
from .report import (Identity, VerificationReport, first_failure,
                     normalize_box, run_sweep)

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

# The thresholds of smoothness_numerators and morse_reduce (see there).
EPS_DIV, TOL_NUM = 1e-12, 1e-10
MAX_NEWTON_ITERS, TOL_NEWTON = 50, 1e-13


class NonMorseError(SingularPointError):
    """The critical point of y -> f(x, y) has |f_yy| below EPS_MORSE.

    Like NewtonDivergenceError, it names the first failing base point x;
    morse_reduce sets its mask (see there).
    """

    def __init__(self, x, c: float, fyy: float):
        self.x = np.asarray(x, dtype=float)
        self.c = float(c)
        self.fyy = float(fyy)
        super().__init__(
            f"non-Morse critical point at x={self.x.tolist()}, y={c!r} "
            f"(f_yy = {fyy:.6e})")


class NewtonDivergenceError(SingularPointError):
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
    """Classification of the quotient entries' smoothness at points p (..., n).

    numerators[..., 0] = sum_i x_i f_xi - f_x1 f_x(n-1) - f, and
    numerators[..., j-1] = f_x(j-1) + f_xj f_x(n-1) for j = 2..n-1 (the
    quotient numerators of the family's last row, up to sign), so
    numerators has shape (..., n-1). denominator = f_y(p) and verdict have
    p's batch shape (a Python float and str at batch ()).
    """

    point: np.ndarray
    numerators: np.ndarray
    denominator: Union[float, np.ndarray]
    verdict: Union[str, np.ndarray]


@dataclass
class PdeResiduals:
    """Residuals of the remainder system at base points x (..., n-1).

    r0 is the first equation sum x_i R_i - R_1 R_(n-1) - R. chain holds
    R_(j-1) + R_j R_(n-1) for j = 2..n-1. relations holds the equivalent
    power form R_(n-i) - (-1)^(i-1) R_(n-1)^i for i = 2..n-1. factor2 is
    n R_1 + (n-1) x_1 R_2 + ... + 2 x_(n-2) R_(n-1) - x_(n-1); it is
    informational, not a pass gate: R = 0 solves the system through the
    other factor of the equation it came from while factor2 = -x_(n-1).
    Fields have x's batch shape, chain and relations one more axis.
    """

    r0: np.ndarray
    chain: np.ndarray
    relations: np.ndarray
    factor2: np.ndarray

    def system_max(self) -> np.ndarray:
        """Max |residual| over the gating system (r0, chain, relations),
        one value per point (batch shape)."""
        parts = np.concatenate([np.expand_dims(self.r0, -1), self.chain,
                                self.relations], axis=-1)
        return np.max(np.abs(parts), axis=-1)


@dataclass
class MorseData:
    """Result of the parametric reduction at base points x (..., n-1).

    c is the critical point of y -> f(x, y), R = f(x, c), sign the sign of
    f_yy there, each of x's batch shape (Python scalars at batch ()).
    newton_iters counts batched jet evaluations of f (convergence is
    checked before each step, so an already-critical seed reports 1), and
    iters, of x's batch shape (an int at batch ()), the evaluations each
    point was live for: what newton_iters is for that point alone.
    """

    x: np.ndarray
    c: Union[float, np.ndarray]
    R: Union[float, np.ndarray]
    sign: Union[int, np.ndarray]
    newton_iters: int
    fyy: Union[float, np.ndarray]
    iters: Union[int, np.ndarray]


def _numerators(x, g, value) -> tuple:
    """The quotient numerators of the regular family's last row, from the
    base coordinates x (..., m), a gradient g (..., m) over them and a
    value: sum_i x_i g_i - g_1 g_m - value, and g_(j-1) + g_j g_m for
    j = 2..m (shape (..., m-1))."""
    last = g[..., -1:]
    # x . g as a matmul rounds as np.dot does; a sum or einsum does not
    dot = (x[..., None, :] @ g[..., :, None])[..., 0, 0]
    return (dot - g[..., 0] * last[..., 0] - value,
            g[..., :-1] + g[..., 1:] * last)


def smoothness_numerators(f: ScalarField, n: int,
                          p: Sequence[float]) -> FractionDiagnostic:
    """Classify the points p (..., n) as regular /
    singular-denominator-zero-numerators / obstructed.

    regular: |f_y| >= EPS_DIV (the quotients are plainly smooth there).
    Otherwise the denominator vanishes and the verdict depends on the
    numerators: all below TOL_NUM (scaled) means the fractions can still
    extend smoothly; any larger numerator is an obstruction.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if f.dim != n:
        raise ValueError(f"f has dimension {f.dim}, expected {n}")
    p = np.asarray(p, dtype=float)
    fj = f(p)
    g = fj.gradient
    fy = g[..., n - 1]
    n0, chain = _numerators(p[..., :n - 1], g[..., :n - 1], fj.value)
    numerators = np.concatenate([n0[..., None], chain], axis=-1)
    scale = 1.0 + np.abs(fj.value) + np.max(np.abs(g), axis=-1)
    obstructed = np.any(np.abs(numerators) > TOL_NUM * scale[..., None],
                        axis=-1)
    verdict = np.where(np.abs(fy) >= EPS_DIV, "regular",
                       np.where(obstructed, "obstructed",
                                "singular-denominator-zero-numerators"))
    if not verdict.ndim:
        fy, verdict = float(fy), str(verdict)
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
        # a node's fields are its operands and plain values
        return any(uses_y(v) for v in vars(e).values()
                   if not isinstance(v, (int, float, str)))

    if uses_y(ast):
        raise ValueError(
            f"a remainder must be a function of x1..x{n - 1} only; "
            "it may not reference y")
    return ScalarField.from_expression(ast, n - 1)


def pde_residuals(R: ScalarField, n: int, x) -> PdeResiduals:
    """Evaluate the remainder system for R(x_1..x_(n-1)) at x (..., n-1).

    The system is the vanishing of R's quotient numerators: r0 and chain
    are ``smoothness_numerators``' formulas with R and its gradient in
    place of f and f_x."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    m = n - 1
    if R.dim != m:
        raise ValueError(
            f"R must depend on {m} variables for n={n}, got dim {R.dim}")
    x = np.asarray(x, dtype=float)
    jet = R(x)
    g = jet.gradient
    last = g[..., m - 1:]
    r0, chain = _numerators(x, g, jet.value)
    # (-R_(n-1))^i by Python's float pow: numpy's power rounds differently
    powers = np.arange(2, m + 1)
    neg_last_pow = ((-last).astype(object) ** powers).astype(float)
    relations = g[..., m - powers] + neg_last_pow
    factor2 = n * g[..., 0] - x[..., m - 1]
    for k in range(2, m + 1):
        factor2 = factor2 + (n - k + 1) * x[..., k - 2] * g[..., k - 1]
    return PdeResiduals(r0=r0, chain=chain, relations=relations,
                        factor2=factor2)


def morse_reduce(f: ScalarField, n: int, x, y0: float = 0.0) -> MorseData:
    """Newton on y -> f_y(x, y) from y0 at base points x (..., n-1).

    All live points step together, one batched evaluation of f's fiber
    jet (f, f_y, f_yy) per step; a point stops where |f_y| <= TOL_NEWTON *
    (1 + |f_yy|). Raises the error of the first failing point in C order:
    NonMorseError when |f_yy| < EPS_MORSE at the critical point,
    NewtonDivergenceError when the iteration cannot converge (iterate
    escapes, the step divisor f_yy vanishes away from a root, or
    MAX_NEWTON_ITERS run out), or f's error. A failing point stops, and
    the others iterate on, so the error's mask, in x's batch shape, marks
    every point whose own reduction fails (at any step, f's masked errors
    included, and every point still live when the iterations run out). An
    error of f without a usable mask names no point and is raised as it is.
    """
    if f.dim != n:
        raise ValueError(f"f has dimension {f.dim}, expected {n}")
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != n - 1:
        raise ValueError(f"base point must have {n - 1} coordinates")
    batch = x.shape[:-1]
    X = x.reshape(-1, n - 1)
    y = np.full(len(X), float(y0))
    R, fyy_at_c = np.empty((2, len(X)))   # at convergence, where c = y
    live = np.arange(len(X))
    iters = np.zeros(len(X), dtype=int)
    # The error of the first point in C order that failed so far, that
    # point, and every point that failed: the live points after the first
    # can no longer fail first, but they iterate on, so that the error's
    # mask marks every failing point and a sweep rejects them in one go.
    failure, first = None, len(X)
    failed = np.zeros(len(X), dtype=bool)
    calls = it = 0
    while live.size and it < MAX_NEWTON_ITERS:
        calls += 1
        iters[live] += 1
        try:
            jet = f(np.column_stack((X[live], y[live])), fiber=True)
        except ArithmeticError as exc:
            mask = getattr(exc, "mask", None)
            if np.shape(mask) != live.shape or not mask.any():
                raise   # it names no point
            bad = live[mask]
            failed[bad] = True
            if bad[0] < first:
                failure, first = exc, bad[0]
            live = live[~mask]
            continue
        it += 1
        fy, fyy = jet.gradient[:, -1], jet.hessian[:, -1, -1]
        done = np.abs(fy) <= TOL_NEWTON * (1.0 + np.abs(fyy))
        flat = np.abs(fyy) < EPS_MORSE
        ok, step = done & ~flat, ~done & ~flat
        R[live[ok]], fyy_at_c[live[ok]] = jet.value[ok], fyy[ok]
        with np.errstate(over="ignore"):   # an overflowing step escapes
            y[live[step]] -= fy[step] / fyy[step]
        bad = flat | (step & ~(np.abs(y[live]) <= 1e8))   # or escaped
        if bad.any():
            failed[live[bad]] = True
            j = int(np.argmax(bad))
            if live[j] < first:
                first = k = live[j]
                if done[j]:
                    failure = NonMorseError(X[k], float(y[k]),
                                            float(fyy[j]))
                elif flat[j]:
                    # not at a root of f_y, yet the Newton divisor vanished
                    failure = NewtonDivergenceError(
                        X[k], y0, it, f"f_yy vanished at y={float(y[k])!r} "
                                      f"with f_y={float(fy[j])!r}")
                else:
                    failure = NewtonDivergenceError(
                        X[k], y0, it, f"iterate left the domain "
                                      f"(y={float(y[k])!r})")
            step &= ~bad
        live = live[step]
    if live.size:
        failed[live] = True
        if live[0] < first:
            failure = NewtonDivergenceError(X[live[0]], y0, MAX_NEWTON_ITERS,
                                            "maximum iterations reached")
    if failure is not None:
        failure.mask = failed.reshape(batch)
        raise failure
    c, R, sign, fyy_at_c, iters = (
        a.reshape(batch) if batch else a.item() for a in
        (y, R, np.where(fyy_at_c > 0, 1, -1), fyy_at_c, iters))
    return MorseData(x=x, c=c, R=R, sign=sign, newton_iters=calls,
                     fyy=fyy_at_c, iters=iters)


def _straighten(f: ScalarField, data: MorseData, y):
    """quadratic_factor's g at y, from one evaluation of f's fiber jet at
    probe points: y itself where far = |y - c| >= DELTA_TAYLOR, and
    c + (y - c)/3 elsewhere. Returns g, that jet's values (f at y where
    far) and far."""
    d = np.asarray(np.subtract(y, data.c))
    far = np.abs(d) >= DELTA_TAYLOR
    probe = np.where(far, y, data.c + d / 3.0)
    jet = f(np.concatenate([data.x, probe[..., None]], axis=-1), fiber=True)
    # the quotient runs on the far points only: near ones may have d = 0
    g = np.divide(jet.value - data.R, d * d, where=far,
                  out=np.asarray(jet.hessian[..., -1, -1] / 2.0))[()]
    return g, jet.value, far


def quadratic_factor(f: ScalarField, data: MorseData, y):
    """The factor g(x, y) with f(x, y) = data.R + g * (y - c)^2 (y of
    data's batch shape), from one evaluation of f's fiber jet.

    Away from the critical point this is the raw quotient, which reads f
    at y itself. Within |y - c| < DELTA_TAYLOR the quotient cancels
    catastrophically, so g is evaluated as f_yy(x, c + (y - c)/3) / 2:
    probing the second derivative a third of the way toward y matches the
    exact factor to second order in (y - c).
    """
    return _straighten(f, data, y)[0]


def morse_coordinate(f: ScalarField, data: MorseData, y):
    """The reduced coordinate ytilde = (y - c) * sqrt(|g(x, y)|).

    Fixed to be positive for y > c (orientation is a free choice the
    reduction has to make).
    """
    g = quadratic_factor(f, data, y)
    return np.subtract(y, data.c) * np.sqrt(np.abs(g))


def verify_morse_normal_form(f: ScalarField, n: int, box,
                             grid: int = 21, tol: float = 1e-9,
                             y0: float = 0.0) -> VerificationReport:
    """Check f(x, y) = sign * ytilde^2 + R(x) on a full grid over the box.

    The box covers all n axes; the grid runs over x1..x(n-1), y in C
    order through run_sweep, which reduces, straightens and measures each
    chunk; every step reads f's fiber jet only. Beyond Newton's
    evaluations, a chunk straightens with one evaluation of f, which the
    defect reuses for f at the grid points away from c(x) (|y - c| >=
    DELTA_TAYLOR), and evaluates f once more at the near points, if there
    are any (the straightening probed those off y). The defect is gated
    relative to 1 + max(|f|, |sign * ytilde^2|, |R|), the size of its
    terms, so a large f does not fail on rounding. A failing chunk is
    replayed point by point (``first_failure``): the first failing grid
    point's error in C order, as that point alone gives it, propagates as
    a plain ArithmeticError of the same text, an error of the input, not a
    sample rejection. The worst point is the first grid point of largest
    defect; the records hold every grid point and its defect.
    """
    if grid < 2:
        raise ValueError(f"grid must be >= 2 points per axis, got {grid}")
    axes = [np.linspace(lo, hi, grid) for lo, hi in normalize_box(box, n)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, n)

    def defect(P):
        data = morse_reduce(f, n, P[..., :-1], y0=y0)
        y = P[..., -1]
        g, fv, far = _straighten(f, data, y)
        ytil = np.subtract(y, data.c) * np.sqrt(np.abs(g))
        if not far.all():   # the near points were probed off y
            fv = np.array(fv)   # a copy: the jet's value may be a view
            fv[~far] = f(P[~far], fiber=True).value
        quad = data.sign * ytil * ytil
        return (np.abs(fv - (quad + data.R)),
                1.0 + np.max(np.abs([fv, quad, data.R]), axis=0))

    def residual(ev, P, src):
        try:
            return first_failure(P, defect)
        except SingularPointError as exc:
            raise ArithmeticError(str(exc)) from exc

    return run_sweep(
        points, [Identity("normal_form_defect", tol, residual)])[0]


def morse_remainder_field(f: ScalarField, n: int) -> ScalarField:
    """The remainder R(x) = f(x, c(x)) as a scalar field over the base.

    Gradient and Hessian follow from implicit differentiation of
    f_y(x, c(x)) = 0: dR/dx_i = f_xi(x, c), and the Hessian picks up the
    rank-one correction -f_xy f_xy^T / f_yy. Every evaluation runs its own
    Newton reduction from the fixed seed y0 = 0, keeping the field pure.
    """
    if f.dim != n:
        raise ValueError(f"f has dimension {f.dim}, expected {n}")
    m = n - 1

    def rule(x):
        data = morse_reduce(f, n, x)
        jet = f(np.concatenate([x, np.expand_dims(data.c, -1)], axis=-1))
        cross = jet.hessian[..., :m, m]
        cgrad = -cross / np.expand_dims(data.fyy, -1)
        hess = jet.hessian[..., :m, :m] + _outer(cross, cgrad)
        return Jet2(data.R, jet.gradient[..., :m], hess)

    return ScalarField(rule, m, label=f"remainder of {f.label or '<rule>'}")


def verify_pde(R: ScalarField, n: int, points,
               tol: float = 1e-10) -> VerificationReport:
    """Sweep of the remainder system over base points.

    Gate is the absolute system max (the residuals are polynomial in the
    jet outputs); factor2 rides along as a non-gating check.
    """
    def residual(ev, X, src):
        res = pde_residuals(R, n, X)
        return res.system_max(), 1.0, {"factor2": res.factor2}

    return run_sweep(points, [Identity("pde_system", tol, residual)])[0]
