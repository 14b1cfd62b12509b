"""Scalar and operator (1,1-tensor) fields evaluated through jets.

An operator field is an n x n matrix of scalar fields. Evaluation returns
the entry values and entry gradients together (``OperatorEval``), which is
exactly the data the coordinate torsion formula consumes. Entry Hessians
are deliberately not part of the contract: derived families carry partial
derivatives of a generating function inside their entries, and an order-2
jet of the generator cannot supply entry second derivatives. Entry values
and gradients stay exact because jet value/gradient propagation never reads
operand Hessians.

Points axis: every evaluation takes one point of shape (n,) or an array of
points of shape (..., n), the leading axes being the batch shape. A scalar
field returns a ``Jet2`` of that batch shape; ``operator_eval`` returns
values (..., n, n) and entry gradients (..., n, n, n). Rules
(``ScalarField.rule``, ``OperatorField.matrix_rule``) and guards receive
the whole array and answer for all of its points; a guard returns one
margin per point. Jet evaluation raises numpy overflow and invalid
operations as ``FloatingPointError`` (an ArithmeticError), so an
overflowing point fails loudly instead of turning into inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .jet import Jet2, SingularPointError, broadcast_jet, constant_jet
from .expr import Expr, evaluate, format_expression, parse_expression

__all__ = [
    "ScalarField",
    "OperatorField",
    "OperatorEval",
    "SingularEntry",
    "operator_eval",
    "as_jet",
]

# Floating-point policy of every jet evaluation: an overflow or an invalid
# operation raises instead of leaving inf or nan in a jet.
JET_ERRSTATE = dict(over="raise", invalid="raise")


def _points(p, dim: int, what: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim == 0 or p.shape[-1] != dim:
        raise ValueError(
            f"point has dimension {p.shape}, {what} expects {dim}")
    return p


class SingularEntry(SingularPointError):
    """An operator entry could not be evaluated at the point.

    Row and column are 1-based, matching the usual matrix display.

    When the cause carries a mask of failing points (a batched
    evaluation), the mask is kept and ``point`` holds the failing points.
    """

    def __init__(self, row: int, col: int, point, cause: Exception):
        self.row = row
        self.col = col
        self.mask = getattr(cause, "mask", None)
        point = np.asarray(point, dtype=float)
        if np.ndim(self.mask):
            point = point[self.mask]
        self.point = point
        self.cause = cause
        where = "point" if point.ndim == 1 else "points"
        super().__init__(
            f"entry ({row},{col}) singular at {where} "
            f"{self.point.tolist()}: {cause}")


class ScalarField:
    """A scalar function of n variables, evaluated to an order-2 jet.

    ``f(p)`` takes a point (n,) or points (..., n) and returns a jet of
    batch shape p.shape[:-1].
    """

    def __init__(self, rule: Callable[[np.ndarray], Jet2], dim: int,
                 label: str = ""):
        self.rule = rule
        self.dim = int(dim)
        self.label = label

    def __call__(self, p: Sequence[float]) -> Jet2:
        p = _points(p, self.dim, "field")
        with np.errstate(**JET_ERRSTATE):
            return broadcast_jet(self.rule(p), p.shape[:-1])

    def __repr__(self) -> str:
        return f"ScalarField(dim={self.dim}, label={self.label!r})"

    @classmethod
    def from_expression(cls, source: Union[str, Expr], dim: int) -> "ScalarField":
        """Build a field from expression text (or a parsed AST) in dimension dim."""
        if isinstance(source, str):
            ast = parse_expression(source, dim)
        else:
            ast = source
        return cls(lambda p: evaluate(ast, p), dim, format_expression(ast))

    @classmethod
    def constant(cls, c: float, dim: int) -> "ScalarField":
        return cls(lambda p: constant_jet(c, dim), dim, repr(float(c)))


def as_jet(x, dim: int) -> Jet2:
    """Coerce a matrix-rule entry (jet or plain number) to a jet."""
    if isinstance(x, Jet2):
        return x
    return constant_jet(float(x), dim)


@dataclass
class OperatorEval:
    """Operator data at points: values L[i,j] and gradients d L[i,j] / d x_k."""

    point: np.ndarray         # shape (..., n)
    values: np.ndarray        # shape (..., n, n)
    entry_grads: np.ndarray   # shape (..., n, n, n), last axis the derivative


class OperatorField:
    """An n x n operator field L with optional sampling guard.

    ``matrix_rule(p)`` returns the full matrix of entry jets at the points
    p in one shot, which lets families share one jet evaluation of their
    generating function across all entries; entries may be plain numbers.
    ``guard(p)``, when present, returns a nonnegative margin per point;
    sweeps reject points whose margin falls below their threshold before
    touching the entries (denominator about to vanish).
    """

    def __init__(self, dim: int,
                 matrix_rule: Callable[[np.ndarray], Sequence[Sequence]],
                 label: str = "",
                 guard: Optional[Callable[[np.ndarray], float]] = None):
        self.dim = int(dim)
        self.matrix_rule = matrix_rule
        self.label = label
        self.guard = guard

    def __repr__(self) -> str:
        return f"OperatorField(dim={self.dim}, label={self.label!r})"

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[ScalarField]],
                     label: str = "",
                     guard: Optional[Callable[[np.ndarray], float]] = None
                     ) -> "OperatorField":
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise ValueError("entry grid must be square")
        dims = {e.dim for row in entries for e in row}
        if len(dims) != 1:
            raise ValueError("entry fields disagree on dimension")
        dim = dims.pop()
        if dim != n:
            raise ValueError(
                f"{n} x {n} operator needs entries in {n} variables, "
                f"entries declare {dim}")

        def rule(p):
            rows = []
            for i, row in enumerate(entries):
                cells = []
                for j, e in enumerate(row):
                    try:
                        cells.append(e(p))
                    except SingularEntry:
                        raise
                    except SingularPointError as exc:
                        raise SingularEntry(i + 1, j + 1, p, exc) from exc
                rows.append(cells)
            return rows

        return cls(n, rule, label=label, guard=guard)

    def entries(self, p: Sequence[float]) -> list:
        """Evaluate all entry jets at the points p (shape (n,) or (..., n));
        singular entries raise SingularEntry."""
        p = _points(p, self.dim, "operator")
        try:
            with np.errstate(**JET_ERRSTATE):
                rows = self.matrix_rule(p)
        except SingularEntry:
            raise
        except SingularPointError as exc:
            if getattr(exc, "point", None) is not None:
                raise  # already carries its own location story
            raise SingularEntry(0, 0, p, exc) from exc
        return [[as_jet(x, self.dim) for x in row] for row in rows]

    def entry(self, i: int, j: int) -> ScalarField:
        """The (i, j) entry (1-based) as a standalone scalar field."""
        n = self.dim
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"entry index ({i},{j}) out of range for n={n}")

        def rule(p):
            return self.entries(p)[i - 1][j - 1]

        return ScalarField(rule, n, label=f"{self.label}[{i},{j}]")


def operator_eval(L: OperatorField, p: Sequence[float]) -> OperatorEval:
    """Evaluate L at the points p (shape (n,) or (..., n)) to entry values
    (..., n, n) and entry gradients (..., n, n, n)."""
    p = np.asarray(p, dtype=float)
    rows = L.entries(p)
    n = L.dim
    batch = p.shape[:-1]
    values = np.empty(batch + (n, n))
    grads = np.empty(batch + (n, n, n))
    for i in range(n):
        for j in range(n):
            jet = rows[i][j]
            values[..., i, j] = jet.value
            grads[..., i, j, :] = jet.gradient
    return OperatorEval(point=p, values=values, entry_grads=grads)
