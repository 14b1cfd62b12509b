"""Scalar and operator (1,1-tensor) fields evaluated through jets.

An operator field is an n x n matrix of scalar fields. Its rule returns
the whole matrix as one order-1 jet (``Jet2`` of batch (..., n, n) with
Hessian None), and evaluation returns that jet as it is: its value holds
the entry values and its gradient the entry gradients, exactly the data the
coordinate torsion formula consumes. That jet is a container, which jet
arithmetic does not take. Entry Hessians are deliberately not part of the
contract: derived families carry partial derivatives of a generating
function inside their entries, and an order-2 jet of the generator cannot
supply entry second derivatives anyway. The families of ``construct``
build the arrays whole; ``OperatorField.from_entries`` writes in the
values and gradients of its entries' order-2 jets one by one.

A family's entries are rational in one source: the 2-jet of its
generating function f, or the stacked jets of its coefficient fields
sigma_1..sigma_n. ``OperatorField.source(p)`` evaluates it, and the rule
and guard take it as ``(p, src)``, so a sweep evaluates it once per chunk
for all of them. A family without a source (polynomial entries, or
entries given as expressions) has source None and ignores src.

Points axis: every evaluation takes one point of shape (n,) or an array of
points of shape (..., n), the leading axes being the batch shape. A scalar
field returns a ``Jet2`` of that batch shape; a rule returns a matrix jet
of batch shape (..., n, n), so ``operator_eval`` returns a jet of value
(..., n, n) and gradient (..., n, n, n). Sources, rules and guards receive
the whole array and answer for all of its points; a guard returns one
margin per point. Jet evaluation raises numpy overflow and invalid
operations as ``FloatingPointError`` (an ArithmeticError), so an
overflowing point fails loudly instead of turning into inf.

Fiber jets: ``f(p, fiber=True)`` asks only for f, f_y and f_yy, what the
Morse reduction reads. An expression field then runs its one evaluation
with y as the only jet variable (a ``Jet2`` with n = 1, its base
coordinates plain numpy values as its constants are in every jet, see
``expr``); a field without an expression returns its full jet. Either way
the caller reads ``gradient[..., -1]`` and ``hessian[..., -1, -1]``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from .jet import (Jet2, SingularPointError, _jet, broadcast_jet,
                  constant_jet)
from .expr import Expr, evaluate, format_expression, parse_expression

__all__ = [
    "ScalarField",
    "OperatorField",
    "SingularEntry",
    "operator_eval",
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
    """A scalar function of n variables, evaluated to a jet.

    ``f(p)`` takes a point (n,) or points (..., n) and returns a jet of
    batch shape p.shape[:-1], of order 2 for an expression or a constant.
    A field built from an expression keeps its AST in ``expr`` (else None).
    """

    def __init__(self, rule: Callable[[np.ndarray], Jet2], dim: int,
                 label: str = "", expr: Optional[Expr] = None):
        self.rule = rule
        self.dim = int(dim)
        self.label = label
        self.expr = expr

    def __call__(self, p: Sequence[float], fiber: bool = False) -> Jet2:
        """The jet at the points p; with fiber=True an expression field
        gives its jet along y alone (gradient (..., 1), Hessian
        (..., 1, 1)) and any other field its full jet, so callers read
        f_y and f_yy at gradient[..., -1] and hessian[..., -1, -1]."""
        p = _points(p, self.dim, "field")
        with np.errstate(**JET_ERRSTATE):
            if fiber and self.expr is not None:
                return evaluate(self.expr, p, fiber=True)
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
        return cls(lambda p: evaluate(ast, p), dim, format_expression(ast),
                   expr=ast)

    @classmethod
    def constant(cls, c: float, dim: int) -> "ScalarField":
        return cls(lambda p: constant_jet(c, dim), dim, repr(float(c)))


class OperatorField:
    """An n x n operator field L with an optional source and sampling guard.

    ``source(p)``, when present, evaluates what the entries are rational
    in at the points p (see the module docstring); without one, src is
    None. ``matrix_rule(p, src)`` returns the operator at the points p
    (..., n) from src = source(p) as one order-1 jet of batch (..., n, n),
    which lets families share one jet evaluation of their generating
    function across all entries. A singular entry raises SingularEntry.
    ``guard(p, src)``, when present, returns a nonnegative margin per
    point read from src; sweeps reject points whose margin falls below
    their threshold before touching the entries (denominator about to
    vanish).
    """

    def __init__(self, dim: int,
                 matrix_rule: Callable[[np.ndarray, Any], Jet2],
                 label: str = "",
                 guard: Optional[Callable[[np.ndarray, Any], Any]] = None,
                 source: Optional[Callable[[np.ndarray], Any]] = None):
        self.dim = int(dim)
        self.matrix_rule = matrix_rule
        self.label = label
        self.guard = guard
        self.source = source

    def __repr__(self) -> str:
        return f"OperatorField(dim={self.dim}, label={self.label!r})"

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[ScalarField]],
                     label: str = "") -> "OperatorField":
        """Entries as scalar fields, with no source and no guard."""
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

        def rule(p, src):
            value = np.empty(p.shape[:-1] + (n, n))
            grad = np.empty(p.shape[:-1] + (n, n, n))
            for i, row in enumerate(entries):
                for j, e in enumerate(row):
                    try:
                        x = e(p)
                    except SingularEntry:
                        raise
                    except SingularPointError as exc:
                        raise SingularEntry(i + 1, j + 1, p, exc) from exc
                    value[..., i, j], grad[..., i, j, :] = x.value, x.gradient
            return _jet(value, grad, None)

        return cls(n, rule, label=label)


def operator_eval(L: OperatorField, p: Sequence[float], src=None) -> Jet2:
    """L at the points p (shape (n,) or (..., n)) as its rule's order-1
    matrix jet: entry values (..., n, n) and entry gradients (..., n, n, n)
    from src, L's source at p, which is evaluated here when not given.
    Singular entries raise SingularEntry, and an error of a family's
    generating function propagates as that function raised it."""
    p = _points(p, L.dim, "operator")
    with np.errstate(**JET_ERRSTATE):
        if src is None and L.source is not None:
            src = L.source(p)
        return L.matrix_rule(p, src)
