"""Parser and evaluator for scalar expressions in x1..x(n-1), y.

Grammar (n is declared up front; 'y' is coordinate n):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' integer)?
    atom   := number | variable | func '(' expr ')' | '(' expr ')'

Exponents are signed integer literals with |k| <= 64; there is no '^'
chaining. A number literal that overflows to infinity is an error.
Builtins: sqrt, exp, sin, cos. Bare 'x' is accepted as an alias for 'x1'
and normalized at parse time. Every error reports a byte offset into the
input string.

The AST has six frozen node types: Const, Var, Bin (one binary node for
'+', '-', '*' and '/', left-associative), Neg, Pow and Call.

``evaluate`` gives the full 2-jet in all n variables, or with
``fiber=True`` the fiber jet along y alone: (f, f_y, f_yy) as a ``Jet2``
with n = 1. Both run one recursion whose first jet variable is x1 or y.
Constants and the coordinates before it are plain numpy floats and arrays,
a node whose operands are all plain runs plain numpy (with the jet rules'
division and sqrt checks), and a jet drops only the terms that are
products with an exact zero: the fiber jet's f, f_y and f_yy are the full
jet's, up to the sign of a zero. An integer power is a left-to-right
product, as ``Jet2.__pow__`` forms it, and powers of one variable share
their products within an evaluation: y^2 is the first product of y^3.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .jet import (Jet2, _constant, broadcast_jet, coordinate_jet, divide,
                  sqrt)

__all__ = [
    "ExpressionError",
    "Const", "Var", "Bin", "Neg", "Pow", "Call",
    "Expr",
    "parse_expression",
    "evaluate",
    "format_expression",
    "MAX_EXPONENT",
]

MAX_EXPONENT = 64

# the grammar's builtins, on plain values with the jet rules' domain checks
_PLAIN_CALLS = {"sqrt": sqrt, "exp": np.exp, "sin": np.sin, "cos": np.cos}


class ExpressionError(ValueError):
    """Lexical or syntax error; .position is the byte offset in the input."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


# -- AST ---------------------------------------------------------------------
# Frozen dataclasses give the structural equality the round-trip law needs.

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int   # 1-based; index n is y
    name: str    # canonical source name ("x3", "y")


@dataclass(frozen=True)
class Bin:
    op: str      # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Const, Var, Bin, Neg, Pow, Call]


# -- lexer ---------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<num>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z][A-Za-z0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# -- parser ---------------------------------------------------------------------

_XVAR_RE = re.compile(r"^x(\d+)$")


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ExpressionError(f"expected '{op}'", pos)

    def parse(self) -> Expr:
        kind, _, pos = self.peek()
        if kind == "end":
            raise ExpressionError("empty expression", pos)
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected token {text!r}", pos)
        return e

    def chain(self, ops: str, operand) -> Expr:
        """operand() (op operand())*, for op in ops, as a left-leaning tree."""
        left = operand()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in ops:
                return left
            self.advance()
            left = Bin(text, left, operand())

    def expr(self) -> Expr:
        return self.chain("+-", self.term)

    def term(self) -> Expr:
        return self.chain("*/", self.unary)

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self) -> int:
        sign = 1
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            sign = -1
            kind, text, pos = self.peek()
        if kind != "num":
            raise ExpressionError("non-integer exponent (use sqrt)", pos)
        self.advance()
        value = float(text)
        if "." in text or "e" in text or "E" in text:
            if not value.is_integer():
                raise ExpressionError("non-integer exponent (use sqrt)", pos)
        k = sign * int(value)
        if abs(k) > MAX_EXPONENT:
            raise ExpressionError(
                f"exponent magnitude exceeds {MAX_EXPONENT}", pos)
        return k

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if math.isinf(value):
                raise ExpressionError(f"number {text} overflows", pos)
            return Const(value)
        if kind == "ident":
            return self.identifier(text, pos)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "end":
            raise ExpressionError("unexpected end of input", pos)
        raise ExpressionError(f"unexpected token {text!r}", pos)

    def identifier(self, name: str, pos: int) -> Expr:
        if name == "y":
            return Var(self.n, "y")
        if name == "x":
            name = "x1"   # alias for the first coordinate
        m = _XVAR_RE.match(name)
        if m:
            k = int(m.group(1))
            if not 1 <= k <= self.n - 1:
                valid = ", ".join(
                    [f"x{j}" for j in range(1, self.n)] + ["y"])
                raise ExpressionError(
                    f"variable {name} out of range for n={self.n} "
                    f"(valid variables {valid})", pos)
            return Var(k, name)
        if name in _PLAIN_CALLS:
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return Call(name, arg)
        raise ExpressionError(f"unknown identifier {name!r}", pos)


def parse_expression(text: str, n: int) -> Expr:
    """Parse text into an AST for declared dimension n (n >= 2)."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    return _Parser(text, n).parse()


# -- evaluation ---------------------------------------------------------------

def evaluate(e: Expr, p: Sequence[float], fiber: bool = False) -> Jet2:
    """Evaluate the 2-jet of e at point p (shape (n,)) or at every point of
    an array p of shape (..., n); the jet's batch shape is p.shape[:-1].

    With fiber=True the jet is taken along y alone (n = 1): gradient
    (..., 1) and Hessian (..., 1, 1) hold f_y and f_yy.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    first = n if fiber else 1   # the first jet variable: y, or x1
    jet = _evaluate(e, p, first, {})
    if not isinstance(jet, Jet2):   # an f that depends on no jet variable
        jet = _constant(jet, n - first + 1)
    return broadcast_jet(jet, p.shape[:-1])


# a binary node's operation on jets and plain values alike
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


def _power(x, k: int, products: list | None = None):
    """x ** k of a jet or plain values, as Jet2.__pow__ forms it: a
    left-to-right product that extends products = [x, x^2, ...], the
    powers of x formed so far, and 1/x^|k| for k < 0."""
    jet = isinstance(x, Jet2)
    if k == 0:
        return _constant(1.0, x.dim) if jet else np.float64(1.0)
    if k < 0:
        den = _power(x, -k, products)
        if jet:
            return _constant(1.0, x.dim) / den
        return divide(np.float64(1.0), den)
    if products is None:
        products = [x]
    while len(products) < k:
        products.append(products[-1] * x)
    return products[k - 1]


def _powers(var: Var, p: np.ndarray, first: int, coords: dict) -> list:
    """The powers [x, x^2, ...] of variable var that this evaluation has
    formed: x is its coordinate jet, or its plain column before first."""
    i = var.index
    powers = coords.get(i)
    if powers is None:
        powers = coords[i] = [
            p[..., i - 1] if i < first
            else coordinate_jet(i - first + 1, p[..., first - 1:])]
    return powers


def _evaluate(node, p: np.ndarray, first: int, coords: dict):
    # A module-level recursion (not a closure over itself), so a failed
    # evaluation leaves no reference cycle holding its jets. A result is
    # plain (an array or numpy float) until a jet variable enters.
    if isinstance(node, Const):
        return np.float64(node.value)
    if isinstance(node, Var):
        return _powers(node, p, first, coords)[0]
    if isinstance(node, Bin):
        left = _evaluate(node.left, p, first, coords)
        right = _evaluate(node.right, p, first, coords)
        if node.op != "/" or isinstance(left, Jet2) or isinstance(right, Jet2):
            return _BINARY[node.op](left, right)
        return divide(left, right)
    if isinstance(node, Neg):
        return -_evaluate(node.operand, p, first, coords)
    if isinstance(node, Pow):
        if isinstance(node.base, Var):   # shares the variable's products
            powers = _powers(node.base, p, first, coords)
            return _power(powers[0], node.exponent, powers)
        return _power(_evaluate(node.base, p, first, coords), node.exponent)
    if isinstance(node, Call):
        arg = _evaluate(node.arg, p, first, coords)
        if isinstance(arg, Jet2):
            return getattr(arg, node.func)()
        return _PLAIN_CALLS[node.func](arg)
    raise TypeError(f"not an expression node: {node!r}")


# -- formatting ----------------------------------------------------------------

def format_expression(e: Expr) -> str:
    """Render e to a string that parses back to a structurally equal AST.

    Fully parenthesized below the top level, so no precedence knowledge is
    required to read the output back.
    """
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Bin):
        return f"({format_expression(e.left)}{e.op}{format_expression(e.right)})"
    if isinstance(e, Neg):
        return f"(-{format_expression(e.operand)})"
    if isinstance(e, Pow):
        return f"({format_expression(e.base)}^{e.exponent})"
    if isinstance(e, Call):
        return f"{e.func}({format_expression(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")
