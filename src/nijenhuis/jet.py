"""Forward-mode jets: value, gradient and, at order 2, Hessian pushed
through arithmetic.

A ``Jet2`` carries the 2-jet of a scalar quantity at one point of R^n or at
a whole array of points at once (vectorised forward mode). Shapes follow
one contract, with ``...`` the leading batch (points) shape:

    value     (...)
    gradient  (..., n)
    hessian   (..., n, n), or None at order 1

A jet at a single point has batch shape ``()``; its value is a numpy float
scalar. Jets of different batch shapes combine by numpy broadcasting, so a
constant (batch ``()``) mixes freely with a jet over a chunk of points.
Every rule below is elementwise along the batch axes, which makes a chunk's
result equal, bit for bit, to evaluating each point on its own.

Order 1 is a container, not an arithmetic: a jet whose ``hessian`` is
None holds an operator's matrix, entry values and entry gradients, which
the families build as whole arrays. Only negation (``2d``), ``at`` and
``broadcast_jet`` take it, and give order 1 back; ``+ - * /``, ``**``,
the elementary functions and ``chain`` run on order-2 jets.

All elementary operations propagate derivatives exactly (no finite
differences). The Hessian is kept exactly symmetric: the public
constructor symmetrizes it once, and every rule combines symmetric inputs
through elementwise-symmetric formulas, so ``max |H[i,j] - H[j,i]|`` stays
identically zero through any op sequence. Internal results are built by
``_jet``, which skips the constructor's validation and symmetrization.

Plain operands: ``+ - * /`` and their reflected forms also take an
ndarray or a numpy float (``np.floating``) as a constant operand. The
value operation runs on it as it is, and the jet's derivatives are shared
(``u + c``, ``u - c``) or scaled (``c * u``, ``u / c``); ``c - u`` and
``c / u`` run the full rules with zero derivatives for c. ``Jet2`` sets
``__array_ufunc__ = None``, so numpy hands these operations to the jet
whichever side the plain operand is on. A plain operand drops the terms
that are products with its exact zero derivatives: every bit is the
constant jet's but the sign of a zero derivative. So ``expr.evaluate``'s
constants are numpy floats in the full 2-jet and the fiber jet alike, and
in the fiber jet (only y a jet, n = 1) its base coordinates plain arrays.
Python numbers are still coerced to constant jets with the full rules.
Operations on plain values alone are plain numpy; ``divide`` and ``sqrt``
here apply the jet rules' checks to them.

Failures that depend on the point (a vanishing denominator, an argument
outside a function's domain) raise a ``SingularPointError`` whose ``mask``
(batch-shaped booleans) marks the failing points, so a sweep can reject
exactly those and evaluate the rest again.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Jet2",
    "SingularPointError",
    "DenominatorVanishes",
    "DomainError",
    "constant_jet",
    "coordinate_jet",
    "chain",
    "divide",
    "sqrt",
    "DIV_EPS_REL",
]

# Division rejects denominators below this threshold, scaled by the
# numerator magnitude: |den| <= DIV_EPS_REL * max(1, |num|) is singular.
DIV_EPS_REL = 1e-12


class SingularPointError(ArithmeticError):
    """Evaluation hit a singular locus (vanishing denominator, domain edge).

    ``mask`` marks the failing points of a batched evaluation: booleans of
    its batch shape, or 0-d to mark every point (a constant 1/0). None
    marks no point; a sweep then propagates the error, rejecting none.
    """

    mask = None


def _first(values, mask) -> float:
    """The first masked entry of values (broadcast to the mask's shape)."""
    return float(np.broadcast_to(values, np.shape(mask))[mask].flat[0])


class DenominatorVanishes(SingularPointError):
    """Division by a jet value that is zero, or tiny beside its numerator."""

    def __init__(self, denominator, mask=None, numerator=0.0):
        self.mask = mask
        if mask is not None:
            denominator = _first(denominator, mask)
            numerator = _first(numerator, mask)
        self.denominator, self.numerator = denominator, numerator
        super().__init__(
            f"denominator vanishes (value {denominator:.6e})"
            if abs(denominator) <= DIV_EPS_REL else
            "denominator vanishes relative to its numerator (value "
            f"{denominator:.6e}, numerator {numerator:.6e})")


class DomainError(SingularPointError):
    """Argument left the domain of an elementary function (e.g. sqrt)."""

    def __init__(self, message: str, mask=None):
        self.mask = mask
        super().__init__(message)


# Operands a jet takes as plain constants, not coerced to constant jets
# (np.float64 is a Python float too, so this test comes first).
_PLAIN = (np.ndarray, np.floating)


def _vanishes(num, den):
    """Where |den| <= DIV_EPS_REL * max(1, |num|): the quotient's test."""
    return np.abs(den) <= DIV_EPS_REL * np.maximum(1.0, np.abs(num))


def divide(num, den):
    """num / den on plain values, raising DenominatorVanishes where
    `_vanishes(num, den)`."""
    bad = _vanishes(num, den)
    if bad.any():
        raise DenominatorVanishes(den, mask=bad, numerator=num)
    return num / den


def sqrt(x):
    """The square root of plain values, raising DomainError where x <= 0."""
    bad = x <= 0.0
    if bad.any():
        first = _first(x, bad)
        raise DomainError(
            f"sqrt requires a positive argument (value {first:.6e})",
            mask=bad)
    return np.sqrt(x)


def _jet(value, gradient, hessian) -> "Jet2":
    """Internal constructor: no validation, no symmetrization."""
    jet = object.__new__(Jet2)
    jet.value = value
    jet.gradient = gradient
    jet.hessian = hessian
    return jet


def _col(v):
    """Value with a trailing axis, to scale gradients (scalars as they are)."""
    return v[..., None] if v.ndim else v


def _col2(v):
    """Value with two trailing axes, to scale Hessians."""
    return v[..., None, None] if v.ndim else v


def _outer(a, b):
    """Batched outer product of gradients: (..., n) x (..., n) -> (..., n, n)."""
    return a[..., :, None] * b[..., None, :]


_ZERO = np.zeros(1)
_ZERO.flags.writeable = False


def _zeros(shape: tuple) -> np.ndarray:
    """A read-only all-zero array of any shape, backed by a single float."""
    return np.ndarray(shape, float, _ZERO, strides=(0,) * len(shape))


def _constant(c, n: int) -> "Jet2":
    """Constant jet of c (a number, or plain values of any batch shape)
    with shared zero derivatives."""
    return _jet(np.float64(c) if isinstance(c, (int, float)) else c,
                _zeros((n,)), _zeros((n, n)))


class Jet2:
    """2-jet (value, gradient, Hessian) of a scalar at a point, or at a
    batch of points, of R^n; an order-1 matrix container has Hessian None.

    The constructor builds order-2 jets: a Hessian of None there means a
    zero Hessian.
    """

    __slots__ = ("value", "gradient", "hessian")

    # numpy defers every binary operation with a jet to the jet's methods
    __array_ufunc__ = None

    def __init__(self, value, gradient, hessian=None):
        g = np.asarray(gradient, dtype=float)
        if g.ndim < 1:
            raise ValueError("gradient must have a trailing axis of length n")
        batch, n = g.shape[:-1], g.shape[-1]
        v = np.asarray(value, dtype=float)
        if v.shape != batch:
            raise ValueError(
                f"value shape {v.shape} does not match the gradient's "
                f"batch shape {batch}")
        self.value = v[()]
        self.gradient = g
        if hessian is None:
            self.hessian = _zeros(batch + (n, n))
        else:
            h = np.asarray(hessian, dtype=float)
            if h.shape != batch + (n, n):
                raise ValueError("hessian shape does not match gradient length")
            # Symmetrize once; exact for already-symmetric input.
            self.hessian = 0.5 * (h + h.swapaxes(-1, -2))

    @property
    def dim(self) -> int:
        return self.gradient.shape[-1]

    def at(self, index) -> "Jet2":
        """The jet at a batch index (a view for a basic index, a copy for
        an index array or mask)."""
        h = self.hessian
        return _jet(self.value[index], self.gradient[index],
                    None if h is None else h[index])

    def __repr__(self) -> str:
        return (f"Jet2({np.asarray(self.value).tolist()!r}, "
                f"{self.gradient.tolist()!r})")

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other) -> "Jet2 | None":
        if isinstance(other, Jet2):
            if other.dim != self.dim:
                raise ValueError("jet dimension mismatch")
            return other
        if isinstance(other, _PLAIN):   # c - u and c / u, at any batch shape
            return _constant(other, self.dim)
        if isinstance(other, (int, float, np.integer)):
            return _constant(float(other), self.dim)
        return None

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _PLAIN):
            return _jet(self.value + other, self.gradient, self.hessian)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _jet(self.value + o.value,
                    self.gradient + o.gradient,
                    self.hessian + o.hessian)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _PLAIN):
            return _jet(self.value - other, self.gradient, self.hessian)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _jet(self.value - o.value,
                    self.gradient - o.gradient,
                    self.hessian - o.hessian)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        h = self.hessian
        return _jet(-self.value, -self.gradient, None if h is None else -h)

    def __mul__(self, other):
        if isinstance(other, _PLAIN):
            return _jet(self.value * other, _col(other) * self.gradient,
                        _col2(other) * self.hessian)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        sv, ov = self.value, o.value
        # the value before the gradient, so an overflowing value raises first
        v = sv * ov
        g = _col(sv) * o.gradient + _col(ov) * self.gradient
        outer = _outer(self.gradient, o.gradient)
        return _jet(v, g,
                    _col2(sv) * o.hessian + _col2(ov) * self.hessian
                    + outer + outer.swapaxes(-1, -2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _PLAIN):
            return _jet(divide(self.value, other), self.gradient / _col(other),
                        self.hessian / _col2(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = o.value
        v = divide(self.value, den)
        g = (self.gradient - _col(v) * o.gradient) / _col(den)
        cross = _outer(g, o.gradient)
        h = (self.hessian - _col2(v) * o.hessian
             - cross - cross.swapaxes(-1, -2)) / _col2(den)
        return _jet(v, g, h)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, k):
        if not isinstance(k, (int, np.integer)):
            raise TypeError("jet exponent must be an integer")
        k = int(k)
        if k == 0:
            return _constant(1.0, self.dim)
        if k < 0:
            return _constant(1.0, self.dim) / (self ** (-k))
        # Left-to-right product, so tests can replay the operation order.
        acc = self
        for _ in range(k - 1):
            acc = acc * self
        return acc

    # -- elementary functions ----------------------------------------------

    def sqrt(self) -> "Jet2":
        # the Hessian from the root's own gradient w: H/(2v) - (w x w)/v,
        # finite where chain's -1/(4 v value) would underflow v * value
        v = sqrt(self.value)
        d = 0.5 / v
        w = _col(d) * self.gradient
        return _jet(v, w, _col2(d) * self.hessian - _outer(w, w) / _col2(v))

    def exp(self) -> "Jet2":
        v = np.exp(self.value)
        return chain(v, v, v, self)

    def sin(self) -> "Jet2":
        s, c = np.sin(self.value), np.cos(self.value)
        return chain(s, c, -s, self)

    def cos(self) -> "Jet2":
        s, c = np.sin(self.value), np.cos(self.value)
        return chain(c, -s, -c, self)


def constant_jet(c: float, n: int) -> Jet2:
    """Jet of the constant c in n variables (batch shape ())."""
    return Jet2(float(c), np.zeros(n))


def coordinate_jet(i: int, p) -> Jet2:
    """Jet of the i-th coordinate (1-based) at point p, or at the points of
    an array p of shape (..., n).

    Index n names the distinguished last coordinate.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[-1] if p.ndim else 0
    if not 1 <= i <= n:
        raise IndexError(f"coordinate index {i} out of range 1..{n}")
    g = np.zeros(p.shape)
    g[..., i - 1] = 1.0
    return Jet2(p[..., i - 1], g)


def chain(g, dg, d2g, u: Jet2) -> Jet2:
    """Compose a scalar function (value g, derivatives dg, d2g at u.value,
    each of u's batch shape) with u."""
    g, dg, d2g = (np.asarray(x, dtype=float)[()] for x in (g, dg, d2g))
    return _jet(g, _col(dg) * u.gradient,
                _col2(dg) * u.hessian
                + _col2(d2g) * _outer(u.gradient, u.gradient))


def broadcast_jet(jet: Jet2, batch: tuple) -> Jet2:
    """The jet with its batch shape broadcast to `batch` (read-only views)."""
    if jet.gradient.shape[:-1] == batch:
        return jet
    n, h = jet.dim, jet.hessian
    return _jet(np.broadcast_to(jet.value, batch),
                np.broadcast_to(jet.gradient, batch + (n,)),
                None if h is None else np.broadcast_to(h, batch + (n, n)))

