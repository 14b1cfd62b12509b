"""Order-2 forward-mode jets: value, gradient and Hessian pushed through arithmetic.

A ``Jet2`` carries the 2-jet of a scalar quantity at one point of R^n or at
a whole array of points at once (vectorised forward mode). Shapes follow
one contract, with ``...`` the leading batch (points) shape:

    value     (...)
    gradient  (..., n)
    hessian   (..., n, n)

A jet at a single point has batch shape ``()``; its value is a numpy float
scalar. Jets of different batch shapes combine by numpy broadcasting, so a
constant (batch ``()``) mixes freely with a jet over a chunk of points.
Every rule below is elementwise along the batch axes, which makes a chunk's
result equal, bit for bit, to evaluating each point on its own.

All elementary operations propagate derivatives exactly (no finite
differences). The Hessian is kept exactly symmetric: the public
constructor symmetrizes it once, and every rule combines symmetric inputs
through elementwise-symmetric formulas, so ``max |H[i,j] - H[j,i]|`` stays
identically zero through any op sequence. Internal results are built by
``_jet``, which skips the constructor's validation and symmetrization.

Failures that depend on the point (a vanishing denominator, an argument
outside a function's domain) raise a ``SingularPointError`` whose ``mask``
(batch-shaped booleans) marks the failing points, so a sweep can reject
exactly those and evaluate the rest again.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

__all__ = [
    "Jet2",
    "SingularPointError",
    "DenominatorVanishes",
    "DomainError",
    "constant_jet",
    "coordinate_jet",
    "chain",
    "DIV_EPS_REL",
]

# Division rejects denominators below this threshold, scaled by the
# numerator magnitude: |den| <= DIV_EPS_REL * max(1, |num|) is singular.
DIV_EPS_REL = 1e-12


class SingularPointError(ArithmeticError):
    """Evaluation hit a singular locus (vanishing denominator, domain edge).

    ``mask`` marks the failing points of a batched evaluation (None when
    the raiser does not know which points failed).
    """

    mask = None


def _first(values, mask) -> float:
    """The first masked entry of values (broadcast to the mask's shape)."""
    return float(np.broadcast_to(values, np.shape(mask))[mask].flat[0])


class DenominatorVanishes(SingularPointError):
    """Division by a (numerically) zero jet value."""

    def __init__(self, denominator, context: str = "", mask=None):
        self.mask = mask
        if mask is not None:
            denominator = _first(denominator, mask)
        self.denominator = denominator
        msg = f"denominator vanishes (value {denominator:.6e})"
        if context:
            msg += f" in {context}"
        super().__init__(msg)


class DomainError(SingularPointError):
    """Argument left the domain of an elementary function (e.g. sqrt)."""

    def __init__(self, message: str, mask=None):
        self.mask = mask
        super().__init__(message)


Scalar = Union[int, float, np.floating]


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


def _constant(c: float, n: int) -> "Jet2":
    """Constant jet for coercing plain numbers: batch (), shared zeros."""
    return _jet(np.float64(c), _zeros((n,)), _zeros((n, n)))


class Jet2:
    """2-jet (value, gradient, Hessian) of a scalar at a point, or at a
    batch of points, of R^n."""

    __slots__ = ("value", "gradient", "hessian")

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
        """The jet at one batch index (a view, no copy)."""
        return _jet(self.value[index], self.gradient[index],
                    self.hessian[index])

    def __repr__(self) -> str:
        return (f"Jet2({np.asarray(self.value).tolist()!r}, "
                f"{self.gradient.tolist()!r})")

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other) -> "Jet2 | None":
        if isinstance(other, Jet2):
            if other.dim != self.dim:
                raise ValueError("jet dimension mismatch")
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return _constant(float(other), self.dim)
        return None

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _jet(self.value + o.value,
                    self.gradient + o.gradient,
                    self.hessian + o.hessian)

    __radd__ = __add__

    def __sub__(self, other):
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
        return _jet(-self.value, -self.gradient, -self.hessian)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        sv, ov = self.value, o.value
        outer = _outer(self.gradient, o.gradient)
        return _jet(sv * ov,
                    _col(sv) * o.gradient + _col(ov) * self.gradient,
                    _col2(sv) * o.hessian + _col2(ov) * self.hessian
                    + outer + outer.swapaxes(-1, -2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = o.value
        bad = np.abs(den) <= DIV_EPS_REL * np.maximum(1.0, np.abs(self.value))
        if bad.any():
            raise DenominatorVanishes(den, mask=bad)
        v = self.value / den
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
        bad = self.value <= 0.0
        if bad.any():
            first = _first(self.value, bad)
            raise DomainError(
                f"sqrt requires a positive argument (value {first:.6e})",
                mask=bad)
        v = np.sqrt(self.value)
        return chain(v, 0.5 / v, -0.25 / (v * self.value), self)

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
    n = jet.dim
    return _jet(np.broadcast_to(jet.value, batch),
                np.broadcast_to(jet.gradient, batch + (n,)),
                np.broadcast_to(jet.hessian, batch + (n, n)))


def stack_jets(jets: Sequence[Jet2], batch: tuple) -> Jet2:
    """Assemble single-point jets (C order over `batch`) into one batched jet."""
    n = jets[0].dim
    return _jet(np.array([j.value for j in jets], dtype=float).reshape(batch),
                np.array([j.gradient for j in jets]).reshape(batch + (n,)),
                np.array([j.hessian for j in jets]).reshape(batch + (n, n)))
