"""Verification reports, box sampling, and the shared sweep runner.

Every verification sweep reduces to the same shape: draw seeded sample
points from a box, reject points on the singular locus (counted, never
silent), evaluate a residual at the rest, and report the raw maximum, the
relative maximum that gates pass/fail, and the worst point. A sweep checks
its identities in chunks of SWEEP_CHUNK points (a leading points axis), one
rejection mask and report each, independent of the chunk size. Reports hold
numbers only; the CLI alone lays them out as JSON, CSV or text.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .field import JET_ERRSTATE, OperatorField, operator_eval
from .jet import SingularPointError

__all__ = [
    "CheckResult",
    "VerificationReport",
    "DomainEntirelySingular",
    "Identity",
    "Reports",
    "normalize_box",
    "sample_box",
    "run_sweep",
    "first_failure",
    "SWEEP_CHUNK",
    "entry_scale",
]

# Points per evaluation chunk: large enough that per-call overhead is
# amortized, small enough that a chunk's jets stay a few MiB at n = 8.
SWEEP_CHUNK = 256


class DomainEntirelySingular(ArithmeticError):
    """Every sampled point was rejected; the sweep has nothing to verify."""

    def __init__(self, samples: int):
        self.samples = samples
        super().__init__(
            f"domain entirely singular: all {samples} sampled points rejected")


@dataclass
class CheckResult:
    name: str
    max: float
    passed: bool


@dataclass
class VerificationReport:
    accepted: int
    rejected: int
    max_residual: float
    worst_point: Optional[np.ndarray]
    checks: list
    passed: bool
    # Arrays over the accepted points in sweep order: "point", "raw", "rel"
    # and one per extra check.
    records: Optional[dict] = field(default=None, repr=False)


def normalize_box(box, n: int) -> np.ndarray:
    """Expand a box spec to an (n, 2) array of finite (low, high) bounds.

    Accepted forms: (lo, hi) applied to every axis, or a sequence of n
    (lo, hi) pairs.
    """
    arr = np.asarray(box, dtype=float)
    if arr.shape == (2,):
        arr = np.tile(arr, (n, 1))
    if arr.shape != (n, 2):
        raise ValueError(
            f"box must be (lo, hi) or {n} per-axis pairs, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("box bounds must be finite")
    if not np.all(arr[:, 0] < arr[:, 1]):
        raise ValueError("box bounds must satisfy low < high on every axis")
    return arr


def sample_box(box, n: int, samples: int, seed: int) -> np.ndarray:
    """Draw `samples` uniform points from the box with a seeded 64-bit PRNG."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    bounds = normalize_box(box, n)
    rng = np.random.default_rng(seed)
    return rng.uniform(bounds[:, 0], bounds[:, 1], size=(samples, n))


def entry_scale(values: np.ndarray) -> np.ndarray:
    """1 + max |L entry| of operator values (..., n, n), one per point: the
    scale of the relative gates on L's identities."""
    return 1.0 + np.max(np.abs(values), axis=(-2, -1))


def first_failure(P: np.ndarray, fn: Callable, per_point=None):
    """fn(P), one evaluation of points P (B, ...). If it raises, per_point
    (default fn) replays the points in order, so the error is the first
    failing point's, as that point alone gives it."""
    try:
        return fn(P)
    except (ArithmeticError, ValueError):
        for p in P:
            (per_point or fn)(p)
        raise


class Identity(NamedTuple):
    """An identity a sweep checks under its gate name: residual(ev, P, src)
    at points P (B, n), with the sweep's operator evaluation (L's order-1
    matrix jet) and source there, each None without one, gives (raw,
    scale[, dict of non-gating values]), gated by raw / scale <= tol. A
    guard(P, src) margin below min_margin rejects a point for it alone."""

    gate: str
    tol: float
    residual: Callable[..., tuple]
    guard: Optional[Callable[..., np.ndarray]] = None
    min_margin: float = 0.0


class Reports(list):
    """A sweep's reports, one per identity; its counts sum over them."""

    accepted = property(lambda self: sum(r.accepted for r in self))
    rejected = property(lambda self: sum(r.rejected for r in self))


def _take(x, at: np.ndarray, idx: np.ndarray):
    """x (a jet or None) at sorted indices at, at idx in at."""
    if x is None or len(idx) == len(at):
        return x
    return x.at(np.searchsorted(at, idx))


def _surviving(fn: Callable, P: np.ndarray, idx: np.ndarray, *args):
    """Evaluate fn(P[idx], *args), args being values at P[idx] (jets or
    None), dropping the points where it raises.

    A SingularPointError rejects the points its mask marks (all for a 0-d
    mask), and fn runs again on the rest with args indexed to them; a mask
    that is None, marks no point or has another shape propagates the error.
    Returns the surviving indices and fn's result (None if none survive).
    """
    while idx.size:
        try:
            return idx, fn(P[idx], *args)
        except SingularPointError as exc:
            mask = exc.mask
            if (mask is None or np.shape(mask) not in ((), idx.shape)
                    or not np.any(mask)):
                raise
            keep = ~np.broadcast_to(mask, idx.shape)
            idx, args = idx[keep], [a if a is None else a.at(keep) for a in args]
    return idx, None


def _records(identity: Identity, P, ev, src) -> dict:
    """The residual's records at the points P: point, raw, rel, extras."""
    raw, scale, *extras = identity.residual(ev, P, src)
    raw = np.asarray(raw, dtype=float)
    return {"point": P, "raw": raw, "rel": raw / scale, **dict(*extras)}


def run_sweep(points: Sequence[np.ndarray], identities: Sequence[Identity],
              source: Optional[Callable[[np.ndarray], object]] = None,
              operator: Optional[OperatorField] = None) -> Reports:
    """Check identities at the same points chunk by chunk; one report each.

    Per chunk of points (B, n), source(P) is evaluated once, and
    operator_eval(operator, P, src) once at the points some guard keeps,
    for every guard and residual. A SingularPointError of the source or
    the operator rejects the points its mask marks ((B,), or 0-d for all)
    for every identity; one of a guard or a residual, or a margin below
    min_margin, for that identity alone; other errors propagate, as
    `_surviving` says. Identities run in order under JET_ERRSTATE; the
    first that accepts nothing raises DomainEntirelySingular. Records hold
    the accepted points; the worst is the first non-finite rel (a failed
    gate), else the first largest, whatever SWEEP_CHUNK is.
    """
    points = np.asarray(points, dtype=float)
    accepted = [[] for _ in identities]
    for start in range(0, len(points), SWEEP_CHUNK):
        P = points[start:start + SWEEP_CHUNK]
        with np.errstate(**JET_ERRSTATE):
            idx, src = np.arange(len(P)), None
            if source is not None:
                idx, src = _surviving(source, P, idx)
            kept = []
            for identity in identities:
                i = idx
                if identity.guard is not None:
                    i, margin = _surviving(identity.guard, P, i, src)
                    if i.size:
                        i = i[~(margin < identity.min_margin)]
                kept.append(i)
            ev, live = None, idx
            if operator is not None:
                live = functools.reduce(np.union1d, kept)
                live, ev = _surviving(
                    functools.partial(operator_eval, operator), P, live,
                    _take(src, idx, live))
            alive = np.zeros(len(P), dtype=bool)
            alive[live] = True
            for identity, i, chunks in zip(identities, kept, accepted):
                i = i[alive[i]]
                i, records = _surviving(functools.partial(_records, identity),
                                        P, i, _take(ev, live, i),
                                        _take(src, idx, i))
                if i.size:
                    chunks.append(records)
    if not all(accepted):
        raise DomainEntirelySingular(len(points))
    reports = Reports()
    for identity, chunks in zip(identities, accepted):
        records = {name: np.concatenate([c[name] for c in chunks])
                   for name in chunks[0]}
        rel = records["rel"]
        bad = ~np.isfinite(rel)
        k = int(np.argmax(bad if bad.any() else rel))
        max_rel = float(rel[k])
        passed = not bad[k] and max_rel <= identity.tol
        checks = [CheckResult(identity.gate, max_rel, passed)] + [
            CheckResult(name, float(np.maximum(0.0, np.max(np.abs(v)))), True)
            for name, v in list(records.items())[3:]]
        reports.append(VerificationReport(
            len(rel), len(points) - len(rel),
            float(np.maximum(0.0, np.max(records["raw"]))),
            records["point"][k].copy(), checks, passed, records))
    return reports
