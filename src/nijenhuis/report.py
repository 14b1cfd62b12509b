"""Verification reports, box sampling, and the shared sweep runner.

Every verification sweep reduces to the same shape: draw seeded sample
points from a box, reject points on the singular locus (counted, never
silent), evaluate a residual at the rest, and report the raw maximum, the
relative maximum that gates pass/fail, and the worst point. The runner
evaluates the samples in chunks of SWEEP_CHUNK points along a leading
points axis; the report does not depend on the chunk size. The JSON form
is stable: schema, subject, params, accepted, rejected, max_residual,
worst_point, checks[] (name, max, pass), pass, wall_ms — with wall_ms the
only field that varies between identical runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .field import JET_ERRSTATE
from .jet import SingularPointError

__all__ = [
    "CheckResult",
    "VerificationReport",
    "DomainEntirelySingular",
    "normalize_box",
    "sample_box",
    "run_sweep",
    "SWEEP_CHUNK",
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

    def to_dict(self) -> dict:
        return {"name": self.name, "max": self.max, "pass": self.passed}


@dataclass
class VerificationReport:
    subject: str
    params: dict
    accepted: int
    rejected: int
    max_residual: float
    worst_point: Optional[np.ndarray]
    checks: list
    passed: bool
    wall_ms: float
    # Arrays over the accepted points in sweep order: "point", "raw", "rel"
    # and one per extra check; absent from the JSON form.
    records: Optional[dict] = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "subject": self.subject,
            "params": self.params,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "max_residual": self.max_residual,
            "worst_point": (None if self.worst_point is None
                            else [float(v) for v in self.worst_point]),
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
            "wall_ms": self.wall_ms,
        }


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


def _at(src: tuple, keep: np.ndarray) -> tuple:
    """The source values (a 0- or 1-tuple) at the kept points."""
    return tuple(None if s is None else s.at(keep) for s in src)


def _surviving(fn: Callable, P: np.ndarray, idx: np.ndarray,
               src: tuple = ()):
    """Evaluate fn(P[idx], *src) with src the source at P[idx] (or no
    source: ()), dropping the points where it raises.

    A SingularPointError rejects the points its mask marks (all for a 0-d
    mask), and fn runs again on the rest, with the source indexed to them,
    never evaluated again; a mask that is None, marks no point or has
    another shape propagates the error. Returns the surviving indices, the
    source at them and fn's result on them (None if none survive).
    """
    while idx.size:
        try:
            return idx, src, fn(P[idx], *src)
        except SingularPointError as exc:
            mask = exc.mask
            if (mask is None or np.shape(mask) not in ((), idx.shape)
                    or not np.any(mask)):
                raise
            keep = ~np.broadcast_to(mask, idx.shape)
            idx, src = idx[keep], _at(src, keep)
    return idx, src, None


def run_sweep(points: Sequence[np.ndarray],
              eval_chunk: Callable[..., tuple],
              tol: float,
              subject: str,
              params: dict,
              gate_name: str,
              guard: Optional[Callable[..., np.ndarray]] = None,
              min_margin: float = 0.0,
              extra_checks: Sequence[str] = (),
              source: Optional[Callable[[np.ndarray], object]] = None
              ) -> VerificationReport:
    """Run a point sweep chunk by chunk and reduce to a VerificationReport.

    eval_chunk(P) takes points P of shape (B, n) and returns (raw, rel,
    extras): raw the absolute residuals (B,), rel the tolerance-gated
    relative residuals (B,), and extras a dict of named informational
    values (B,) (reported as non-gating checks, reduced by max |.|).
    guard(P) returns one margin per point. With a source, source(P) is
    evaluated once per chunk, and the guard and eval_chunk take its value
    at their points as a second argument: guard(P, src), eval_chunk(P,
    src). The value is a jet (or None), and a rejection indexes it with
    ``.at`` instead of evaluating it again. A SingularPointError of the
    source, the guard or eval_chunk rejects the points its mask marks, of
    shape (B,) or 0-d for all of them, as does a guard margin below
    min_margin; any other error, or a mask that is None or marks nothing,
    propagates. All three run under JET_ERRSTATE, so an overflow in a
    residual raises.
    A non-finite relative residual fails the gate. The reduction keeps the
    first point of largest rel, as a point-by-point scan would, so reports
    do not depend on SWEEP_CHUNK.
    The report's records hold the accepted points and their residuals.
    """
    t0 = time.perf_counter()
    points = np.asarray(points, dtype=float)
    max_raw = 0.0
    max_rel = 0.0
    finite = True
    worst: Optional[np.ndarray] = None
    accepted = 0
    extras_max = {name: 0.0 for name in extra_checks}
    records = {name: [] for name in ("point", "raw", "rel", *extra_checks)}
    for start in range(0, len(points), SWEEP_CHUNK):
        P = points[start:start + SWEEP_CHUNK]
        idx = np.arange(len(P))
        src = ()
        with np.errstate(**JET_ERRSTATE):
            if source is not None:
                idx, _, value = _surviving(source, P, idx)
                src = (value,)
            if guard is not None:
                idx, src, margin = _surviving(guard, P, idx, src)
                if idx.size:
                    keep = ~(margin < min_margin)
                    idx, src = idx[keep], _at(src, keep)
            idx, _, result = _surviving(eval_chunk, P, idx, src)
        if not idx.size:
            continue
        raw, rel, extras = result
        raw = np.asarray(raw, dtype=float)
        rel = np.asarray(rel, dtype=float)
        if finite:
            # the first non-finite point, else the first point of largest rel
            bad = ~np.isfinite(rel)
            k = int(np.argmax(bad if bad.any() else rel))
            if worst is None or bad[k] or rel[k] > max_rel:
                max_rel, worst, finite = rel[k], P[idx[k]], not bad[k]
        max_raw = np.maximum(max_raw, np.max(raw))
        for name, values in extras.items():
            extras_max[name] = np.maximum(extras_max[name],
                                          np.max(np.abs(values)))
        for name, values in (("point", P[idx]), ("raw", raw), ("rel", rel),
                             *extras.items()):
            records[name].append(values)
        accepted += idx.size
    if accepted == 0:
        raise DomainEntirelySingular(len(points))
    max_rel = float(max_rel)
    passed = finite and max_rel <= tol
    checks = [CheckResult(gate_name, max_rel, passed)]
    checks += [CheckResult(name, float(extras_max[name]), True)
               for name in extra_checks]
    wall_ms = (time.perf_counter() - t0) * 1e3
    return VerificationReport(
        subject=subject, params=params, accepted=accepted,
        rejected=len(points) - accepted, max_residual=float(max_raw),
        worst_point=worst.copy(), checks=checks, passed=passed,
        wall_ms=wall_ms,
        records={name: np.concatenate(chunks)
                 for name, chunks in records.items()})
