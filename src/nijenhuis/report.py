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
    # Per-point rows (point, raw, rel, extras) kept only when a sweep is
    # asked to collect them (CSV output); absent from the JSON form.
    points: Optional[list] = field(default=None, repr=False)

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


def _surviving(fn: Callable, P: np.ndarray, idx: np.ndarray):
    """Evaluate fn on P[idx], dropping the points where it raises.

    A SingularPointError whose mask marks points of the chunk rejects those
    points, and fn runs again on the rest. An error without such a mask is
    localized by evaluating the chunk's points one at a time. Returns the
    surviving indices and fn's result on them (None if none survive).
    """
    localized = False
    while idx.size:
        try:
            return idx, fn(P[idx])
        except SingularPointError as exc:
            mask = exc.mask
            if mask is not None and np.shape(mask) == idx.shape and mask.any():
                idx = idx[~mask]
                continue
            if localized:
                raise
            localized = True
            idx = np.asarray([i for i in idx if _evaluates(fn, P[i:i + 1])],
                             dtype=int)
    return idx, None


def _evaluates(fn: Callable, P: np.ndarray) -> bool:
    try:
        fn(P)
    except SingularPointError:
        return False
    return True


def run_sweep(points: Sequence[np.ndarray],
              eval_chunk: Callable[[np.ndarray], tuple],
              tol: float,
              subject: str,
              params: dict,
              gate_name: str,
              guard: Optional[Callable[[np.ndarray], np.ndarray]] = None,
              min_margin: float = 0.0,
              extra_checks: Sequence[str] = (),
              collect: bool = False) -> VerificationReport:
    """Run a point sweep chunk by chunk and reduce to a VerificationReport.

    eval_chunk(P) takes points P of shape (B, n) and returns (raw, rel,
    extras): raw the absolute residuals (B,), rel the tolerance-gated
    relative residuals (B,), and extras a dict of named informational
    values (B,) (reported as non-gating checks, reduced by max |.|).
    guard(P) returns one margin per point. Raising SingularPointError
    rejects the points its mask marks, as does a guard margin below
    min_margin. A non-finite relative residual fails the gate. The
    reduction keeps the first point of largest rel, as a point-by-point
    scan would, so reports do not depend on SWEEP_CHUNK.
    """
    t0 = time.perf_counter()
    points = np.asarray(points, dtype=float)
    max_raw = 0.0
    max_rel = 0.0
    finite = True
    worst: Optional[np.ndarray] = None
    accepted = 0
    extras_max = {name: 0.0 for name in extra_checks}
    rows = [] if collect else None
    for start in range(0, len(points), SWEEP_CHUNK):
        P = points[start:start + SWEEP_CHUNK]
        idx = np.arange(len(P))
        if guard is not None:
            idx, margin = _surviving(guard, P, idx)
            if idx.size:
                idx = idx[~(margin < min_margin)]
        idx, result = _surviving(eval_chunk, P, idx)
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
        if collect:
            for k, i in enumerate(idx):
                rows.append((P[i].copy(), float(raw[k]), float(rel[k]),
                             {name: float(values[k])
                              for name, values in extras.items()}))
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
        wall_ms=wall_ms, points=rows)
