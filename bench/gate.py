"""Correctness gate: decide whether one invocation's report is right.

An invocation fails when its exit code differs from the expected one, when
a check is missing or its pass flag differs from the expected verdict, when
a gating residual is on the wrong side of its tolerance, when a residual is
not finite, when accepted + rejected differs from the points requested, or,
at the default seed, when the accepted/rejected counts differ from the ones
frozen in expected_counts.json. Residuals are compared with tolerances,
never bit for bit, so a backend that sums in another order still passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import CSV_CHECK, TOL, Invocation

DEFAULT_SEED = 1
EXPECTED = Path(__file__).resolve().parent / "expected_counts.json"


@dataclass
class Verdict:
    ok: bool
    accepted: int = 0
    rejected: int = 0
    reasons: list = field(default_factory=list)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _check_list(inv: Invocation, checks: list, reasons: list) -> None:
    names = [c.get("name") for c in checks]
    if tuple(names) != inv.checks:
        reasons.append(f"checks {names} != expected {list(inv.checks)}")
        return
    want_pass = inv.expect_exit == 0
    for c in checks:
        name, value = c["name"], c["max"]
        if not _finite(value):
            reasons.append(f"{name} residual {value!r} is not finite")
            continue
        tol = TOL.get(name)
        if tol is None:        # informational check, never gating
            continue
        if name == "fd_oracle_delta":
            if value > tol:
                reasons.append(f"fd_oracle_delta {value:.3e} > {tol:.0e}")
            continue
        if (value <= tol) != want_pass:
            reasons.append(f"{name} residual {value:.3e} vs tol {tol:.0e} "
                           f"contradicts expected pass={want_pass}")
        if c["pass"] != want_pass:
            reasons.append(f"{name} pass flag {c['pass']} != {want_pass}")


def _json_report(inv: Invocation, text: str, reasons: list) -> tuple:
    d = json.loads(text)
    _check_list(inv, d.get("checks", []), reasons)
    if d.get("pass") != (inv.expect_exit == 0):
        reasons.append(f"report pass {d.get('pass')!r} != expected")
    if "results" in d:          # `torsion` at explicit points
        results = d["results"]
        for r in results:
            for key in ("max_component", "relative", "fd_max_delta"):
                if not _finite(r.get(key)):
                    reasons.append(f"point {r.get('point')}: {key} "
                                   f"{r.get(key)!r} is not finite")
        accepted, rejected = len(results), 0
    else:
        accepted, rejected = d["accepted"], d["rejected"]
    if not _finite(d.get("max_residual")):
        reasons.append(f"max_residual {d.get('max_residual')!r} not finite")
    return accepted, rejected


def _csv_rows(inv: Invocation, text: str, reasons: list) -> int:
    rows = list(csv.reader(io.StringIO(text)))
    header = ["check"] + [f"point_{i}" for i in range(1, inv.n + 1)] \
        + ["raw", "relative"]
    if not rows or rows[0] != header:
        reasons.append(f"csv header {rows[:1]} != {header}")
        return 0
    for row in rows[1:]:
        name = CSV_CHECK.get(row[0])
        if name not in inv.checks:
            reasons.append(f"csv row for unexpected check {row[0]!r}")
            continue
        raw, rel = float(row[-2]), float(row[-1])
        if not (math.isfinite(raw) and math.isfinite(rel)):
            reasons.append(f"csv {row[0]} residual not finite")
        elif rel > TOL[name]:
            reasons.append(f"csv {row[0]} relative {rel:.3e} > "
                           f"{TOL[name]:.0e}")
    return len(rows) - 1


def judge(inv: Invocation, code: int, text: str, frozen=None,
          twin: Verdict = None) -> Verdict:
    """Gate one invocation from its exit code and captured output.

    `frozen` is the (accepted, rejected) pair frozen for this invocation at
    the default seed, or None at any other seed. `twin` is the verdict of
    the JSON run whose argv this CSV run repeats.
    """
    reasons = []
    if code != inv.expect_exit:
        reasons.append(f"exit {code} != expected {inv.expect_exit}")
    accepted = rejected = 0
    try:
        if code in (0, 1):
            if inv.fmt == "csv":
                accepted = _csv_rows(inv, text, reasons)
                rejected = inv.points - accepted
                if twin is not None and twin.accepted != accepted:
                    reasons.append(f"csv has {accepted} accepted rows, the "
                                   f"json report {twin.accepted}")
            else:
                accepted, rejected = _json_report(inv, text, reasons)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        reasons.append(f"unreadable report: {exc!r}")
    if code in (0, 1) and accepted + rejected != inv.points:
        reasons.append(f"accepted {accepted} + rejected {rejected} != "
                       f"{inv.points} points")
    if frozen is not None and [accepted, rejected] != list(frozen):
        reasons.append(f"counts {[accepted, rejected]} != frozen {frozen}")
    return Verdict(not reasons, accepted, rejected, reasons)


def judge_pass(invocations: list, outcomes: list, frozen=None) -> list:
    """Gate a whole pass; `outcomes` holds (exit code, output) per invocation.

    `frozen` maps invocation keys to frozen counts (default seed only); a
    key missing from it fails.
    """
    verdicts = {}
    out = []
    for inv, (code, text) in zip(invocations, outcomes):
        v = judge(inv, code, text,
                  frozen=None if frozen is None else frozen.get(inv.key, ()),
                  twin=verdicts.get(inv.twin))
        verdicts[inv.key] = v
        out.append(v)
    return out


def frozen_counts(workload: str, seed: int):
    """The counts frozen for `workload` at the default seed, else None."""
    if seed != DEFAULT_SEED:
        return None
    with open(EXPECTED) as fh:
        return json.load(fh)[workload]
