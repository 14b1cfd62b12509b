"""Command-line front end.

Subcommands: construct, torsion, verify, charpoly, diagnose, pde-check,
morse-reduce. Reports are emitted as JSON (default), CSV (per-point rows,
17-significant-digit floats), or text. Exit codes: 0 all checks pass, 1
checks ran and failed, 2 usage/parse/config error, 3 numerical failure
(Newton divergence, degenerate/singular evaluation, fully singular domain).
Identical invocations with the same seed produce byte-identical reports
except for the wall_ms field.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Optional, Sequence

import numpy as np

from .jet import SingularPointError
from .expr import ExpressionError
from .field import ScalarField, OperatorField, operator_eval
from .construct import (build_2d, build_diff_nondegenerate,
                        build_morse_canonical, build_regular_family,
                        conjugation_residual, _companion_jets)
from .torsion import (DEFAULT_MIN_DENOMINATOR, torsion_from_eval,
                      torsion_bracket_fd, verify_zero_torsion)
from .invariants import charpoly, verify_sigma_coords, verify_sigma_fields
from .singularity import (NewtonDivergenceError, NonMorseError,
                          morse_reduce, morse_remainder_field,
                          remainder_from_expression, smoothness_numerators,
                          verify_morse_normal_form, verify_pde)
from .report import (DomainEntirelySingular, VerificationReport,
                     normalize_box, sample_box, run_sweep)
from .linalg import NumericallySingular

__all__ = ["main", "run", "UsageError"]

FAMILIES = ("companion", "diffnondeg", "2d", "theorem1", "theorem2")
CHECKS = ("torsion", "conjugation", "sigma", "pde", "all")

DEFAULT_TOLS = {
    "torsion": 1e-10,
    "conjugation": 1e-11,
    "sigma": 1e-9,
    "pde": 1e-10,
}


class UsageError(Exception):
    """Bad flags or inconsistent configuration (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sign_value(text: str) -> int:
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise argparse.ArgumentTypeError(f"sign must be +1 or -1, got {text!r}")


# -- argument plumbing ---------------------------------------------------------

def _add_output_flags(sp):
    sp.add_argument("--format", choices=("json", "csv", "text"),
                    default="json", help="report format (default json)")
    sp.add_argument("--out", default=None, metavar="PATH",
                    help="write the report to PATH instead of standard output")


def _add_operator_flags(sp):
    sp.add_argument("--family", choices=FAMILIES,
                    help="operator family to build")
    sp.add_argument("--matrix", metavar="SPEC",
                    help="ad-hoc operator: 'diag:e1,e2,...' or row-major "
                         "entries 'e11,e12;e21,e22' (entry expressions)")
    sp.add_argument("--n", type=int, help="dimension")
    sp.add_argument("--f", metavar="EXPR",
                    help="determinant coefficient f(x1..x(n-1), y)")
    sp.add_argument("--sigma", metavar="EXPR,...",
                    help="comma-separated coefficient expressions "
                         "(families companion and diffnondeg)")
    sp.add_argument("--sign", type=_sign_value, default=1,
                    help="sign of the Morse canonical family (+1 or -1)")


def _add_sweep_flags(sp, samples_default=1000):
    sp.add_argument("--box", type=float, nargs="+", metavar="B",
                    help="box bounds: 'lo hi' for every axis, or one pair "
                         "per axis (default -1 1)")
    sp.add_argument("--samples", type=int, default=samples_default,
                    help=f"sample count (default {samples_default})")
    sp.add_argument("--seed", type=int, default=42,
                    help="PRNG seed (default 42)")
    sp.add_argument("--tol", type=float, default=None,
                    help="pass tolerance (default depends on the check)")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="nijenhuis",
                description="Construct operator families with vanishing "
                            "torsion, verify their defining identities, and "
                            "diagnose determinant singularities.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("construct", help="evaluate a family at points")
    _add_operator_flags(sp)
    sp.add_argument("--point", action="append", nargs="+", type=float,
                    metavar="V", help="evaluation point (repeatable)")
    _add_output_flags(sp)
    sp.set_defaults(handler=handle_construct)

    sp = sub.add_parser("torsion", help="evaluate torsion at points")
    _add_operator_flags(sp)
    sp.add_argument("--point", action="append", nargs="+", type=float,
                    metavar="V", help="evaluation point (repeatable)")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOLS["torsion"],
                    help="relative pass tolerance (default 1e-10)")
    sp.add_argument("--fd-step", type=float, default=None, metavar="H",
                    help="also run the finite-difference oracle with step H")
    _add_output_flags(sp)
    sp.set_defaults(handler=handle_torsion)

    sp = sub.add_parser("verify", help="run verification sweeps")
    _add_operator_flags(sp)
    sp.add_argument("--check", choices=CHECKS, default="torsion",
                    help="which identity to verify (default torsion); "
                         "'all' runs every check applicable to the family")
    _add_sweep_flags(sp)
    sp.add_argument("--min-denominator", type=float,
                    default=DEFAULT_MIN_DENOMINATOR, metavar="M",
                    help="reject sample points whose denominator margin "
                         "|f_y| falls below M (default 0.05)")
    _add_output_flags(sp)
    sp.set_defaults(handler=handle_verify)

    sp = sub.add_parser("charpoly",
                        help="characteristic coefficients at points")
    _add_operator_flags(sp)
    sp.add_argument("--point", action="append", nargs="+", type=float,
                    metavar="V", help="evaluation point (repeatable)")
    _add_output_flags(sp)
    sp.set_defaults(handler=handle_charpoly)

    sp = sub.add_parser("diagnose",
                        help="smoothness-fraction diagnostics of f")
    sp.add_argument("--f", metavar="EXPR", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--point", action="append", nargs="+", type=float,
                    metavar="V", required=True,
                    help="diagnostic point (repeatable)")
    _add_output_flags(sp)
    sp.set_defaults(handler=handle_diagnose)

    sp = sub.add_parser("pde-check",
                        help="remainder-system residuals for R")
    sp.add_argument("--R", metavar="EXPR", required=True,
                    help="remainder expression in x1..x(n-1)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--point", action="append", nargs="+", type=float,
                    metavar="V", help="base point with n-1 coordinates "
                                      "(repeatable; default: sampled box)")
    _add_sweep_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=handle_pde_check)

    sp = sub.add_parser("morse-reduce",
                        help="parametric reduction of f, or a normal-form "
                             "defect grid over a box")
    sp.add_argument("--f", metavar="EXPR", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--point", action="append", nargs="+", type=float,
                    metavar="V", help="base point with n-1 coordinates "
                                      "(repeatable)")
    sp.add_argument("--box", type=float, nargs="+", metavar="B",
                    help="run the defect grid over this n-axis box instead")
    sp.add_argument("--samples", type=int, default=21,
                    help="grid points per axis for --box mode (default 21)")
    sp.add_argument("--tol", type=float, default=1e-9,
                    help="defect tolerance for --box mode (default 1e-9)")
    sp.add_argument("--y0", type=float, default=0.0,
                    help="Newton seed (default 0)")
    _add_output_flags(sp)
    sp.set_defaults(handler=handle_morse_reduce)

    return p


# -- shared construction -------------------------------------------------------

def _require(condition: bool, message: str):
    if not condition:
        raise UsageError(message)


def _box_bounds(args, dim: int) -> np.ndarray:
    raw = getattr(args, "box", None)
    if raw is None:
        return normalize_box((-1.0, 1.0), dim)
    if len(raw) == 2:
        return normalize_box(tuple(raw), dim)
    if len(raw) == 2 * dim:
        pairs = [(raw[2 * i], raw[2 * i + 1]) for i in range(dim)]
        return normalize_box(pairs, dim)
    raise UsageError(
        f"--box needs 2 values (uniform) or {2 * dim} values "
        f"({dim} per-axis pairs), got {len(raw)}")


def _point_list(args, dim: int, what: str = "--point") -> list:
    raw = getattr(args, "point", None)
    _require(bool(raw), f"{what} is required for this command")
    points = []
    for values in raw:
        if len(values) != dim:
            raise UsageError(
                f"{what} needs {dim} coordinates, got {len(values)}")
        points.append(np.asarray(values, dtype=float))
    return points


def _field(text: str, dim: int) -> ScalarField:
    return ScalarField.from_expression(text, dim)




def _sigma_fields(text: str, n: Optional[int]) -> list:
    parts = [s.strip() for s in text.split(",")]
    _require(all(parts), "--sigma has an empty expression")
    if n is None:
        n = len(parts)
    _require(len(parts) == n,
             f"--sigma needs {n} comma-separated expressions, got {len(parts)}")
    _require(n >= 2, "--sigma needs at least 2 expressions")
    return [_field(s, n) for s in parts]


def _matrix_operator(spec: str, n_flag: Optional[int]) -> OperatorField:
    if spec.startswith("diag:"):
        cells = [s.strip() for s in spec[len("diag:"):].split(",")]
        _require(all(cells), "--matrix diag: has an empty entry")
        n = len(cells)
        _require(n >= 2, "--matrix needs at least a 2x2 operator")
        _require(n_flag is None or n_flag == n,
                 f"--n {n_flag} disagrees with the {n}x{n} --matrix")
        entries = [[_field(cells[i], n) if i == j
                    else ScalarField.constant(0.0, n)
                    for j in range(n)] for i in range(n)]
        return OperatorField.from_entries(entries, label=f"matrix {spec}")
    rows = [r.strip() for r in spec.split(";")]
    n = len(rows)
    _require(n >= 2, "--matrix needs at least a 2x2 operator")
    _require(n_flag is None or n_flag == n,
             f"--n {n_flag} disagrees with the {n}x{n} --matrix")
    grid = []
    for r in rows:
        cells = [s.strip() for s in r.split(",")]
        _require(len(cells) == n,
                 f"--matrix row {r!r} has {len(cells)} entries, expected {n}")
        grid.append([_field(c, n) for c in cells])
    return OperatorField.from_entries(grid, label="matrix")


class _OperatorContext:
    """Operator plus whatever coefficient data the family implies."""

    def __init__(self, op: OperatorField, kind: str, n: int,
                 f: Optional[ScalarField] = None,
                 f_text: Optional[str] = None,
                 sigma: Optional[list] = None,
                 sigma_text: Optional[str] = None,
                 signs: Optional[tuple] = None,
                 sign: Optional[int] = None):
        self.op = op
        self.kind = kind
        self.n = n
        self.f = f
        self.f_text = f_text
        self.sigma = sigma
        self.sigma_text = sigma_text
        self.signs = signs
        self.sign = sign

    def params(self) -> dict:
        out = {"family": self.kind, "n": self.n}
        if self.f_text is not None:
            out["f"] = self.f_text
        if self.sigma_text is not None:
            out["sigma"] = self.sigma_text
        if self.sign is not None:
            out["sign"] = self.sign
        return out


def _build_context(args) -> _OperatorContext:
    family = getattr(args, "family", None)
    matrix = getattr(args, "matrix", None)
    _require(not (family and matrix), "choose either --family or --matrix")
    _require(family or matrix, "one of --family or --matrix is required")

    if matrix:
        op = _matrix_operator(matrix, args.n)
        return _OperatorContext(op, "matrix", op.dim)

    if family == "2d":
        _require(args.f is not None, "--family 2d requires --f")
        _require(args.n in (None, 2), "--family 2d fixes --n 2")
        f = _field(args.f, 2)
        return _OperatorContext(build_2d(f), "2d", 2, f=f, f_text=args.f,
                                signs=(-1.0,))

    _require(args.n is not None, f"--family {family} requires --n")
    n = args.n
    _require(n >= 2, f"--n must be at least 2, got {n}")

    if family == "theorem1":
        _require(args.f is not None, "--family theorem1 requires --f")
        f = _field(args.f, n)
        op = build_regular_family(f, n)
        return _OperatorContext(op, "theorem1", n, f=f, f_text=args.f,
                                signs=tuple(1.0 for _ in range(n - 1)))

    if family == "theorem2":
        _require(n >= 3, "--family theorem2 requires --n > 2")
        sign = args.sign
        f_text = "y^2" if sign > 0 else "-y^2"
        f = _field(f_text, n)
        op = build_morse_canonical(n, sign)
        return _OperatorContext(op, "theorem2", n, f=f, f_text=f_text,
                                signs=tuple(1.0 for _ in range(n - 1)),
                                sign=sign)

    if family == "companion":
        if args.sigma is None:
            sigma_text = ",".join([f"x{i}" for i in range(1, n)] + ["y"])
        else:
            sigma_text = args.sigma
        sigma = _sigma_fields(sigma_text, n)

        def rule(p):
            return _companion_jets([s(p) for s in sigma])

        op = OperatorField(n, rule, label="companion")
        return _OperatorContext(op, "companion", n, sigma=sigma,
                                sigma_text=sigma_text)

    if family == "diffnondeg":
        _require(args.sigma is not None, "--family diffnondeg requires --sigma")
        sigma = _sigma_fields(args.sigma, n)
        op = build_diff_nondegenerate(sigma)
        return _OperatorContext(op, "diffnondeg", n, sigma=sigma,
                                sigma_text=args.sigma)

    raise UsageError(f"unknown family {family!r}")


# -- output --------------------------------------------------------------------

def _format_float(v) -> str:
    return f"{float(v):.16e}"


def _emit(args, payload: dict, csv_table=None, text_lines=None) -> None:
    fmt = getattr(args, "format", "json")
    sink = sys.stdout
    opened = None
    out_path = getattr(args, "out", None)
    if out_path:
        opened = open(out_path, "w", newline="")
        sink = opened
    try:
        if fmt == "json":
            json.dump(payload, sink, indent=2)
            sink.write("\n")
        elif fmt == "csv":
            if csv_table is None:
                # error payloads have no tabular form
                for line in _default_text(payload):
                    sink.write(line + "\n")
                return
            header, rows = csv_table
            writer = csv.writer(sink)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_format_float(c) if isinstance(c, float)
                                 else str(c) for c in row])
        else:
            lines = text_lines if text_lines is not None else _default_text(payload)
            for line in lines:
                sink.write(line + "\n")
    finally:
        if opened is not None:
            opened.close()


def _default_text(payload: dict) -> list:
    lines = [payload.get("subject", "report")]
    if "error" in payload:
        lines.append(f"error: {payload['error']}")
        if "position" in payload:
            lines.append(f"position: {payload['position']}")
        return lines
    params = payload.get("params", {})
    if params:
        lines.append("params: " + ", ".join(f"{k}={v}" for k, v in params.items()))
    for key in ("accepted", "rejected", "max_residual", "worst_point"):
        if key in payload:
            lines.append(f"{key}: {payload[key]}")
    for check in payload.get("checks", ()):
        status = "pass" if check["pass"] else "FAIL"
        lines.append(f"check {check['name']}: max={check['max']:.6e} [{status}]")
    for result in payload.get("results", ()):
        lines.append(json.dumps(result))
    if "pass" in payload:
        lines.append("PASS" if payload["pass"] else "FAIL")
    if "wall_ms" in payload:
        lines.append(f"wall_ms: {payload['wall_ms']}")
    return lines


def _report_payload(subject: str, params: dict, report: VerificationReport) -> dict:
    payload = report.to_dict()
    payload["subject"] = subject
    payload["params"] = params
    return payload


# -- handlers ------------------------------------------------------------------

def handle_construct(args) -> int:
    t0 = time.perf_counter()
    ctx = _build_context(args)
    points = _point_list(args, ctx.n)
    results = []
    rows = []
    for p in points:
        values = operator_eval(ctx.op, p).values
        results.append({"point": [float(v) for v in p],
                        "matrix": [[float(v) for v in row] for row in values]})
        rows.append(list(map(float, p))
                    + [float(v) for v in values.reshape(-1)])
    n = ctx.n
    header = ([f"point_{i}" for i in range(1, n + 1)]
              + [f"L_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)])
    payload = {
        "schema": 1,
        "subject": f"construct {ctx.kind}",
        "params": ctx.params(),
        "results": results,
        "wall_ms": (time.perf_counter() - t0) * 1e3,
    }
    text = [payload["subject"]]
    for r in results:
        text.append(f"point {r['point']}:")
        for row in r["matrix"]:
            text.append("  [" + ", ".join(f"{v: .12g}" for v in row) + "]")
    _emit(args, payload, (header, rows), text)
    return 0


def handle_torsion(args) -> int:
    t0 = time.perf_counter()
    ctx = _build_context(args)
    n = ctx.n
    points = _point_list(args, n)
    results = []
    rows = []
    max_rel = 0.0
    max_raw = 0.0
    fd_max = None
    for p in points:
        ev = operator_eval(ctx.op, p)
        N = torsion_from_eval(ev)
        raw = float(np.max(np.abs(N)))
        scale = 1.0 + float(np.max(np.abs(ev.values)))
        rel = raw / scale
        max_raw = max(max_raw, raw)
        max_rel = max(max_rel, rel)
        listed = []
        threshold = 1e-13 * scale
        for i in range(n):
            for j in range(n):
                for k in range(j + 1, n):
                    v = float(N[i, j, k])
                    if abs(v) > threshold:
                        listed.append({"i": i + 1, "j": j + 1, "k": k + 1,
                                       "value": v})
                        rows.append(list(map(float, p))
                                    + [i + 1, j + 1, k + 1, v])
        entry = {"point": [float(v) for v in p], "max_component": raw,
                 "relative": rel, "components": listed}
        if args.fd_step is not None:
            Nfd = torsion_bracket_fd(ctx.op, p, h=args.fd_step).components
            delta = float(np.max(np.abs(Nfd - N)))
            entry["fd_max_delta"] = delta
            fd_max = delta if fd_max is None else max(fd_max, delta)
        results.append(entry)
    passed = max_rel <= args.tol
    checks = [{"name": "torsion_relative", "max": max_rel, "pass": passed}]
    if fd_max is not None:
        checks.append({"name": "fd_oracle_delta", "max": fd_max, "pass": True})
    payload = {
        "schema": 1,
        "subject": f"torsion of {ctx.kind}",
        "params": {**ctx.params(), "tol": args.tol,
                   **({"fd_step": args.fd_step} if args.fd_step is not None else {})},
        "results": results,
        "max_residual": max_raw,
        "checks": checks,
        "pass": passed,
        "wall_ms": (time.perf_counter() - t0) * 1e3,
    }
    header = ([f"point_{i}" for i in range(1, n + 1)]
              + ["i", "j", "k", "value"])
    _emit(args, payload, (header, rows))
    return 0 if passed else 1


def handle_charpoly(args) -> int:
    t0 = time.perf_counter()
    ctx = _build_context(args)
    n = ctx.n
    points = _point_list(args, n)
    results = []
    rows = []
    for p in points:
        sigma = charpoly(operator_eval(ctx.op, p).values)
        results.append({"point": [float(v) for v in p],
                        "sigma": [float(s) for s in sigma]})
        rows.append(list(map(float, p)) + [float(s) for s in sigma])
    payload = {
        "schema": 1,
        "subject": f"charpoly of {ctx.kind}",
        "params": ctx.params(),
        "results": results,
        "wall_ms": (time.perf_counter() - t0) * 1e3,
    }
    header = ([f"point_{i}" for i in range(1, n + 1)]
              + [f"sigma_{i}" for i in range(1, n + 1)])
    _emit(args, payload, (header, rows))
    return 0


def _applicable_checks(ctx: _OperatorContext) -> list:
    checks = ["torsion"]
    if ctx.kind in ("companion", "diffnondeg", "2d", "theorem1", "theorem2"):
        checks.append("sigma")
    if ctx.kind in ("theorem1", "2d", "theorem2"):
        checks.append("conjugation")
    if ctx.kind == "theorem2":
        checks.append("pde")
    return checks


def _conjugation_sweep(ctx: _OperatorContext, bounds, samples, seed, tol,
                       min_denominator, collect) -> VerificationReport:
    f = ctx.f
    n = ctx.n
    # The identity is stated for the sigma_i = +x_i convention, so the
    # planar family (sigma_1 = -x1) is checked against the regular-family
    # form of the same f rather than its own matrix.
    L = ctx.op if ctx.kind in ("theorem1", "theorem2") else build_regular_family(f, n)
    points = sample_box(bounds, n, samples, seed)

    def eval_chunk(P):
        raw, scale = conjugation_residual(f, n, P, L=L)
        return raw, raw / scale, {}

    def guard(P):
        return abs(f(P).gradient[..., -1])

    return run_sweep(
        points, eval_chunk, tol,
        subject=f"conjugation identity for f={f.label}",
        params={"n": n, "f": f.label, "samples": samples, "seed": seed,
                "tol": tol},
        gate_name="conjugation_relative",
        guard=guard, min_margin=min_denominator, collect=collect)


def handle_verify(args) -> int:
    t0 = time.perf_counter()
    ctx = _build_context(args)
    n = ctx.n
    bounds = _box_bounds(args, n)
    collect = args.format == "csv"

    if args.check == "all":
        wanted = _applicable_checks(ctx)
    else:
        wanted = [args.check]
        if args.check == "sigma":
            _require(ctx.kind != "matrix",
                     "sigma check needs a family with known coefficients")
        if args.check == "conjugation":
            _require(ctx.f is not None,
                     "conjugation check requires a family with an f "
                     "(theorem1, 2d, or theorem2)")
        if args.check == "pde":
            _require(ctx.f is not None,
                     "pde check requires a family with an f "
                     "(theorem1, 2d, or theorem2)")

    reports = []
    for check in wanted:
        tol = args.tol if args.tol is not None else DEFAULT_TOLS[check]
        if check == "torsion":
            rep = verify_zero_torsion(
                ctx.op, bounds, args.samples, args.seed, tol,
                min_denominator=args.min_denominator, collect=collect)
        elif check == "sigma":
            if ctx.kind in ("companion", "diffnondeg"):
                sigma = ctx.sigma

                def expected(p, sigma=sigma):
                    return np.asarray([s(p).value for s in sigma])

                rep = verify_sigma_fields(
                    ctx.op, expected, bounds, args.samples, args.seed, tol,
                    min_denominator=args.min_denominator,
                    subject=f"invariant recovery for {ctx.kind}",
                    params={**ctx.params(), "samples": args.samples,
                            "seed": args.seed, "tol": tol},
                    collect=collect)
            else:
                rep = verify_sigma_coords(
                    ctx.op, ctx.f, n, bounds, args.samples, args.seed, tol,
                    signs=ctx.signs, min_denominator=args.min_denominator,
                    collect=collect)
        elif check == "conjugation":
            rep = _conjugation_sweep(ctx, bounds, args.samples, args.seed,
                                     tol, args.min_denominator, collect)
        else:  # pde
            R = morse_remainder_field(ctx.f, n)
            base_points = sample_box(bounds[:n - 1], n - 1, args.samples,
                                     args.seed)
            rep = verify_pde(
                R, n, base_points, tol,
                subject=f"remainder system for f={ctx.f.label}",
                params={**ctx.params(), "samples": args.samples,
                        "seed": args.seed, "tol": tol},
                collect=collect)
        reports.append((check, rep))

    accepted = sum(r.accepted for _, r in reports)
    rejected = sum(r.rejected for _, r in reports)
    max_residual = max(r.max_residual for _, r in reports)
    passed = all(r.passed for _, r in reports)
    worst_point = None
    worst_rel = -1.0
    checks_out = []
    rows = []
    for name, rep in reports:
        gate = rep.checks[0]
        if gate.max > worst_rel:
            worst_rel = gate.max
            worst_point = rep.worst_point
        for c in rep.checks:
            checks_out.append({"name": c.name, "max": c.max, "pass": c.passed})
        if collect and rep.points is not None:
            for p, raw, rel, _extras in rep.points:
                coords = list(map(float, p)) + [""] * (n - len(p))
                rows.append([name] + coords + [float(raw), float(rel)])
    params = {**ctx.params(),
              "check": args.check,
              "box": [[float(a), float(b)] for a, b in bounds],
              "samples": args.samples, "seed": args.seed,
              "tol": args.tol,
              "min_denominator": args.min_denominator}
    payload = {
        "schema": 1,
        "subject": f"verify {ctx.kind} [{', '.join(w for w, _ in reports)}]",
        "params": params,
        "accepted": accepted,
        "rejected": rejected,
        "max_residual": max_residual,
        "worst_point": (None if worst_point is None
                        else [float(v) for v in worst_point]),
        "checks": checks_out,
        "pass": passed,
        "wall_ms": (time.perf_counter() - t0) * 1e3,
    }
    header = (["check"] + [f"point_{i}" for i in range(1, n + 1)]
              + ["raw", "relative"])
    _emit(args, payload, (header, rows))
    return 0 if passed else 1


def handle_diagnose(args) -> int:
    t0 = time.perf_counter()
    n = args.n
    _require(n >= 2, f"--n must be at least 2, got {n}")
    f = _field(args.f, n)
    points = _point_list(args, n)
    results = []
    rows = []
    for p in points:
        diag = smoothness_numerators(f, n, p)
        results.append({
            "point": [float(v) for v in p],
            "numerators": [float(v) for v in diag.numerators],
            "denominator": float(diag.denominator),
            "verdict": diag.verdict,
        })
        rows.append(list(map(float, p)) + [float(diag.denominator)]
                    + [float(v) for v in diag.numerators] + [diag.verdict])
    payload = {
        "schema": 1,
        "subject": "smoothness diagnostics",
        "params": {"n": n, "f": args.f},
        "results": results,
        "wall_ms": (time.perf_counter() - t0) * 1e3,
    }
    num_names = ["N0"] + [f"N{j}" for j in range(2, n)]
    header = ([f"point_{i}" for i in range(1, n + 1)]
              + ["denominator"] + num_names + ["verdict"])
    _emit(args, payload, (header, rows))
    return 0


def handle_pde_check(args) -> int:
    n = args.n
    _require(n >= 2, f"--n must be at least 2, got {n}")
    m = n - 1
    R = remainder_from_expression(args.R, n)
    tol = args.tol if args.tol is not None else DEFAULT_TOLS["pde"]
    if getattr(args, "point", None):
        points = _point_list(args, m)
    else:
        raw = getattr(args, "box", None)
        if raw is None:
            bounds = normalize_box((-1.0, 1.0), m)
        elif len(raw) == 2:
            bounds = normalize_box(tuple(raw), m)
        elif len(raw) == 2 * m:
            bounds = normalize_box(
                [(raw[2 * i], raw[2 * i + 1]) for i in range(m)], m)
        else:
            raise UsageError(
                f"--box needs 2 values or {2 * m} values for the "
                f"{m}-dimensional base, got {len(raw)}")
        points = sample_box(bounds, m, args.samples, args.seed)
    rep = verify_pde(R, n, points, tol,
                     subject=f"remainder system for R={args.R}",
                     params={"n": n, "R": args.R, "samples": len(points),
                             "seed": args.seed, "tol": tol},
                     collect=True)
    payload = _report_payload(rep.subject, rep.params, rep)
    rows = []
    for p, raw, _rel, extras in rep.points:
        rows.append(list(map(float, p))
                    + [float(raw), float(extras["factor2"])])
    header = ([f"x{i}" for i in range(1, m + 1)]
              + ["system_residual", "factor2"])
    _emit(args, payload, (header, rows))
    return 0 if rep.passed else 1


def handle_morse_reduce(args) -> int:
    t0 = time.perf_counter()
    n = args.n
    _require(n >= 2, f"--n must be at least 2, got {n}")
    f = _field(args.f, n)
    if getattr(args, "box", None) is not None:
        bounds = _box_bounds(args, n)
        rep = verify_morse_normal_form(f, n, bounds, grid=args.samples,
                                       tol=args.tol, y0=args.y0,
                                       collect=(args.format == "csv"))
        payload = _report_payload(rep.subject,
                                  {**rep.params, "box": [[float(a), float(b)]
                                                         for a, b in bounds]},
                                  rep)
        rows = []
        if rep.points is not None:
            for p, defect, _rel, _extras in rep.points:
                rows.append(list(map(float, p)) + [float(defect)])
        header = ([f"point_{i}" for i in range(1, n + 1)] + ["defect"])
        _emit(args, payload, (header, rows))
        return 0 if rep.passed else 1
    points = _point_list(args, n - 1,
                         "--point (with n-1 coordinates) or --box")
    results = []
    rows = []
    for x in points:
        data = morse_reduce(f, n, x, y0=args.y0)
        results.append({
            "x": [float(v) for v in data.x],
            "c": data.c,
            "R": data.R,
            "sign": data.sign,
            "newton_iters": data.newton_iters,
            "fyy": data.fyy,
        })
        rows.append(list(map(float, data.x))
                    + [data.c, data.R, data.sign, data.newton_iters])
    payload = {
        "schema": 1,
        "subject": "parametric reduction",
        "params": {"n": n, "f": args.f, "y0": args.y0},
        "results": results,
        "wall_ms": (time.perf_counter() - t0) * 1e3,
    }
    header = ([f"x{i}" for i in range(1, n)]
              + ["c", "R", "sign", "newton_iters"])
    _emit(args, payload, (header, rows))
    return 0


# -- entry points ----------------------------------------------------------------

def _error_payload(command: str, message: str, position=None) -> dict:
    payload = {"schema": 1, "subject": command, "error": message}
    if position is not None:
        payload["position"] = position
    return payload


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, dispatch, and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        json.dump(_error_payload("usage", str(exc)), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 2
    try:
        return args.handler(args)
    except ExpressionError as exc:
        _emit(args, _error_payload(args.command, str(exc),
                                   position=exc.position))
        return 2
    except UsageError as exc:
        _emit(args, _error_payload(args.command, str(exc)))
        return 2
    except ValueError as exc:
        _emit(args, _error_payload(args.command, str(exc)))
        return 2
    except (NonMorseError, NewtonDivergenceError, DomainEntirelySingular,
            NumericallySingular, SingularPointError, ArithmeticError) as exc:
        _emit(args, _error_payload(args.command, str(exc)))
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
