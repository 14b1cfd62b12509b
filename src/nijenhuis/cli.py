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
import math
import sys
import time
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .field import (JET_ERRSTATE, ScalarField, OperatorField,
                    operator_eval)
from .construct import (build_2d, build_companion, build_diff_nondegenerate,
                        build_morse_canonical, build_regular_family,
                        conjugation_residual)
from .torsion import (DEFAULT_MIN_DENOMINATOR, torsion_from_eval,
                      torsion_bracket_fd, verify_zero_torsion)
from .invariants import charpoly, coordinate_sigma, verify_sigma_fields
from .singularity import (morse_reduce, morse_remainder_field,
                          remainder_from_expression, smoothness_numerators,
                          verify_morse_normal_form, verify_pde)
from .report import VerificationReport, normalize_box, sample_box, run_sweep

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


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


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


def _add_point_flag(sp, help="evaluation point (repeatable)", **kwargs):
    sp.add_argument("--point", action="append", nargs="+",
                    type=_finite_float, metavar="V", help=help, **kwargs)


def _add_sweep_flags(sp, samples_default=1000):
    sp.add_argument("--box", type=_finite_float, nargs="+", metavar="B",
                    help="box bounds: 'lo hi' for every axis, or one pair "
                         "per axis (default -1 1)")
    sp.add_argument("--samples", type=int, default=samples_default,
                    help=f"sample count (default {samples_default})")
    sp.add_argument("--seed", type=int, default=42,
                    help="PRNG seed (default 42)")
    sp.add_argument("--tol", type=_finite_float, default=None,
                    help="pass tolerance (default depends on the check)")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="nijenhuis",
                description="Construct operator families with vanishing "
                            "torsion, verify their defining identities, and "
                            "diagnose determinant singularities.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("construct", help="evaluate a family at points")
    _add_operator_flags(sp)
    _add_point_flag(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=handle_construct)

    sp = sub.add_parser("torsion", help="evaluate torsion at points")
    _add_operator_flags(sp)
    _add_point_flag(sp)
    sp.add_argument("--tol", type=_finite_float,
                    default=DEFAULT_TOLS["torsion"],
                    help="relative pass tolerance (default 1e-10)")
    sp.add_argument("--fd-step", type=_finite_float, default=None,
                    metavar="H",
                    help="also run the finite-difference oracle with step H")
    _add_output_flags(sp)
    sp.set_defaults(handler=handle_torsion)

    sp = sub.add_parser("verify", help="run verification sweeps")
    _add_operator_flags(sp)
    sp.add_argument("--check", choices=CHECKS, default="torsion",
                    help="which identity to verify (default torsion); "
                         "'all' runs every check applicable to the family")
    _add_sweep_flags(sp)
    sp.add_argument("--min-denominator", type=_finite_float,
                    default=DEFAULT_MIN_DENOMINATOR, metavar="M",
                    help="reject sample points whose denominator margin "
                         "|f_y| falls below M (default 0.05)")
    _add_output_flags(sp)
    sp.set_defaults(handler=handle_verify)

    sp = sub.add_parser("charpoly",
                        help="characteristic coefficients at points")
    _add_operator_flags(sp)
    _add_point_flag(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=handle_charpoly)

    sp = sub.add_parser("diagnose",
                        help="smoothness-fraction diagnostics of f")
    sp.add_argument("--f", metavar="EXPR", required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_point_flag(sp, "diagnostic point (repeatable)", required=True)
    _add_output_flags(sp)
    sp.set_defaults(handler=handle_diagnose)

    sp = sub.add_parser("pde-check",
                        help="remainder-system residuals for R")
    sp.add_argument("--R", metavar="EXPR", required=True,
                    help="remainder expression in x1..x(n-1)")
    sp.add_argument("--n", type=int, required=True)
    _add_point_flag(sp, "base point with n-1 coordinates "
                        "(repeatable; default: sampled box)")
    _add_sweep_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=handle_pde_check)

    sp = sub.add_parser("morse-reduce",
                        help="parametric reduction of f, or a normal-form "
                             "defect grid over a box")
    sp.add_argument("--f", metavar="EXPR", required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_point_flag(sp, "base point with n-1 coordinates (repeatable)")
    sp.add_argument("--box", type=_finite_float, nargs="+", metavar="B",
                    help="run the defect grid over this n-axis box instead")
    sp.add_argument("--samples", type=int, default=21,
                    help="grid points per axis for --box mode (default 21)")
    sp.add_argument("--tol", type=_finite_float, default=1e-9,
                    help="defect tolerance for --box mode (default 1e-9)")
    sp.add_argument("--y0", type=_finite_float, default=0.0,
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


def _point_list(args, dim: int, what: str = "--point") -> np.ndarray:
    """The --point values as points (B, dim), in argv order."""
    raw = getattr(args, "point", None)
    _require(bool(raw), f"{what} is required for this command")
    for values in raw:
        if len(values) != dim:
            raise UsageError(
                f"{what} needs {dim} coordinates, got {len(values)}")
    return np.asarray(raw, dtype=float)


def _evaluate(P: np.ndarray, batched: Callable, per_point=None):
    """batched(P), one evaluation of a whole --point list. If it raises,
    per_point (default batched) replays the points in argv order, so the
    error is the first failing point's, as that point alone gives it."""
    try:
        return batched(P)
    except (ArithmeticError, ValueError):
        for p in P:
            (per_point or batched)(p)
        raise


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


class _Context(NamedTuple):
    """An operator and what its family knows about it.

    sigma maps points (..., n) to the expected characteristic coefficients
    (..., n); f is the determinant coefficient; conjugated is the operator
    the conjugation identity J L = Ltilde J is stated for; checks are the
    checks that `--check all` runs.
    """

    op: OperatorField
    params: dict
    sigma: Optional[Callable[[np.ndarray], np.ndarray]] = None
    f: Optional[ScalarField] = None
    conjugated: Optional[OperatorField] = None
    checks: tuple = ("torsion",)


def _fields_sigma(fields: list):
    """Expected coefficients: the values of the coefficient fields."""
    return lambda P: np.stack([s(P).value for s in fields], axis=-1)


def _build_context(args) -> _Context:
    """The operator that --family or --matrix names, with its family data."""
    family = getattr(args, "family", None)
    matrix = getattr(args, "matrix", None)
    _require(not (family and matrix), "choose either --family or --matrix")
    _require(family or matrix, "one of --family or --matrix is required")

    if matrix:
        op = _matrix_operator(matrix, args.n)
        return _Context(op, {"family": "matrix", "n": op.dim})

    if family == "2d":
        _require(args.f is not None, "--family 2d requires --f")
        _require(args.n in (None, 2), "--family 2d fixes --n 2")
        f = _field(args.f, 2)
        # The conjugation identity is stated for the sigma_i = +x_i
        # convention, so the planar family (sigma_1 = -x1) is checked
        # against the regular-family form of the same f.
        return _Context(build_2d(f), {"family": "2d", "n": 2, "f": args.f},
                        coordinate_sigma(f, 2, (-1.0,)), f,
                        build_regular_family(f, 2),
                        ("torsion", "sigma", "conjugation"))

    _require(args.n is not None, f"--family {family} requires --n")
    n = args.n
    _require(n >= 2, f"--n must be at least 2, got {n}")

    if family == "theorem1":
        _require(args.f is not None, "--family theorem1 requires --f")
        f = _field(args.f, n)
        op = build_regular_family(f, n)
        return _Context(op, {"family": "theorem1", "n": n, "f": args.f},
                        coordinate_sigma(f, n, np.ones(n - 1)), f, op,
                        ("torsion", "sigma", "conjugation"))

    if family == "theorem2":
        _require(n >= 3, "--family theorem2 requires --n > 2")
        sign = args.sign
        f_text = "y^2" if sign > 0 else "-y^2"
        f = _field(f_text, n)
        op = build_morse_canonical(n, sign)
        return _Context(op, {"family": "theorem2", "n": n, "f": f_text,
                             "sign": sign},
                        coordinate_sigma(f, n, np.ones(n - 1)), f, op,
                        ("torsion", "sigma", "conjugation", "pde"))

    if family == "companion":
        if args.sigma is None:
            sigma_text = ",".join([f"x{i}" for i in range(1, n)] + ["y"])
        else:
            sigma_text = args.sigma
        fields = _sigma_fields(sigma_text, n)
        return _Context(build_companion(fields),
                        {"family": "companion", "n": n, "sigma": sigma_text},
                        _fields_sigma(fields), checks=("torsion", "sigma"))

    if family == "diffnondeg":
        _require(args.sigma is not None, "--family diffnondeg requires --sigma")
        fields = _sigma_fields(args.sigma, n)
        return _Context(build_diff_nondegenerate(fields),
                        {"family": "diffnondeg", "n": n, "sigma": args.sigma},
                        _fields_sigma(fields), checks=("torsion", "sigma"))

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


# -- handlers ------------------------------------------------------------------
# Each handler returns (payload, csv_table[, text_lines]); run() times it,
# emits the report and derives the exit code.

def handle_construct(args) -> tuple:
    ctx = _build_context(args)
    P = _point_list(args, ctx.op.dim)
    values = _evaluate(P, lambda P: operator_eval(ctx.op, P).values)
    points = P.tolist()
    results = [{"point": p, "matrix": m}
               for p, m in zip(points, values.tolist())]
    rows = [p + m for p, m in zip(points, values.reshape(len(P), -1).tolist())]
    n = ctx.op.dim
    header = ([f"point_{i}" for i in range(1, n + 1)]
              + [f"L_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)])
    payload = {
        "schema": 1,
        "subject": f"construct {ctx.params['family']}",
        "params": ctx.params,
        "results": results,
    }
    text = [payload["subject"]]
    for r in results:
        text.append(f"point {r['point']}:")
        for row in r["matrix"]:
            text.append("  [" + ", ".join(f"{v: .12g}" for v in row) + "]")
    return payload, (header, rows), text


def handle_torsion(args) -> tuple:
    ctx = _build_context(args)
    n = ctx.op.dim
    P = _point_list(args, n)

    def evaluate(P):
        # with --fd-step, the stencil's centre is the operator at P
        ev, Nfd = ((operator_eval(ctx.op, P), None) if args.fd_step is None
                   else torsion_bracket_fd(ctx.op, P, h=args.fd_step))
        return ev, torsion_from_eval(ev), Nfd

    def per_point(p):
        # the order a point raises in: itself, its torsion, its stencil
        torsion_from_eval(operator_eval(ctx.op, p))
        if args.fd_step is not None:
            torsion_bracket_fd(ctx.op, p, h=args.fd_step)

    ev, N, Nfd = _evaluate(P, evaluate, per_point)
    raw = np.max(np.abs(N), axis=(-3, -2, -1))
    scale = 1.0 + np.max(np.abs(ev.values), axis=(-2, -1))
    rel = raw / scale
    results = [{"point": p, "max_component": r, "relative": q,
                "components": []}
               for p, r, q in zip(P.tolist(), raw.tolist(), rel.tolist())]
    rows = []
    # the components N^i_jk with j < k above 1e-13 * scale, in C order
    keep = ((np.abs(N) > 1e-13 * scale[:, None, None, None])
            & np.triu(np.ones((n, n), dtype=bool), 1))
    for (b, i, j, k), v in zip(np.argwhere(keep).tolist(), N[keep].tolist()):
        results[b]["components"].append(
            {"i": i + 1, "j": j + 1, "k": k + 1, "value": v})
        rows.append(results[b]["point"] + [i + 1, j + 1, k + 1, v])
    max_rel = float(np.max(rel))
    passed = max_rel <= args.tol
    checks = [{"name": "torsion_relative", "max": max_rel, "pass": passed}]
    if Nfd is not None:
        delta = np.max(np.abs(Nfd - N), axis=(-3, -2, -1))
        for entry, d in zip(results, delta.tolist()):
            entry["fd_max_delta"] = d
        checks.append({"name": "fd_oracle_delta",
                       "max": float(np.max(delta)), "pass": True})
    payload = {
        "schema": 1,
        "subject": f"torsion of {ctx.params['family']}",
        "params": {**ctx.params, "tol": args.tol,
                   **({"fd_step": args.fd_step} if args.fd_step is not None else {})},
        "results": results,
        "max_residual": float(np.max(raw)),
        "checks": checks,
        "pass": passed,
    }
    header = ([f"point_{i}" for i in range(1, n + 1)]
              + ["i", "j", "k", "value"])
    return payload, (header, rows)


def handle_charpoly(args) -> tuple:
    ctx = _build_context(args)
    n = ctx.op.dim
    P = _point_list(args, n)
    sigma = _evaluate(P, lambda P: charpoly(operator_eval(ctx.op, P).values))
    results = [{"point": p, "sigma": s}
               for p, s in zip(P.tolist(), sigma.tolist())]
    rows = [r["point"] + r["sigma"] for r in results]
    payload = {
        "schema": 1,
        "subject": f"charpoly of {ctx.params['family']}",
        "params": ctx.params,
        "results": results,
    }
    header = ([f"point_{i}" for i in range(1, n + 1)]
              + [f"sigma_{i}" for i in range(1, n + 1)])
    return payload, (header, rows)


def _sweep(ctx: _Context, check: str, bounds: np.ndarray,
           args) -> VerificationReport:
    """Run one `verify` check over the box for the context's operator."""
    tol = args.tol if args.tol is not None else DEFAULT_TOLS[check]
    n = ctx.op.dim
    if check == "torsion":
        return verify_zero_torsion(ctx.op, bounds, args.samples, args.seed,
                                   tol, min_denominator=args.min_denominator)
    if check == "sigma":
        _require(ctx.sigma is not None,
                 "sigma check needs a family with known coefficients")
        return verify_sigma_fields(ctx.op, ctx.sigma, bounds, args.samples,
                                   args.seed, tol,
                                   min_denominator=args.min_denominator)
    f = ctx.f
    _require(f is not None, f"{check} check requires a family with an f "
                            "(theorem1, 2d, or theorem2)")
    if check == "pde":
        base_points = sample_box(bounds[:n - 1], n - 1, args.samples,
                                 args.seed)
        return verify_pde(morse_remainder_field(f, n), n, base_points, tol)

    def eval_chunk(P):
        raw, scale = conjugation_residual(f, n, P, L=ctx.conjugated)
        return raw, raw / scale, {}

    def guard(P):
        return abs(f(P).gradient[..., -1])

    return run_sweep(
        sample_box(bounds, n, args.samples, args.seed), eval_chunk, tol,
        subject=f"conjugation identity for f={f.label}",
        params={"n": n, "f": f.label, "samples": args.samples,
                "seed": args.seed, "tol": tol},
        gate_name="conjugation_relative",
        guard=guard, min_margin=args.min_denominator)


def handle_verify(args) -> tuple:
    ctx = _build_context(args)
    n = ctx.op.dim
    bounds = _box_bounds(args, n)
    wanted = ctx.checks if args.check == "all" else (args.check,)
    reports = [(check, _sweep(ctx, check, bounds, args)) for check in wanted]

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
        records = rep.records
        for p, raw, rel in zip(records["point"].tolist(),
                               records["raw"].tolist(),
                               records["rel"].tolist()):
            rows.append([name] + p + [""] * (n - len(p)) + [raw, rel])
    params = {**ctx.params,
              "check": args.check,
              "box": bounds.tolist(),
              "samples": args.samples, "seed": args.seed,
              "tol": args.tol,
              "min_denominator": args.min_denominator}
    payload = {
        "schema": 1,
        "subject": f"verify {ctx.params['family']} [{', '.join(wanted)}]",
        "params": params,
        "accepted": accepted,
        "rejected": rejected,
        "max_residual": max_residual,
        "worst_point": (None if worst_point is None
                        else worst_point.tolist()),
        "checks": checks_out,
        "pass": passed,
    }
    header = (["check"] + [f"point_{i}" for i in range(1, n + 1)]
              + ["raw", "relative"])
    return payload, (header, rows)


def handle_diagnose(args) -> tuple:
    n = args.n
    _require(n >= 2, f"--n must be at least 2, got {n}")
    f = _field(args.f, n)
    P = _point_list(args, n)
    d = _evaluate(P, lambda P: smoothness_numerators(f, n, P))
    results = [{"point": p, "numerators": num, "denominator": den, "verdict": v}
               for p, num, den, v in zip(*(a.tolist() for a in (
                   P, d.numerators, d.denominator, d.verdict)))]
    rows = [r["point"] + [r["denominator"]] + r["numerators"] + [r["verdict"]]
            for r in results]
    payload = {
        "schema": 1,
        "subject": "smoothness diagnostics",
        "params": {"n": n, "f": args.f},
        "results": results,
    }
    num_names = ["N0"] + [f"N{j}" for j in range(2, n)]
    header = ([f"point_{i}" for i in range(1, n + 1)]
              + ["denominator"] + num_names + ["verdict"])
    return payload, (header, rows)


def handle_pde_check(args) -> tuple:
    n = args.n
    _require(n >= 2, f"--n must be at least 2, got {n}")
    m = n - 1
    R = remainder_from_expression(args.R, n)
    tol = args.tol if args.tol is not None else DEFAULT_TOLS["pde"]
    if getattr(args, "point", None):
        points = _point_list(args, m)
    else:
        points = sample_box(_box_bounds(args, m), m, args.samples, args.seed)
    rep = verify_pde(R, n, points, tol,
                     subject=f"remainder system for R={args.R}",
                     params={"n": n, "R": args.R, "samples": len(points),
                             "seed": args.seed, "tol": tol})
    records = rep.records
    rows = [p + [raw, factor2] for p, raw, factor2 in
            zip(records["point"].tolist(), records["raw"].tolist(),
                records["factor2"].tolist())]
    header = ([f"x{i}" for i in range(1, m + 1)]
              + ["system_residual", "factor2"])
    return rep.to_dict(), (header, rows)


def handle_morse_reduce(args) -> tuple:
    n = args.n
    _require(n >= 2, f"--n must be at least 2, got {n}")
    f = _field(args.f, n)
    if getattr(args, "box", None) is not None:
        bounds = _box_bounds(args, n)
        rep = verify_morse_normal_form(f, n, bounds, grid=args.samples,
                                       tol=args.tol, y0=args.y0)
        rep.params["box"] = bounds.tolist()
        rows = [p + [defect] for p, defect in
                zip(rep.records["point"].tolist(), rep.records["raw"].tolist())]
        header = ([f"point_{i}" for i in range(1, n + 1)] + ["defect"])
        return rep.to_dict(), (header, rows)
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
    }
    header = ([f"x{i}" for i in range(1, n)]
              + ["c", "R", "sign", "newton_iters"])
    return payload, (header, rows)


# -- entry points ----------------------------------------------------------------

def _error_payload(command: str, message: str, position=None) -> dict:
    payload = {"schema": 1, "subject": command, "error": message}
    if position is not None:
        payload["position"] = position
    return payload


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, run the handler, emit its report and return the exit code.

    wall_ms times the whole handler; the exit code is 1 iff the report's
    pass flag is False.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        json.dump(_error_payload("usage", str(exc)), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 2
    t0 = time.perf_counter()
    try:
        with np.errstate(**JET_ERRSTATE):
            payload, *sinks = args.handler(args)
        payload["wall_ms"] = (time.perf_counter() - t0) * 1e3
        _emit(args, payload, *sinks)
        return 1 if payload.get("pass") is False else 0
    except (UsageError, ValueError) as exc:
        # an ExpressionError carries the byte offset of the parse fault
        error = _error_payload(args.command, str(exc),
                               getattr(exc, "position", None))
        code = 2
    except ArithmeticError as exc:
        # Newton divergence, non-Morse points, singular or degenerate
        # evaluation, an entirely singular domain, overflow
        error = _error_payload(args.command, str(exc))
        code = 3
    _emit(args, error)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
