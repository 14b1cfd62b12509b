"""Command-line front end.

Subcommands: construct, torsion, verify, charpoly, diagnose, pde-check,
morse-reduce. Every handler returns a _Report: a JSON payload and record
arrays (per point; per component for torsion). _emit, the one writer, shows
it as JSON (default), CSV (one row per record, 17-digit floats), or text.
Exit codes: 0 all checks pass, 1 checks ran and failed, 2 usage/parse/config
error, 3 numerical failure (Newton divergence, degenerate/singular
evaluation, fully singular domain). Identical invocations with the same seed
produce byte-identical reports except for the wall_ms field.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
import time
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .field import (JET_ERRSTATE, ScalarField, OperatorField,
                    operator_eval)
from .construct import (_fy_margin, build_2d, build_companion,
                        build_diff_nondegenerate, build_morse_canonical,
                        build_regular_family, conjugation_residual)
from .torsion import (DEFAULT_MIN_DENOMINATOR, torsion_from_eval,
                      torsion_bracket_fd, torsion_identity)
from .invariants import charpoly, coordinate_sigma, sigma_identity
from .singularity import (morse_reduce, morse_remainder_field,
                          remainder_from_expression, smoothness_numerators,
                          verify_morse_normal_form, verify_pde)
from .report import (Identity, entry_scale, first_failure, normalize_box,
                     sample_box, run_sweep)

__all__ = ["main", "run", "UsageError"]

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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a single-dash token other than -h is a value ("-1e-05" as CSV
        # writes it, or "-x1+1"), not a flag; subparsers share this class
        self._negative_number_matcher = re.compile(r"^-(?!-|h$)")

    def error(self, message):
        raise UsageError(message)


def _sign_value(text: str) -> int:
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise argparse.ArgumentTypeError(f"sign must be +1 or -1, got {text!r}")


def _checked(convert: type, valid: Callable, expected: str) -> Callable:
    """A flag type: convert(text) if valid; errors as argparse words them."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}")
        return value
    return parse


_finite_float = _checked(float, math.isfinite, "a finite number")
_seed_value = _checked(int, lambda v: v >= 0, "a non-negative integer")


# -- argument plumbing ---------------------------------------------------------

def _add_output_flags(sp, handler):
    """The last flags of every subcommand, and the handler that runs it."""
    sp.add_argument("--format", choices=("json", "csv", "text"),
                    default="json", help="report format (default json)")
    sp.add_argument("--out", default=None, metavar="PATH",
                    help="write the report to PATH instead of standard output")
    sp.set_defaults(handler=handler)


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
    sp.add_argument("--seed", type=_seed_value, default=42,
                    help="PRNG seed (default 42)")
    sp.add_argument("--tol", type=_finite_float, default=None,
                    help="pass tolerance (default depends on the check)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one (parsing leaves no state in it)."""
    p = _Parser(prog="nijenhuis",
                description="Construct operator families with vanishing "
                            "torsion, verify their defining identities, and "
                            "diagnose determinant singularities.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("construct", help="evaluate a family at points")
    _add_operator_flags(sp)
    _add_point_flag(sp)
    _add_output_flags(sp, handle_construct)

    sp = sub.add_parser("torsion", help="evaluate torsion at points")
    _add_operator_flags(sp)
    _add_point_flag(sp)
    sp.add_argument("--tol", type=_finite_float,
                    default=DEFAULT_TOLS["torsion"],
                    help="relative pass tolerance (default 1e-10)")
    sp.add_argument("--fd-step", type=_finite_float, default=None,
                    metavar="H",
                    help="also run the finite-difference oracle with step H")
    _add_output_flags(sp, handle_torsion)

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
    _add_output_flags(sp, handle_verify)

    sp = sub.add_parser("charpoly",
                        help="characteristic coefficients at points")
    _add_operator_flags(sp)
    _add_point_flag(sp)
    _add_output_flags(sp, handle_charpoly)

    sp = sub.add_parser("diagnose",
                        help="smoothness-fraction diagnostics of f")
    sp.add_argument("--f", metavar="EXPR", required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_point_flag(sp, "diagnostic point (repeatable)", required=True)
    _add_output_flags(sp, handle_diagnose)

    sp = sub.add_parser("pde-check",
                        help="remainder-system residuals for R")
    sp.add_argument("--R", metavar="EXPR", required=True,
                    help="remainder expression in x1..x(n-1)")
    sp.add_argument("--n", type=int, required=True)
    _add_point_flag(sp, "base point with n-1 coordinates "
                        "(repeatable; default: sampled box)")
    _add_sweep_flags(sp)
    _add_output_flags(sp, handle_pde_check)

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
    _add_output_flags(sp, handle_morse_reduce)

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
    got = next((len(values) for values in raw if len(values) != dim), dim)
    _require(got == dim, f"{what} needs {dim} coordinates, got {got}")
    return np.asarray(raw, dtype=float)


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
    label = "matrix"
    if spec.startswith("diag:"):
        cells = [s.strip() for s in spec[len("diag:"):].split(",")]
        _require(all(cells), "--matrix diag: has an empty entry")
        # the diagonal as row-major rows, off-diagonal cells "0"
        rows = [",".join(c if i == j else "0" for j in range(len(cells)))
                for i, c in enumerate(cells)]
        label = f"matrix {spec}"
    else:
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
    return OperatorField.from_entries(grid, label=label)


class _Context(NamedTuple):
    """An operator and what its family knows about it: sigma(P, src), the
    expected coefficients (..., n) at points (..., n) from the sweep's
    source there; f, the determinant coefficient; signs, those of
    x1..x(n-1) in sigma; the checks `--check all` runs."""

    op: OperatorField
    params: dict
    sigma: Optional[Callable[[np.ndarray, object], np.ndarray]] = None
    f: Optional[ScalarField] = None
    signs: Optional[np.ndarray] = None
    checks: tuple = ("torsion",)


class _Family(NamedTuple):
    """A --family: flag, the option its input comes from; text(value, n),
    the input's text from the option's value (None: the value); the least
    n and the n it fixes; build(input, n, value), the operator from the
    parsed f or sigma; signs of x1..x(n-1) in sigma, for a family built
    from f (None: from sigma); extra checks of `--check all`."""

    flag: str
    text: Optional[Callable]
    least_n: int
    fixed_n: Optional[int]
    build: Callable[..., OperatorField]
    signs: Optional[float] = None
    extra: tuple = ()


# argparse lists the choices in this order
FAMILIES = {
    "companion": _Family("sigma", lambda text, n: ",".join(
        _names("x", n - 1) + ["y"]) if text is None else text, 2, None,
        lambda sigma, n, _: build_companion(sigma)),
    "diffnondeg": _Family("sigma", None, 2, None,
                          lambda sigma, n, _: build_diff_nondegenerate(sigma)),
    "2d": _Family("f", None, 2, 2, lambda f, n, _: build_2d(f), -1.0),
    "theorem1": _Family("f", None, 2, None,
                        lambda f, n, _: build_regular_family(f, n), 1.0),
    "theorem2": _Family(
        "sign", lambda sign, n: "y^2" if sign > 0 else "-y^2", 3, None,
        lambda f, n, sign: build_morse_canonical(n, sign), 1.0, ("pde",)),
}


def _build_context(args) -> _Context:
    """The operator that --family or --matrix names, with its family data."""
    family = getattr(args, "family", None)
    matrix = getattr(args, "matrix", None)
    _require(not (family and matrix), "choose either --family or --matrix")
    _require(family or matrix, "one of --family or --matrix is required")

    if matrix:
        op = _matrix_operator(matrix, args.n)
        return _Context(op, {"family": "matrix", "n": op.dim})

    spec = FAMILIES[family]
    n = spec.fixed_n or args.n
    if spec.fixed_n is None:
        _require(n is not None, f"--family {family} requires --n")
        _require(n >= 2, f"--n must be at least 2, got {n}")
        _require(n >= spec.least_n,
                 f"--family {family} requires --n > {spec.least_n - 1}")
    value = getattr(args, spec.flag)
    text = value if spec.text is None else spec.text(value, n)
    _require(text is not None, f"--family {family} requires --{spec.flag}")
    # a family that fixes n checks --n after its input
    _require(args.n in (None, n), f"--family {family} fixes --n {n}")
    params = {"family": family, "n": n,
              "sigma" if spec.signs is None else "f": text,
              **({"sign": value} if spec.flag == "sign" else {})}
    if spec.signs is None:
        return _Context(spec.build(_sigma_fields(text, n), n, value), params,
                        lambda P, sj: sj.value, checks=("torsion", "sigma"))
    f = _field(text, n)
    signs = np.full(n - 1, spec.signs)
    return _Context(spec.build(f, n, value), params,
                    coordinate_sigma(f, n, signs), f, signs,
                    ("torsion", "sigma", "conjugation") + spec.extra)


# -- reports -------------------------------------------------------------------

class _Report(NamedTuple):
    """A report: the JSON payload, record arrays along a leading axis, the
    CSV columns as (record key, header names), and text (None: default)."""

    payload: dict
    records: Optional[dict] = None
    columns: Sequence[tuple] = ()
    text: Optional[list] = None


def _payload(subject: str, **fields) -> dict:
    return {"schema": 1, "subject": subject, **fields}


def _sweep_payload(subject: str, params: dict, reports) -> dict:
    """The payload of a sweep's reports: counts summed, the largest raw
    residual, every check, pass iff all passed, and the worst point of the
    first report with the largest gate max (a NaN gate max never wins)."""
    worst_rel, worst_point = -1.0, None
    for rep in reports:
        if rep.checks[0].max > worst_rel:
            worst_rel, worst_point = rep.checks[0].max, rep.worst_point
    return _payload(
        subject, params=params,
        accepted=sum(r.accepted for r in reports),
        rejected=sum(r.rejected for r in reports),
        max_residual=max(r.max_residual for r in reports),
        worst_point=None if worst_point is None else worst_point.tolist(),
        checks=[{"name": c.name, "max": c.max, "pass": c.passed}
                for r in reports for c in r.checks],
        **{"pass": all(r.passed for r in reports)})


def _records(**arrays) -> list:
    """One dict per point from arrays along a leading points axis."""
    return [dict(zip(arrays, values))
            for values in zip(*(a.tolist() for a in arrays.values()))]


def _names(prefix: str, count: int) -> list:
    return [f"{prefix}{i}" for i in range(1, count + 1)]


_CSV_QUOTED = re.compile(r'[,"\r\n]').search


def _csv_cell(c, alone: bool) -> str:
    """A text cell: a float to 17 significant digits, anything else as str,
    quoted (" doubled) if it holds , " \\r or \\n, or is a lone empty cell."""
    text = f"{c:.16e}" if isinstance(c, float) else str(c)
    if _CSV_QUOTED(text) or (alone and not text):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv_text(records: dict, columns) -> str:
    """The CSV view as csv.writer's default dialect writes it: a header, then
    a row per record of each column's values in C order. A column's dtype
    picks its cells' format once; one row template formats every row."""
    header = [name for _, names in columns for name in names]
    cell = functools.partial(_csv_cell, alone=len(header) == 1)
    blocks = [records[key] for key, _ in columns]
    blocks = [a.reshape(len(a), math.prod(a.shape[1:])) for a in blocks]
    blocks = [a if a.dtype.kind in "fiub" else np.frompyfunc(cell, 1, 1)(a)
              for a in blocks]
    row = ",".join("%.16e" if a.dtype.kind == "f" else "%s"
                   for a in blocks for _ in range(a.shape[1])) + "\r\n"
    cells = np.concatenate(blocks, axis=1, dtype=object)
    return (",".join(map(cell, header)) + "\r\n"
            + (row * len(cells)) % tuple(cells.ravel().tolist()))


def _emit(fmt: str, report: _Report, sink) -> None:
    """Write the report's fmt view to sink, CSV as one _csv_text string;
    once the reader closes the pipe, the rest goes to os.devnull, silently."""
    try:
        if fmt == "csv" and report.columns:
            sink.write(_csv_text(report.records, report.columns))
        else:
            # an error report has no tabular form: its csv view is text
            lines = ([json.dumps(report.payload, indent=2)]
                     if fmt == "json"
                     else report.text or _default_text(report.payload))
            sink.writelines(line + "\n" for line in lines)
        sink.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sink.fileno())


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
# Each handler returns a _Report; run() stamps wall_ms on its payload, and
# _emit alone writes it.

def handle_construct(args) -> _Report:
    ctx = _build_context(args)
    n = ctx.op.dim
    P = _point_list(args, n)
    values = first_failure(P, lambda P: operator_eval(ctx.op, P).value)
    records = dict(point=P, matrix=values)
    results = _records(**records)
    payload = _payload(f"construct {ctx.params['family']}",
                       params=ctx.params, results=results)
    text = [payload["subject"]]
    for r in results:
        text.append(f"point {r['point']}:")
        for row in r["matrix"]:
            text.append("  [" + ", ".join(f"{v: .12g}" for v in row) + "]")
    matrix = [f"L_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    return _Report(payload, records,
                   [("point", _names("point_", n)), ("matrix", matrix)], text)


def handle_torsion(args) -> _Report:
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

    ev, N, Nfd = first_failure(P, evaluate, per_point)
    raw = np.max(np.abs(N), axis=(-3, -2, -1))
    scale = entry_scale(ev.value)
    rel = raw / scale
    # the components N^i_jk with j < k above 1e-13 * scale, in C order
    keep = ((np.abs(N) > 1e-13 * scale[:, None, None, None])
            & np.triu(np.ones((n, n), dtype=bool), 1))
    b, i, j, k = np.nonzero(keep)
    records = dict(point=P[b], i=i + 1, j=j + 1, k=k + 1, value=N[keep])
    max_rel = float(np.max(rel))
    passed = max_rel <= args.tol
    checks = [{"name": "torsion_relative", "max": max_rel, "pass": passed}]
    fd = {}
    if Nfd is not None:
        fd["fd_max_delta"] = np.max(np.abs(Nfd - N), axis=(-3, -2, -1))
        checks.append({"name": "fd_oracle_delta",
                       "max": float(np.max(fd["fd_max_delta"])), "pass": True})
    # components starts empty for every point; the rows are attached below
    results = _records(point=P, max_component=raw, relative=rel,
                       components=np.empty((len(P), 0)), **fd)
    for point, r in zip(b.tolist(), _records(**records)):
        results[point]["components"].append(
            {key: r[key] for key in ("i", "j", "k", "value")})
    payload = _payload(
        f"torsion of {ctx.params['family']}",
        params={**ctx.params, "tol": args.tol,
                **({"fd_step": args.fd_step} if args.fd_step is not None else {})},
        results=results, max_residual=float(np.max(raw)), checks=checks,
        **{"pass": passed})
    return _Report(payload, records, [("point", _names("point_", n))] + [
        (key, [key]) for key in ("i", "j", "k", "value")])


def handle_charpoly(args) -> _Report:
    ctx = _build_context(args)
    n = ctx.op.dim
    P = _point_list(args, n)
    sigma = first_failure(P, lambda P: charpoly(operator_eval(ctx.op, P).value))
    records = dict(point=P, sigma=sigma)
    payload = _payload(f"charpoly of {ctx.params['family']}",
                       params=ctx.params, results=_records(**records))
    return _Report(payload, records, [("point", _names("point_", n)),
                                      ("sigma", _names("sigma_", n))])


def _identity(ctx: _Context, check: str, tol: float,
              min_margin: float) -> Identity:
    """The identity a `verify` check states for the context's operator."""
    if check == "torsion":
        return torsion_identity(tol, ctx.op.guard, min_margin)
    if check == "sigma":
        return sigma_identity(ctx.sigma, tol, ctx.op.guard, min_margin)
    # the sweep's source is f
    return Identity("conjugation_relative", tol, lambda ev, P, fj:
                    conjugation_residual(P, fj, ev, ctx.signs),
                    _fy_margin, min_margin)


def handle_verify(args) -> _Report:
    ctx = _build_context(args)
    n = ctx.op.dim
    bounds = _box_bounds(args, n)
    wanted = ctx.checks if args.check == "all" else (args.check,)
    _require(ctx.sigma is not None or "sigma" not in wanted,
             "sigma check needs a family with known coefficients")
    if ctx.f is None and not {"conjugation", "pde"}.isdisjoint(wanted):
        *rest, last = (k for k, s in FAMILIES.items() if s.signs is not None)
        raise UsageError(f"{args.check} check requires a family with an f "
                         f"({', '.join(rest)}, or {last})")
    tol = {c: DEFAULT_TOLS[c] if args.tol is None else args.tol
           for c in wanted}
    subject = f"verify {ctx.params['family']} [{', '.join(wanted)}]"
    params = {**ctx.params, "check": args.check, "box": bounds.tolist(),
              "samples": args.samples, "seed": args.seed, "tol": args.tol,
              "min_denominator": args.min_denominator}
    # one sweep checks every identity at the same points; its source is f
    # where the sigma or conjugation identity reads f's jet, else the
    # operator's own (theorem2's has none); pde's base points have n-1
    # coordinates: its own sweep
    names = [c for c in wanted if c != "pde"]
    reads_f = not {"sigma", "conjugation"}.isdisjoint(names)
    reports = []
    if names:
        reports = run_sweep(
            sample_box(bounds, n, args.samples, args.seed),
            [_identity(ctx, c, tol[c], args.min_denominator) for c in names],
            source=(ctx.f if reads_f else None) or ctx.op.source,
            operator=ctx.op)
    if "pde" in wanted:
        names.append("pde")
        reports.append(verify_pde(
            morse_remainder_field(ctx.f, n), n,
            sample_box(bounds[:n - 1], n - 1, args.samples, args.seed),
            tol["pde"]))

    parts = []
    for name, rep in zip(names, reports):
        points = rep.records["point"]
        if points.shape[1] < n:   # pde base points: n-1 coordinates and ""
            points = np.pad(points.astype(object), ((0, 0), (0, 1)),
                            constant_values="")
        parts.append((np.full(len(points), name), points,
                      rep.records["raw"], rep.records["rel"]))
    records = dict(zip(("check", "point", "raw", "rel"),
                       map(np.concatenate, zip(*parts))))
    columns = [("check", ["check"]), ("point", _names("point_", n)),
               ("raw", ["raw"]), ("rel", ["relative"])]
    return _Report(_sweep_payload(subject, params, reports), records, columns)


def handle_diagnose(args) -> _Report:
    n = args.n
    _require(n >= 2, f"--n must be at least 2, got {n}")
    f = _field(args.f, n)
    P = _point_list(args, n)
    d = first_failure(P, lambda P: smoothness_numerators(f, n, P))
    records = dict(point=P, numerators=d.numerators,
                   denominator=d.denominator, verdict=d.verdict)
    payload = _payload("smoothness diagnostics", params={"n": n, "f": args.f},
                       results=_records(**records))
    columns = [("point", _names("point_", n)), ("denominator", ["denominator"]),
               ("numerators", ["N0"] + _names("N", n - 1)[1:]),
               ("verdict", ["verdict"])]
    return _Report(payload, records, columns)


def handle_pde_check(args) -> _Report:
    n = args.n
    _require(n >= 2, f"--n must be at least 2, got {n}")
    m = n - 1
    R = remainder_from_expression(args.R, n)
    tol = args.tol if args.tol is not None else DEFAULT_TOLS["pde"]
    if getattr(args, "point", None):
        points = _point_list(args, m)
    else:
        points = sample_box(_box_bounds(args, m), m, args.samples, args.seed)
    rep = verify_pde(R, n, points, tol)
    payload = _sweep_payload(
        f"remainder system for R={args.R}",
        {"n": n, "R": args.R, "samples": len(points), "seed": args.seed,
         "tol": tol}, [rep])
    columns = [("point", _names("x", m)), ("raw", ["system_residual"]),
               ("factor2", ["factor2"])]
    return _Report(payload, rep.records, columns)


def handle_morse_reduce(args) -> _Report:
    n = args.n
    _require(n >= 2, f"--n must be at least 2, got {n}")
    f = _field(args.f, n)
    if getattr(args, "box", None) is not None:
        bounds = _box_bounds(args, n)
        rep = verify_morse_normal_form(f, n, bounds, grid=args.samples,
                                       tol=args.tol, y0=args.y0)
        payload = _sweep_payload(
            f"normal-form defect grid for f={f.label}",
            {"dim": n, "f": f.label, "grid": args.samples, "tol": args.tol,
             "y0": args.y0, "box": bounds.tolist()}, [rep])
        columns = [("point", _names("point_", n)), ("raw", ["defect"])]
        return _Report(payload, rep.records, columns)
    X = _point_list(args, n - 1, "--point (with n-1 coordinates) or --box")
    data = first_failure(X, lambda X: morse_reduce(f, n, X, y0=args.y0))
    records = dict(x=X, c=data.c, R=data.R, sign=data.sign,
                   newton_iters=data.iters, fyy=data.fyy)
    payload = _payload("parametric reduction",
                       params={"n": n, "f": args.f, "y0": args.y0},
                       results=_records(**records))
    return _Report(payload, records, [("x", _names("x", n - 1))] + [
        (key, [key]) for key in ("c", "R", "sign", "newton_iters")])


# -- entry points ----------------------------------------------------------------

def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, run the handler, emit its report and return the exit code.

    wall_ms times the whole handler; the exit code is 1 iff the report's
    pass flag is False.
    """
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        _emit("json", _Report(_payload("usage", error=str(exc))), sys.stdout)
        return 2
    try:
        sink = (open(args.out, "w", newline="") if args.out
                else contextlib.nullcontext(sys.stdout))
    except OSError as exc:
        # before the handler runs, so that no sweep is wasted
        _emit(args.format, _Report(_payload(
            "usage", error=f"cannot write --out {args.out}: {exc.strerror}")),
            sys.stdout)
        return 2
    with sink as out:
        t0 = time.perf_counter()
        try:
            with np.errstate(**JET_ERRSTATE):
                report = args.handler(args)
        except (UsageError, ValueError, ArithmeticError) as exc:
            # usage and value errors exit 2 (a parse error keeps its byte
            # offset); every numerical failure is an ArithmeticError: exit 3
            error = _payload(args.command, error=str(exc))
            if getattr(exc, "position", None) is not None:
                error["position"] = exc.position
            _emit(args.format, _Report(error), out)
            return 2 if isinstance(exc, (UsageError, ValueError)) else 3
        report.payload["wall_ms"] = (time.perf_counter() - t0) * 1e3
        _emit(args.format, report, out)
    return 1 if report.payload.get("pass") is False else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
