"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
``[acceptance] ...: PASS/FAIL`` line regardless of pytest's capture mode,
then asserts. Tolerances are part of the contract and are not loosened
here; a red criterion means the library does not meet its gate.
"""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from expr_corpus import CORPUS
from nijenhuis.cli import run as cli_run
from nijenhuis.construct import build_morse_canonical, build_regular_family
from nijenhuis.expr import ExpressionError, format_expression, parse_expression
from nijenhuis.field import OperatorField, ScalarField, operator_eval
from nijenhuis.invariants import charpoly, coordinate_sigma, sigma_identity
from nijenhuis.report import normalize_box, sample_box
from nijenhuis.singularity import (NonMorseError, morse_reduce,
                                   pde_residuals, remainder_from_expression,
                                   smoothness_numerators,
                                   verify_morse_normal_form)
from nijenhuis.torsion import (torsion_bracket_fd, torsion_from_eval,
                               torsion_identity)
from sweeps import regular_conjugation, sweep

SEED = 42
SAMPLES = 1000


class _Criterion:
    def __init__(self, num, name):
        self.num = num
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.num:2d} ({self.name}): {status}")
        return False


def box(n, lo=-1.0, hi=1.0):
    return normalize_box((lo, hi), n)


def cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_run(list(argv))
    return code, buf.getvalue()


def test_criterion_01_canonical_family_torsion_vanishes():
    with _Criterion(1, "canonical family torsion"):
        for n in (3, 4, 5):
            for sign in (1, -1):
                L = build_morse_canonical(n, sign)
                rep = sweep(L, torsion_identity(1e-12), box(n),
                            samples=SAMPLES, seed=SEED)
                assert rep.rejected == 0, (n, sign)
                assert rep.max_residual <= 1e-12, (n, sign, rep.max_residual)
                assert rep.passed, (n, sign)


REGULAR_F_TEXTS = ("y", "y^3 + y + x1", "y^2 + x1*x2 + 0.3*y")


def test_criterion_02_regular_family_torsion_vanishes():
    with _Criterion(2, "regular family torsion"):
        swept = 0
        for n in (2, 3, 4):
            for text in REGULAR_F_TEXTS:
                try:
                    f = ScalarField.from_expression(text, n)
                except ExpressionError:
                    # x2 does not exist at n = 2; the combination is skipped
                    assert n == 2 and "x2" in text
                    continue
                L = build_regular_family(f, n)
                rep = sweep(L, torsion_identity(1e-10, L.guard, 0.05), box(n),
                            samples=SAMPLES, seed=SEED)
                gate = rep.checks[0]
                assert gate.name == "torsion_relative"
                assert gate.max <= 1e-10, (n, text, gate.max)
                assert rep.passed, (n, text)
                swept += 1
        assert swept == 8


def _random_f(rng, n):
    a = round(float(rng.uniform(-1.0, 1.0)), 3)
    b = round(float(rng.uniform(-1.0, 1.0)), 3)
    last = f"x{n - 1}"
    pool = [
        "y",
        f"y^3 + y + {a!r}*x1",
        f"y^2 + {a!r}*x1*y + {b!r}",
        f"{a!r}*y^2 + {last} + {b!r}*y + 1.5",
        f"sin(x1) + y + {a!r}*y^2",
    ]
    return ScalarField.from_expression(pool[int(rng.integers(len(pool)))], n)


def test_criterion_03_conjugation_identity():
    with _Criterion(3, "conjugation identity"):
        rng = np.random.default_rng(SEED)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 7))
            f = _random_f(rng, n)
            p = rng.uniform(-1.0, 1.0, size=n)
            if abs(f(p).gradient[-1]) < 0.2:
                continue  # keep the denominator well conditioned
            raw, scale = regular_conjugation(f, p)
            assert raw <= 1e-11 * scale, (n, f.label, p, raw / scale)
            checked += 1


def _acceptance_operators():
    ops = []
    for n in (3, 4, 5):
        for sign in (1, -1):
            ops.append((build_morse_canonical(n, sign), n))
    for n in (2, 3, 4):
        for text in REGULAR_F_TEXTS:
            try:
                f = ScalarField.from_expression(text, n)
            except ExpressionError:
                continue
            ops.append((build_regular_family(f, n), n))
    diag = OperatorField.from_entries([
        [ScalarField.from_expression("y", 2), ScalarField.constant(0.0, 2)],
        [ScalarField.constant(0.0, 2), ScalarField.from_expression("x1", 2)],
    ], label="diag(y,x)")
    ops.append((diag, 2))
    return ops


def test_criterion_04_bracket_oracle_equivalence():
    with _Criterion(4, "bracket oracle equivalence"):
        rng = np.random.default_rng(SEED)
        ratio_checked = 0
        for L, n in _acceptance_operators():
            tried = 0
            for _ in range(40):
                if tried >= 5:
                    break
                p = rng.uniform(-1.0, 1.0, size=n)
                if L.guard is not None and L.guard(p, L.source(p)) < 0.3:
                    continue
                tried += 1
                exact = torsion_from_eval(operator_eval(L, p))

                def delta(h):
                    fd = torsion_bracket_fd(L, p, h=h)[1]
                    return float(np.max(np.abs(fd - exact)))

                assert delta(1e-4) <= 1e-6, (L.label, p)
                # quadratic convergence is measured where truncation
                # dominates rounding, so the halving starts higher up
                d = [delta(h) for h in (2e-3, 1e-3, 5e-4)]
                if d[0] > 1e-8:
                    assert d[0] / d[1] >= 3.5, (L.label, p, d)
                    assert d[1] / d[2] >= 3.5, (L.label, p, d)
                    ratio_checked += 1
            assert tried >= 3, L.label
        assert ratio_checked > 0


def test_criterion_05_invariant_recovery():
    with _Criterion(5, "invariant recovery"):
        for n in (3, 4):
            ones = np.ones(n - 1)
            f = ScalarField.from_expression("y^2 + x1*x2 + 0.3*y", n)
            L = build_regular_family(f, n)
            rep = sweep(L, sigma_identity(coordinate_sigma(f, n, ones),
                                          1e-9, L.guard, 0.05),
                        box(n), samples=SAMPLES, seed=SEED)
            assert rep.max_residual <= 1e-9, (n, rep.max_residual)
            assert rep.passed
            Lc = build_morse_canonical(n, 1)
            fc = ScalarField.from_expression("y^2", n)
            repc = sweep(Lc, sigma_identity(coordinate_sigma(fc, n, ones),
                                            1e-9),
                         box(n), samples=SAMPLES, seed=SEED, source=fc)
            assert repc.max_residual <= 1e-9, (n, repc.max_residual)
        # frozen worked value
        f3 = ScalarField.from_expression("y^2", 3)
        L3 = build_regular_family(f3, 3)
        sigma = charpoly(operator_eval(L3, np.array([1.0, -1.0, 2.0])).value)
        assert np.max(np.abs(sigma - np.array([1.0, -1.0, 4.0]))) <= 1e-12


def test_criterion_06_negative_control():
    with _Criterion(6, "negative control"):
        diag = OperatorField.from_entries([
            [ScalarField.from_expression("y", 2),
             ScalarField.constant(0.0, 2)],
            [ScalarField.constant(0.0, 2),
             ScalarField.from_expression("x1", 2)],
        ], label="diag(y,x)")
        rep = sweep(diag, torsion_identity(1e-10), box(2), samples=SAMPLES,
                    seed=SEED)
        assert not rep.passed
        pts = sample_box(box(2), 2, SAMPLES, SEED)
        expected = float(np.max(np.abs(pts[:, 1] - pts[:, 0])))
        assert abs(rep.max_residual - expected) <= 1e-9


def test_criterion_07_remainder_system_values():
    with _Criterion(7, "remainder system values"):
        rng = np.random.default_rng(SEED)
        for n in (3, 4, 5):
            R0 = ScalarField.constant(0.0, n - 1)
            for _ in range(50):
                x = rng.uniform(-1.0, 1.0, size=n - 1)
                assert pde_residuals(R0, n, x).system_max() <= 1e-14
        Rp = remainder_from_expression("x1^2/4", 2)
        for _ in range(50):
            x = rng.uniform(-1.0, 1.0, size=1)
            assert pde_residuals(Rp, 2, x).system_max() <= 1e-14
        for n, text in ((3, "x1 + x2"), (4, "x1 + x3")):
            Rl = remainder_from_expression(text, n)
            for _ in range(50):
                x = rng.uniform(-1.0, 1.0, size=n - 1)
                assert abs(pde_residuals(Rl, n, x).r0 + 1.0) <= 1e-12


def _random_remainder(rng):
    # linear or quadratic in (x1, x2) with coefficient norm >= 0.1
    while True:
        if rng.integers(2) == 0:
            c = [float(v) for v in rng.uniform(-1.0, 1.0, size=3)]
            if np.linalg.norm(c) < 0.1:
                continue
            text = f"{c[0]!r}*x1 + {c[1]!r}*x2 + {c[2]!r}"
        else:
            c = [float(v) for v in rng.uniform(-1.0, 1.0, size=6)]
            if np.linalg.norm(c) < 0.1:
                continue
            text = (f"{c[0]!r}*x1^2 + {c[1]!r}*x1*x2 + {c[2]!r}*x2^2"
                    f" + {c[3]!r}*x1 + {c[4]!r}*x2 + {c[5]!r}")
        return remainder_from_expression(text, 3)


def test_criterion_08_obstruction_witness():
    with _Criterion(8, "obstruction witness"):
        rng = np.random.default_rng(SEED)
        for trial in range(100):
            R = _random_remainder(rng)
            worst = 0.0
            for _ in range(3):
                x = rng.uniform(-1.0, 1.0, size=2)
                worst = max(worst, pde_residuals(R, 3, x).system_max())
            assert worst > 1e-6, (trial, R.label, worst)
        # the zero remainder is the one sampled solution
        R0 = ScalarField.constant(0.0, 2)
        x = rng.uniform(-1.0, 1.0, size=2)
        assert pde_residuals(R0, 3, x).system_max() <= 1e-14


def test_criterion_09_morse_reduction():
    with _Criterion(9, "parametric Morse reduction"):
        f = ScalarField.from_expression("y^2 + x1*y", 2)
        for x1 in np.linspace(-1.0, 1.0, 21):
            data = morse_reduce(f, 2, np.array([x1]))
            assert abs(data.c + x1 / 2.0) <= 1e-10, x1
            assert abs(data.R + x1 * x1 / 4.0) <= 1e-10, x1
            assert data.sign == 1
        rep = verify_morse_normal_form(f, 2, box(2), grid=21, tol=1e-9)
        assert rep.passed
        assert rep.max_residual <= 1e-9
        with pytest.raises(NonMorseError):
            morse_reduce(ScalarField.from_expression("y^3", 2), 2,
                         np.array([0.0]))


def test_criterion_10_smoothness_diagnostics():
    with _Criterion(10, "smoothness diagnostics"):
        f2 = ScalarField.from_expression("y^2", 2)
        d = smoothness_numerators(f2, 2, np.array([0.4, 0.0]))
        assert d.verdict == "singular-denominator-zero-numerators"
        f3 = ScalarField.from_expression("y^2 + x1", 3)
        d3 = smoothness_numerators(f3, 3, np.array([0.4, -0.1, 0.0]))
        assert d3.verdict == "obstructed"
        assert abs(d3.numerators[1] - 1.0) <= 1e-12


def test_criterion_11_parser_round_trip_and_errors():
    with _Criterion(11, "parser round trip and errors"):
        assert len(CORPUS) >= 30
        for text, n in CORPUS:
            ast = parse_expression(text, n)
            assert parse_expression(format_expression(ast), n) == ast, text
        for bad, n in (("x3 + y", 3), ("y^1.5", 2), ("(y + 1", 2)):
            code, out = cli("diagnose", "--f", bad, "--n", str(n),
                            "--point", *(["0.1"] * n))
            assert code == 2, bad
            doc = json.loads(out)
            assert "position" in doc, bad
            assert isinstance(doc["position"], int)


def test_criterion_12_deterministic_reports():
    with _Criterion(12, "deterministic reports"):
        invocations = [
            ("verify", "--family", "theorem2", "--n", "4", "--check", "all",
             "--samples", "150", "--seed", "11"),
            ("verify", "--family", "theorem1", "--n", "3",
             "--f", "y^2 + x1*x2 + 0.3*y", "--check", "torsion",
             "--samples", "150", "--seed", "11", "--format", "csv"),
            ("verify", "--matrix", "diag:y,x", "--samples", "60",
             "--format", "text"),
        ]
        for argv in invocations:
            code1, out1 = cli(*argv)
            code2, out2 = cli(*argv)
            assert code1 == code2
            strip = lambda s: [ln for ln in s.splitlines()
                               if "wall_ms" not in ln]
            assert strip(out1) == strip(out2), argv
