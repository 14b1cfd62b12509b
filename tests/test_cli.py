"""Command-line behavior: subcommands, exit codes, formats, determinism."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import nijenhuis
from nijenhuis import cli
from nijenhuis.cli import _csv_text, run
from nijenhuis.field import ScalarField
from nijenhuis.singularity import verify_morse_normal_form


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


def test_torsion_witness_exits_one(capsys):
    code, doc = invoke_json(capsys, "torsion", "--matrix", "diag:y,x",
                            "--point", "1", "2")
    assert code == 1
    assert doc["pass"] is False
    comps = doc["results"][0]["components"]
    assert {"i": 1, "j": 1, "k": 2, "value": 1.0} in comps


def test_torsion_passes_for_family(capsys):
    code, doc = invoke_json(capsys, "torsion", "--family", "theorem2",
                            "--n", "3", "--point", "0.5", "-0.3", "0.7")
    assert code == 0
    assert doc["pass"] is True
    assert doc["results"][0]["components"] == []


def test_verify_theorem1_pde_check(capsys):
    code, doc = invoke_json(capsys, "verify", "--family", "theorem1",
                            "--n", "2", "--f", "x1*x1/4 + y^2",
                            "--check", "pde", "--samples", "60")
    assert code == 0
    assert doc["pass"] is True
    assert doc["max_residual"] <= 1e-12


def test_verify_all_checks_canonical_family(capsys):
    code, doc = invoke_json(capsys, "verify", "--family", "theorem2",
                            "--n", "4", "--sign", "-1", "--check", "all",
                            "--samples", "80", "--box", "-1", "1")
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert "torsion_relative" in names
    assert "sigma_max_deviation" in names
    assert "conjugation_relative" in names
    assert "pde_system" in names
    assert doc["pass"] is True


def test_verify_witness_fails(capsys):
    code, doc = invoke_json(capsys, "verify", "--matrix", "diag:y,x",
                            "--samples", "50")
    assert code == 1
    assert doc["pass"] is False
    assert doc["accepted"] == 50


def test_construct_reports_matrix(capsys):
    code, doc = invoke_json(capsys, "construct", "--family", "theorem1",
                            "--n", "2", "--f", "x1*x1/4 + y^2",
                            "--point", "1", "2")
    assert code == 0
    assert doc["results"][0]["matrix"] == [[-0.5, 4.0], [-1.0, -0.5]]


def test_construct_singular_point_exits_three(capsys):
    code, doc = invoke_json(capsys, "construct", "--family", "theorem1",
                            "--n", "3", "--f", "y^2",
                            "--point", "1", "2", "0")
    assert code == 3
    assert "entry (3,1)" in doc["error"]


def test_diffnondeg_torsion_vanishes_where_a_jacobi_entry_does(capsys):
    # at y = 0 the entry 0.2*y of J has value 0 but gradient 0.2; the
    # conjugation must keep that gradient for the torsion to vanish
    code, doc = invoke_json(
        capsys, "torsion", "--family", "diffnondeg", "--n", "3",
        "--sigma", "x1+0.1*y^2,x2+0.2*x1*y,y+0.1*x1*x2+0.3*x2^2",
        "--fd-step", "1e-4", "--point", "0", "0", "0",
        "--point", "0.3", "0", "0")
    assert code == 0
    assert doc["max_residual"] < 1e-10
    checks = {c["name"]: c["max"] for c in doc["checks"]}
    assert checks["fd_oracle_delta"] < 1e-6


def test_construct_ill_conditioned_jacobi_exits_three(capsys):
    # det J passes its gate, but kappa_1(J) = 4e16 exceeds COND_MAX: the
    # error names the condition gate, with the det J that plu_det gives
    code, doc = invoke_json(capsys, "construct", "--family", "diffnondeg",
                            "--n", "2", "--sigma", "x1,1e4*x1+y^3/3",
                            "--point", "0.1", "5e-5")
    assert code == 3
    assert doc["error"] == ("ill-conditioned J at point [0.1, 5e-05] "
                            "(kappa_1(J) = 4.000400e+16 > COND_MAX = 1e+05, "
                            "det J = 2.500000e-09)")


def test_the_ill_conditioned_band_is_rejected_whole(capsys):
    # kappa_1(J) is about 1e8 / y^2 on the band: every point is rejected,
    # none is judged on rounding alone
    code, doc = invoke_json(capsys, "verify", "--family", "diffnondeg",
                            "--n", "2", "--sigma", "x1,1e4*x1+y^3/3",
                            "--check", "torsion", "--samples", "2000",
                            "--seed", "1", "--box", "-1", "1", "1e-5", "2e-4")
    assert code == 3
    assert doc["error"] == ("domain entirely singular: all 2000 sampled "
                            "points rejected")
    # kappa_1(J) <= 4.9e3 on the sigma of
    # test_charpoly_disagreement_prints_plain_floats: the gate keeps every
    # point
    code, doc = invoke_json(capsys, "verify", "--family", "diffnondeg",
                            "--n", "3", "--sigma", "x1+y^2,x2*y+x1^2,y+x1*x2",
                            "--check", "torsion", "--samples", "1000",
                            "--seed", "1")
    assert code in (0, 1) and doc["accepted"] == 1000


def test_charpoly_subcommand(capsys):
    code, doc = invoke_json(capsys, "charpoly", "--family", "theorem1",
                            "--n", "3", "--f", "y^2",
                            "--point", "1", "-1", "2")
    assert code == 0
    sigma = doc["results"][0]["sigma"]
    assert np.max(np.abs(np.array(sigma) - [1.0, -1.0, 4.0])) < 1e-12


def test_diagnose_subcommand(capsys):
    code, doc = invoke_json(capsys, "diagnose", "--f", "y^2 + x1", "--n", "3",
                            "--point", "0.3", "-0.2", "0")
    assert code == 0
    res = doc["results"][0]
    assert res["verdict"] == "obstructed"
    assert abs(res["numerators"][1] - 1.0) < 1e-12


def test_diagnose_a_sqrt_whose_second_derivative_underflows(capsys):
    # f_x1x1 = -1/4 (1e-250)^2 / sqrt(1e-250 x1)^3 = -2.5e-126 at x1 = 1
    code, doc = invoke_json(capsys, "diagnose", "--f",
                            "sqrt(1e-250*x1) + y^2", "--n", "2",
                            "--point", "1", "0.5")
    assert code == 0
    assert doc["results"][0]["numerators"] == [pytest.approx(-0.25)]


@pytest.mark.parametrize("source", [
    *(("--family", name, "--n", "2", "--sigma", "x1+y^2,y")
      for name, spec in cli.FAMILIES.items() if spec.signs is None),
    ("--matrix", "diag:y,x1")], ids=lambda source: source[1])
@pytest.mark.parametrize("check", ["conjugation", "pde"])
def test_f_checks_name_the_families_with_an_f(capsys, source, check):
    code, doc = invoke_json(capsys, "verify", *source, "--check", check)
    assert code == 2
    assert doc["error"] == (f"{check} check requires a family with an f "
                            "(2d, theorem1, or theorem2)")


def test_pde_check_pass_and_fail(capsys):
    code, doc = invoke_json(capsys, "pde-check", "--R", "x1^2/4", "--n", "2",
                            "--samples", "40")
    assert code == 0 and doc["pass"] is True
    code, doc = invoke_json(capsys, "pde-check", "--R", "x1*x2", "--n", "3",
                            "--point", "0.5", "0.5")
    assert code == 1 and doc["pass"] is False


def test_pde_check_rejects_y(capsys):
    code, doc = invoke_json(capsys, "pde-check", "--R", "x1 + y", "--n", "3")
    assert code == 2
    assert "may not" in doc["error"] or "must" in doc["error"]


def test_morse_reduce_point_mode(capsys):
    code, doc = invoke_json(capsys, "morse-reduce", "--f", "y^2 + x1*y",
                            "--n", "2", "--point", "0.6")
    assert code == 0
    res = doc["results"][0]
    assert res["c"] == pytest.approx(-0.3, abs=1e-12)
    assert res["R"] == pytest.approx(-0.09, abs=1e-12)
    assert res["sign"] == 1


def test_morse_reduce_box_mode(capsys):
    code, doc = invoke_json(capsys, "morse-reduce", "--f", "y^2 + x1*y",
                            "--n", "2", "--box", "-1", "1", "--samples", "7")
    assert code == 0
    assert doc["pass"] is True


@pytest.mark.parametrize("samples", ["0", "1"])
def test_morse_reduce_box_rejects_a_degenerate_grid(capsys, samples):
    code, doc = invoke_json(capsys, "morse-reduce", "--f", "y^2 + x1*y",
                            "--n", "2", "--box", "-1", "1",
                            "--samples", samples)
    assert code == 2
    assert doc["error"] == ("argument --samples: expected an integer >= 2, "
                            f"got '{samples}'")
    # the library keeps its own check, for callers without the flag
    f = ScalarField.from_expression("y^2 + x1*y", 2)
    with pytest.raises(ValueError) as err:
        verify_morse_normal_form(f, 2, (-1.0, 1.0), grid=int(samples))
    assert str(err.value) == ("grid must be >= 2 points per axis, "
                              f"got {samples}")


def test_morse_reduce_non_morse_exits_three(capsys):
    code, doc = invoke_json(capsys, "morse-reduce", "--f", "y^3", "--n", "2",
                            "--point", "0.1")
    assert code == 3
    assert "non-Morse" in doc["error"]


def test_morse_reduce_grid_keeps_the_error_text_of_f(capsys):
    # Newton's second iterate leaves the domain of sqrt on every slice
    code, doc = invoke_json(capsys, "morse-reduce", "--f", "sqrt(y+0.5) + y^2",
                            "--n", "2", "--box", "-1", "1", "--samples", "5")
    assert code == 3
    assert doc["error"] == ("sqrt requires a positive argument "
                            "(value -4.691816e-02)")


def test_parse_error_exits_two_with_position(capsys):
    code, doc = invoke_json(capsys, "diagnose", "--f", "x3 + y", "--n", "3",
                            "--point", "1", "2", "3")
    assert code == 2
    assert doc["position"] == 0
    assert "out of range" in doc["error"]


@pytest.mark.parametrize("argv, position", [
    (("diagnose", "--f", "1e400+y", "--n", "2", "--point", "0.1", "0.2"), 0),
    (("morse-reduce", "--f", "y^2+1e400", "--n", "2", "--point", "0.1"), 4),
    (("charpoly", "--matrix", "diag:1e400,y", "--point", "0.1", "0.2"), 0),
], ids=lambda a: a[0] if isinstance(a, tuple) else None)
def test_overflowing_literal_exits_two_with_position(capsys, argv, position):
    code, doc = invoke_json(capsys, *argv)
    assert code == 2
    assert doc["position"] == position
    assert "1e400 overflows" in doc["error"]


def test_bad_exponent_exits_two(capsys):
    code, doc = invoke_json(capsys, "verify", "--family", "theorem1",
                            "--n", "2", "--f", "y^1.5")
    assert code == 2
    assert "non-integer exponent" in doc["error"]
    assert "position" in doc


def test_unbalanced_parens_exits_two(capsys):
    code, doc = invoke_json(capsys, "verify", "--family", "theorem1",
                            "--n", "2", "--f", "(y + 1")
    assert code == 2
    assert "position" in doc


def test_usage_errors_exit_two(capsys):
    code, doc = invoke_json(capsys, "verify", "--family", "theorem1",
                            "--n", "2", "--f", "y", "--box", "1", "2", "3")
    assert code == 2
    code, doc = invoke_json(capsys, "verify", "--family", "theorem2",
                            "--n", "2")
    assert code == 2
    code, doc = invoke_json(capsys, "construct", "--family", "theorem1",
                            "--n", "2", "--f", "y", "--point", "1")
    assert code == 2
    code, doc = invoke_json(capsys, "torsion", "--point", "1", "2")
    assert code == 2
    code, doc = invoke_json(capsys, "verify", "--family", "theorem1",
                            "--n", "2", "--f", "y", "--matrix", "diag:y,x")
    assert code == 2


@pytest.mark.parametrize("fmt", [("--format", "text"), ("--format=text",),
                                 ("--format", "csv"), ("--format=csv",),
                                 # each prefix argparse resolves to --format
                                 ("--fo", "text"), ("--for=text",),
                                 ("--form", "text"), ("--forma=csv",),
                                 ("--fo=csv",), ("--forma", "text")])
def test_a_flag_error_is_written_in_the_requested_format(capsys, fmt):
    # an error report has no rows: its csv view is its text view
    code, out = invoke(capsys, "verify", "--family", "theorem1", "--n", "2",
                       "--f", "y", "--seed", "-1", *fmt)
    assert (code, out) == (2, "usage\nerror: argument --seed: expected a "
                              "non-negative integer, got '-1'\n")


@pytest.mark.parametrize("argv, first", [
    # pde-check has no --f flag: argparse reads --f as --format there
    (("pde-check", "--R", "0", "--n", "3", "--seed", "-1", "--f", "text"),
     "usage"),
    (("verify", "--family", "theorem1", "--n", "2", "--seed", "-1",
      "--f", "text"), "{"),
    # no subcommand: only --format spelled out
    (("bogus", "--fo", "text"), "{"),
    (("bogus", "--format", "text"), "usage"),
], ids=["pde-check-f", "verify-f", "bogus-fo", "bogus-format"])
def test_a_flag_error_reads_format_as_argparse_does(capsys, argv, first):
    code, out = invoke(capsys, *argv)
    assert (code, out.splitlines()[0]) == (2, first)


def test_a_flag_error_without_a_valid_format_is_json(capsys):
    code, doc = invoke_json(capsys, "construct", "--family", "theorem1",
                            "--format", "xml")
    assert code == 2
    assert doc["error"].startswith("argument --format: invalid choice")


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_an_error_report_reads_as_text(capsys, fmt):
    code, out = invoke(capsys, "construct", "--family", "theorem1",
                       "--n", "2", "--f", "x1+", "--point", "0.1", "0.2",
                       "--format", fmt)
    assert (code, out) == (2, "construct\nerror: unexpected end of input "
                              "(at offset 3)\nposition: 3\n")


def test_unknown_flag_exits_two(capsys):
    code, _ = invoke(capsys, "verify", "--nope")
    assert code == 2


def test_an_expression_flag_value_may_start_with_a_dash(capsys):
    code, doc = invoke_json(capsys, "pde-check", "--R", "-x1+x2+1",
                            "--n", "3")
    assert code == 0 and doc["max_residual"] == 0
    code, doc = invoke_json(capsys, "verify", "--family", "theorem1",
                            "--n", "2", "--f", "-y^3/3+x1*y")
    assert code == 0 and doc["params"]["f"] == "-y^3/3+x1*y"
    # a double-dash token is still the next flag, not a value
    code, doc = invoke_json(capsys, "verify", "--family", "theorem1",
                            "--f", "--n", "2")
    assert code == 2
    assert doc["error"] == "argument --f: expected one argument"


def test_matrix_rowmajor_form(capsys):
    code, doc = invoke_json(capsys, "construct", "--matrix",
                            "y,0;0,x1", "--point", "1", "2")
    assert code == 0
    assert doc["results"][0]["matrix"] == [[2.0, 0.0], [0.0, 1.0]]


def test_csv_format(capsys):
    code, out = invoke(capsys, "charpoly", "--family", "theorem2", "--n", "3",
                       "--point", "0.5", "-0.3", "0.7", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "point_1,point_2,point_3,sigma_1,sigma_2,sigma_3"
    cells = lines[1].split(",")
    assert len(cells) == 6
    assert float(cells[3]) == pytest.approx(0.5)
    # 17 significant digits survive the round trip
    assert "e" in cells[3]


def test_text_format(capsys):
    code, out = invoke(capsys, "verify", "--family", "theorem2", "--n", "3",
                       "--samples", "30", "--format", "text")
    assert code == 0
    assert "PASS" in out


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = invoke(capsys, "verify", "--family", "theorem2", "--n", "3",
                       "--samples", "30", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["pass"] is True


@pytest.mark.parametrize("argv, handler_code", [
    (("construct", "--family", "theorem2", "--n", "3",
      "--point", "0.1", "0.2", "0.3"), 0),
    # the handler would fail this point as degenerate (exit 3)
    (("construct", "--family", "diffnondeg", "--n", "2",
      "--sigma", "x1,1e4*x1+y^3/3", "--point", "0.1", "5e-5"), 3),
])
def test_out_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys,
                                                    argv, handler_code):
    assert run(list(argv)) == handler_code
    capsys.readouterr()
    target = tmp_path / "no" / "such" / "x.json"
    code = run([*argv, "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["subject"] == "usage"
    assert str(target) in doc["error"]
    assert "wall_ms" not in doc   # decided before the handler ran
    assert not target.parent.exists()


def test_reports_are_deterministic(capsys):
    argv = ["verify", "--family", "theorem1", "--n", "3",
            "--f", "y^2 + x1*x2 + 0.3*y", "--check", "all",
            "--samples", "120", "--seed", "3"]
    code1, out1 = invoke(capsys, *argv)
    code2, out2 = invoke(capsys, *argv)
    assert code1 == code2 == 0

    def strip_wall(text):
        return [ln for ln in text.splitlines() if "wall_ms" not in ln]

    assert strip_wall(out1) == strip_wall(out2)


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "theorem2", "--n", "3", "--check", "all",
     "--samples", "20"),
    ("pde-check", "--R", "0", "--n", "3", "--samples", "20"),
    ("morse-reduce", "--f", "y^2 + x1*y", "--n", "2", "--box", "-1", "1",
     "--samples", "5"),
], ids=["verify", "pde-check", "morse-reduce-box"])
def test_sweep_report_key_order(capsys, argv):
    code, doc = invoke_json(capsys, *argv)
    assert code == 0
    assert list(doc) == ["schema", "subject", "params", "accepted",
                         "rejected", "max_residual", "worst_point", "checks",
                         "pass", "wall_ms"]
    assert doc["checks"] and all(list(c) == ["name", "max", "pass"]
                                 for c in doc["checks"])


def test_overflow_exits_three_naming_the_overflow(capsys):
    # once misfiled as "domain entirely singular"
    code, doc = invoke_json(capsys, "verify", "--family", "theorem1",
                            "--n", "2", "--f", "1e200*y*y*1e200 + y",
                            "--samples", "20")
    assert code == 3
    assert "overflow" in doc["error"]


def test_overflow_in_a_discarded_entry_hessian_does_not_abort(capsys):
    # entries are order-1 jets: the second derivatives of 1e155*x1^2*y that
    # once overflowed were never read, so the true cause is reported
    code, doc = invoke_json(capsys, "construct", "--family", "theorem1",
                            "--n", "2", "--f", "y + 1e155*x1^2*y",
                            "--point", "0.001", "0.5")
    assert code == 3
    # the denominator is small only against f_x^2 = 1e304: the text says so
    assert doc["error"] == (
        "entry (2,1) singular at point [0.001, 0.5]: denominator vanishes "
        "relative to its numerator (value 1.000000e+149, numerator "
        "-1.000000e+304)")


def test_verify_csv_collects_rows(capsys):
    code, out = invoke(capsys, "verify", "--family", "theorem2", "--n", "3",
                       "--samples", "25", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("check,point_1")
    assert len(lines) == 26


@pytest.mark.parametrize("flag, argv", [
    ("--tol", ("pde-check", "--R", "x1*x2", "--n", "3", "--samples", "20",
               "--tol", "inf")),
    ("--min-denominator", ("verify", "--family", "theorem1", "--n", "2",
                           "--f", "y^2 + 0.01*y", "--samples", "200",
                           "--min-denominator", "nan")),
    ("--tol", ("verify", "--family", "theorem1", "--n", "2",
               "--f", "y^2 + 0.01*y", "--samples", "200", "--tol", "nan")),
    ("--fd-step", ("torsion", "--family", "theorem1", "--n", "2",
                   "--f", "y^2 + 0.01*y", "--point", "0.1", "0.2",
                   "--fd-step", "inf")),
    ("--point", ("construct", "--family", "theorem1", "--n", "2", "--f", "y",
                 "--point", "nan", "0.1")),
    ("--box", ("morse-reduce", "--f", "y^2", "--n", "2",
               "--box", "-1", "inf")),
    ("--y0", ("morse-reduce", "--f", "y^2", "--n", "2", "--point", "0.1",
              "--y0", "inf")),
], ids=lambda a: a[0] if isinstance(a, tuple) else a)
def test_non_finite_float_flags_exit_two(capsys, flag, argv):
    code, doc = invoke_json(capsys, *argv)
    assert code == 2
    assert doc["error"].startswith(f"argument {flag}: expected a finite")


OVERFLOWING_MATRIX = "1e200*y, 1e200*x1; 1e200*x1, 1e200*y"


@pytest.mark.parametrize("argv", [
    ("torsion", "--matrix", OVERFLOWING_MATRIX, "--point", "0.3", "0.4"),
    ("charpoly", "--matrix", OVERFLOWING_MATRIX, "--point", "0.3", "0.4"),
    ("verify", "--matrix", OVERFLOWING_MATRIX, "--samples", "5"),
], ids=lambda a: a[0])
def test_overflow_after_the_jets_exits_three(capsys, argv):
    # the jets are finite; the products of torsion and charpoly overflow
    code, doc = invoke_json(capsys, *argv)
    assert code == 3
    assert "encountered in" in doc["error"]


SINGULAR_AT_1_2_0 = ("entry (3,1) singular at point [1.0, 2.0, 0.0]: "
                     "denominator vanishes (value 0.000000e+00)")


@pytest.mark.parametrize("argv, code, error", [
    # the second point's centre is singular
    (("--f", "y^2", "--fd-step", "1e-4", "--point", "1", "2", "0.5",
      "--point", "1", "2", "0"), 3, SINGULAR_AT_1_2_0),
    # only a stencil neighbour of the second point, y - h = 0, is singular;
    # the stencil is one batch, so its error names the failing points
    (("--f", "y^2", "--fd-step", "1e-4", "--point", "1", "2", "0.5",
      "--point", "1", "2", "1e-4"), 3,
     "entry (3,1) singular at points [[1.0, 2.0, 0.0]]: "
     "denominator vanishes (value 0.000000e+00)"),
    # an overflow, which carries no mask, at the second point
    (("--f", "exp(800*x1)*y^2 + y", "--n", "2", "--fd-step", "1e-4",
      "--point", "0", "0.5", "--point", "1", "0.5"), 3,
     "overflow encountered in exp"),
    # a singular first point wins over a later point's overflow, which a
    # batched evaluation of f meets first
    (("--f", "exp(800*x1)*y^2 + y", "--n", "2", "--fd-step", "1e-4",
      "--point", "0", "-0.5", "--point", "1", "0.5"), 3,
     "entry (2,1) singular at point [0.0, -0.5]: "
     "denominator vanishes (value 0.000000e+00)"),
    # a point is evaluated before its stencil step is checked
    (("--f", "y^2", "--fd-step", "0", "--point", "1", "2", "0",
      "--point", "1", "2", "0.5"), 3, SINGULAR_AT_1_2_0),
    (("--f", "y^2", "--fd-step", "0", "--point", "1", "2", "0.5",
      "--point", "1", "2", "0"), 2,
     "finite-difference step must be positive, got 0.0"),
], ids=["centre", "neighbour", "overflow", "singular-before-overflow",
        "step-0-singular-first", "step-0"])
def test_torsion_raises_the_first_failing_point_in_argv_order(
        capsys, argv, code, error):
    n = () if "--n" in argv else ("--n", "3")
    got, doc = invoke_json(capsys, "torsion", "--family", "theorem1", *n,
                           *argv)
    assert (got, doc["error"]) == (code, error)


SQRT_AT_0_M2 = "sqrt requires a positive argument (value -1.000000e+00)"


@pytest.mark.parametrize("command, error", [
    # an error of f inside a family rule reads as f's own error
    ("construct", SQRT_AT_0_M2),
    ("charpoly", SQRT_AT_0_M2),
    ("diagnose", SQRT_AT_0_M2),
], ids=["construct", "charpoly", "diagnose"])
def test_point_lists_raise_the_first_failing_point(capsys, command, error):
    # the third point overflows; the second leaves the domain of sqrt
    family = () if command == "diagnose" else ("--family", "theorem1")
    code, doc = invoke_json(capsys, command, *family, "--n", "2",
                            "--f", "exp(800*x1)*y^2 + sqrt(y + 1)",
                            "--point", "0", "0.5", "--point", "0", "-2",
                            "--point", "1", "0.5")
    assert (code, doc["error"]) == (3, error)


DIVERGED_AT_0 = ("Newton iteration diverged from y0=1.0 at x=[0.0] after 22 "
                 "iterations: f_yy vanished at y=0.00020048577321447826 with "
                 "f_y=3.223373794295027e-11")


@pytest.mark.parametrize("term, later", [
    # the later point overflows in the first batched step
    ("exp(800*x1)", "1"),
    # the later point leaves the domain of sqrt in the first batched step
    ("sqrt(x1+1)", "-2"),
], ids=["overflow", "sqrt"])
def test_morse_reduce_points_raise_the_first_failing_point(capsys, term,
                                                           later):
    code, doc = invoke_json(capsys, "morse-reduce", "--f",
                            f"y^4 + x1*y^2 + {term}", "--n", "2", "--y0", "1",
                            "--point", "0", "--point", later)
    assert (code, doc["error"]) == (3, DIVERGED_AT_0)


def _diverged(x, iters, detail):
    return (f"Newton iteration diverged from y0=0.0 at x=[{x}] after {iters} "
            f"iterations: {detail}")


@pytest.mark.parametrize("f, points, box, error", [
    # a batched step overflows at x1 = 1; x1 = -1 fails first, alone
    ("exp(800*x1)*y^2 + exp(y) + 0.5*y", ("-1", "1"), ("-1", "1", "3"),
     _diverged(-1.0, 4, "f_yy vanished at y=-63.00628763967579 "
                        "with f_y=0.5")),
    ("exp(800*x1)*y^2 + y", ("-1", "1"), ("-1", "1", "3"),
     _diverged(-1.0, 1, "f_yy vanished at y=0.0 with f_y=1.0")),
    # Newton diverges at x1 = 0 on the 1st iteration, and exp overflows at
    # x1 = 1 on the 2nd
    ("x1*y^2 - 1e5*y + exp(x1*y)", ("0", "1"), ("0", "1", "2"),
     _diverged(0.0, 1, "f_yy vanished at y=0.0 with f_y=-100000.0")),
    # the first Newton step leaves the domain |y| <= 1e8
    ("y^2/2 + 1e9*y", ("0",), ("-1", "1", "2"),
     _diverged(0.0, 1, "iterate left the domain (y=-1000000000.0)")),
], ids=["exp-overflow", "overflow", "diverged-then-overflow", "escaped"])
def test_morse_reduce_grid_and_points_name_the_first_failing_point(
        capsys, f, points, box, error):
    args = ("morse-reduce", "--f", f, "--n", "2")
    code, doc = invoke_json(capsys, *args, *(a for x in points
                                             for a in ("--point", x)))
    assert (code, doc["error"]) == (3, error)
    lo, hi, samples = box
    code, doc = invoke_json(capsys, *args, "--box", lo, hi,
                            "--samples", samples)
    assert (code, doc["error"]) == (3, error.replace(
        f"x=[{float(points[0])}]", f"x=[{float(lo)}]"))


def test_the_defect_grid_evaluates_f_at_its_near_points(capsys):
    # c(x1) = x1 + 5e-4, so the grid's diagonal y = x1 lies within
    # DELTA_TAYLOR of c: the straightening probes f off y there, where it
    # is finite, and the defect evaluates f at y, whose denominator
    # vanishes at (0.5, 0.5) alone; the near points before it pass when
    # the chunk is replayed point by point
    f = "(y - x1 - 5e-4)^2 + 1e-30/(y - x1 + (x1 - 0.5)^2)"
    args = ("morse-reduce", "--f", f, "--n", "2", "--y0", "0.37")
    code, doc = invoke_json(capsys, *args, "--box", "-1", "1",
                            "--samples", "5")
    assert (code, doc["error"]) == (
        3, "denominator vanishes (value 0.000000e+00)")
    # off the diagonal the same f passes
    code, doc = invoke_json(capsys, *args, "--box", "-1", "1", "0.1", "2.1",
                            "--samples", "5")
    assert (code, doc["accepted"]) == (0, 25)


def test_an_overflow_in_the_remainder_s_newton_aborts_a_pde_sweep(capsys):
    code, doc = invoke_json(capsys, "verify", "--family", "theorem1",
                            "--n", "2", "--f", "x1*y^2 - 1e5*y + exp(x1*y)",
                            "--check", "pde", "--samples", "20",
                            "--seed", "1")
    assert (code, doc["error"]) == (3, "overflow encountered in exp")


@pytest.mark.parametrize("argv, seed", [
    (("verify", "--family", "theorem1", "--n", "2", "--f", "y^2"), "-1"),
    (("pde-check", "--R", "0", "--n", "3"), "-3"),
], ids=["verify", "pde-check"])
def test_a_negative_seed_is_a_flag_error(capsys, argv, seed):
    code, doc = invoke_json(capsys, *argv, "--seed", seed)
    assert (code, doc["error"]) == (
        2, f"argument --seed: expected a non-negative integer, got '{seed}'")


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "theorem1", "--n", "2", "--f", "y^2"),
    ("pde-check", "--R", "0", "--n", "3"),
    # with --point no sample is drawn, but the flag is still checked
    ("pde-check", "--R", "0", "--n", "3", "--point", "0", "0"),
], ids=["verify", "pde-check", "pde-check-point"])
def test_a_sample_count_below_one_is_a_flag_error(capsys, argv):
    code, doc = invoke_json(capsys, *argv, "--samples", "0")
    assert (code, doc["error"]) == (
        2, "argument --samples: expected a positive integer, got '0'")


# Point-list subcommands, the dimension of their points, and each JSON
# result flattened in the order of its CSV row (one row per component for
# torsion).
def _point_and(*keys):
    return lambda r: [r["point"]] + [r[k] for k in keys]


SINK_CASES = {
    "construct": (("construct", "--family", "theorem1", "--n", "3", "--f",
                   "y^3/3 + y + x1*x2"), 3, _point_and("matrix")),
    "charpoly": (("charpoly", "--family", "companion", "--n", "3"), 3,
                 _point_and("sigma")),
    "diagnose": (("diagnose", "--f", "y^2 + x1*y + x2", "--n", "3"), 3,
                 _point_and("denominator", "numerators", "verdict")),
    "torsion": (("torsion", "--matrix", "x1*y, y; x1, y^2"), 2, None),
    "torsion-fd": (("torsion", "--matrix", "x1*y, y; x1, y^2", "--fd-step",
                    "1e-4"), 2, None),
    "morse-reduce": (("morse-reduce", "--f", "cos(y) + x1*y + x2", "--n",
                      "3"), 2,
                     lambda r: [r["x"], r["c"], r["R"], r["sign"],
                                r["newton_iters"]]),
}


def _flatten(value):
    if isinstance(value, list):
        return [cell for v in value for cell in _flatten(v)]
    return [value]


def _rows(kind, results):
    if kind.startswith("torsion"):
        return [_flatten([r["point"], c["i"], c["j"], c["k"], c["value"]])
                for r in results for c in r["components"]]
    return [_flatten(SINK_CASES[kind][2](r)) for r in results]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(SINK_CASES)), st.data())
def test_csv_and_text_agree_with_json(capsys, kind, data):
    argv, dim, _ = SINK_CASES[kind]
    # |x1| < 0.8 keeps the Newton reduction of cos(y) + x1*y + x2 regular
    coordinate = st.floats(-0.8, 0.8, allow_nan=False, allow_subnormal=False)
    points = data.draw(st.lists(st.lists(coordinate, min_size=dim,
                                         max_size=dim),
                                min_size=1, max_size=5))
    argv = list(argv)
    for p in points:
        argv += ["--point", *(f"{v:.17f}" for v in p)]
    code, doc = invoke_json(capsys, *argv)
    assert code in (0, 1)
    results = doc["results"]
    code, out = invoke(capsys, *argv, "--format", "csv")
    header, *rows = list(csv.reader(io.StringIO(out)))
    expected = _rows(kind, results)
    assert len(rows) == len(expected)
    for row, values in zip(rows, expected):
        assert len(row) == len(header) == len(values)
        for cell, value in zip(row, values):
            if isinstance(value, str):
                assert cell == value
            else:
                assert repr(float(cell)) == repr(float(value))
                assert cell == str(value) or isinstance(value, float)
    code, out = invoke(capsys, *argv, "--format", "text")
    lines = out.splitlines()
    if kind != "construct":
        shown = [line for line in lines if line.startswith("{")]
        assert shown == [json.dumps(r) for r in results]


def test_a_failing_f_in_a_pde_sweep_is_not_evaluated_point_by_point(
        capsys, monkeypatch):
    # sqrt fails inside the Newton reduction of the remainder at some base
    # points, and Newton diverges at others; each batched failure rejects
    # the points its mask marks, and the sweep reports on the rest
    calls = []
    call = ScalarField.__call__
    monkeypatch.setattr(ScalarField, "__call__",
                        lambda self, p, **kw: calls.append(1)
                        or call(self, p, **kw))
    code, doc = invoke_json(capsys, "verify", "--family", "theorem1",
                            "--n", "2", "--f", "sqrt(y + x1 + 1) + y^2",
                            "--check", "pde", "--samples", "300")
    assert code == 1
    assert (doc["accepted"], doc["rejected"]) == (181, 119)
    assert len(calls) <= 300


def test_a_theorem2_torsion_sweep_evaluates_no_f(capsys, monkeypatch):
    # torsion reads no source, and theorem2's operator has none: only the
    # sigma and conjugation identities read the jet of f = y^2
    argv = ("verify", "--family", "theorem2", "--n", "3", "--samples", "600",
            "--format", "csv")
    code, every = invoke(capsys, *argv, "--check", "all")
    assert code == 0
    calls = []
    call = ScalarField.__call__
    monkeypatch.setattr(ScalarField, "__call__",
                        lambda self, p, **kw: calls.append(1)
                        or call(self, p, **kw))
    code, out = invoke(capsys, *argv, "--check", "torsion")
    assert code == 0 and calls == []
    header, *rows = out.splitlines()
    assert len(rows) == 600
    assert [header, *rows] == [line for line in every.splitlines()
                               if line.startswith(("check,", "torsion,"))]


# the x1-derivatives of this f overflow at x1 = +-1; the Morse reduction
# reads only f, f_y and f_yy, while the remainder's jet needs them all
OVERFLOW_IN_X = "x1^64*1e306*y^2+y^2+y"


@pytest.mark.parametrize("where", [("--point", "1"),
                                   ("--box", "-1", "1", "--samples", "3")])
def test_morse_reduction_ignores_an_overflow_along_x(capsys, where):
    code, doc = invoke_json(capsys, "morse-reduce", "--f", OVERFLOW_IN_X,
                            "--n", "2", *where)
    assert code == 0 and "error" not in doc


def test_normal_form_defect_is_gated_relative_to_the_size_of_f(capsys):
    # f is about 1.1e305 at (-1, 1/3), where the absolute defect is 1.95e289
    # from rounding alone: relative to f's size it is about 2.4e-16
    code, doc = invoke_json(capsys, "morse-reduce", "--f", OVERFLOW_IN_X,
                            "--n", "2", "--box", "-1", "1", "--samples", "4")
    assert code == 0 and doc["pass"] is True
    assert doc["max_residual"] > 1e289
    assert doc["checks"][0]["max"] < 1e-15


def test_remainder_system_still_fails_on_an_overflow_along_x(capsys):
    code, doc = invoke_json(capsys, "verify", "--family", "theorem1",
                            "--n", "2", "--f", OVERFLOW_IN_X,
                            "--check", "pde", "--samples", "20")
    assert code == 3
    assert doc["error"] == "overflow encountered in multiply"


@pytest.mark.parametrize("argv, key", [
    (("construct", "--family", "theorem1", "--n", "2", "--f", "y^3/3+y",
      "--point", "-1e-05", "0.3", "--point", "0.3", "-2E-3"), "point_"),
    (("morse-reduce", "--f", "cos(y) + x1*y + x2", "--n", "3",
      "--point", "-1e-05", "0.2", "--point", "0.3", "-2.5e-1"), "x"),
])
def test_csv_coordinates_pass_back_through_point(capsys, argv, key):
    # the CSV view writes -1e-05 as -1.0000000000000001e-05
    code, out = invoke(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = list(csv.reader(io.StringIO(out)))
    coords = [i for i, name in enumerate(header) if name.startswith(key)]
    again = list(argv[:argv.index("--point")])
    for row in rows:
        again += ["--point", *(row[i] for i in coords)]
    assert any("e-" in arg for arg in again)
    assert invoke(capsys, *again, "--format", "csv") == (0, out)


# -- the CSV writer -----------------------------------------------------------

def reference_csv(records: dict, columns) -> str:
    """The CSV view as csv.writer's default dialect writes it, from cells
    built one by one: the reference the row-template writer must match."""
    flat = []
    for key, _ in columns:
        a = records[key]
        flat.append(a.reshape(len(a), math.prod(a.shape[1:])).tolist())
    rows = [[f"{c:.16e}" if isinstance(c, float) else str(c)
             for values in row for c in values] for row in zip(*flat)]
    sink = io.StringIO()
    writer = csv.writer(sink)
    writer.writerow(sum((names for _, names in columns), []))
    writer.writerows(rows)
    return sink.getvalue()


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                   -2.5e-310, 1e308, -1e308]
_CSV_TEXT = st.text(st.sampled_from(list(',"\r\n a-.e')), max_size=4)
_CSV_KINDS = {
    "float": (float, st.one_of(st.sampled_from(_SPECIAL_FLOATS),
                               st.floats())),
    "int": (np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)),
    "bool": (bool, st.booleans()),
    "str": (str, _CSV_TEXT),
    # verify's pde rows pad their base points with ""
    "object": (object, st.one_of(st.floats(), st.just(""))),
}


@st.composite
def _csv_reports(draw):
    rows = draw(st.integers(0, 300))
    records, columns = {}, []
    for c in range(draw(st.integers(1, 4))):
        dtype, element = _CSV_KINDS[draw(st.sampled_from(sorted(_CSV_KINDS)))]
        # a record's cell is a scalar, a vector, or a matrix (construct's)
        shape = draw(st.sampled_from([(), (1,), (3,), (1, 1), (2, 2),
                                      (3, 3)]))
        pool = np.array(draw(st.lists(element, min_size=1, max_size=6)),
                        dtype=dtype)
        records[c] = pool[draw(arrays(np.intp, (rows, *shape),
                                      elements=st.integers(0, len(pool) - 1)))]
        columns.append((c, draw(st.lists(_CSV_TEXT | st.just("name"),
                                         min_size=math.prod(shape),
                                         max_size=math.prod(shape)))))
    return records, columns


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_csv_reports())
def test_csv_writer_matches_the_csv_module(report):
    # nan, infinities, signed zeros, subnormals and the largest floats;
    # cells that need quotes; a lone empty cell, which csv.writer quotes
    records, columns = report
    assert _csv_text(records, columns) == reference_csv(records, columns)


# -- one parser per process ---------------------------------------------------

PARSER_RUNS = [
    ("verify", "--family", "theorem1", "--n", "3", "--f", "y^2 + x1*x2 + y",
     "--check", "all", "--samples", "40", "--seed", "2"),
    ("torsion", "--matrix", "diag:y,x", "--point", "1", "2",
     "--point", "0.5", "-1e-05", "--format", "csv"),
    ("verify", "--family", "2d"),                      # usage error, exit 2
    ("construct", "--family", "theorem1", "--n", "2", "--f", "y^3/3+y",
     "--point", "0.1", "0.2", "--point", "0.3", "0.4", "--point", "1", "2",
     "--format", "text"),
    ("--help",),
    ("verify", "--bogus"),
    ("charpoly", "--family", "theorem1", "--n", "2", "--f", "y^3/3+y",
     "--point", "0.5", "0.25"),
    ("verify", "--help"),
    ("morse-reduce", "--f", "y^2 + x1*y", "--n", "2", "--point", "0.6"),
    ("verify", "--family", "theorem1", "--n", "3", "--f", "y^2 + x1*x2 + y",
     "--check", "all", "--samples", "40", "--seed", "2", "--format", "csv"),
]


def _run_captured(capsys, argv):
    try:
        code = run(list(argv))
    except SystemExit as exc:   # --help
        code = ("exit", exc.code)
    out = capsys.readouterr().out
    return code, [ln for ln in out.splitlines() if "wall_ms" not in ln]


def test_one_parser_serves_back_to_back_runs(capsys):
    from nijenhuis.cli import build_parser
    assert build_parser() is build_parser()
    fresh = []
    for argv in PARSER_RUNS:
        build_parser.cache_clear()
        fresh.append(_run_captured(capsys, argv))
    shared = [_run_captured(capsys, argv) for argv in PARSER_RUNS * 2]
    assert shared == fresh * 2
    assert [code for code, _ in fresh] == [0, 1, 2, 0, ("exit", 0), 2, 0,
                                           ("exit", 0), 0, 0]


def test_charpoly_disagreement_prints_plain_floats(capsys):
    # the known ill-conditioned diffnondeg sweep: one point still aborts it
    code, doc = invoke_json(capsys, "verify", "--family", "diffnondeg",
                            "--n", "3", "--sigma", "x1+y^2,x2*y+x1^2,y+x1*x2",
                            "--check", "all", "--samples", "1000",
                            "--seed", "1")
    assert code == 3
    assert re.fullmatch(
        r"characteristic coefficient recursion disagrees with the "
        r"elimination determinant: sigma_n=0\.9232\d+, "
        r"\(-1\)\^n det=0\.9232\d+", doc["error"]), doc["error"]


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_a_closed_standard_output_keeps_the_exit_code(fmt):
    # the reader end is closed before the child writes, as `| head -1`
    # may close it; the checks pass, so the exit code is 0
    src = os.path.dirname(os.path.dirname(nijenhuis.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nijenhuis.cli", "verify", "--family",
             "theorem2", "--n", "3", "--check", "all", "--samples", "50",
             "--format", fmt],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == 0
    assert proc.stderr == b""
