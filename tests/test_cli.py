"""Command-line behavior: subcommands, exit codes, formats, determinism."""

import json

import numpy as np
import pytest

from nijenhuis.cli import run


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


def test_morse_reduce_non_morse_exits_three(capsys):
    code, doc = invoke_json(capsys, "morse-reduce", "--f", "y^3", "--n", "2",
                            "--point", "0.1")
    assert code == 3
    assert "non-Morse" in doc["error"]


def test_parse_error_exits_two_with_position(capsys):
    code, doc = invoke_json(capsys, "diagnose", "--f", "x3 + y", "--n", "3",
                            "--point", "1", "2", "3")
    assert code == 2
    assert doc["position"] == 0
    assert "out of range" in doc["error"]


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


def test_unknown_flag_exits_two(capsys):
    code, _ = invoke(capsys, "verify", "--nope")
    assert code == 2


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


def test_overflow_exits_three_naming_the_overflow(capsys):
    # once misfiled as "domain entirely singular"
    code, doc = invoke_json(capsys, "verify", "--family", "theorem1",
                            "--n", "2", "--f", "1e200*y*y*1e200 + y",
                            "--samples", "20")
    assert code == 3
    assert "overflow" in doc["error"]


def test_verify_csv_collects_rows(capsys):
    code, out = invoke(capsys, "verify", "--family", "theorem2", "--n", "3",
                       "--samples", "25", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("check,point_1")
    assert len(lines) == 26
