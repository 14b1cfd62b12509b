"""Report plumbing: box handling, seeded sampling, serialization order."""

import numpy as np
import pytest

from nijenhuis.report import (CheckResult, VerificationReport, normalize_box,
                              run_sweep, sample_box)


def test_normalize_box_uniform():
    b = normalize_box((-2.0, 3.0), 4)
    assert b.shape == (4, 2)
    assert np.all(b[:, 0] == -2.0)
    assert np.all(b[:, 1] == 3.0)


def test_normalize_box_per_axis():
    b = normalize_box([(-1.0, 1.0), (0.0, 2.0)], 2)
    assert np.array_equal(b, [[-1.0, 1.0], [0.0, 2.0]])


def test_normalize_box_rejects_bad_bounds():
    with pytest.raises(ValueError):
        normalize_box((1.0, -1.0), 2)
    with pytest.raises(ValueError):
        normalize_box((0.0, np.inf), 2)
    with pytest.raises(ValueError):
        normalize_box([(-1.0, 1.0)], 2)


def test_sample_box_is_seeded_and_bounded():
    b = normalize_box([(-1.0, 1.0), (2.0, 5.0)], 2)
    a = sample_box(b, 2, 100, seed=9)
    c = sample_box(b, 2, 100, seed=9)
    d = sample_box(b, 2, 100, seed=10)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert a.shape == (100, 2)
    assert np.all(a[:, 0] >= -1.0) and np.all(a[:, 0] <= 1.0)
    assert np.all(a[:, 1] >= 2.0) and np.all(a[:, 1] <= 5.0)


def test_report_dict_field_order():
    rep = VerificationReport(
        subject="s", params={"n": 2}, accepted=3, rejected=1,
        max_residual=0.5, worst_point=[0.1, 0.2],
        checks=[CheckResult("gate", 0.5, True)], passed=True, wall_ms=1.5)
    d = rep.to_dict()
    assert list(d.keys()) == ["schema", "subject", "params", "accepted",
                              "rejected", "max_residual", "worst_point",
                              "checks", "pass", "wall_ms"]
    assert d["checks"][0] == {"name": "gate", "max": 0.5, "pass": True}


def test_nonfinite_relative_residual_fails_the_gate():
    # a NaN after a finite residual once slipped past `rel > max_rel`
    points = np.array([[0.0], [1.0], [2.0]])

    def evaluate(P):
        rel = np.where(P[..., 0] > 0.5, np.nan, 1e-20)
        return np.abs(rel), rel, {}

    rep = run_sweep(points, evaluate, 1e-10, subject="nan probe", params={},
                    gate_name="probe")
    assert not rep.passed
    assert not rep.checks[0].passed
    assert np.isnan(rep.checks[0].max)
    assert rep.worst_point.tolist() == [1.0]
