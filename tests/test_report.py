"""Report plumbing: box handling, seeded sampling, the sweep runner."""

import numpy as np
import pytest

import nijenhuis.report
from nijenhuis.jet import (DenominatorVanishes, SingularPointError,
                          coordinate_jet)
from nijenhuis.report import (DomainEntirelySingular, Identity, normalize_box,
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


def test_nonfinite_relative_residual_fails_the_gate():
    # a NaN after a finite residual once slipped past `rel > max_rel`
    points = np.array([[0.0], [1.0], [2.0]])

    def residual(ev, P, src):
        rel = np.where(P[..., 0] > 0.5, np.nan, 1e-20)
        return np.abs(rel), 1.0

    rep = run_sweep(points, [Identity("probe", 1e-10, residual)])[0]
    assert not rep.passed
    assert not rep.checks[0].passed
    assert np.isnan(rep.checks[0].max)
    assert rep.worst_point.tolist() == [1.0]


def test_records_hold_the_accepted_points_in_order(monkeypatch):
    monkeypatch.setattr(nijenhuis.report, "SWEEP_CHUNK", 3)
    points = np.linspace(-1.0, 1.0, 10)[:, None]

    def residual(ev, P, src):
        x = P[..., 0]
        return 2.0 * x, 2.0, {"twice": 4.0 * x}

    identity = Identity("probe", 10.0, residual,
                        guard=lambda P, src: np.abs(P[..., 0]),
                        min_margin=0.5)
    rep = run_sweep(points, [identity])[0]
    kept = points[np.abs(points[:, 0]) >= 0.5]
    assert rep.accepted == len(kept) and rep.rejected == 10 - len(kept)
    rec = rep.records
    assert set(rec) == {"point", "raw", "rel", "twice"}
    assert all(len(values) == rep.accepted for values in rec.values())
    assert np.array_equal(rec["point"], kept)
    assert np.array_equal(rec["rel"], kept[:, 0])
    assert np.array_equal(rec["raw"], 2.0 * kept[:, 0])
    assert np.array_equal(rec["twice"], 4.0 * kept[:, 0])


def test_overflow_in_a_residual_raises():
    def residual(ev, P, src):
        return P[:, 0] * 1e308 * 10.0, 1.0

    with pytest.raises(FloatingPointError, match="overflow"):
        run_sweep(np.ones((3, 2)), [Identity("g", 1e-9, residual)])


@pytest.mark.parametrize("mask", [None, np.zeros(3, dtype=bool),
                                  np.ones(2, dtype=bool)],
                         ids=["none", "marks-nothing", "other-shape"])
def test_an_error_without_a_usable_mask_propagates(mask):
    calls = []

    def residual(ev, P, src):
        calls.append(len(P))
        exc = SingularPointError("rule failed")
        exc.mask = mask
        raise exc

    with pytest.raises(SingularPointError, match="rule failed"):
        run_sweep(np.ones((3, 2)), [Identity("g", 1e-9, residual)])
    assert calls == [3]   # never retried point by point


def test_a_0d_mask_rejects_its_whole_chunk(monkeypatch):
    monkeypatch.setattr(nijenhuis.report, "SWEEP_CHUNK", 4)
    points = np.arange(10.0)[:, None] - 3.5
    calls = []

    def residual(ev, P, src):
        calls.append(len(P))
        if P[0, 0] < 0:   # a failure that does not depend on the point
            raise DenominatorVanishes(0.0, mask=np.array(True))
        return P[:, 0], 1.0

    rep = run_sweep(points, [Identity("g", 10.0, residual)])[0]
    assert (rep.accepted, rep.rejected) == (6, 4)
    assert np.array_equal(rep.records["point"], points[4:])
    assert calls == [4, 4, 2]


def test_identities_share_the_source_and_keep_their_own_rejections(
        monkeypatch):
    monkeypatch.setattr(nijenhuis.report, "SWEEP_CHUNK", 4)
    points = np.arange(10.0)[:, None]
    sources = []

    def source(P):
        sources.append(len(P))
        return coordinate_jet(1, P)

    def even(ev, P, x):   # rejects the odd points, for itself alone
        odd = P[:, 0] % 2 == 1
        if odd.any():
            raise DenominatorVanishes(0.0, mask=odd)
        return x.value, 1.0

    def value(ev, P, x):
        return x.value, 1.0

    reports = run_sweep(
        points, [Identity("e", 1e9, even),
                 Identity("l", 1e9, value,
                          guard=lambda P, x: x.value, min_margin=3.0)],
        source=source)
    assert sources == [4, 4, 2]   # once per chunk for both identities
    assert [r.records["point"][:, 0].tolist() for r in reports] == [
        [0.0, 2.0, 4.0, 6.0, 8.0], [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]]
    assert [(r.accepted, r.rejected) for r in reports] == [(5, 5), (7, 3)]
    assert (reports.accepted, reports.rejected) == (12, 8)
    # the first identity, in order, that accepts nothing aborts the sweep
    with pytest.raises(DomainEntirelySingular):
        run_sweep(points, [Identity("l", 1e9, value,
                                    guard=lambda P, x: x.value,
                                    min_margin=99.0)],
                  source=source)
