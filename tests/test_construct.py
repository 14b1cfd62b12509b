"""Operator family construction: frozen matrices, overlap, invariances."""

import numpy as np
import pytest

from nijenhuis.construct import (DegeneratePointError, build_2d,
                                 build_companion, build_diff_nondegenerate,
                                 build_morse_canonical, build_regular_family,
                                 companion_matrix, conjugation_residual)
from nijenhuis.field import ScalarField, SingularEntry, operator_eval
from nijenhuis.invariants import charpoly
from sweeps import regular_conjugation

SEED = 1337


def test_companion_matrix_layout():
    C = companion_matrix([2.0, -3.0, 5.0])
    assert np.array_equal(C, [[-2.0, 1.0, 0.0],
                              [3.0, 0.0, 1.0],
                              [-5.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        companion_matrix([1.0])


def test_companion_family_recovers_its_fields():
    texts = ("x1+y^2", "x2*y+sin(x1)", "y+x1*x2")
    sigma = [ScalarField.from_expression(t, 3) for t in texts]
    L = build_companion(sigma)
    P = np.random.default_rng(SEED).uniform(-1.0, 1.0, size=(5, 3))
    expected = np.stack([s(P).value for s in sigma], axis=-1)
    assert np.max(np.abs(charpoly(operator_eval(L, P).value)
                         - expected)) <= 1e-12
    with pytest.raises(ValueError):
        build_companion(sigma[:2])
    with pytest.raises(ValueError):
        build_companion([ScalarField.from_expression("x1", 2)] * 3)


def test_regular_family_frozen_matrix_n2():
    f = ScalarField.from_expression("x1*x1/4 + y^2", 2)
    L = build_regular_family(f, 2)
    ev = operator_eval(L, np.array([1.0, 2.0]))
    assert np.allclose(ev.value, [[-0.5, 4.0], [-1.0, -0.5]], atol=1e-15)


def test_regular_family_frozen_matrix_n3():
    f = ScalarField.from_expression("y^2", 3)
    L = build_regular_family(f, 3)
    ev = operator_eval(L, np.array([1.0, -1.0, 2.0]))
    assert np.allclose(ev.value, [[-1.0, 1.0, 0.0],
                                  [1.0, 0.0, 4.0],
                                  [-1.0, 0.0, 0.0]], atol=1e-15)


def test_regular_family_trace_law():
    # trace telescopes to -x1 for every n and f
    rng = np.random.default_rng(SEED)
    f3 = ScalarField.from_expression("y^3 + x1*y + x2", 3)
    L = build_regular_family(f3, 3)
    for _ in range(25):
        p = rng.uniform(-1.0, 1.0, size=3)
        ev = operator_eval(L, p)
        scale = 1.0 + np.max(np.abs(ev.value))
        assert abs(np.trace(ev.value) + p[0]) < 1e-14 * scale


def test_regular_family_singular_entry_location():
    f = ScalarField.from_expression("y^2", 3)
    L = build_regular_family(f, 3)
    with pytest.raises(SingularEntry) as err:
        operator_eval(L, np.array([1.0, 2.0, 0.0]))
    assert (err.value.row, err.value.col) == (3, 1)


def test_planar_family_equals_regular_convention_flip():
    # the 2d matrix encodes sigma_1 = -x1; same f, sign-flipped trace
    f = ScalarField.from_expression("x1*x1/4 + y^2", 2)
    ev2 = operator_eval(build_2d(f), np.array([1.0, 2.0]))
    assert np.allclose(ev2.value, [[0.5, -4.0], [1.0, 0.5]], atol=1e-15)
    assert abs(np.trace(ev2.value) - 1.0) < 1e-15


def test_2d_requires_dim_two():
    f = ScalarField.from_expression("y", 3)
    with pytest.raises(ValueError):
        build_2d(f)


def test_diffnondeg_reproduces_planar_family():
    f = ScalarField.from_expression("x1*x1/4 + y^2", 2)
    sigma = [ScalarField.from_expression("-x1", 2), f]
    Ld = build_diff_nondegenerate(sigma)
    L2 = build_2d(f)
    rng = np.random.default_rng(SEED + 1)
    for _ in range(30):
        p = rng.uniform(-1.0, 1.0, size=2)
        if abs(2.0 * p[1]) < 0.1:
            continue
        a = operator_eval(Ld, p).value
        b = operator_eval(L2, p).value
        assert np.max(np.abs(a - b)) < 1e-13, p


def test_diffnondeg_reproduces_regular_family():
    # sigma = (x1, ..., x_{n-1}, f) conjugates back to the explicit rows
    f = ScalarField.from_expression("y^2 + x1*x2 + 0.3*y", 3)
    sigma = [ScalarField.from_expression("x1", 3),
             ScalarField.from_expression("x2", 3), f]
    Ld = build_diff_nondegenerate(sigma)
    Lr = build_regular_family(f, 3)
    rng = np.random.default_rng(SEED + 2)
    kept = 0
    for _ in range(40):
        p = rng.uniform(-1.0, 1.0, size=3)
        fy = 2.0 * p[2] + 0.3
        if abs(fy) < 0.1:
            continue
        kept += 1
        a = operator_eval(Ld, p).value
        b = operator_eval(Lr, p).value
        scale = 1.0 + np.max(np.abs(b))
        assert np.max(np.abs(a - b)) < 1e-12 * scale, p
    assert kept > 10


def test_diffnondeg_degenerate_point():
    sigma = [ScalarField.from_expression("-x1+x2", 3),
             ScalarField.from_expression("x1*x2", 3),
             ScalarField.from_expression("y", 3)]
    L = build_diff_nondegenerate(sigma)
    with pytest.raises(DegeneratePointError):
        operator_eval(L, np.array([1.0, -1.0, 2.0]))


def test_morse_canonical_frozen_matrix():
    L = build_morse_canonical(3, 1)
    ev = operator_eval(L, np.array([0.5, -0.3, 0.7]))
    assert np.allclose(ev.value, [[-0.5, 1.0, 0.0],
                                  [0.3, 0.0, 1.4],
                                  [-0.35, 0.0, 0.0]], atol=1e-15)
    Lm = build_morse_canonical(3, -1)
    evm = operator_eval(Lm, np.array([0.5, -0.3, 0.7]))
    assert evm.value[1, 2] == -1.4
    assert evm.value[2, 0] == -0.35  # the corner entry ignores the sign


def test_morse_canonical_requires_n_above_two():
    with pytest.raises(ValueError, match="n > 2"):
        build_morse_canonical(2, 1)
    with pytest.raises(ValueError):
        build_morse_canonical(3, 2)


def test_morse_canonical_matches_regular_family_off_singularity():
    # at y != 0 the canonical matrix is the regular family of sign*y^2
    for sign, text in ((1, "y^2"), (-1, "-y^2")):
        f = ScalarField.from_expression(text, 4)
        Lc = build_morse_canonical(4, sign)
        Lr = build_regular_family(f, 4)
        rng = np.random.default_rng(SEED + 3)
        for _ in range(20):
            p = rng.uniform(-1.0, 1.0, size=4)
            if abs(p[3]) < 0.1:
                continue
            a = operator_eval(Lc, p).value
            b = operator_eval(Lr, p).value
            assert np.max(np.abs(a - b)) < 1e-13, (sign, p)


def test_conjugation_residual_vanishes():
    rng = np.random.default_rng(SEED + 4)
    f = ScalarField.from_expression("y^3 + y + x1", 3)
    for _ in range(20):
        p = rng.uniform(-1.0, 1.0, size=3)
        raw, scale = regular_conjugation(f, p)
        assert raw <= 1e-12 * scale, p


def test_conjugation_residual_detects_wrong_operator():
    # feeding a mismatched operator must produce a nonzero residual
    wrong = build_morse_canonical(3, 1)
    f3 = ScalarField.from_expression("y^2 + x1 + x2", 3)
    p = np.array([0.4, 0.2, 0.6])
    raw, scale = conjugation_residual(p, f3(p), operator_eval(wrong, p))
    assert raw > 1e-3 * scale



def test_planar_conjugation_follows_its_own_sigma():
    # the planar operator satisfies J L = Ltilde J for sigma = (-x1, f),
    # and not for the regular family's sigma = (x1, f)
    f = ScalarField.from_expression("x1*x1/4 + y^2 + 0.3*y", 2)
    P = np.random.default_rng(SEED + 5).uniform(-1.0, 1.0, size=(20, 2))
    P = P[np.abs(2.0 * P[:, 1] + 0.3) > 0.1]
    fj = f(P)
    ev = operator_eval(build_2d(f), P, fj)
    raw, scale = conjugation_residual(P, fj, ev, signs=-1.0)
    assert np.all(raw <= 1e-13 * scale)
    raw, scale = conjugation_residual(P, fj, ev, signs=1.0)
    assert np.all(raw > 1e-3 * scale)
