"""Torsion evaluation: hand values, symmetry, oracle convergence, sweeps."""

import numpy as np
import pytest

from nijenhuis.construct import build_morse_canonical, build_regular_family
from nijenhuis.field import OperatorField, ScalarField, operator_eval
from nijenhuis.report import DomainEntirelySingular
from nijenhuis.torsion import (torsion_bracket_fd, torsion_coordinate,
                               torsion_from_eval, verify_zero_torsion)

SEED = 555


def diag_operator():
    return OperatorField.from_entries([
        [ScalarField.from_expression("y", 2), ScalarField.constant(0.0, 2)],
        [ScalarField.constant(0.0, 2), ScalarField.from_expression("x1", 2)],
    ], label="diag(y,x)")


def test_diagonal_witness_hand_value():
    # both N^1_12 and N^2_12 equal y - x for diag(y, x)
    L = diag_operator()
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        p = rng.uniform(-2.0, 2.0, size=2)
        N = torsion_coordinate(L, p).components
        expect = p[1] - p[0]
        assert N[0, 0, 1] == pytest.approx(expect, abs=1e-15)
        assert N[1, 0, 1] == pytest.approx(expect, abs=1e-15)


def test_antisymmetry_is_exact():
    # grouping the four terms into two differences keeps N[i,j,k] = -N[i,k,j]
    # exactly in floating point, not just approximately
    rng = np.random.default_rng(SEED + 1)
    texts = ["x1*y + x2", "y^2 - x2", "sin(x1)", "x2*x2 + 0.5", "exp(y/2)",
             "x1 + 2*y", "cos(x2)*y", "x1*x1 - y", "0.3", "y^3 - x1"]
    entries = [[ScalarField.from_expression(texts[(3 * i + j) % len(texts)], 3)
                for j in range(3)] for i in range(3)]
    L = OperatorField.from_entries(entries)
    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, size=3)
        N = torsion_coordinate(L, p).components
        assert np.array_equal(N, -np.transpose(N, (0, 2, 1)))


def test_shift_by_identity_is_invariant():
    # torsion is unchanged by L -> L + c*Id
    c = 0.37
    base = [["x1*y", "y^2", "x2"],
            ["x2 + y", "x1", "x1*x2"],
            ["y", "0.5", "x1 + y"]]
    entries = [[ScalarField.from_expression(t, 3) for t in row]
               for row in base]
    shifted = [[ScalarField.from_expression(
        f"({base[i][j]}) + {c}" if i == j else base[i][j], 3)
        for j in range(3)] for i in range(3)]
    L0 = OperatorField.from_entries(entries)
    L1 = OperatorField.from_entries(shifted)
    rng = np.random.default_rng(SEED + 2)
    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, size=3)
        N0 = torsion_coordinate(L0, p).components
        N1 = torsion_coordinate(L1, p).components
        scale = 1.0 + np.max(np.abs(N0))
        assert np.max(np.abs(N1 - N0)) < 1e-12 * scale


def test_torsion_from_eval_matches_wrapper():
    L = diag_operator()
    p = np.array([1.0, 2.0])
    assert np.array_equal(torsion_from_eval(operator_eval(L, p)),
                          torsion_coordinate(L, p).components)


def test_bracket_oracle_agrees_on_linear_entries():
    # linear entries make central differences exact up to rounding
    L = diag_operator()
    p = np.array([0.3, -0.8])
    delta = np.max(np.abs(torsion_bracket_fd(L, p, h=1e-4).components
                          - torsion_coordinate(L, p).components))
    assert delta < 1e-11


def test_bracket_oracle_quadratic_convergence():
    f = ScalarField.from_expression("y^3 + y + x1", 3)
    L = build_regular_family(f, 3)
    rng = np.random.default_rng(SEED + 3)
    checked = 0
    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, size=3)
        if abs(3.0 * p[2] ** 2 + 1.0) < 0.5:
            continue
        exact = torsion_coordinate(L, p).components
        d1 = np.max(np.abs(torsion_bracket_fd(L, p, h=1e-4).components - exact))
        d2 = np.max(np.abs(torsion_bracket_fd(L, p, h=5e-5).components - exact))
        if d1 < 1e-10:
            continue  # below the rounding floor, ratio is meaningless
        checked += 1
        assert d1 / d2 > 3.5, (p, d1, d2)
        assert d1 < 1e-6
    assert checked > 0


def _bracket_fd_by_index(L, p, h):
    """The bracket oracle written out index by index: the reference for the
    contracted form in torsion_bracket_fd."""
    n = L.dim
    Lp = operator_eval(L, p).values
    D = np.empty((n, n, n))
    for l in range(n):
        e = np.zeros(n)
        e[l] = h
        D[:, :, l] = (operator_eval(L, p + e).values
                      - operator_eval(L, p - e).values) / (2.0 * h)
    N = np.zeros((n, n, n))
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            for i in range(n):
                bracket = 0.0
                for l in range(n):
                    bracket += Lp[l, j] * D[i, k, l] - Lp[l, k] * D[i, j, l]
                corr = 0.0
                for m in range(n):
                    corr += Lp[i, m] * (D[m, j, k] - D[m, k, j])
                N[i, j, k] = bracket + corr
    return N


def test_bracket_oracle_matches_index_loop():
    rng = np.random.default_rng(SEED + 4)
    operators = [diag_operator(), build_morse_canonical(4, -1)]
    for n in (3, 5):
        f = ScalarField.from_expression("y^3 + y + x1*y^2 + sin(x2)", n)
        operators.append(build_regular_family(f, n))
    for L in operators:
        for _ in range(4):
            p = rng.uniform(-0.5, 0.5, size=L.dim)
            ref = _bracket_fd_by_index(L, p, 1e-4)
            got = torsion_bracket_fd(L, p, h=1e-4).components
            assert np.max(np.abs(got - ref)) <= 1e-12, (L.label, p)


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.6, 0.7)])
def test_overflowing_f_never_passes(lo, hi):
    # on [0.6, 0.7] only the Hessian of exp(1000*y) overflows; that once
    # went through as inf entries and a passing sweep
    f = ScalarField.from_expression("exp(1000*y)+y", 2)
    L = build_regular_family(f, 2)
    with pytest.raises(ArithmeticError, match="overflow"):
        verify_zero_torsion(L, np.array([[lo, hi]] * 2), samples=200,
                            seed=3, tol=1e-10)


def test_bracket_oracle_rejects_bad_step():
    with pytest.raises(ValueError):
        torsion_bracket_fd(diag_operator(), np.array([1.0, 2.0]), h=0.0)


def test_zero_torsion_sweep_passes_for_canonical_family():
    L = build_morse_canonical(3, 1)
    rep = verify_zero_torsion(L, np.array([[-1.0, 1.0]] * 3),
                              samples=200, seed=7, tol=1e-12)
    assert rep.passed
    assert rep.accepted == 200
    assert rep.rejected == 0
    assert rep.max_residual <= 1e-12
    assert rep.checks[0].name == "torsion_relative"


def test_zero_torsion_sweep_fails_for_witness():
    rep = verify_zero_torsion(diag_operator(), np.array([[-1.0, 1.0]] * 2),
                              samples=100, seed=7, tol=1e-10)
    assert not rep.passed
    assert rep.worst_point is not None
    assert rep.max_residual > 0.1


def test_sweep_counts_guarded_rejections():
    f = ScalarField.from_expression("y^2", 2)
    L = build_regular_family(f, 2)  # guard margin |2y|
    rep = verify_zero_torsion(L, np.array([[-1.0, 1.0]] * 2),
                              samples=500, seed=11, tol=1e-10,
                              min_denominator=0.05)
    assert rep.passed
    assert rep.accepted + rep.rejected == 500
    assert rep.rejected > 0


def test_sweep_entirely_singular_domain():
    f = ScalarField.from_expression("y^2", 2)
    L = build_regular_family(f, 2)
    box = np.array([[-1.0, 1.0], [-0.001, 0.001]])  # |2y| < 0.05 everywhere
    with pytest.raises(DomainEntirelySingular):
        verify_zero_torsion(L, box, samples=50, seed=3, tol=1e-10,
                            min_denominator=0.05)
