"""Singular-determinant machinery: fractions, remainder system, reduction."""

import numpy as np
import pytest

from nijenhuis.construct import build_regular_family
from nijenhuis.field import ScalarField, operator_eval
from nijenhuis.singularity import (NewtonDivergenceError, NonMorseError,
                                   morse_coordinate, morse_reduce,
                                   morse_remainder_field, pde_residuals,
                                   quadratic_factor, remainder_from_expression,
                                   smoothness_numerators,
                                   verify_morse_normal_form, verify_pde)

SEED = 31415


# -- smoothness fractions --------------------------------------------------

def test_verdict_regular_away_from_singularity():
    f = ScalarField.from_expression("y^2", 3)
    d = smoothness_numerators(f, 3, np.array([0.3, -0.2, 0.5]))
    assert d.verdict == "regular"
    assert d.denominator == 1.0


def test_verdict_obstructed_with_unit_numerator():
    f = ScalarField.from_expression("y^2 + x1", 3)
    d = smoothness_numerators(f, 3, np.array([0.3, -0.2, 0.0]))
    assert d.verdict == "obstructed"
    assert abs(d.numerators[1] - 1.0) <= 1e-12  # N_2 = f_x1 + f_x2*f_x2 = 1
    assert abs(d.numerators[0]) <= 1e-12


def test_verdict_removable_singularity():
    f = ScalarField.from_expression("y^2", 3)
    d = smoothness_numerators(f, 3, np.array([0.3, -0.2, 0.0]))
    assert d.verdict == "singular-denominator-zero-numerators"
    assert np.max(np.abs(d.numerators)) <= 1e-14


def test_numerators_match_family_fractions():
    # the diagnostics are exactly the rational parts of the last matrix row:
    # away from f_y = 0 each reported numerator equals entry * denominator
    f = ScalarField.from_expression("y^2 + x1*x2 + 0.3*y", 3)
    L = build_regular_family(f, 3)
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        p = rng.uniform(-1.0, 1.0, size=3)
        fy = 2.0 * p[2] + 0.3
        if abs(fy) < 0.1:
            continue
        d = smoothness_numerators(f, 3, p)
        ev = operator_eval(L, p)
        assert d.numerators[0] == pytest.approx(ev.value[2, 0] * fy,
                                                rel=1e-12, abs=1e-12)
        assert d.numerators[1] == pytest.approx(-ev.value[2, 1] * fy,
                                                rel=1e-12, abs=1e-12)


def test_fraction_blowup_near_singular_denominator():
    # obstructed f: the (n,2) entry carries N_2/f_y = 1/(2y) and blows up
    f = ScalarField.from_expression("y^2 + x1", 3)
    L = build_regular_family(f, 3)
    small = operator_eval(L, np.array([0.4, 0.1, 1e-3])).value
    large = operator_eval(L, np.array([0.4, 0.1, 1e-1])).value
    assert abs(small[2, 1]) > 50.0 * abs(large[2, 1])
    # while the removable (n,1) fraction stays bounded
    assert abs(small[2, 0]) < 1.0


# -- remainder PDE system ----------------------------------------------------

def test_pde_zero_remainder():
    for n in (3, 4, 5):
        R = ScalarField.constant(0.0, n - 1)
        rng = np.random.default_rng(SEED + n)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=n - 1)
            res = pde_residuals(R, n, x)
            assert res.system_max() <= 1e-14
            # the informational factor does not vanish for R = 0
            assert res.factor2 == pytest.approx(-x[-1], abs=1e-15)


def test_pde_planar_exception():
    R = remainder_from_expression("x1^2/4", 2)
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=1)
        res = pde_residuals(R, 2, x)
        assert res.system_max() <= 1e-14
        assert abs(res.factor2) <= 1e-14


def _affine_remainder(n: int, t: float) -> str:
    """R_t = -((-t)^n + (-t)^(n-1) x1 + ... + (-t) x_(n-1)) as text."""
    terms = [f"({(-t) ** (n - i)!r})*x{i}" for i in range(1, n)]
    return "-(" + " + ".join([repr((-t) ** n)] + terms) + ")"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pde_affine_remainders_solve_the_system(n):
    # R = 0 is not the only solution for n > 2: every R_t solves it, and a
    # small quadratic term breaks it at every sampled point
    x = np.random.default_rng(SEED + n).uniform(-1.0, 1.0, size=(20, n - 1))
    for t in (-1.5, -0.5, 0.5, 2.0, 3.0):
        text = _affine_remainder(n, t)
        R = remainder_from_expression(text, n)
        assert np.max(pde_residuals(R, n, x).system_max()) <= 1e-12, text
        bent = remainder_from_expression(text + " + 1e-3*x1^2", n)
        assert np.min(pde_residuals(bent, n, x).system_max()) > 1e-6, text


def test_pde_envelope_of_the_affine_remainders_solves_the_system():
    # at n = 3, R = -t^2 x1 + t x2 + t^3 with t = (x1 + sqrt(x1^2 -
    # 3 x2)) / 3, where dR_t/dt = 0, is the envelope of the family R_t:
    # not affine, and still a solution on the box where the root is real
    t = "((x1 + sqrt(x1^2 - 3*x2))/3)"
    R = remainder_from_expression(f"-{t}^2*x1 + {t}*x2 + {t}^3", 3)
    x = np.random.default_rng(SEED).uniform([1.0, -1.0], [2.0, 0.3],
                                            size=(500, 2))
    assert np.max(pde_residuals(R, 3, x).system_max()) <= 1e-13


def test_affine_remainders_extend_the_operator_across_y_0():
    # f = +-y^2 + R_t has vanishing numerators on y = 0; a remainder off
    # the system, R_t + 0.1 x2, leaves N_1 = 0.025 and N_2 = 0.11
    Rt = _affine_remainder(3, 0.5)          # 0.125 - 0.25 x1 + 0.5 x2
    p = np.random.default_rng(SEED).uniform(-1.0, 1.0, size=(20, 3))
    p[:, -1] = 0.0
    for f in (f"y^2 + {Rt}", f"-y^2 + {Rt}"):
        d = smoothness_numerators(ScalarField.from_expression(f, 3), 3, p)
        assert (d.verdict == "singular-denominator-zero-numerators").all(), f
    d = smoothness_numerators(
        ScalarField.from_expression(f"y^2 + {Rt} + 0.1*x2", 3), 3, p)
    assert (d.verdict == "obstructed").all()
    assert np.allclose(d.numerators, [0.025, 0.11], rtol=1e-12, atol=0)


def test_pde_linear_remainder_first_equation():
    # R = x1 + x_{n-1} forces r0 = -R_1 * R_{n-1} = -1
    for n, text in ((3, "x1 + x2"), (4, "x1 + x3")):
        R = remainder_from_expression(text, n)
        rng = np.random.default_rng(SEED + 10 * n)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=n - 1)
            res = pde_residuals(R, n, x)
            assert res.r0 == pytest.approx(-1.0, abs=1e-12)


def test_pde_frozen_cross_terms():
    R = remainder_from_expression("x1 + x3", 4)
    res = pde_residuals(R, 4, np.array([0.3, 0.8, -0.4]))
    assert res.r0 == pytest.approx(-1.0, abs=1e-15)
    assert np.allclose(res.chain, [1.0, 1.0], atol=1e-15)
    assert np.allclose(res.relations, [1.0, 0.0], atol=1e-15)


def test_pde_dimension_validation():
    R = ScalarField.constant(0.0, 2)
    with pytest.raises(ValueError):
        pde_residuals(R, 5, np.array([0.1, 0.2]))


def test_verify_pde_report():
    R = ScalarField.constant(0.0, 3)
    rng = np.random.default_rng(SEED + 5)
    pts = rng.uniform(-1.0, 1.0, size=(50, 3))
    rep = verify_pde(R, 4, pts, tol=1e-14)
    assert rep.passed
    assert rep.accepted == 50
    names = [c.name for c in rep.checks]
    assert names[0] == "pde_system"
    assert "factor2" in names
    # factor2 is informational and never gates
    assert all(c.passed for c in rep.checks)


def test_verify_pde_fails_for_generic_remainder():
    R = remainder_from_expression("x1*x2", 3)
    rng = np.random.default_rng(SEED + 6)
    pts = rng.uniform(0.3, 1.0, size=(20, 2))
    rep = verify_pde(R, 3, pts, tol=1e-10)
    assert not rep.passed
    assert rep.max_residual > 1e-2


# -- parametric Morse reduction ----------------------------------------------

def test_reduction_frozen_values():
    f = ScalarField.from_expression("y^2 + x1*y", 2)
    data = morse_reduce(f, 2, np.array([0.6]))
    assert data.c == pytest.approx(-0.3, abs=1e-13)
    assert data.R == pytest.approx(-0.09, abs=1e-13)
    assert data.sign == 1
    assert data.newton_iters == 2
    assert data.fyy == pytest.approx(2.0, abs=1e-13)


def test_reduction_counts_immediate_convergence():
    f = ScalarField.from_expression("y^2", 2)
    data = morse_reduce(f, 2, np.array([0.3]))
    assert data.c == 0.0
    assert data.newton_iters == 1


def test_reduction_negative_sign():
    f = ScalarField.from_expression("-y^2 + x1", 2)
    data = morse_reduce(f, 2, np.array([0.4]))
    assert data.sign == -1
    assert data.R == pytest.approx(0.4, abs=1e-13)


def test_reduction_newton_stays_fast():
    rng = np.random.default_rng(SEED + 7)
    f = ScalarField.from_expression("y^2 + x1*y + sin(x1)*y + x1", 2)
    for _ in range(25):
        x = rng.uniform(-1.0, 1.0, size=1)
        data = morse_reduce(f, 2, x)
        assert data.newton_iters <= 8, x


def test_reduction_is_idempotent():
    # reducing sign*(y-c)^2 + R returns the same critical data
    f = ScalarField.from_expression("y^2 + x1*y + x2", 3)
    x = np.array([0.5, -0.7])
    first = morse_reduce(f, 3, x)
    shifted = ScalarField.from_expression(
        f"(y - {first.c!r})^2 + {first.R!r}", 3)
    second = morse_reduce(shifted, 3, x)
    assert second.c == pytest.approx(first.c, abs=1e-12)
    assert second.R == pytest.approx(first.R, abs=1e-12)
    assert second.sign == first.sign


def test_non_morse_rejected():
    f = ScalarField.from_expression("y^3", 2)
    with pytest.raises(NonMorseError):
        morse_reduce(f, 2, np.array([0.1]))


def test_newton_divergence():
    # f_y = exp(y) + 0.5 has no zero; the iteration must fail loudly
    f = ScalarField.from_expression("exp(y) + 0.5*y + x1", 2)
    with pytest.raises(NewtonDivergenceError):
        morse_reduce(f, 2, np.array([0.2]))


def test_quadratic_factor_and_coordinate():
    f = ScalarField.from_expression("y^2 + x1*y", 2)
    data = morse_reduce(f, 2, np.array([0.6]))
    assert quadratic_factor(f, data, 0.9) == pytest.approx(1.0, abs=1e-12)
    # Taylor branch near the critical point agrees with the quotient
    assert quadratic_factor(f, data, data.c + 1e-5) == pytest.approx(
        1.0, abs=1e-10)
    yt = morse_coordinate(f, data, 0.9)
    assert yt == pytest.approx(0.9 - data.c, abs=1e-12)
    # the straightened fiber reproduces f exactly
    assert data.sign * yt * yt + data.R == pytest.approx(
        f(np.array([0.6, 0.9])).value, abs=1e-12)


def test_remainder_field_jets():
    f = ScalarField.from_expression("y^2 + x1*y", 2)
    Rf = morse_remainder_field(f, 2)
    j = Rf(np.array([0.6]))
    assert j.value == pytest.approx(-0.09, abs=1e-13)
    assert j.gradient[0] == pytest.approx(-0.3, abs=1e-12)
    assert j.hessian[0, 0] == pytest.approx(-0.5, abs=1e-10)


def test_remainder_field_is_deterministic():
    f = ScalarField.from_expression("y^2 + sin(x1)*y + x1", 2)
    Rf = morse_remainder_field(f, 2)
    x = np.array([0.37])
    a = Rf(x)
    b = Rf(x)
    assert a.value == b.value
    assert np.array_equal(a.gradient, b.gradient)
    assert np.array_equal(a.hessian, b.hessian)


def test_remainder_gradient_against_finite_differences():
    f = ScalarField.from_expression("y^2 + x1*y + cos(x2)", 3)
    Rf = morse_remainder_field(f, 3)
    x = np.array([0.4, -0.6])
    h = 1e-6
    j = Rf(x)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (Rf(x + e).value - Rf(x - e).value) / (2 * h)
        assert j.gradient[i] == pytest.approx(fd, abs=1e-8)


def test_normal_form_sweep():
    f = ScalarField.from_expression("y^2 + x1*y", 2)
    rep = verify_morse_normal_form(f, 2, np.array([[-1.0, 1.0]] * 2),
                                   grid=9, tol=1e-9)
    assert rep.passed
    assert rep.max_residual <= 1e-12
    assert rep.checks[0].name == "normal_form_defect"


def test_normal_form_sweep_nontrivial_remainder():
    f = ScalarField.from_expression("y^2 + x1*y + exp(x1)", 2)
    rep = verify_morse_normal_form(f, 2, np.array([[-1.0, 1.0]] * 2),
                                   grid=9, tol=1e-9)
    assert rep.passed


def test_normal_form_grid_evaluates_f_per_chunk(monkeypatch):
    # 125 grid points in one chunk: the batched Newton steps, the quotient
    # and Taylor probes, and the defect (one call per point made 345)
    f = ScalarField.from_expression("y^2 + x1*y + x2*y^3", 3)
    calls = []
    original = ScalarField.__call__

    def counted(field, p, **kw):
        calls.append(np.shape(p))
        return original(field, p, **kw)

    monkeypatch.setattr(ScalarField, "__call__", counted)
    rep = verify_morse_normal_form(f, 3, (-0.5, 0.5), grid=5)
    assert rep.passed and rep.accepted == 125
    assert len(calls) <= 10
