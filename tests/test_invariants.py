"""Characteristic coefficients: frozen values, identities, recovery sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nijenhuis.construct import (build_2d, build_morse_canonical,
                                 build_regular_family, companion_matrix)
from nijenhuis.field import ScalarField
from nijenhuis.invariants import charpoly, coordinate_sigma, sigma_identity
from sweeps import sweep

SEED = 2718


def test_charpoly_frozen_value():
    M = np.array([[-1.0, 1.0, 0.0], [1.0, 0.0, 4.0], [-1.0, 0.0, 0.0]])
    sigma = charpoly(M)
    assert np.max(np.abs(sigma - np.array([1.0, -1.0, 4.0]))) <= 1e-12


def test_charpoly_small_cases():
    assert np.allclose(charpoly(np.array([[3.0]])), [-3.0])
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    # t^2 - (tr)t + det = t^2 - 5t - 2
    assert np.allclose(charpoly(M), [-5.0, -2.0], atol=1e-14)
    assert np.allclose(charpoly(np.eye(4)),
                       [-4.0, 6.0, -4.0, 1.0], atol=1e-13)


def test_charpoly_first_and_last_coefficients():
    rng = np.random.default_rng(SEED)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            M = rng.uniform(-1.0, 1.0, size=(n, n))
            sigma = charpoly(M)
            assert sigma[0] == pytest.approx(-np.trace(M), rel=1e-12,
                                             abs=1e-12)
            assert sigma[-1] == pytest.approx(((-1.0) ** n) * np.linalg.det(M),
                                              rel=1e-9, abs=1e-11)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(-4.0, 4.0) | st.just(0.0), min_size=2, max_size=8))
def test_charpoly_recovers_companion_coefficients(sigma):
    # the companion matrix of sigma has chi(t) = t^n + sigma_1 t^(n-1) + ...
    # + sigma_n exactly. The recursion's M_k has entries of size up to
    # (1 + s)^k, s = max |sigma_i|, and sigma_k is a trace of M_k, so its
    # error is a few roundings of that size: n u (1 + s)^k bounds it (the
    # largest seen over 21,000 draws at n = 2..8 was 0.07 of it). charpoly's
    # cross-check against the LAPACK determinant never raises here.
    sigma = np.array(sigma)
    n, s = sigma.size, np.max(np.abs(sigma))
    got = charpoly(companion_matrix(sigma))
    bound = n * 2.0 ** -53 * (1.0 + s) ** np.arange(1, n + 1)
    assert np.all(np.abs(got - sigma) <= bound)


def test_cayley_hamilton():
    rng = np.random.default_rng(SEED + 1)
    for n in (2, 3, 4):
        for _ in range(10):
            M = rng.uniform(-1.0, 1.0, size=(n, n))
            sigma = charpoly(M)
            P = np.linalg.matrix_power(M, n)
            for k in range(1, n + 1):
                P = P + sigma[k - 1] * np.linalg.matrix_power(M, n - k)
            bound = 1e-9 * (1.0 + np.linalg.norm(M)) ** n
            assert np.max(np.abs(P)) < bound


def test_similarity_invariance():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(10):
        M = rng.uniform(-1.0, 1.0, size=(4, 4))
        S = rng.uniform(-1.0, 1.0, size=(4, 4)) + 3.0 * np.eye(4)
        sim = S @ M @ np.linalg.inv(S)
        assert np.max(np.abs(charpoly(sim) - charpoly(M))) < 1e-8


def test_charpoly_input_validation():
    with pytest.raises(ValueError):
        charpoly(np.ones((2, 3)))
    with pytest.raises(ValueError):
        charpoly(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_sigma_recovery_regular_family():
    f = ScalarField.from_expression("y^2 + x1*x2 + 0.3*y", 3)
    L = build_regular_family(f, 3)
    rep = sweep(L, sigma_identity(coordinate_sigma(f, 3, (1.0, 1.0)), 1e-9,
                                  L.guard, 0.05),
                np.array([[-1.0, 1.0]] * 3), samples=300, seed=5)
    assert rep.passed
    assert rep.max_residual <= 1e-9
    assert rep.checks[0].name == "sigma_max_deviation"


def test_sigma_recovery_planar_family_sign_convention():
    f = ScalarField.from_expression("x1*x1/4 + y^2", 2)
    L = build_2d(f)
    rep = sweep(L, sigma_identity(coordinate_sigma(f, 2, (-1.0,)), 1e-9,
                                  L.guard, 0.05),
                np.array([[-1.0, 1.0]] * 2), samples=300, seed=5)
    assert rep.passed


def test_coordinate_sigma_is_batched():
    f = ScalarField.from_expression("x1*x2 + y^2", 3)
    P = np.random.default_rng(SEED).uniform(-1.0, 1.0, size=(4, 3))
    got = coordinate_sigma(f, 3, (-1.0, 1.0))(P, f(P))
    assert got.shape == (4, 3)
    assert np.array_equal(got[:, 0], -P[:, 0])
    assert np.array_equal(got[:, 1], P[:, 1])
    assert np.array_equal(got[:, 2], f(P).value)
    assert np.array_equal(coordinate_sigma(f, 3, (-1.0, 1.0))(P[0], f(P[0])),
                          got[0])
    with pytest.raises(ValueError, match="length 2"):
        coordinate_sigma(f, 3, (1.0,))


def test_sigma_recovery_canonical_family():
    f = ScalarField.from_expression("-y^2", 4)
    L = build_morse_canonical(4, -1)
    rep = sweep(L, sigma_identity(coordinate_sigma(f, 4, np.ones(3)), 1e-9),
                np.array([[-1.0, 1.0]] * 4), samples=300, seed=5, source=f)
    assert rep.passed


def test_sigma_fields_detects_mismatch():
    f = ScalarField.from_expression("y^2 + x1", 2)
    L = build_regular_family(f, 2)

    def wrong_expected(P, fj):   # fj: f's jet, the source of L
        return np.stack([P[..., 0] + 1.0, fj.value], axis=-1)

    rep = sweep(L, sigma_identity(wrong_expected, 1e-9, L.guard, 0.05),
                np.array([[-1.0, 1.0]] * 2), samples=100, seed=5)
    assert not rep.passed
    assert rep.max_residual > 0.5
