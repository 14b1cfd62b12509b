"""Dense elimination kernels cross-checked against numpy.

invert_with_det and matmul take stacks of jet matrices, batch (..., n, n);
float matrices enter as jets with zero gradient.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nijenhuis.jet import DenominatorVanishes, Jet2, constant_jet, coordinate_jet
from nijenhuis.linalg import NumericallySingular, invert_with_det, matmul, plu_det

SEED = 4242


def float_jets(M):
    """Float matrices (..., n, n) as jets of one variable with zero gradient."""
    M = np.asarray(M, dtype=float)
    return Jet2(M, np.zeros(M.shape + (1,)))


def stack(rows):
    """One jet of batch (n, n) from an n x n grid of single-point jets."""
    return Jet2(np.array([[c.value for c in row] for row in rows]),
                np.array([[c.gradient for c in row] for row in rows]),
                np.array([[c.hessian for c in row] for row in rows]))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_det_known_values():
    assert plu_det(np.array([[2.0]])) == 2.0
    assert plu_det(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(-2.0)
    assert plu_det(np.eye(5)) == 1.0
    # singular matrix reports exactly zero
    assert plu_det(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0.0


def test_det_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(SEED)
    for n in (2, 3, 4, 5, 6):
        for _ in range(20):
            M = rng.uniform(-2.0, 2.0, size=(n, n))
            ref = np.linalg.det(M)
            assert plu_det(M) == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_float_inverse_matches_numpy():
    rng = np.random.default_rng(SEED + 1)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            M = rng.uniform(-1.5, 1.5, size=(n, n)) + 2.0 * np.eye(n)
            inv, det = invert_with_det(float_jets(M))
            assert det.value == pytest.approx(np.linalg.det(M), rel=1e-9)
            assert np.max(np.abs(inv.value @ M - np.eye(n))) < 1e-10


def test_inverse_rejects_singular():
    with pytest.raises(NumericallySingular):
        invert_with_det(float_jets([[1.0, 2.0], [2.0, 4.0]]))


def test_inverse_masks_the_failing_matrices_of_a_stack():
    M = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]], 2.0 * np.eye(2)])
    with pytest.raises(NumericallySingular) as err:
        invert_with_det(float_jets(M))
    assert err.value.mask.tolist() == [False, True, False]
    # a pivot row that cannot be divided by its pivot: mask of batch shape
    M[1] = [[1e-13, 1.0], [0.0, 1e-13]]
    with pytest.raises(DenominatorVanishes) as err:
        invert_with_det(float_jets(M))
    assert err.value.mask.tolist() == [False, True, False]
    with pytest.raises(DenominatorVanishes) as err:
        invert_with_det(float_jets(M[1]))
    assert err.value.mask.shape == ()


def jet_matrix(p):
    x = coordinate_jet(1, p)
    y = coordinate_jet(2, p)
    one = constant_jet(1.0, 2)
    return stack([[x * y + 2.0, y], [one, x + 3.0]])


def assert_identity_jet(prod, n):
    for i in range(n):
        for j in range(n):
            target = 1.0 if i == j else 0.0
            assert abs(prod.value[i, j] - target) < 1e-14
            # derivatives of the identity vanish
            assert np.max(np.abs(prod.gradient[i, j])) < 1e-13
            assert np.max(np.abs(prod.hessian[i, j])) < 1e-13


def test_jet_inverse_times_matrix_is_identity_jet():
    p = np.array([0.7, -0.4])
    A = jet_matrix(p)
    inv, det = invert_with_det(A)
    assert_identity_jet(matmul(inv, A), 2)


def test_zero_valued_entry_keeps_its_gradient():
    # the entry x has value 0 at x = 0 but gradient 1: the elimination
    # must not skip the row update it multiplies
    p = np.array([0.0, 0.5])
    x = coordinate_jet(1, p)
    y = coordinate_jet(2, p)
    A = stack([[y + 2.0, y * y], [x, x + 3.0]])
    inv, _ = invert_with_det(A)
    assert_identity_jet(matmul(inv, A), 2)


def test_jet_inverse_det_matches_value_path():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, size=2)
        A = jet_matrix(p)
        _, det = invert_with_det(A)
        assert det.value == pytest.approx(np.linalg.det(A.value), rel=1e-12)


def test_jet_inverse_gradient_against_finite_differences():
    # d/dp of inv(A)[0][0] via central differences on the value path
    h = 1e-6
    p = np.array([0.3, 0.9])

    def inv00(q):
        return np.linalg.inv(jet_matrix(q).value)[0, 0]

    inv, _ = invert_with_det(jet_matrix(p))
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (inv00(p + e) - inv00(p - e)) / (2 * h)
        assert inv.gradient[0, 0, i] == pytest.approx(fd, abs=5e-9)


def test_matmul_matches_numpy():
    rng = np.random.default_rng(SEED + 3)
    A = rng.uniform(-1, 1, size=(3, 3))
    B = rng.uniform(-1, 1, size=(3, 3))
    C = matmul(float_jets(A), float_jets(B))
    assert np.max(np.abs(C.value - A @ B)) < 1e-14


@st.composite
def jet_stacks(draw):
    """Well-conditioned jet matrices (B, n, n) whose rows are permuted per
    point, so that some points swap rows at a step and others do not."""
    n = draw(st.integers(2, 5))
    size = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    value = rng.uniform(-0.5, 0.5, size=(size, n, n)) + 3.0 * np.eye(n)
    value[1] = value[1, ::-1]    # swaps at step 0, where point 0 does not
    for b in range(2, size):
        if draw(st.booleans()):
            value[b] = value[b, rng.permutation(n)]
    gradient = rng.uniform(-1.0, 1.0, size=(size, n, n, 2))
    hessian = rng.uniform(-1.0, 1.0, size=(size, n, n, 2, 2))
    return Jet2(value, gradient, hessian)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(jet_stacks())
def test_stack_matches_each_matrix_alone_bit_for_bit(A):
    inv, det = invert_with_det(A)
    for b in range(A.value.shape[0]):
        alone = A.at(slice(b, b + 1))
        inv1, det1 = invert_with_det(alone)
        for batched, single in ((inv.value[b], inv1.value[0]),
                                (inv.gradient[b], inv1.gradient[0]),
                                (inv.hessian[b], inv1.hessian[0]),
                                (det.value[b], det1.value[0]),
                                (det.gradient[b], det1.gradient[0]),
                                (det.hessian[b], det1.hessian[0])):
            assert same_bits(batched, single)
