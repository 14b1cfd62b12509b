"""Dense matrix routines cross-checked against numpy and references.

invert_with_det and matmul take stacks of order-1 jet matrices, batch
(..., n, n), which hold values and gradients only; float matrices enter as
jets with zero gradient, and jet matrices are stacked from the entries'
order-2 jets. The jet product that matmul replaces is kept below as a
reference, on order-2 entry jets with zero Hessians. plu_det is held to
the exact determinant over the rationals, and invert_with_det to the exact
inverse.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nijenhuis.jet import Jet2, _jet, _zeros, constant_jet, coordinate_jet
from nijenhuis.linalg import invert_with_det, matmul, plu_det

SEED = 4242

_ALL = slice(None)
U = 2.0 ** -53


# -- references: the jet product, exact det and inverse --------------------

def _take(a: Jet2, rows, cols) -> Jet2:
    """A stack of matrix jets indexed on its two trailing (matrix) axes, as
    an order-2 jet with zero Hessians."""
    idx = (Ellipsis, rows, cols)
    value = a.value[idx]
    return _jet(value, a.gradient[idx + (_ALL,)],
                _zeros(value.shape + (a.dim, a.dim)))


def reference_matmul(A: Jet2, B: Jet2) -> Jet2:
    """The jet product of two stacks of jet matrices, k from 0 up."""
    n = A.value.shape[-1]
    acc = _take(A, _ALL, slice(0, 1)) * _take(B, slice(0, 1), _ALL)
    for k in range(1, n):
        acc = acc + (_take(A, _ALL, slice(k, k + 1))
                     * _take(B, slice(k, k + 1), _ALL))
    return acc


def exact_det(M) -> Fraction:
    """det M over the rationals: every float entry converts exactly, and
    elimination with exact arithmetic has no rounding."""
    a = [[Fraction(float(x)) for x in row] for row in M]
    n, det = len(a), Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            m = a[r][k] / a[k][k]
            a[r] = [x - m * y for x, y in zip(a[r], a[k])]
    return det


def det_bound(M) -> float:
    """How far plu_det(M) may be from the exact det of one matrix M:
    (16 n + |ln H|) u H, u = 2^-53 and H the product of M's row norms,
    Hadamard's bound on |det M|. Partial-pivot LU is exact for M + dM with
    |dM| <= gamma_n |L||U|, and Hadamard's inequality bounds every cofactor
    by the product of the other rows' norms, so that error is a small
    multiple of n u H; the factor 16 leaves room for pivot growth (over
    2,400 uniform matrices at n = 1..8, a third of them with two equal
    rows, the largest error was 2.2 n u H). numpy forms det as
    sign * exp(sum log|u_ii|), which adds about |ln |det|| u relative to
    |det| <= H."""
    n = np.shape(M)[-1]
    hadamard = float(np.prod(np.linalg.norm(M, axis=-1)))
    if hadamard == 0.0:
        return 0.0
    return (16 * n + abs(np.log(hadamard))) * 2.0 ** -53 * hadamard


# -- helpers ---------------------------------------------------------------

def float_jets(M):
    """Float matrices (..., n, n) as order-1 jets of one variable with zero
    gradient."""
    M = np.asarray(M, dtype=float)
    return _jet(M, np.zeros(M.shape + (1,)), None)


def stack(rows):
    """One order-1 jet of batch (n, n) from an n x n grid of single-point
    jets."""
    return _jet(np.array([[c.value for c in row] for row in rows]),
                np.array([[c.gradient for c in row] for row in rows]), None)


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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_plu_det_agrees_with_the_exact_determinant(n, size, seed):
    rng = np.random.default_rng(seed)
    M = rng.uniform(-2.0, 2.0, size=(size, n, n))
    M[0, :, 0] = 0.0             # a zero column: det is exactly 0
    if size > 1:
        M[1, -1] = M[1, 0]       # two equal rows: det is 0 up to rounding
    det = plu_det(M)
    assert det[0] == 0.0
    for k in range(size):
        err = abs(Fraction(float(det[k])) - exact_det(M[k]))
        assert err <= det_bound(M[k])


def exact_inverse(M):
    """M^-1 over the rationals, as rows of Fractions, by Gauss-Jordan
    elimination with exact arithmetic; None for a singular M."""
    n = len(M)
    a = [[Fraction(float(x)) for x in row] + [Fraction(int(i == j))
                                              for j in range(n)]
         for i, row in enumerate(M)]
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for r in range(n):
            if r != k and a[r][k] != 0:
                m = a[r][k]
                a[r] = [x - m * y for x, y in zip(a[r], a[k])]
    return [row[n:] for row in a]


def norm1(M) -> float:
    """The 1-norm of a matrix of floats or Fractions: the largest column
    sum of magnitudes."""
    return float(max(sum(abs(row[j]) for row in M) for j in range(len(M))))


def test_float_inverse_matches_numpy():
    rng = np.random.default_rng(SEED + 1)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            M = rng.uniform(-1.5, 1.5, size=(n, n)) + 2.0 * np.eye(n)
            inv, det = invert_with_det(float_jets(M))
            assert det == pytest.approx(np.linalg.det(M), rel=1e-9)
            assert np.max(np.abs(inv.value @ M - np.eye(n))) < 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(1, 5), st.integers(0, 12),
       st.integers(0, 2 ** 32 - 1))
def test_inverse_agrees_with_the_exact_inverse(n, size, digits, seed):
    # An LU-based inverse X of M is within c_n u kappa_1(M) |M^-1|_1 of
    # M^-1 in the 1-norm (Higham, Accuracy and Stability of Numerical
    # Algorithms, ch. 14); c_n = 4 n leaves room for pivot growth. The
    # last member's rows are up to 10^-digits from dependent, so that
    # kappa_1 spans 1 to about 1e13.
    rng = np.random.default_rng(seed)
    M = rng.uniform(-2.0, 2.0, size=(size, n, n))
    if n > 1:
        M[-1, -1] = M[-1, 0] + 10.0 ** -digits * rng.uniform(-1.0, 1.0, n)
    inv, det = invert_with_det(float_jets(M))
    for k in range(size):
        exact = exact_inverse(M[k])
        if exact is None:
            assert det[k] == 0.0 and np.isnan(inv.value[k]).all()
            continue
        err = norm1([[Fraction(float(x)) - e for x, e in zip(row, ex)]
                     for row, ex in zip(inv.value[k], exact)])
        kappa = norm1(M[k]) * norm1(exact)
        assert err <= 4 * n * U * kappa * norm1(exact), (k, kappa)


def test_an_exactly_singular_member_reads_nan():
    # LAPACK is not asked to invert it, so the stack does not raise, and
    # the other members keep the bits they get on their own
    M = np.array([np.eye(2), [[1.0, 2.0], [1.0, 2.0]], 2.0 * np.eye(2)])
    inv, det = invert_with_det(float_jets(M))
    assert det.tolist() == [1.0, 0.0, 4.0]
    assert np.isnan(inv.value[1]).all() and np.isnan(inv.gradient[1]).all()
    for k in (0, 2):
        alone, _ = invert_with_det(float_jets(M[k]))
        assert same_bits(inv.value[k], alone.value)
        assert same_bits(inv.gradient[k], alone.gradient)


def test_order_2_jets_are_refused():
    M = np.eye(2) + 0.5
    A = Jet2(M, np.zeros(M.shape + (1,)))    # the constructor builds order 2
    with pytest.raises(ValueError, match="order-1"):
        invert_with_det(A)
    with pytest.raises(ValueError, match="order-1"):
        matmul(A, float_jets(M))
    with pytest.raises(ValueError, match="order-1"):
        matmul(float_jets(M), A)


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


def test_jet_inverse_times_matrix_is_identity_jet():
    p = np.array([0.7, -0.4])
    A = jet_matrix(p)
    inv, det = invert_with_det(A)
    assert_identity_jet(matmul(inv, A), 2)


def test_zero_valued_entry_keeps_its_gradient():
    # the entry x has value 0 at x = 0 but gradient 1: the closed-form
    # gradient must carry it
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
        assert det == pytest.approx(np.linalg.det(A.value), rel=1e-12)


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
    """Well-conditioned order-1 jet matrices (B, n, n) whose rows are
    permuted per point, so that some points swap rows at a step and others
    do not. Most stacks are small; some have up to 64 matrices."""
    n = draw(st.integers(2, 8))
    size = draw(st.integers(2, 6) | st.integers(7, 64))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    value = rng.uniform(-0.5, 0.5, size=(size, n, n)) + n * np.eye(n)
    value[1] = value[1, ::-1]    # swaps at step 0, where point 0 does not
    for b in range(2, size):
        if draw(st.booleans()):
            value[b] = value[b, rng.permutation(n)]
    gradient = rng.uniform(-1.0, 1.0, size=(size, n, n, dim))
    return _jet(value, gradient, None)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(jet_stacks())
def test_stack_matches_each_matrix_alone_bit_for_bit(A):
    inv, det = invert_with_det(A)
    prod = matmul(inv, A)
    for b in range(A.value.shape[0]):
        alone = A.at(slice(b, b + 1))
        inv1, det1 = invert_with_det(alone)
        prod1 = matmul(inv1, alone)
        for batched, single in ((inv.value[b], inv1.value[0]),
                                (inv.gradient[b], inv1.gradient[0]),
                                (det[b], det1[0]),
                                (prod.value[b], prod1.value[0]),
                                (prod.gradient[b], prod1.gradient[0])):
            assert same_bits(batched, single)


def _close(new, ref, bound):
    """new agrees with ref to 1e-12 relative to bound, entry by entry: the
    largest magnitude that the terms of ref's closed form can have."""
    return np.all(np.abs(new - ref) <= 1e-12 * bound)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(jet_stacks(), st.integers(0, 2 ** 32 - 1))
def test_matmul_matches_the_jet_product(A, seed):
    # values and gradients agree with the jet product to 1e-12 of the
    # largest magnitude of their terms
    rng = np.random.default_rng(seed)
    B = _jet(rng.uniform(-1.0, 1.0, size=A.value.shape),
             rng.uniform(-1.0, 1.0, size=A.gradient.shape), None)
    for X, Y in ((A, B), (B, A)):
        prod, ref = matmul(X, Y), reference_matmul(X, Y)
        x, dx, y, dy = (np.abs(v) for v in (X.value, X.gradient,
                                            Y.value, Y.gradient))
        assert _close(prod.value, ref.value, x @ y)
        assert _close(prod.gradient, ref.gradient,
                      np.einsum("bikm,bkj->bijm", dx, y)
                      + np.einsum("bik,bkjm->bijm", x, dy))
