"""Torsion evaluation: hand values, symmetry, oracle convergence, sweeps."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nijenhuis.construct import (build_diff_nondegenerate, build_morse_canonical,
                                 build_regular_family)
from nijenhuis.field import OperatorField, ScalarField, operator_eval
from nijenhuis.jet import _jet
from nijenhuis.report import DomainEntirelySingular
from nijenhuis.torsion import (DEFAULT_MIN_DENOMINATOR, torsion_bracket_fd,
                               torsion_from_eval, torsion_identity)
from sweeps import sweep

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
        N = torsion_from_eval(operator_eval(L, p))
        expect = p[1] - p[0]
        assert N[0, 0, 1] == pytest.approx(expect, abs=1e-15)
        assert N[1, 0, 1] == pytest.approx(expect, abs=1e-15)


def test_antisymmetry_is_exact():
    # N = M^T - M, with M = t2 - t4, keeps N[i,j,k] = -N[i,k,j] exactly in
    # floating point, not just approximately
    rng = np.random.default_rng(SEED + 1)
    texts = ["x1*y + x2", "y^2 - x2", "sin(x1)", "x2*x2 + 0.5", "exp(y/2)",
             "x1 + 2*y", "cos(x2)*y", "x1*x1 - y", "0.3", "y^3 - x1"]
    entries = [[ScalarField.from_expression(texts[(3 * i + j) % len(texts)], 3)
                for j in range(3)] for i in range(3)]
    L = OperatorField.from_entries(entries)
    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, size=3)
        N = torsion_from_eval(operator_eval(L, p))
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
        N0 = torsion_from_eval(operator_eval(L0, p))
        N1 = torsion_from_eval(operator_eval(L1, p))
        scale = 1.0 + np.max(np.abs(N0))
        assert np.max(np.abs(N1 - N0)) < 1e-12 * scale


def test_bracket_oracle_agrees_on_linear_entries():
    # linear entries make central differences exact up to rounding
    L = diag_operator()
    p = np.array([0.3, -0.8])
    delta = np.max(np.abs(torsion_bracket_fd(L, p, h=1e-4)[1]
                          - torsion_from_eval(operator_eval(L, p))))
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
        exact = torsion_from_eval(operator_eval(L, p))
        d1 = np.max(np.abs(torsion_bracket_fd(L, p, h=1e-4)[1] - exact))
        d2 = np.max(np.abs(torsion_bracket_fd(L, p, h=5e-5)[1] - exact))
        if d1 < 1e-10:
            continue  # below the rounding floor, ratio is meaningless
        checked += 1
        assert d1 / d2 > 3.5, (p, d1, d2)
        assert d1 < 1e-6
    assert checked > 0


# the well-conditioned coefficient fields of the diffnondeg benchmark
DIFFNONDEG_SIGMA = {
    3: "x1+0.1*y^2,x2+0.2*x1*y,y+0.1*x1*x2+0.3*x2^2",
    5: "x1+0.1*y^2,x2+0.2*x1*y,x3+0.1*x2^2,x4+0.2*x1*x3,"
       "y+0.1*x1*x2+0.3*x4^2",
}


@pytest.mark.parametrize("n", sorted(DIFFNONDEG_SIGMA))
def test_diffnondeg_torsion_agrees_with_bracket_oracle(n):
    sigma = [ScalarField.from_expression(t, n)
             for t in DIFFNONDEG_SIGMA[n].split(",")]
    L = build_diff_nondegenerate(sigma)
    rng = np.random.default_rng(SEED + 5)
    P = rng.uniform(-1.0, 1.0, size=(20, n))
    # zeroed coordinates zero entries of J whose gradients do not vanish
    for k in range(0, 20, 2):
        P[k, rng.integers(0, n)] = 0.0
    P[-1] = 0.0
    for p in P:
        exact = torsion_from_eval(operator_eval(L, p))
        fd = torsion_bracket_fd(L, p, h=1e-4)[1]
        assert np.max(np.abs(exact)) < 1e-12, p
        assert np.max(np.abs(exact - fd)) < 1e-6, p


def _bracket_fd_by_index(L, p, h):
    """The bracket oracle written out index by index: the reference for the
    contracted form in torsion_bracket_fd."""
    n = L.dim
    Lp = operator_eval(L, p).value
    D = np.empty((n, n, n))
    for l in range(n):
        e = np.zeros(n)
        e[l] = h
        D[:, :, l] = (operator_eval(L, p + e).value
                      - operator_eval(L, p - e).value) / (2.0 * h)
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
            got = torsion_bracket_fd(L, p, h=1e-4)[1]
            assert np.max(np.abs(got - ref)) <= 1e-12, (L.label, p)


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.6, 0.7)])
def test_overflowing_f_never_passes(lo, hi):
    # on [0.6, 0.7] only the Hessian of exp(1000*y) overflows; that once
    # went through as inf entries and a passing sweep
    f = ScalarField.from_expression("exp(1000*y)+y", 2)
    L = build_regular_family(f, 2)
    with pytest.raises(ArithmeticError, match="overflow"):
        sweep(L, torsion_identity(1e-10, L.guard, DEFAULT_MIN_DENOMINATOR),
              np.array([[lo, hi]] * 2), samples=200, seed=3)


def test_bracket_oracle_rejects_bad_step():
    with pytest.raises(ValueError):
        torsion_bracket_fd(diag_operator(), np.array([1.0, 2.0]), h=0.0)


def test_zero_torsion_sweep_passes_for_canonical_family():
    L = build_morse_canonical(3, 1)
    rep = sweep(L, torsion_identity(1e-12), np.array([[-1.0, 1.0]] * 3),
                samples=200, seed=7)
    assert rep.passed
    assert rep.accepted == 200
    assert rep.rejected == 0
    assert rep.max_residual <= 1e-12
    assert rep.checks[0].name == "torsion_relative"


def test_zero_torsion_sweep_fails_for_witness():
    rep = sweep(diag_operator(), torsion_identity(1e-10),
                np.array([[-1.0, 1.0]] * 2), samples=100, seed=7)
    assert not rep.passed
    assert rep.worst_point is not None
    assert rep.max_residual > 0.1


def test_sweep_counts_guarded_rejections():
    f = ScalarField.from_expression("y^2", 2)
    L = build_regular_family(f, 2)  # guard margin |2y|
    rep = sweep(L, torsion_identity(1e-10, L.guard, 0.05),
                np.array([[-1.0, 1.0]] * 2), samples=500, seed=11)
    assert rep.passed
    assert rep.accepted + rep.rejected == 500
    assert rep.rejected > 0


def test_sweep_entirely_singular_domain():
    f = ScalarField.from_expression("y^2", 2)
    L = build_regular_family(f, 2)
    box = np.array([[-1.0, 1.0], [-0.001, 0.001]])  # |2y| < 0.05 everywhere
    with pytest.raises(DomainEntirelySingular):
        sweep(L, torsion_identity(1e-10, L.guard, 0.05), box, samples=50,
              seed=3)


# -- the contraction as stacked matmuls --------------------------------------

def reference_torsion_from_eval(ev):
    """The contraction as four einsums, the form the stacked matmuls of
    torsion_from_eval replace: the reference for their accuracy."""
    L, G = ev.value, ev.gradient
    N = np.einsum("...lj,...ikl->...ijk", L, G)
    N -= np.einsum("...lk,...ijl->...ijk", L, G)
    t43 = np.einsum("...il,...ljk->...ijk", L, G)
    t43 -= np.einsum("...il,...lkj->...ijk", L, G)
    N += t43
    return N


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _laid_out(rng, shape, layout):
    """Unit-normal numbers of the given shape, as a contiguous array or as
    a view with a transposed or a strided last axis: numpy picks its BLAS
    or its own matmul loop by a matrix's strides."""
    if layout == "transposed":
        return np.swapaxes(rng.standard_normal(shape), -2, -1)
    if layout == "strided":
        return rng.standard_normal(shape[:-1] + (2 * shape[-1],))[..., ::2]
    return rng.standard_normal(shape)


def _polynomial_operator(rng, n):
    """L(p) = C0 + sum_l p_l C1[l] + p_l^2 C2[l] with random coefficients,
    added in a fixed order so that a point's value is its own."""
    C0, C1, C2 = (rng.standard_normal(s)
                  for s in ((n, n), (n, n, n), (n, n, n)))

    def rule(p, src):
        x = p[..., :, None, None]
        value = C0 + 0.0 * x[..., 0, :, :]
        for l in range(n):
            value = value + x[..., l, :, :] * (C1[l] + x[..., l, :, :] * C2[l])
        gradient = np.moveaxis(C1 + 2.0 * x * C2, -3, -1)
        return _jet(value, gradient, None)

    return OperatorField(n, rule, label="polynomial")


@st.composite
def contraction_stacks(draw):
    """n, a batch shape (B,) with B up to 300 or a stencil's (B, 2n+1), a
    layout for L and G each, and a seed."""
    n = draw(st.integers(2, 8))
    batch = draw(st.one_of(st.tuples(st.integers(1, 300)),
                           st.tuples(st.integers(1, 4), st.just(2 * n + 1))))
    layouts = st.sampled_from(["contiguous", "transposed", "strided"])
    return n, batch, draw(layouts), draw(layouts), draw(
        st.integers(0, 2 ** 32 - 1))


def _members(rng, batch):
    """The first and last member of a batch and a few in between."""
    flat = {0, int(np.prod(batch)) - 1}
    flat.update(rng.integers(0, np.prod(batch), size=4).tolist())
    return [np.unravel_index(k, batch) for k in sorted(flat)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(contraction_stacks())
def test_stacked_contraction_matches_each_point_alone(case):
    n, batch, l_layout, g_layout, seed = case
    rng = np.random.default_rng(seed)
    L = _laid_out(rng, batch + (n, n), l_layout)
    G = _laid_out(rng, batch + (n, n, n), g_layout)
    N = torsion_from_eval(_jet(L, G, None))
    P = rng.uniform(-1.0, 1.0, size=batch + (n,))
    op = _polynomial_operator(rng, n)
    centre, fd = torsion_bracket_fd(op, P)
    for b in _members(rng, batch):
        assert same_bits(N[b], torsion_from_eval(_jet(L[b], G[b], None)))
        centre1, fd1 = torsion_bracket_fd(op, P[b])
        assert same_bits(centre.value[b], centre1.value)
        assert same_bits(fd[b], fd1)


def _exact_torsion(L, G):
    """N and T = sum of |terms| of every component, in Fractions, from the
    float inputs L (n, n) and G (n, n, n) taken as exact."""
    n = len(L)
    L = [[Fraction(v) for v in row] for row in L.tolist()]
    G = [[[Fraction(v) for v in col] for col in row] for row in G.tolist()]
    N, T = {}, {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                terms = []
                for l in range(n):
                    terms += [L[l][j] * G[i][k][l], -L[l][k] * G[i][j][l],
                              -L[i][l] * G[l][k][j], L[i][l] * G[l][j][k]]
                N[i, j, k] = sum(terms)
                T[i, j, k] = sum(abs(t) for t in terms)
    return N, T


@pytest.mark.parametrize("n", range(2, 9))
def test_both_contractions_are_within_the_sum_bound(n):
    # a sum of 4n products is within gamma_4n * T of its exact value
    # (Higham, ch. 3): 4n u T to first order, with u = 2^-53
    u = Fraction(1, 2 ** 53)
    rng = np.random.default_rng(SEED + 10 * n)
    for _ in range(2 if n < 6 else 1):
        ev = _jet(rng.standard_normal((n, n)),
                  rng.standard_normal((n, n, n)), None)
        exact, T = _exact_torsion(ev.value, ev.gradient)
        for N in (torsion_from_eval(ev), reference_torsion_from_eval(ev)):
            assert np.array_equal(N, -np.swapaxes(N, -2, -1))
            for idx, value in exact.items():
                assert abs(Fraction(N[idx]) - value) <= 4 * n * u * T[idx]
