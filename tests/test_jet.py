"""Order-2 jet arithmetic checked against finite-difference oracles, and
the order-1 matrix container's negation, indexing and broadcasting against
order 2."""

import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nijenhuis.jet import (Jet2, DenominatorVanishes, DomainError, _jet,
                           broadcast_jet, constant_jet, coordinate_jet)

SEED = 20240817
GRAD_TOL = 5e-8
HESS_TOL = 5e-6


def fd_gradient(fn, p, h=1e-5):
    p = np.asarray(p, dtype=float)
    g = np.zeros_like(p)
    for i in range(p.size):
        e = np.zeros_like(p)
        e[i] = h
        g[i] = (fn(p + e) - fn(p - e)) / (2.0 * h)
    return g


def fd_hessian(fn, p, h=1e-4):
    p = np.asarray(p, dtype=float)
    n = p.size
    H = np.zeros((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        H[i, i] = (fn(p + ei) - 2.0 * fn(p) + fn(p - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            H[i, j] = (fn(p + ei + ej) - fn(p + ei - ej)
                       - fn(p - ei + ej) + fn(p - ei - ej)) / (4.0 * h**2)
            H[j, i] = H[i, j]
    return H


def coords(p):
    p = np.asarray(p, dtype=float)
    return [coordinate_jet(i + 1, p) for i in range(p.size)]


def test_reciprocal_worked_value():
    y = coordinate_jet(1, np.array([2.0]))
    inv = 1.0 / y
    assert inv.value == 0.5
    assert inv.gradient[0] == -0.25
    assert inv.hessian[0, 0] == 0.25


def test_product_worked_value():
    x, y = coords([2.0, 3.0])
    prod = x * y
    assert prod.value == 6.0
    assert np.array_equal(prod.gradient, [3.0, 2.0])
    assert np.array_equal(prod.hessian, [[0.0, 1.0], [1.0, 0.0]])


def test_polynomial_worked_value():
    x, y = coords([1.0, 2.0])
    g = y * y + x * y
    assert g.value == 6.0
    assert np.array_equal(g.gradient, [2.0, 5.0])
    assert np.array_equal(g.hessian, [[0.0, 1.0], [1.0, 2.0]])


def test_constant_jet_is_flat():
    c = constant_jet(3.5, 4)
    assert c.value == 3.5
    assert np.all(c.gradient == 0.0)
    assert np.all(c.hessian == 0.0)


def test_coordinate_index_validation():
    with pytest.raises(IndexError, match="out of range"):
        coordinate_jet(3, np.array([1.0, 2.0]))
    with pytest.raises(IndexError, match="out of range"):
        coordinate_jet(0, np.array([1.0, 2.0]))


def test_hessian_symmetrized():
    h = np.array([[0.0, 2.0], [0.0, 0.0]])
    j = Jet2(1.0, np.zeros(2), h)
    assert np.array_equal(j.hessian, [[0.0, 1.0], [1.0, 0.0]])


def jet_graph(x, y):
    return (x + 2.0 * y) * x.sin() + (x * y).exp() / (y * y + 1.5)


def float_graph(p):
    x, y = p
    return (x + 2.0 * y) * np.sin(x) + np.exp(x * y) / (y * y + 1.5)


def test_composite_against_finite_differences():
    rng = np.random.default_rng(SEED)
    for trial in range(25):
        p = rng.uniform(-1.2, 1.2, size=2)
        x, y = coords(p)
        j = jet_graph(x, y)
        assert abs(j.value - float_graph(p)) < 1e-12
        g = fd_gradient(float_graph, p)
        assert np.max(np.abs(j.gradient - g)) < GRAD_TOL, f"trial {trial}"
        H = fd_hessian(float_graph, p)
        assert np.max(np.abs(j.hessian - H)) < HESS_TOL, f"trial {trial}"


def test_quotient_rule_against_finite_differences():
    rng = np.random.default_rng(SEED + 1)

    def fn(p):
        x, y = p
        return (x * x - y) / (y * y * y + 2.0)

    for _ in range(20):
        p = rng.uniform(-1.0, 1.0, size=2)
        x, y = coords(p)
        j = (x * x - y) / (y * y * y + 2.0)
        assert abs(j.value - fn(p)) < 1e-14
        assert np.max(np.abs(j.gradient - fd_gradient(fn, p))) < GRAD_TOL
        assert np.max(np.abs(j.hessian - fd_hessian(fn, p))) < HESS_TOL
        assert np.array_equal(j.hessian, j.hessian.T)


def test_unary_chains_against_finite_differences():
    rng = np.random.default_rng(SEED + 2)
    cases = [
        (lambda u: u.sqrt(), lambda v: np.sqrt(v), (0.2, 2.0)),
        (lambda u: u.exp(), lambda v: np.exp(v), (-1.0, 1.0)),
        (lambda u: u.sin(), lambda v: np.sin(v), (-2.0, 2.0)),
        (lambda u: u.cos(), lambda v: np.cos(v), (-2.0, 2.0)),
    ]
    for jet_fn, num_fn, (lo, hi) in cases:
        for _ in range(10):
            p = rng.uniform(lo, hi, size=2)

            def fn(q):
                return num_fn(q[0] * q[0] + 0.5 * q[1] + 1.0 if lo > 0
                              else q[0] + 0.3 * q[1])

            x, y = coords(p)
            arg = (x * x + 0.5 * y + 1.0) if lo > 0 else (x + 0.3 * y)
            j = jet_fn(arg)
            assert abs(j.value - fn(p)) < 1e-13
            assert np.max(np.abs(j.gradient - fd_gradient(fn, p))) < GRAD_TOL
            assert np.max(np.abs(j.hessian - fd_hessian(fn, p))) < HESS_TOL


def test_integer_power_replays_multiplication():
    p = np.array([1.3, -0.7])
    x, _ = coords(p)
    cubed = x**3
    manual = x * x * x
    assert cubed.value == manual.value
    assert np.array_equal(cubed.gradient, manual.gradient)
    assert np.array_equal(cubed.hessian, manual.hessian)


def test_power_zero_and_negative():
    p = np.array([2.0, 1.0])
    x, _ = coords(p)
    one = x**0
    assert one.value == 1.0 and np.all(one.gradient == 0.0)
    invsq = x**-2
    manual = 1.0 / (x * x)
    assert abs(invsq.value - manual.value) < 1e-15
    assert np.max(np.abs(invsq.gradient - manual.gradient)) < 1e-15


def test_power_requires_integer_exponent():
    x, _ = coords([2.0, 1.0])
    with pytest.raises(TypeError, match="integer"):
        x**1.5


def test_reflected_scalar_operations():
    x, y = coords([3.0, 4.0])
    assert (2.0 + x).value == 5.0
    assert (2.0 - x).value == -1.0
    assert (2.0 * x).gradient[0] == 2.0
    r = 12.0 / y
    assert r.value == 3.0
    assert r.gradient[1] == -12.0 / 16.0


def test_division_by_vanishing_denominator():
    x, y = coords([1.0, 0.0])
    with pytest.raises(DenominatorVanishes):
        x / y
    # near-zero relative to the numerator scale also trips
    with pytest.raises(DenominatorVanishes):
        (x * 1e6) / (y + 1e-9)


def test_sqrt_domain_error():
    x, _ = coords([-4.0, 1.0])
    with pytest.raises(DomainError):
        x.sqrt()


def test_sqrt_of_a_tiny_argument_keeps_a_finite_hessian():
    # v * value = 1e-375 underflows, -1/(4 v value) would be -inf; the
    # Hessian from the root's gradient w = 0.5e-125 is -w^2/v = -2.5e-126
    x, _ = coords([1.0, 0.5])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        r = (1e-250 * x).sqrt()
    assert r.value == 1e-125
    assert np.array_equal(r.gradient, [0.5 / 1e-125 * 1e-250, 0.0])
    assert r.hessian[0, 0] == pytest.approx(-2.5e-126, rel=1e-14)
    assert np.array_equal(r.hessian.ravel()[1:], [0.0, 0.0, 0.0])


def test_dimension_mismatch_rejected():
    a = constant_jet(1.0, 2)
    b = constant_jet(1.0, 3)
    with pytest.raises(ValueError, match="dimension"):
        a + b


# -- order 1 against order 2 ------------------------------------------------------

def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def jets(draw):
    """An order-2 jet in n variables of batch () or (4,)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 3))
    batch = draw(st.sampled_from([(), (4,)]))
    return Jet2(rng.uniform(-2.0, 2.0, size=batch),
                rng.uniform(-1.0, 1.0, size=batch + (n,)),
                rng.uniform(-1.0, 1.0, size=batch + (n, n)))


# the operations an order-1 jet takes; arithmetic runs at order 2 only
ORDER1_OPS = [
    operator.neg,
    lambda u: u.at(Ellipsis),
    lambda u: broadcast_jet(u, (2, 4)),
]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(jets())
def test_order1_operands_give_the_order2_values_and_gradients(a):
    for fn in ORDER1_OPS:
        reference = fn(a)
        result = fn(_jet(a.value, a.gradient, None))
        assert same_bits(result.value, reference.value)
        assert same_bits(result.gradient, reference.gradient)
        assert result.hessian is None


# -- plain operands ---------------------------------------------------------------

PLAIN_OPS = [operator.add, operator.sub, operator.mul, operator.truediv,
             lambda a, b: b + a, lambda a, b: b - a, lambda a, b: b * a,
             lambda a, b: b / a]


@pytest.mark.parametrize("op", PLAIN_OPS)
@pytest.mark.parametrize("order", [2])
def test_plain_operands_act_as_constant_jets(op, order):
    # an ndarray or numpy float on either side is a constant: the value
    # operation is the same, bit for bit, and the derivatives equal those
    # of the constant jet's full quotient, product or sum rules
    rng = np.random.default_rng(SEED + 3)
    P = rng.uniform(0.5, 2.0, size=(5, 3))
    u = coordinate_jet(1, P) * coordinate_jet(3, P) ** 2
    for c in (np.float64(1.7), rng.uniform(-2.0, -0.5, size=5)):
        flat = _jet(c, np.zeros(3), np.zeros((3, 3)))
        got, want = op(u, c), op(u, flat)
        assert isinstance(got, Jet2)
        assert got.value.tobytes() == want.value.tobytes()
        assert np.array_equal(got.gradient, want.gradient)
        assert np.array_equal(got.hessian, want.hessian)


def test_plain_division_keeps_the_jet_checks():
    u = coordinate_jet(1, np.array([[1.0], [2.0], [3.0]]))
    den = np.array([1.0, 1e-15, 0.0])
    with pytest.raises(DenominatorVanishes) as plain:
        u / den
    with pytest.raises(DenominatorVanishes) as jet:
        u / _jet(den, np.zeros(1), np.zeros((1, 1)))
    assert str(plain.value) == str(jet.value)
    assert plain.value.mask.tolist() == jet.value.mask.tolist() == [
        False, True, True]
    with pytest.raises(DenominatorVanishes, match="value 0.0"):
        np.float64(1.0) / (u - u)
