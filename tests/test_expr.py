"""Expression grammar: round-trips, evaluation, and error positions."""

import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nijenhuis.expr import (_PLAIN_CALLS, Bin, Call, Const, ExpressionError,
                            Neg, Pow, Var, _power, evaluate,
                            format_expression, parse_expression)
from nijenhuis.field import JET_ERRSTATE
from nijenhuis.jet import (Jet2, SingularPointError, _constant,
                           broadcast_jet, coordinate_jet, divide)

from expr_corpus import CORPUS
from expr_strategies import expression_and_points, expressions

SEED = 73

BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}


def num_eval(e, p):
    """Independent plain-float evaluator mirroring jet operation order."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(p[e.index - 1])
    if isinstance(e, Bin):
        return BINARY[e.op](num_eval(e.left, p), num_eval(e.right, p))
    if isinstance(e, Neg):
        return -num_eval(e.operand, p)
    if isinstance(e, Pow):
        b = num_eval(e.base, p)
        k = e.exponent
        if k == 0:
            return 1.0
        if k < 0:
            return 1.0 / num_eval(Pow(e.base, -k), p)
        acc = b
        for _ in range(k - 1):
            acc = acc * b
        return acc
    if isinstance(e, Call):
        return {"sqrt": np.sqrt, "exp": np.exp,
                "sin": np.sin, "cos": np.cos}[e.func](num_eval(e.arg, p))
    raise TypeError(e)


def test_corpus_round_trips():
    assert len(CORPUS) >= 30
    for text, n in CORPUS:
        ast = parse_expression(text, n)
        again = parse_expression(format_expression(ast), n)
        assert again == ast, f"round trip changed {text!r}"


def test_corpus_values_match_plain_float_oracle():
    rng = np.random.default_rng(SEED)
    for text, n in CORPUS:
        for _ in range(5):
            # keep arguments safely inside sqrt/div domains
            p = rng.uniform(0.3, 1.4, size=n)
            ast = parse_expression(text, n)
            jet = evaluate(ast, p)
            ref = num_eval(ast, p)
            assert jet.value == pytest.approx(ref, rel=1e-15, abs=1e-15), text


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n), expressions(n, st.floats(0.0, allow_infinity=False)))))
def test_random_expressions_round_trip(case):
    n, ast = case
    text = format_expression(ast)
    again = parse_expression(text, n)
    assert again == ast
    assert format_expression(again) == text   # repr: the same float bits


def test_worked_canonical_print():
    ast = parse_expression("y^2+x1*y", 2)
    assert format_expression(ast) == "((y^2)+(x1*y))"


def test_worked_evaluation():
    jet = evaluate(parse_expression("y^2+x1*y", 2), np.array([1.0, 2.0]))
    assert jet.value == 6.0
    assert np.array_equal(jet.gradient, [2.0, 5.0])
    assert np.array_equal(jet.hessian, [[0.0, 1.0], [1.0, 2.0]])


def test_x_is_alias_for_x1():
    assert parse_expression("x", 3) == parse_expression("x1", 3)


def test_y_is_last_coordinate():
    ast = parse_expression("y", 4)
    assert ast == Var(4, "y")


def test_unary_minus_binds_looser_than_power():
    assert parse_expression("-y^2", 2) == Neg(Pow(Var(2, "y"), 2))


def test_power_does_not_chain():
    with pytest.raises(ExpressionError):
        parse_expression("y^2^3", 2)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(SEED + 1)
    h = 1e-5
    for text, n in [("y^3 + y + x1", 3), ("sin(x1)*cos(y) + exp(x2)", 3),
                    ("(x1 - x2) / (y + 2)", 3)]:
        ast = parse_expression(text, n)
        for _ in range(5):
            p = rng.uniform(-1.0, 1.0, size=n)
            jet = evaluate(ast, p)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd = (num_eval(ast, p + e) - num_eval(ast, p - e)) / (2 * h)
                assert jet.gradient[i] == pytest.approx(fd, abs=5e-8), text


def error_position(text, n):
    with pytest.raises(ExpressionError) as err:
        parse_expression(text, n)
    assert err.value.position is not None
    assert f"(at offset {err.value.position})" in str(err.value)
    return err.value


def test_unknown_variable_out_of_range():
    err = error_position("x3 + y", 3)
    assert "variable x3 out of range for n=3" in str(err)
    assert "valid variables x1, x2, y" in str(err)
    assert err.position == 0


def test_unknown_identifier():
    err = error_position("z + 1", 2)
    assert "unknown identifier" in str(err)


def test_non_integer_exponent():
    err = error_position("y^1.5", 2)
    assert "non-integer exponent" in str(err)


def test_variable_exponent_rejected():
    err = error_position("y^x1", 2)
    assert "non-integer exponent" in str(err)


def test_exponent_magnitude_cap():
    err = error_position("y^65", 2)
    assert "exceeds 64" in str(err)
    parse_expression("y^64", 2)  # boundary is allowed


def test_unbalanced_parens():
    err = error_position("(y + 1", 2)
    assert "expected ')'" in str(err) or "unexpected end" in str(err)
    error_position("y + 1)", 2)


def test_empty_and_trailing():
    err = error_position("", 2)
    assert "empty expression" in str(err)
    error_position("1 2", 2)


def test_bad_character():
    err = error_position("y & 2", 2)
    assert "unexpected character" in str(err)


def test_overflowing_literal():
    err = error_position("1e400 + y", 2)
    assert "number 1e400 overflows" in str(err)
    assert err.position == 0
    assert error_position("y^2 + 2.5E+308", 2).position == 6
    parse_expression("1e308 + 1e-400*y", 2)  # finite and underflow are fine


def test_builtin_requires_call():
    error_position("sqrt + 1", 2)


@pytest.mark.parametrize("text, error", [
    ("x1+", "unexpected end of input (at offset 3)"),
    ("x1+)", "unexpected token ')' (at offset 3)"),
])
def test_a_missing_operand_is_named_where_it_is_missing(text, error):
    assert str(error_position(text, 2)) == error


def test_const_round_trip_value():
    ast = parse_expression("2", 2)
    assert ast == Const(2.0)
    assert parse_expression(format_expression(ast), 2) == ast


# -- one evaluation against the two-mode reference ------------------------------

def _reference(node, p, coords, fiber):
    """The evaluator with a fiber flag: in the full jet a Const is a
    constant jet and every Var a coordinate jet; in the fiber jet a Const
    is a numpy float, x1..x(n-1) are plain columns and y alone a jet."""
    if isinstance(node, Const):
        return np.float64(node.value) if fiber else _constant(
            node.value, p.shape[-1])
    if isinstance(node, Var):
        value = coords.get(node.index)
        if value is None:
            n = p.shape[-1]
            if not fiber:
                value = coordinate_jet(node.index, p)
            elif node.index == n:
                value = coordinate_jet(1, p[..., n - 1:])
            else:
                value = p[..., node.index - 1]
            coords[node.index] = value
        return value
    if isinstance(node, Bin):
        left = _reference(node.left, p, coords, fiber)
        right = _reference(node.right, p, coords, fiber)
        if node.op != "/" or isinstance(left, Jet2) or isinstance(right, Jet2):
            return BINARY[node.op](left, right)
        return divide(left, right)
    if isinstance(node, Neg):
        return -_reference(node.operand, p, coords, fiber)
    if isinstance(node, Pow):
        base = _reference(node.base, p, coords, fiber)
        if isinstance(base, Jet2):
            return base ** node.exponent
        return _power(base, node.exponent)
    arg = _reference(node.arg, p, coords, fiber)
    if isinstance(arg, Jet2):
        return getattr(arg, node.func)()
    return _PLAIN_CALLS[node.func](arg)


def reference_evaluate(e, p, fiber=False):
    p = np.asarray(p, dtype=float)
    jet = _reference(e, p, {}, fiber)
    if not isinstance(jet, Jet2):   # a fiber jet of an f without y
        jet = _constant(jet, 1)
    return broadcast_jet(jet, p.shape[:-1])


def _outcome(evaluator, ast, p, fiber):
    """The jet at p, or the class and mask of the error raised instead."""
    try:
        with np.errstate(**JET_ERRSTATE):
            return evaluator(ast, p, fiber)
    except ArithmeticError as exc:
        return type(exc), getattr(exc, "mask", None)


def assert_matches_reference(ast, p, fiber):
    """evaluate against the reference at points p: the value bit for bit,
    derivatives under == (a plain constant drops products with its zero
    derivatives, which may flip the sign of a zero), or the same error
    class and mask."""
    got = _outcome(evaluate, ast, p, fiber)
    want = _outcome(reference_evaluate, ast, p, fiber)
    if isinstance(got, tuple) or isinstance(want, tuple):
        assert isinstance(got, tuple) and isinstance(want, tuple)
        assert got[0] is want[0]
        assert (got[1] is None) == (want[1] is None)
        assert np.array_equal(got[1], want[1])
        return
    value = np.asarray(got.value)
    assert value.shape == np.shape(want.value)
    assert value.tobytes() == np.asarray(want.value).tobytes()
    assert np.array_equal(got.gradient, want.gradient)
    assert np.array_equal(got.hessian, want.hessian)


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(expression_and_points(5))
def test_evaluation_matches_the_two_mode_reference(case):
    ast, n, P = case
    for p in (P, P[0], P[1]):
        for fiber in (False, True):
            assert_matches_reference(ast, p, fiber)


@pytest.mark.parametrize("text, P", [
    ("y^3/3 + y^2", [[0.3, 0.7], [-1.2, -0.4]]),
    # 1/y^2 from y's product y*y, and the denominator vanishing at y = 0
    ("y^-2 + y^3", [[0.3, 0.7], [0.5, 0.0], [-1.2, -0.4]]),
    # in the fiber jet x1's powers are plain columns
    ("x1^3 + x1^2*y", [[0.3, 0.7], [-1.2, -0.4]]),
    # a base that is not a variable forms its own products
    ("(x1+y)^2 + (x1+y)^3", [[0.3, 0.7], [-1.2, -0.4]]),
    # y^3's second product overflows before y^2 is read
    ("y^3 + y^2", [[0.3, 0.7], [0.5, 1e103]]),
])
def test_powers_of_a_variable_match_the_reference(text, P):
    ast = parse_expression(text, 2)
    P = np.array(P)
    for p in (P, *P):
        for fiber in (False, True):
            assert_matches_reference(ast, p, fiber)


@pytest.mark.parametrize("fiber", [False, True])
def test_powers_of_a_variable_share_their_products(monkeypatch, fiber):
    # y^2 is the first product of y^3: two jet products, not three
    calls = []
    original = Jet2.__mul__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(Jet2, "__mul__", counted)
    jet = evaluate(parse_expression("y^3/3 + y^2", 2), [0.3, 0.7], fiber)
    assert len(calls) == 2
    assert jet.value == 0.7 * 0.7 * 0.7 / 3 + 0.7 * 0.7


def _differences(ast, p, s):
    """Central differences of f's value at p with step s: the gradient
    (f(p + s e_i) - f(p - s e_i)) / 2s and the Hessian (f(p + s e_i +
    s e_j) - f(p + s e_i - s e_j) - f(p - s e_i + s e_j) + f(p - s e_i -
    s e_j)) / 4s^2 (step 2s on the diagonal), each O(s^2) from the true
    derivatives, and the largest |f| of the stencil."""
    E = s * np.eye(p.size)
    rows, cols = E[:, None, :], E[None, :, :]
    g = evaluate(ast, np.stack([p + E, p - E])).value
    f = evaluate(ast, np.stack([p + rows + cols, p + rows - cols,
                                p - rows + cols, p - rows - cols])).value
    return ((g[0] - g[1]) / (2 * s), (f[0] - f[1] - f[2] + f[3]) / (4 * s * s),
            max(np.max(np.abs(g)), np.max(np.abs(f))))


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(expression_and_points(3))
def test_two_jet_matches_central_differences(case):
    # D(s), a central difference of the value, is the derivative plus
    # c s^2 + O(s^4). With steps s, s/2, s/4 and the rounding floor r,
    # 2^20 rounding errors of the stencil's largest |f| over (s/4)^order,
    # a component is judged where D shows that regime by Richardson's
    # ratio, (D(s) - D(s/2)) / (D(s/2) - D(s/4)) within 4 +- 1 and
    # D(s/2) - D(s/4) above r: D(s/4) is then within |D(s/2) - D(s/4)| / 2
    # of the derivative, up to O(s^4). Where both differences are below r
    # (c = 0: f is at most quadratic along the stencil), D(s/4) is within
    # r of it.
    ast, n, P = case
    s = 2.0 ** -5
    for p in P:
        try:
            with np.errstate(all="raise", under="ignore"):
                jet = evaluate(ast, p)
                D = [_differences(ast, p, s / k) for k in (1, 2, 4)]
        except (SingularPointError, FloatingPointError):
            continue
        size = max(d[2] for d in D)
        for order, exact in ((1, jet.gradient), (2, jet.hessian)):
            d1, d2, d4 = (d[order - 1] for d in D)
            far, near = np.abs(d1 - d2), d2 - d4
            floor = 2.0 ** -33 * size / (s / 4) ** order
            richardson = ((np.abs(d1 - d2 - 4.0 * near) <= np.abs(near))
                          & (np.abs(near) > floor))
            flat = (np.abs(near) <= floor) & (far <= floor)
            bound = np.where(richardson, np.abs(near),
                             np.where(flat, floor, np.inf))
            assert np.all(np.abs(d4 - exact) <= bound), (ast, p, order)
