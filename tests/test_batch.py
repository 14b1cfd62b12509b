"""Points axis: a chunk of points evaluates exactly as its points one by one."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import nijenhuis.report
from nijenhuis.cli import run
from nijenhuis.construct import (build_2d, build_diff_nondegenerate,
                                 build_morse_canonical, build_regular_family,
                                 conjugation_residual)
from nijenhuis.expr import Add, Call, Const, Div, Mul, Neg, Pow, Sub, Var
from nijenhuis.field import OperatorField, ScalarField, operator_eval
from nijenhuis.invariants import charpoly
from nijenhuis.jet import SingularPointError
from nijenhuis.linalg import plu_det
from nijenhuis.torsion import torsion_from_eval

SEED = 2718
CHUNK = 7


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


# -- random expressions ---------------------------------------------------------

def expressions(n: int):
    names = [f"x{i}" for i in range(1, n)] + ["y"]
    leaves = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e-3]).map(Const),
        st.integers(1, n).map(lambda i: Var(i, names[i - 1])))

    def extend(sub):
        pair = st.tuples(sub, sub)
        return st.one_of(
            pair.map(lambda t: Add(*t)), pair.map(lambda t: Sub(*t)),
            pair.map(lambda t: Mul(*t)), pair.map(lambda t: Div(*t)),
            sub.map(Neg),
            st.tuples(sub, st.integers(-3, 4)).map(lambda t: Pow(*t)),
            st.tuples(st.sampled_from(["sqrt", "exp", "sin", "cos"]),
                      sub).map(lambda t: Call(*t)))

    return st.recursive(leaves, extend, max_leaves=10)


@st.composite
def expression_and_points(draw):
    n = draw(st.integers(2, 4))
    ast = draw(expressions(n))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    points = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(CHUNK, n))
    # a point on a coordinate hyperplane makes x/x-style denominators vanish
    points[0, draw(st.integers(0, n - 1))] = 0.0
    return ast, n, points


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(expression_and_points())
def test_chunk_matches_points_bit_for_bit(case):
    ast, n, P = case
    f = ScalarField.from_expression(ast, n)
    alive = np.arange(len(P))
    try:
        while alive.size:
            try:
                chunk = f(P[alive])
                break
            except SingularPointError as exc:
                failed = (alive if np.ndim(exc.mask) == 0
                          else alive[exc.mask])
                for i in failed:
                    with pytest.raises(SingularPointError):
                        f(P[i])
                alive = np.setdiff1d(alive, failed)
    except FloatingPointError:
        return  # overflow is raised for the chunk; no jets to compare
    for k, i in enumerate(alive):
        single = f(P[i])
        assert same_bits(chunk.value[k], single.value)
        assert same_bits(chunk.gradient[k], single.gradient)
        assert same_bits(chunk.hessian[k], single.hessian)


# -- batched layers against their per-point evaluation ----------------------------

def _operators():
    f2 = ScalarField.from_expression("x1*x1/4 + y^2 + 0.3*y", 2)
    f3 = ScalarField.from_expression("y^3/3 + 0.2*y + sin(x1)*y + x1*x2", 3)
    sigma = [ScalarField.from_expression(t, 3)
             for t in ("x1+0.1*y^2", "x2+0.2*x1*y", "y+0.1*x1*x2")]
    matrix = OperatorField.from_entries(
        [[ScalarField.from_expression(t, 2) for t in row]
         for row in (("x1*y", "exp(y)"), ("1/(x1+3)", "x1+y"))])
    return [build_2d(f2), build_regular_family(f3, 3),
            build_morse_canonical(4, -1), build_diff_nondegenerate(sigma),
            matrix]


@pytest.mark.parametrize("L", _operators(), ids=lambda L: L.label)
def test_operator_layers_match_points(L):
    P = np.random.default_rng(SEED).uniform(-0.9, 0.9, size=(11, L.dim))
    if L.guard is not None:
        P = P[L.guard(P) > 0.1]
    ev = operator_eval(L, P)
    N = torsion_from_eval(ev)
    sigma = charpoly(ev.values)
    det = plu_det(ev.values)
    for k, p in enumerate(P):
        single = operator_eval(L, p)
        assert same_bits(ev.values[k], single.values)
        assert same_bits(ev.entry_grads[k], single.entry_grads)
        assert same_bits(N[k], torsion_from_eval(single))
        assert same_bits(sigma[k], charpoly(single.values))
        assert same_bits(det[k], plu_det(single.values))


def test_conjugation_residual_matches_points():
    f = ScalarField.from_expression("y^3 + y + x1*x2", 3)
    P = np.random.default_rng(SEED + 1).uniform(-1.0, 1.0, size=(9, 3))
    raw, scale = conjugation_residual(f, 3, P)
    assert raw.shape == scale.shape == (9,)
    for k, p in enumerate(P):
        r, s = conjugation_residual(f, 3, p)
        assert same_bits(raw[k], r) and same_bits(scale[k], s)


def test_plu_det_singular_stack_member():
    M = np.stack([np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2) * 3.0,
                  np.zeros((2, 2))])
    det = plu_det(M)
    assert list(det) == [0.0, 9.0, 0.0]


def test_singular_points_carry_a_mask():
    f = ScalarField.from_expression("y^2", 2)
    L = build_regular_family(f, 2)
    P = np.array([[0.3, 0.5], [0.1, 0.0], [0.2, -0.4], [0.0, 0.0]])
    with pytest.raises(SingularPointError) as err:
        operator_eval(L, P)
    assert list(err.value.mask) == [False, True, False, True]
    assert err.value.point.tolist() == [[0.1, 0.0], [0.0, 0.0]]


# -- reports do not depend on the chunk size ---------------------------------------

CHUNK_INVOCATIONS = [
    ("verify", "--family", "theorem1", "--n", "3",
     "--f", "y^2 + x1*x2 + 0.3*y", "--check", "all", "--samples", "40"),
    ("verify", "--family", "2d", "--f", "x1*x1/4 + y^2 + 0.3*y",
     "--check", "all", "--samples", "40", "--seed", "3"),
    ("verify", "--family", "theorem2", "--n", "3", "--check", "all",
     "--samples", "20", "--seed", "5"),
    ("verify", "--family", "companion", "--n", "3",
     "--sigma", "x1+y^2,x2*y,y+x1", "--check", "all", "--samples", "40"),
    ("verify", "--family", "diffnondeg", "--n", "3",
     "--sigma", "x2-x1,x1*x2+0.5*y,y+x1^2", "--check", "all",
     "--samples", "40", "--seed", "2"),
    # the (2,1) entry's denominator vanishes exactly wherever x1 > 0
    ("verify", "--matrix", "x1*y, y^2; 1/(x1 - sqrt(x1*x1)), x1+y",
     "--check", "torsion", "--samples", "40"),
    ("pde-check", "--R", "1/(x1 - sqrt(x1*x1)) + x2", "--n", "3",
     "--samples", "40"),
    ("verify", "--family", "theorem1", "--n", "2", "--f", "y^2",
     "--check", "all", "--samples", "40", "--format", "csv"),
]


def _reports(capsys, argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    if "--format" in argv:
        return code, out
    doc = json.loads(out)
    doc.pop("wall_ms")
    return code, doc


@pytest.mark.parametrize("argv", CHUNK_INVOCATIONS,
                         ids=lambda a: f"{a[0]}-{a[2]}")
def test_reports_do_not_depend_on_chunk_size(argv, capsys, monkeypatch):
    reference = _reports(capsys, argv)
    for chunk in (1, CHUNK):
        monkeypatch.setattr(nijenhuis.report, "SWEEP_CHUNK", chunk)
        assert _reports(capsys, argv) == reference, chunk
