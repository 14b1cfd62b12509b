"""Points axis: a chunk of points evaluates exactly as its points one by one."""

import collections
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import nijenhuis.report
from nijenhuis import cli
from nijenhuis.cli import run
from nijenhuis.construct import (build_companion, build_diff_nondegenerate,
                                 build_regular_family)
from nijenhuis.field import OperatorField, ScalarField, operator_eval
from nijenhuis.invariants import charpoly
from nijenhuis.jet import SingularPointError
from nijenhuis.linalg import plu_det
from nijenhuis.report import sample_box
from nijenhuis.singularity import (DELTA_TAYLOR, NewtonDivergenceError,
                                   morse_coordinate, morse_reduce,
                                   morse_remainder_field, pde_residuals,
                                   quadratic_factor, remainder_from_expression,
                                   smoothness_numerators)
from nijenhuis.torsion import torsion_bracket_fd, torsion_from_eval
from expr_strategies import expression_and_points
from sweeps import regular_conjugation
from test_linalg import det_bound

SEED = 2718
CHUNK = 7


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


# -- random expressions ---------------------------------------------------------

@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(expression_and_points(4))
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
                # a mask marks points of this chunk, or every point (0-d)
                assert np.shape(exc.mask) in ((), alive.shape)
                failed = alive[np.broadcast_to(exc.mask, alive.shape)]
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

# the flags of one operator of each registered family
FAMILY_FLAGS = {
    "companion": ("--n", "3", "--sigma", "x1+y^2,x2*y,y+x1"),
    "diffnondeg": ("--n", "3",
                   "--sigma", "x1+0.1*y^2,x2+0.2*x1*y,y+0.1*x1*x2"),
    "2d": ("--f", "x1*x1/4 + y^2 + 0.3*y"),
    "theorem1": ("--n", "3", "--f", "y^3/3 + 0.2*y + sin(x1)*y + x1*x2"),
    "theorem2": ("--n", "4", "--sign", "-1"),
}


def _context(family, flags):
    """The CLI's context of --family family with these flags."""
    return cli._build_context(cli.build_parser().parse_args(
        ["construct", "--family", family, *flags]))


def _operators():
    """An operator of every registered family with flags here (a family
    without fails test_every_registered_family_has_fixtures), and an
    ad-hoc matrix."""
    matrix = OperatorField.from_entries(
        [[ScalarField.from_expression(t, 2) for t in row]
         for row in (("x1*y", "exp(y)"), ("1/(x1+3)", "x1+y"))])
    return [_context(family, FAMILY_FLAGS[family]).op
            for family in cli.FAMILIES if family in FAMILY_FLAGS] + [matrix]


@pytest.mark.parametrize("L", _operators(), ids=lambda L: L.label)
def test_operator_layers_match_points(L):
    P = np.random.default_rng(SEED).uniform(-0.9, 0.9, size=(11, L.dim))
    if L.guard is not None:
        P = P[L.guard(P, L.source(P)) > 0.1]
    ev = operator_eval(L, P)
    N = torsion_from_eval(ev)
    sigma = charpoly(ev.value)
    det = plu_det(ev.value)
    for k, p in enumerate(P):
        single = operator_eval(L, p)
        assert same_bits(ev.value[k], single.value)
        assert same_bits(ev.gradient[k], single.gradient)
        assert same_bits(N[k], torsion_from_eval(single))
        assert same_bits(sigma[k], charpoly(single.value))
        assert same_bits(det[k], plu_det(single.value))


def test_conjugation_residual_matches_points():
    f = ScalarField.from_expression("y^3 + y + x1*x2", 3)
    P = np.random.default_rng(SEED + 1).uniform(-1.0, 1.0, size=(9, 3))
    raw, scale = regular_conjugation(f, P)
    assert raw.shape == scale.shape == (9,)
    for k, p in enumerate(P):
        r, s = regular_conjugation(f, p)
        assert same_bits(raw[k], r) and same_bits(scale[k], s)


def test_plu_det_singular_stack_member():
    M = np.stack([np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2) * 3.0,
                  np.zeros((2, 2))])
    det = plu_det(M)
    # the singular members read exactly 0.0; 3 I reads 9 within the LU
    # bound (numpy forms det as sign * exp(sum log|u_ii|): 9.000000000000002)
    assert det[0] == 0.0 and det[2] == 0.0
    assert abs(det[1] - 9.0) <= det_bound(M[1])
    for k in range(len(M)):
        assert same_bits(det[k], plu_det(M[k]))


def test_singular_points_carry_a_mask():
    f = ScalarField.from_expression("y^2", 2)
    L = build_regular_family(f, 2)
    P = np.array([[0.3, 0.5], [0.1, 0.0], [0.2, -0.4], [0.0, 0.0]])
    with pytest.raises(SingularPointError) as err:
        operator_eval(L, P)
    assert list(err.value.mask) == [False, True, False, True]
    assert err.value.point.tolist() == [[0.1, 0.0], [0.0, 0.0]]


# -- the FD oracle and the smoothness diagnostics -------------------------------------

def _fd_family(kind: str, n: int) -> OperatorField:
    """Operators that are regular on [-1, 1]^n: f_y >= 1 for theorem1, and
    J = Id + small terms for diffnondeg."""
    names = [f"x{i}" for i in range(1, n)] + ["y"]
    if kind == "theorem1":
        f = ScalarField.from_expression(
            f"y^3/3 + 2*y + 0.5*sin(x1)*y^2 + x1*{names[-2]}", n)
        return build_regular_family(f, n)
    if kind == "companion":
        texts = [f"{names[i]}*{names[i - 1]} + 0.3*y^2" for i in range(n)]
    else:
        texts = ([f"{names[i]} + 0.1*{names[i + 1]}*y" for i in range(n - 1)]
                 + ["y + 0.2*x1^2"])
    fields = [ScalarField.from_expression(t, n) for t in texts]
    build = build_companion if kind == "companion" else build_diff_nondegenerate
    return build(fields)


@st.composite
def fd_cases(draw):
    kind = draw(st.sampled_from(["theorem1", "companion", "diffnondeg"]))
    n = draw(st.integers(2, 5))
    batch = draw(st.sampled_from([(1,), (4,), (2, 3)]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    P = np.random.default_rng(seed).uniform(-1.0, 1.0, size=batch + (n,))
    # zeroed coordinates zero entries whose gradients do not vanish
    P.reshape(-1, n)[0, draw(st.integers(0, n - 1))] = 0.0
    h = draw(st.sampled_from([1e-3, 1e-4]))
    return kind, n, P, h


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fd_cases())
def test_fd_oracle_batch_matches_points_bit_for_bit(case):
    kind, n, P, h = case
    L = _fd_family(kind, n)
    centre, N = torsion_bracket_fd(L, P, h=h)
    assert N.shape == P.shape[:-1] + (n, n, n)
    ev = operator_eval(L, P)
    assert same_bits(centre.value, ev.value)
    assert same_bits(centre.gradient, ev.gradient)
    exact = torsion_from_eval(ev)
    for idx in np.ndindex(P.shape[:-1]):
        single_centre, single = torsion_bracket_fd(L, P[idx], h=h)
        assert same_bits(N[idx], single)
        assert same_bits(centre.value[idx], single_centre.value)
        assert same_bits(centre.gradient[idx], single_centre.gradient)
        assert same_bits(exact[idx],
                         torsion_from_eval(operator_eval(L, P[idx])))


DIAGNOSED_F = ["y^2", "y^2 + x1", "y^2 + x1*x1/4", "y^3/3 + x1*y + 0.3*x1^2",
               "y^2*(1 + x1) + sin(x1)*y"]


@st.composite
def diagnose_cases(draw):
    n = draw(st.integers(2, 5))
    text = draw(st.sampled_from(DIAGNOSED_F))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    P = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(CHUNK, n))
    # f_y = 0 on y = 0 for most of the f above
    P[::2, -1] = 0.0
    P[1, :] = 0.0
    return n, text, P


def _assert_diagnostics_match_points(f, n, P):
    d = smoothness_numerators(f, n, P)
    assert d.numerators.shape == (len(P), n - 1)
    for k, p in enumerate(P):
        single = smoothness_numerators(f, n, p)
        assert type(single.denominator) is float
        assert type(single.verdict) is str
        assert same_bits(d.numerators[k], single.numerators)
        assert same_bits(d.denominator[k], single.denominator)
        assert d.verdict[k] == single.verdict
    return set(d.verdict.tolist())


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(diagnose_cases())
def test_smoothness_batch_matches_points(case):
    n, text, P = case
    _assert_diagnostics_match_points(ScalarField.from_expression(text, n),
                                     n, P)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_smoothness_batch_covers_every_verdict(n):
    P = np.random.default_rng(SEED + n).uniform(-1.0, 1.0, size=(CHUNK, n))
    P[::2, -1] = 0.0
    verdicts = set()
    for text in ("y^2", "y^2 + x1"):
        f = ScalarField.from_expression(text, n)
        verdicts |= _assert_diagnostics_match_points(f, n, P)
    assert verdicts == {"regular", "obstructed",
                        "singular-denominator-zero-numerators"}


# -- the singularity layer ---------------------------------------------------------

MORSE_F = {2: "y^2 + x1*y + exp(x1)", 3: "y^2 + x1*y + 0.1*x2*y^3",
           4: "-y^2 + sin(x1)*y + x2*x3", 5: "y^2 + x1*y + x4*y^3/10 + x2*x3"}
REMAINDERS = {2: "x1^2/4 + x1", 3: "x1*x2 + x2^3", 4: "x1*x2*x3 + x3^2",
              5: "x1*x4 + x2^3 - x3*x4^2 + x4^4"}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_singularity_layer_matches_points(n):
    f = ScalarField.from_expression(MORSE_F[n], n)
    R = remainder_from_expression(REMAINDERS[n], n)
    rng = np.random.default_rng(SEED + n)
    X = rng.uniform(-0.5, 0.5, size=(CHUNK, n - 1))
    data = morse_reduce(f, n, X)
    # every other fiber value lies within DELTA_TAYLOR of c (Taylor branch)
    offsets = rng.uniform(-1.0, 1.0, CHUNK)
    offsets[::2] *= 0.9 * DELTA_TAYLOR
    offsets[0] = 0.0
    Y = data.c + offsets
    g = quadratic_factor(f, data, Y)
    ytil = morse_coordinate(f, data, Y)
    res = pde_residuals(R, n, X)
    remainder = morse_remainder_field(f, n)(X)
    for k in range(CHUNK):
        single = morse_reduce(f, n, X[k])
        assert type(single.c) is float and type(single.R) is float
        assert type(single.sign) is int and type(single.newton_iters) is int
        for name in ("c", "R", "sign", "fyy"):
            assert same_bits(getattr(data, name)[k], getattr(single, name))
        assert same_bits(g[k], quadratic_factor(f, single, Y[k]))
        assert same_bits(ytil[k], morse_coordinate(f, single, Y[k]))
        alone = pde_residuals(R, n, X[k])
        for name in ("r0", "chain", "relations", "factor2"):
            assert same_bits(getattr(res, name)[k], getattr(alone, name))
        assert same_bits(res.system_max()[k], alone.system_max())
        jet = morse_remainder_field(f, n)(X[k])
        assert same_bits(remainder.value[k], jet.value)
        assert same_bits(remainder.gradient[k], jet.gradient)
        assert same_bits(remainder.hessian[k], jet.hessian)


def test_newton_raises_the_first_failing_point_in_order():
    # Newton from 0 diverges at x1 = 0 on the 4th iteration and at
    # x1 = -0.5 on the 1st; sqrt fails at x1 = -2.5 on the 1st evaluation
    f = ScalarField.from_expression("exp(y) + 0.5*y + x1*y^2 "
                                    "+ sqrt(x1 + 2)", 2)
    for X, expected in (([0.5, 0.0, -0.5], "x=[0.0] after 4 iterations"),
                        ([-0.5, 0.0], "x=[-0.5] after 1 iterations"),
                        ([0.0, -2.5], "x=[0.0] after 4 iterations")):
        with pytest.raises(NewtonDivergenceError) as err:
            morse_reduce(f, 2, np.array(X)[:, None])
        assert expected in str(err.value)
    with pytest.raises(SingularPointError, match="sqrt requires"):
        morse_reduce(f, 2, np.array([[-2.5], [0.0]]))
    # an error without a mask stops every point evaluated with it
    f = ScalarField.from_expression("exp(800*x1)*y^2 + y", 2)
    with pytest.raises(FloatingPointError, match="overflow"):
        morse_reduce(f, 2, np.array([[0.0], [1.0], [0.5]]))
    # even after an earlier point has failed: Newton diverges at x1 = 0 on
    # the 1st iteration, and exp overflows at x1 = 1 on the 2nd
    f = ScalarField.from_expression("x1*y^2 - 1e5*y + exp(x1*y)", 2)
    with pytest.raises(FloatingPointError, match="overflow"):
        morse_reduce(f, 2, np.array([[0.0], [1.0]]))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.floats(-0.8, 0.8), st.floats(-1.0, 1.0)),
                min_size=1, max_size=8),
       st.integers(0, 7))
def test_newton_counts_per_point_match_points(pairs, critical):
    # f_y = x1 - sin(y): the count depends on x1, and x1 = 0 makes the seed
    # y0 = 0 already critical
    f = ScalarField.from_expression("cos(y) + x1*y + x2", 3)
    X = np.array(pairs)
    critical %= len(X)
    X[critical, 0] = 0.0
    data = morse_reduce(f, 3, X)
    assert data.iters.shape == (len(X),)
    for b in range(len(X)):
        alone = morse_reduce(f, 3, X[b])
        assert type(alone.iters) is int and alone.iters == alone.newton_iters
        assert data.iters[b] == alone.newton_iters
    assert data.iters[critical] == 1
    assert data.newton_iters == data.iters.max()


# f fails inside sqrt at some points, at some Newton step
MASKED_F = [("sqrt(y + x1 + 1) + y^2", 2),
            ("sqrt(y + 0.8) + y^2*(1 - x1)", 2),
            ("exp(y) + 0.5*y + x1*y^2 + sqrt(x1 + 2)", 2),
            ("sqrt(y + x1 + x2 + 1) + y^2", 3)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(MASKED_F), st.sampled_from([(1,), (5,), (2, 3)]),
       st.integers(0, 2 ** 32 - 1))
def test_newton_masks_mark_failing_points_of_the_base_batch(case, batch,
                                                            seed):
    text, n = case
    f = ScalarField.from_expression(text, n)
    X = np.random.default_rng(seed).uniform(-2.5, 1.5, size=batch + (n - 1,))
    try:
        morse_reduce(f, n, X)
    except SingularPointError as exc:   # f's errors and Newton's own
        assert np.shape(exc.mask) == batch and exc.mask.any()
        for k in zip(*np.nonzero(exc.mask)):
            with pytest.raises(SingularPointError):
                morse_reduce(f, n, X[k])
    except FloatingPointError:
        pass  # an overflow (exp of an escaping iterate) names no point


# -- fiber jets: f, f_y and f_yy of the full jet ----------------------------------

# the cubic-in-y f of the benchmark's morse-grid workload
BENCH_MORSE_F = ("y^3/10 + (1 + 0.1*x2)*y^2 - 0.6*sin(x1)*y + x1*x2 "
                 "+ 0.5*x2^2")
FIBER_F = ([(text, n) for n, text in MORSE_F.items()] + MASKED_F
           + [(BENCH_MORSE_F, 3)])


def _fiber_agrees(f, P):
    """f(P, fiber=True) against f(P): the value bit for bit, f_y and f_yy
    under == (so +-0 agree), or the same error, text and mask. Returns
    the mask of f's error (None if it raised none)."""
    try:
        full = f(P)
    except SingularPointError as exc:
        with pytest.raises(type(exc)) as err:
            f(P, fiber=True)
        assert str(err.value) == str(exc)
        assert np.array_equal(err.value.mask, exc.mask)
        return exc.mask
    fiber = f(P, fiber=True)
    batch = P.shape[:-1]
    assert fiber.gradient.shape == batch + (1,)
    assert fiber.hessian.shape == batch + (1, 1)
    assert same_bits(fiber.value, full.value)
    assert np.array_equal(fiber.gradient[..., 0], full.gradient[..., -1])
    assert np.array_equal(fiber.hessian[..., 0, 0], full.hessian[..., -1, -1])
    return None


@pytest.mark.parametrize("text, n", FIBER_F)
def test_fiber_jets_match_full_jets(text, n):
    f = ScalarField.from_expression(text, n)
    P = np.random.default_rng(SEED).uniform(-2.5, 1.5, size=(40, n))
    alive, failed = np.arange(len(P)), 0
    while (mask := _fiber_agrees(f, P[alive])) is not None:
        failed += 1
        alive = alive[~np.broadcast_to(mask, alive.shape)]
    assert alive.size and (failed > 0) == ((text, n) in MASKED_F)
    for p in P:
        _fiber_agrees(f, p)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(expression_and_points(4))
def test_random_fiber_jets_match_full_jets(case):
    ast, n, P = case
    f = ScalarField.from_expression(ast, n)
    for points in (P, P[0], P[1]):
        try:
            f(points)
        except FloatingPointError:
            continue   # perhaps in a derivative that the fiber jet drops
        except SingularPointError:
            pass
        _fiber_agrees(f, points)


def test_a_field_without_an_expression_gives_its_full_jet():
    f = ScalarField.from_expression(MORSE_F[3], 3)
    rule_built = ScalarField(f.rule, 3)
    P = np.random.default_rng(SEED).uniform(-1.0, 1.0, size=(CHUNK, 3))
    full, fiber = rule_built(P), rule_built(P, fiber=True)
    assert fiber.gradient.shape == (CHUNK, 3)
    for name in ("value", "gradient", "hessian"):
        assert same_bits(getattr(fiber, name), getattr(full, name))


# -- reports do not depend on the chunk size ---------------------------------------

# conjugation's guard |f_y| = |2y| rejects |y| < 0.2, points that the
# torsion and sigma checks keep (theorem2's operator has no guard)
THEOREM2_CONJUGATION_GUARD = (
    "verify", "--family", "theorem2", "--n", "3", "--check", "all",
    "--samples", "300", "--seed", "6", "--min-denominator", "0.4")
# f fails where y + x1 + 1 <= 0 and the guard rejects |f_y| < 0.05, for every
# check alike: each reads the same evaluation of the planar operator
PLANAR_SOURCE_AND_GUARD = (
    "verify", "--family", "2d", "--f", "sqrt(y + x1 + 1) + y^2",
    "--check", "all", "--samples", "300", "--seed", "6")


CHUNK_INVOCATIONS = [
    # --check all runs one sweep in which each identity keeps its own
    # rejections (see test_check_all_keeps_each_identity_s_rejections)
    pytest.param(THEOREM2_CONJUGATION_GUARD, id="verify-theorem2-conj-guard"),
    pytest.param(THEOREM2_CONJUGATION_GUARD + ("--format", "csv"),
                 id="verify-theorem2-conj-guard-csv"),
    pytest.param(PLANAR_SOURCE_AND_GUARD + ("--format", "csv"),
                 id="verify-2d-source-and-guard-csv"),
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
    # CSV rows come from the sweep records, concatenated across chunks; the
    # pde rows have n-1 coordinates and are padded with "".
    ("verify", "--format", "csv", "--family", "theorem2", "--n", "4",
     "--check", "all", "--samples", "30", "--seed", "4"),
    ("pde-check", "--format", "csv", "--R", "1/(x1 - sqrt(x1*x1)) + x2",
     "--n", "3", "--samples", "40"),
    ("morse-reduce", "--format", "csv", "--f", "y^2 + x1*y + x2*y^3",
     "--n", "3", "--box", "-0.5", "0.5", "--samples", "4"),
    # fiber values within DELTA_TAYLOR of c take the Taylor branch
    ("morse-reduce", "--f", "y^2 + x1*y", "--n", "2",
     "--box", "-1", "1", "-1.0004", "0.9996", "--samples", "5"),
    # exit 3: the first slice fails after 50 Newton iterations, later
    # ones after 22; the first slice's error is reported at every chunk size
    ("morse-reduce", "--f", "y^2 + x1*y + x2*y^3", "--n", "3",
     "--box", "-1", "1", "--samples", "4"),
    # exit 3: Newton fails on the last slice, but f fails first, at the
    # grid point (-1, -1) of the first slice
    ("morse-reduce", "--f", "sqrt(y + 0.8) + y^2*(1 - x1)", "--n", "2",
     "--box", "-1", "1", "--samples", "3"),
    # exit 3: the slice x1 = 1 overflows in a batched step, and the grid
    # names its first failing point, x1 = -1, as that point alone fails
    ("morse-reduce", "--f", "exp(800*x1)*y^2 + exp(y) + 0.5*y", "--n", "2",
     "--box", "-1", "1", "--samples", "3"),
    ("morse-reduce", "--f", "exp(800*x1)*y^2 + y", "--n", "2",
     "--box", "-1", "1", "--samples", "3"),
    # exit 3: Newton fails on the third slice, after two that pass
    ("morse-reduce", "--f", "1/(y - 1.0001) + (x1 + 0.6)*y^2", "--n", "2",
     "--box", "-1", "1", "--samples", "4"),
    # exit 3: kappa_1(J) is about 1e8 / y^2 > COND_MAX on the whole band,
    # so the gates reject all 50 points (det J = y^2 too, where
    # |y| < 1.4e-5)
    pytest.param(("verify", "--family", "diffnondeg", "--n", "2",
                  "--sigma", "x1,1e4*x1+y^3/3", "--check", "all",
                  "--samples", "50", "--seed", "3",
                  "--box", "-1", "1", "1e-5", "2e-4"),
                 id="verify-diffnondeg-pivot-division"),
    # exit 3: the condition gate at a single point where det J passes
    pytest.param(("construct", "--family", "diffnondeg", "--n", "2",
                  "--sigma", "x1,1e4*x1+y^3/3", "--point", "0.1", "5e-5"),
                 id="construct-diffnondeg-pivot-division"),
    # kappa_1(J) is about 2 / y^2: the condition gate rejects |y| < 4.5e-3,
    # 23 of the 50 points for each of the two identities
    pytest.param(("verify", "--family", "diffnondeg", "--n", "2",
                  "--sigma", "x1,x1+y^3/3", "--check", "all",
                  "--samples", "50", "--seed", "3",
                  "--box", "-1", "1", "-0.01", "0.01"),
                 id="verify-diffnondeg-condition-gate"),
    # guard rejections on both sides of chunk boundaries: the surviving
    # points' rule and expectations read f's jet indexed, not re-evaluated
    pytest.param(("verify", "--family", "theorem1", "--n", "3",
                  "--f", "y^2 + 0.3*x1*y + x2", "--check", "all",
                  "--samples", "100", "--seed", "9", "--format", "csv"),
                 id="verify-theorem1-source-rejections"),
]


def _reports(capsys, argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    if "--format" in argv:
        return code, out
    doc = json.loads(out)
    doc.pop("wall_ms", None)  # error reports have none
    return code, doc


@pytest.mark.parametrize("argv", CHUNK_INVOCATIONS,
                         ids=lambda a: f"{a[0]}-{a[2]}")
def test_reports_do_not_depend_on_chunk_size(argv, capsys, monkeypatch):
    reference = _reports(capsys, argv)
    for chunk in (1, CHUNK):
        monkeypatch.setattr(nijenhuis.report, "SWEEP_CHUNK", chunk)
        assert _reports(capsys, argv) == reference, chunk


# -- one evaluation of each generating field per chunk -------------------------------

SAMPLES, COUNT_CHUNK = 300, 128

# flags and box of each registered family; its checks are those of its
# --check all but pde, whose Newton iteration evaluates f once per step by
# design
SOURCE_FAMILIES = {
    # the guard |f_y| >= 0.05 rejects points in every chunk
    "theorem1": (("--n", "3", "--f", "y^2 + 0.3*x1*y + x2"), [-1.0, 1.0]),
    "2d": (("--f", "x1*x1/4 + y^2 + 0.3*y"), [-1.0, 1.0]),
    # no source: only the sigma expectation and the conjugation sweep
    # evaluate f = y^2, whose guard rejects |2y| < 0.05
    "theorem2": (("--n", "3"), [-1.0, 1.0]),
    "companion": (("--n", "3", "--sigma", "x1+y^2,x2*y,y+x1"), [-1.0, 1.0]),
    # J = [[1, 0], [1, y^2]]: the det gate rejects |y| < 1.4e-5 and the
    # condition gate |y| < 4.5e-3 inside the rule, 131 of the 300 points:
    # rejections that index the source
    "diffnondeg": (("--n", "2", "--sigma", "x1,x1+y^3/3"),
                   [-1.0, 1.0, -0.01, 0.01]),
}


def test_every_registered_family_has_fixtures():
    assert set(FAMILY_FLAGS) == set(SOURCE_FAMILIES) == set(cli.FAMILIES)


@pytest.mark.parametrize("family", cli.FAMILIES)
def test_each_generating_field_is_evaluated_once_per_chunk(
        family, capsys, monkeypatch):
    flags, box = SOURCE_FAMILIES[family]
    ctx = _context(family, flags)
    checks = [c for c in ctx.checks if c != "pde"]
    monkeypatch.setattr(nijenhuis.report, "SWEEP_CHUNK", COUNT_CHUNK)
    calls = collections.Counter()
    call = ScalarField.__call__
    monkeypatch.setattr(ScalarField, "__call__",
                        lambda self, p, **kw: calls.update([id(self)])
                        or call(self, p, **kw))
    chunks = -(-SAMPLES // COUNT_CHUNK)
    argv = ["verify", "--family", family, *flags, "--samples", str(SAMPLES),
            "--seed", "5", "--box", *map(str, box), "--format", "csv"]
    n = ctx.op.dim
    bounds = np.reshape(box, (-1, 2)) if len(box) > 2 else box
    sampled = sample_box(bounds, n, SAMPLES, 5)
    boundary_rejections = False
    for check in checks:
        calls.clear()
        assert run(argv + ["--check", check]) in (0, 1)   # ran to the end
        assert max(calls.values(), default=0) <= chunks, (check, calls)
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        kept = {tuple(float(r[f"point_{i}"]) for i in range(1, n + 1))
                for r in rows}
        rejected = [k for k, p in enumerate(sampled) if tuple(p) not in kept]
        assert len(rejected) == SAMPLES - len(rows)
        boundary_rejections |= (min(rejected, default=SAMPLES) < COUNT_CHUNK
                                <= max(rejected, default=-1))
    assert boundary_rejections or family == "companion"
    if "pde" not in ctx.checks:   # --check all would add the pde sweep
        # one sweep for every check: each field is evaluated once per
        # chunk, and the operator as often as for one check alone
        evals = collections.Counter()
        evaluate = nijenhuis.report.operator_eval
        monkeypatch.setattr(nijenhuis.report, "operator_eval",
                            lambda *a: evals.update([check]) or evaluate(*a))
        for check in (*checks, "all"):
            calls.clear()
            assert run(argv + ["--check", check]) in (0, 1)
            capsys.readouterr()
        assert max(calls.values()) <= chunks
        assert evals["all"] == max(evals[check] for check in checks)


# -- one sweep for every identity of --check all ----------------------------------

@pytest.mark.parametrize("argv", [THEOREM2_CONJUGATION_GUARD,
                                  PLANAR_SOURCE_AND_GUARD],
                         ids=["theorem2", "2d"])
def test_check_all_keeps_each_identity_s_rejections(argv, capsys):
    code, out = _reports(capsys, argv + ("--format", "csv"))
    assert code == 0
    rows = collections.Counter(r["check"]
                               for r in csv.DictReader(io.StringIO(out)))
    at = argv.index("--check") + 1
    for check in rows:
        # each identity accepts what a sweep of its check alone accepts
        alone = _reports(capsys, argv[:at] + (check,) + argv[at + 1:])[1]
        assert rows[check] == alone["accepted"], check
    y = sample_box((-1.0, 1.0), 3 if "theorem2" in argv else 2, 300, 6)[:, -1]
    if "theorem2" in argv:
        assert rows["torsion"] == rows["sigma"] == 300
        assert rows["conjugation"] == np.count_nonzero(np.abs(2 * y) >= 0.4)
    else:
        assert rows["torsion"] == rows["sigma"] == rows["conjugation"] < 300
