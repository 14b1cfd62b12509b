"""Operator family construction: frozen matrices, overlap, invariances.

The regular and Morse canonical rules build their matrix jets as whole
arrays; the entry by entry jet arithmetic they replace is kept below as a
reference, on the order-2 jets that f's evaluation runs, and a property
test holds them to its bits and its errors.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nijenhuis.construct import (DegeneratePointError, build_2d,
                                 build_companion, build_diff_nondegenerate,
                                 build_morse_canonical, build_regular_family,
                                 companion_matrix, conjugation_residual)
from nijenhuis.field import (JET_ERRSTATE, ScalarField, SingularEntry,
                             operator_eval)
from nijenhuis.invariants import charpoly
from nijenhuis.jet import (DenominatorVanishes, SingularPointError, _jet,
                           _zeros, coordinate_jet)
from expr_strategies import expressions
from sweeps import regular_conjugation

SEED = 1337


# -- references: the family rules entry by entry in jet arithmetic --------

def grid_jet(rows, p):
    """The order-1 matrix jet of an n x n grid of entry jets and plain
    numbers at the points p (..., n)."""
    n = p.shape[-1]
    values = np.empty(p.shape[:-1] + (n, n))
    grads = np.empty(p.shape[:-1] + (n, n, n))
    for i, row in enumerate(rows):
        for j, x in enumerate(row):   # a plain number has no gradient
            values[..., i, j] = getattr(x, "value", x)
            grads[..., i, j, :] = getattr(x, "gradient", 0.0)
    return _jet(values, grads, None)


def reference_regular_rule(n):
    """The regular family's rule, entry by entry from order-2 jets of f's
    partials, whose own Hessians (third derivatives of f) read zero: no
    value or gradient rule reads an operand's Hessian."""
    def rule(p, fj):
        flat = _zeros(fj.gradient.shape[:-1] + (n, n))
        parts = [_jet(fj.gradient[..., k][()], fj.hessian[..., k, :], flat)
                 for k in range(n)]
        fx, fy = parts[:-1], parts[-1]
        xs = [coordinate_jet(i + 1, p) for i in range(n - 1)]
        rows = []
        for i in range(n - 2):
            row = [0.0] * n
            row[0] = -xs[i]
            row[i + 1] = 1.0
            rows.append(row)
        row = [0.0] * n
        row[0] = -xs[n - 2] + fx[0]
        for c in range(1, n - 1):
            row[c] = fx[c]
        row[n - 1] = fy
        rows.append(row)
        num = xs[0] * fx[0]
        for i in range(1, n - 1):
            num = num + xs[i] * fx[i]
        num = num - fx[0] * fx[n - 2] - fj
        row = [0.0] * n
        try:
            row[0] = num / fy
        except DenominatorVanishes as exc:
            raise SingularEntry(n, 1, p, exc) from None
        for c in range(1, n - 1):
            try:
                row[c] = -((fx[c - 1] + fx[c] * fx[n - 2]) / fy)
            except DenominatorVanishes as exc:
                raise SingularEntry(n, c + 1, p, exc) from None
        row[n - 1] = -fx[n - 2]
        rows.append(row)
        return grid_jet(rows, p)

    return rule


def reference_morse_rule(n, sign):
    """The Morse canonical family's rule, entry by entry."""
    def rule(p, _):
        y = coordinate_jet(n, p)
        rows = []
        for i in range(n - 2):
            row = [0.0] * n
            row[0] = -coordinate_jet(i + 1, p)
            row[i + 1] = 1.0
            rows.append(row)
        row = [0.0] * n
        row[0] = -coordinate_jet(n - 1, p)
        row[n - 1] = (2.0 * sign) * y
        rows.append(row)
        row = [0.0] * n
        row[0] = (-0.5) * y
        rows.append(row)
        return grid_jet(rows, p)

    return rule


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


def _outcome(rule, p, src):
    """rule(p, src) under the evaluation's errstate, or what it raised."""
    with np.errstate(**JET_ERRSTATE):
        try:
            return rule(p, src)
        except (SingularPointError, FloatingPointError) as exc:
            return exc


def assert_same_outcome(rule, ref, p, src):
    """rule and its reference give the same bits at the points p, or raise
    the same error: class, message, entry and mask."""
    got, want = _outcome(rule, p, src), _outcome(ref, p, src)
    if not isinstance(want, Exception):
        assert same_bits(got.value, want.value)
        assert same_bits(got.gradient, want.gradient)
        return
    assert type(got) is type(want)
    text = str(want)
    if p.ndim == 1:    # numpy names its scalar operations "scalar multiply"
        text = text.replace("in scalar ", "in ")
    assert str(got) == text
    assert (getattr(got, "row", None), getattr(got, "col", None)) \
        == (getattr(want, "row", None), getattr(want, "col", None))
    assert same_bits(getattr(got, "mask", None), getattr(want, "mask", None))


@st.composite
def family_cases(draw):
    """(family, n, f or sign, points): theorem1 at n = 2..8, 2d, theorem2
    at n = 3..5, and 7 points of [-2, 2]^n, some with a coordinate (often
    y) zeroed."""
    family = draw(st.sampled_from(["theorem1", "2d", "theorem2"]))
    n = draw({"theorem1": st.integers(2, 8), "2d": st.just(2),
              "theorem2": st.integers(3, 5)}[family])
    source = (draw(st.sampled_from([1, -1])) if family == "theorem2"
              else draw(expressions(n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = rng.uniform(-2.0, 2.0, size=(7, n))
    for k in range(7):
        if draw(st.booleans()):
            points[k, draw(st.sampled_from([0, n - 1, n - 2]))] = 0.0
    return family, n, source, points


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(family_cases())
def test_family_rules_match_their_entry_references(case):
    family, n, source, P = case
    if family == "theorem2":
        rule = build_morse_canonical(n, source).matrix_rule
        ref, src = reference_morse_rule(n, source), None
    else:
        f = ScalarField.from_expression(source, n)
        try:
            src = f(P)
        except (SingularPointError, FloatingPointError):
            return    # f itself fails; no rule runs
        if family == "theorem1":
            rule = build_regular_family(f, n).matrix_rule
            ref = reference_regular_rule(n)
        else:
            rule = build_2d(f).matrix_rule
            ref = (lambda regular: lambda p, fj: -regular(p, fj))(
                reference_regular_rule(2))
    # the chunk, then its first point alone
    for p, fj in ((P, src), (P[0], None if src is None else src.at(0))):
        assert_same_outcome(rule, ref, p, fj)


@pytest.mark.parametrize("text, point, error", [
    # column 2's numerator overflows, but f_y already vanishes beside
    # column 1's numerator: entry (3,1) is singular
    ("(x2^32)^32 + y", (0.3, 1.9, 0.5), SingularEntry),
    # no denominator vanishes before column 1's numerator overflows
    ("(x1^32)^32 + (x2^32)^32 + y", (1.9, 1.9, 0.5), FloatingPointError),
    # column 1's quotient gradient overflows before f_y vanishes beside
    # column 2's numerator
    ("1e-10*y + 20*x2 + 1e298*x1^2", (0.0, 0.5, 0.3), FloatingPointError),
])
def test_regular_rule_meets_faults_in_entry_order(text, point, error):
    f = ScalarField.from_expression(text, 3)
    rule = build_regular_family(f, 3).matrix_rule
    for P in (np.array(point), np.array([[0.0, -0.5, 0.7], point])):
        assert isinstance(_outcome(rule, P, f(P)), error)
        assert_same_outcome(rule, reference_regular_rule(3), P, f(P))


def test_companion_matrix_layout():
    C = companion_matrix([2.0, -3.0, 5.0])
    assert np.array_equal(C, [[-2.0, 1.0, 0.0],
                              [3.0, 0.0, 1.0],
                              [-5.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        companion_matrix([1.0])


def test_companion_family_recovers_its_fields():
    texts = ("x1+y^2", "x2*y+sin(x1)", "y+x1*x2")
    sigma = [ScalarField.from_expression(t, 3) for t in texts]
    L = build_companion(sigma)
    P = np.random.default_rng(SEED).uniform(-1.0, 1.0, size=(5, 3))
    expected = np.stack([s(P).value for s in sigma], axis=-1)
    assert np.max(np.abs(charpoly(operator_eval(L, P).value)
                         - expected)) <= 1e-12
    with pytest.raises(ValueError):
        build_companion(sigma[:2])
    with pytest.raises(ValueError):
        build_companion([ScalarField.from_expression("x1", 2)] * 3)


def test_regular_family_frozen_matrix_n2():
    f = ScalarField.from_expression("x1*x1/4 + y^2", 2)
    L = build_regular_family(f, 2)
    ev = operator_eval(L, np.array([1.0, 2.0]))
    assert np.allclose(ev.value, [[-0.5, 4.0], [-1.0, -0.5]], atol=1e-15)


def test_regular_family_frozen_matrix_n3():
    f = ScalarField.from_expression("y^2", 3)
    L = build_regular_family(f, 3)
    ev = operator_eval(L, np.array([1.0, -1.0, 2.0]))
    assert np.allclose(ev.value, [[-1.0, 1.0, 0.0],
                                  [1.0, 0.0, 4.0],
                                  [-1.0, 0.0, 0.0]], atol=1e-15)


def test_regular_family_trace_law():
    # trace telescopes to -x1 for every n and f
    rng = np.random.default_rng(SEED)
    f3 = ScalarField.from_expression("y^3 + x1*y + x2", 3)
    L = build_regular_family(f3, 3)
    for _ in range(25):
        p = rng.uniform(-1.0, 1.0, size=3)
        ev = operator_eval(L, p)
        scale = 1.0 + np.max(np.abs(ev.value))
        assert abs(np.trace(ev.value) + p[0]) < 1e-14 * scale


def test_regular_family_singular_entry_location():
    f = ScalarField.from_expression("y^2", 3)
    L = build_regular_family(f, 3)
    with pytest.raises(SingularEntry) as err:
        operator_eval(L, np.array([1.0, 2.0, 0.0]))
    assert (err.value.row, err.value.col) == (3, 1)


def test_planar_family_equals_regular_convention_flip():
    # the 2d matrix encodes sigma_1 = -x1; same f, sign-flipped trace
    f = ScalarField.from_expression("x1*x1/4 + y^2", 2)
    ev2 = operator_eval(build_2d(f), np.array([1.0, 2.0]))
    assert np.allclose(ev2.value, [[0.5, -4.0], [1.0, 0.5]], atol=1e-15)
    assert abs(np.trace(ev2.value) - 1.0) < 1e-15


def test_2d_requires_dim_two():
    f = ScalarField.from_expression("y", 3)
    with pytest.raises(ValueError):
        build_2d(f)


def test_diffnondeg_reproduces_planar_family():
    f = ScalarField.from_expression("x1*x1/4 + y^2", 2)
    sigma = [ScalarField.from_expression("-x1", 2), f]
    Ld = build_diff_nondegenerate(sigma)
    L2 = build_2d(f)
    rng = np.random.default_rng(SEED + 1)
    for _ in range(30):
        p = rng.uniform(-1.0, 1.0, size=2)
        if abs(2.0 * p[1]) < 0.1:
            continue
        a = operator_eval(Ld, p).value
        b = operator_eval(L2, p).value
        assert np.max(np.abs(a - b)) < 1e-13, p


def test_diffnondeg_reproduces_regular_family():
    # sigma = (x1, ..., x_{n-1}, f) conjugates back to the explicit rows
    f = ScalarField.from_expression("y^2 + x1*x2 + 0.3*y", 3)
    sigma = [ScalarField.from_expression("x1", 3),
             ScalarField.from_expression("x2", 3), f]
    Ld = build_diff_nondegenerate(sigma)
    Lr = build_regular_family(f, 3)
    rng = np.random.default_rng(SEED + 2)
    kept = 0
    for _ in range(40):
        p = rng.uniform(-1.0, 1.0, size=3)
        fy = 2.0 * p[2] + 0.3
        if abs(fy) < 0.1:
            continue
        kept += 1
        a = operator_eval(Ld, p).value
        b = operator_eval(Lr, p).value
        scale = 1.0 + np.max(np.abs(b))
        assert np.max(np.abs(a - b)) < 1e-12 * scale, p
    assert kept > 10


def test_diffnondeg_degenerate_point():
    sigma = [ScalarField.from_expression("-x1+x2", 3),
             ScalarField.from_expression("x1*x2", 3),
             ScalarField.from_expression("y", 3)]
    L = build_diff_nondegenerate(sigma)
    with pytest.raises(DegeneratePointError):
        operator_eval(L, np.array([1.0, -1.0, 2.0]))


def test_diffnondeg_gates_mask_degenerate_and_ill_conditioned_j():
    # J = [[1, 0], [1, y^2]]: det J = y^2 and kappa_1(J) = 2 (1 + 1/y^2)
    # for |y| < 1, so the det gate (|det J| < 2e-10) rejects |y| < 1.4e-5
    # and the condition gate (kappa_1 > 1e5) |y| < 4.5e-3; y = 0 is exactly
    # singular, which LAPACK must not be asked to invert
    sigma = [ScalarField.from_expression(t, 2) for t in ("x1", "x1+y^3/3")]
    L = build_diff_nondegenerate(sigma)
    y = np.array([0.5, 0.0, 1e-6, 1e-3, -0.3, -4e-3, 5e-3])
    P = np.stack([np.full_like(y, 0.2), y], axis=-1)
    with pytest.raises(DegeneratePointError) as err:
        operator_eval(L, P)
    rejected = [False, True, True, True, False, True, False]
    assert err.value.mask.tolist() == rejected
    assert err.value.point.tolist() == P[rejected].tolist()
    assert np.allclose(err.value.det, y[rejected] ** 2, rtol=1e-12, atol=0)
    # the message names the gate that rejected the first failing point
    assert str(err.value).startswith(
        "differentially degenerate at points [[0.2, 0.0], ")
    assert str(err.value).endswith("(det J = 0.000000e+00)")
    with pytest.raises(DegeneratePointError) as err:
        operator_eval(L, P[[3, 5]])
    assert np.allclose(err.value.cond, 2.0 * (1.0 + y[[3, 5]] ** -2),
                       rtol=1e-12, atol=0)
    assert str(err.value) == (
        "ill-conditioned J at points [[0.2, 0.001], [0.2, -0.004]] "
        f"(kappa_1(J) = {err.value.cond[0]:.6e} > COND_MAX = 1e+05, "
        "det J = 1.000000e-06)")
    kept = operator_eval(L, P[~np.array(rejected)])
    for k, p in enumerate(P[~np.array(rejected)]):
        single = operator_eval(L, p)
        assert np.array_equal(kept.value[k], single.value)
    # det J = 4e-308 at y = 0: J^-1's gradient and kappa_1(J) overflow
    # there, and the point is still a masked rejection, not an overflow
    # of the chunk
    sigma = [ScalarField.from_expression(t, 2)
             for t in ("4*x1", "1e-308*y+y^2/2")]
    with np.errstate(**JET_ERRSTATE), \
            pytest.raises(DegeneratePointError) as err:
        operator_eval(build_diff_nondegenerate(sigma),
                      np.array([[0.1, 0.5], [0.1, 0.0]]))
    assert err.value.mask.tolist() == [False, True]


def test_morse_canonical_frozen_matrix():
    L = build_morse_canonical(3, 1)
    ev = operator_eval(L, np.array([0.5, -0.3, 0.7]))
    assert np.allclose(ev.value, [[-0.5, 1.0, 0.0],
                                  [0.3, 0.0, 1.4],
                                  [-0.35, 0.0, 0.0]], atol=1e-15)
    Lm = build_morse_canonical(3, -1)
    evm = operator_eval(Lm, np.array([0.5, -0.3, 0.7]))
    assert evm.value[1, 2] == -1.4
    assert evm.value[2, 0] == -0.35  # the corner entry ignores the sign


def test_morse_canonical_requires_n_above_two():
    with pytest.raises(ValueError, match="n > 2"):
        build_morse_canonical(2, 1)
    with pytest.raises(ValueError):
        build_morse_canonical(3, 2)


def test_morse_canonical_matches_regular_family_off_singularity():
    # at y != 0 the canonical matrix is the regular family of sign*y^2
    for sign, text in ((1, "y^2"), (-1, "-y^2")):
        f = ScalarField.from_expression(text, 4)
        Lc = build_morse_canonical(4, sign)
        Lr = build_regular_family(f, 4)
        rng = np.random.default_rng(SEED + 3)
        for _ in range(20):
            p = rng.uniform(-1.0, 1.0, size=4)
            if abs(p[3]) < 0.1:
                continue
            a = operator_eval(Lc, p).value
            b = operator_eval(Lr, p).value
            assert np.max(np.abs(a - b)) < 1e-13, (sign, p)


def test_conjugation_residual_vanishes():
    rng = np.random.default_rng(SEED + 4)
    f = ScalarField.from_expression("y^3 + y + x1", 3)
    for _ in range(20):
        p = rng.uniform(-1.0, 1.0, size=3)
        raw, scale = regular_conjugation(f, p)
        assert raw <= 1e-12 * scale, p


def test_conjugation_residual_detects_wrong_operator():
    # feeding a mismatched operator must produce a nonzero residual
    wrong = build_morse_canonical(3, 1)
    f3 = ScalarField.from_expression("y^2 + x1 + x2", 3)
    p = np.array([0.4, 0.2, 0.6])
    raw, scale = conjugation_residual(p, f3(p), operator_eval(wrong, p))
    assert raw > 1e-3 * scale



def test_planar_conjugation_follows_its_own_sigma():
    # the planar operator satisfies J L = Ltilde J for sigma = (-x1, f),
    # and not for the regular family's sigma = (x1, f)
    f = ScalarField.from_expression("x1*x1/4 + y^2 + 0.3*y", 2)
    P = np.random.default_rng(SEED + 5).uniform(-1.0, 1.0, size=(20, 2))
    P = P[np.abs(2.0 * P[:, 1] + 0.3) > 0.1]
    fj = f(P)
    ev = operator_eval(build_2d(f), P, fj)
    raw, scale = conjugation_residual(P, fj, ev, signs=-1.0)
    assert np.all(raw <= 1e-13 * scale)
    raw, scale = conjugation_residual(P, fj, ev, signs=1.0)
    assert np.all(raw > 1e-3 * scale)
