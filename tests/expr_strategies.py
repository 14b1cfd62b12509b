"""Hypothesis strategies: random expression ASTs in x1..x(n-1), y, and a
chunk of points to evaluate one at."""

import numpy as np
from hypothesis import strategies as st

from nijenhuis.expr import Bin, Call, Const, Neg, Pow, Var

CONSTANTS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e-3])


def expressions(n: int, constants=CONSTANTS):
    """ASTs of up to 10 leaves over every node type, in dimension n, with
    Const leaves drawn from `constants`."""
    names = [f"x{i}" for i in range(1, n)] + ["y"]
    leaves = st.one_of(
        constants.map(Const),
        st.integers(1, n).map(lambda i: Var(i, names[i - 1])))

    def extend(sub):
        pair = st.tuples(sub, sub)
        return st.one_of(
            *(pair.map(lambda t, op=op: Bin(op, *t)) for op in "+-*/"),
            sub.map(Neg),
            st.tuples(sub, st.integers(-3, 4)).map(lambda t: Pow(*t)),
            st.tuples(st.sampled_from(["sqrt", "exp", "sin", "cos"]),
                      sub).map(lambda t: Call(*t)))

    return st.recursive(leaves, extend, max_leaves=10)


@st.composite
def expression_and_points(draw, max_n: int):
    """(ast, n, points): n in 2..max_n, and 7 points (7, n) from [-2, 2]^n,
    one coordinate of the first of them zero."""
    n = draw(st.integers(2, max_n))
    ast = draw(expressions(n))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    points = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(7, n))
    # a point on a coordinate hyperplane makes x/x-style denominators vanish
    points[0, draw(st.integers(0, n - 1))] = 0.0
    return ast, n, points
