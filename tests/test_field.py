"""Scalar and operator field plumbing: validation and localization."""

import numpy as np
import pytest

from nijenhuis.field import (OperatorField, ScalarField, SingularEntry,
                             operator_eval)
from nijenhuis.jet import Jet2, SingularPointError, _jet


def test_scalar_field_from_expression_label():
    f = ScalarField.from_expression("y^2 + x1", 2)
    assert f.dim == 2
    assert f.label == "((y^2)+x1)"
    j = f(np.array([3.0, 2.0]))
    assert j.value == 7.0


def test_scalar_field_dimension_check():
    f = ScalarField.from_expression("y", 2)
    with pytest.raises(ValueError, match="dimension"):
        f(np.array([1.0, 2.0, 3.0]))


def test_constant_field():
    c = ScalarField.constant(2.5, 3)
    j = c(np.array([1.0, 1.0, 1.0]))
    assert j.value == 2.5
    assert np.all(j.gradient == 0.0)


def test_from_entries_validation():
    f = ScalarField.from_expression("y", 2)
    with pytest.raises(ValueError, match="square"):
        OperatorField.from_entries([[f, f]])
    g3 = ScalarField.from_expression("y", 3)
    with pytest.raises(ValueError, match="dimension"):
        OperatorField.from_entries([[f, g3], [f, f]])


def test_operator_eval_values_and_gradients():
    entries = [
        [ScalarField.from_expression("x1*y", 2),
         ScalarField.from_expression("y^2", 2)],
        [ScalarField.constant(1.0, 2),
         ScalarField.from_expression("x1 + y", 2)],
    ]
    L = OperatorField.from_entries(entries, label="demo")
    ev = operator_eval(L, np.array([2.0, 3.0]))
    # the evaluation is the rule's order-1 matrix jet
    assert isinstance(ev, Jet2) and ev.hessian is None
    assert ev.value.shape == (2, 2) and ev.gradient.shape == (2, 2, 2)
    assert np.array_equal(ev.value, [[6.0, 9.0], [1.0, 5.0]])
    assert np.array_equal(ev.gradient[0, 0], [3.0, 2.0])
    assert np.array_equal(ev.gradient[0, 1], [0.0, 6.0])
    assert np.array_equal(ev.gradient[1, 0], [0.0, 0.0])
    assert np.array_equal(ev.gradient[1, 1], [1.0, 1.0])
    P = np.zeros((4, 3, 2))
    batch = operator_eval(L, P)
    assert batch.value.shape == (4, 3, 2, 2)
    assert batch.gradient.shape == (4, 3, 2, 2, 2)
    # a custom rule's jet comes back as the same object
    M = _jet(np.eye(2), np.zeros((2, 2, 2)), None)
    custom = OperatorField(2, lambda p, src: M)
    assert operator_eval(custom, np.array([2.0, 3.0])) is M


def test_singular_entry_is_localized():
    entries = [
        [ScalarField.from_expression("1/x1", 2),
         ScalarField.constant(0.0, 2)],
        [ScalarField.constant(0.0, 2),
         ScalarField.from_expression("y", 2)],
    ]
    L = OperatorField.from_entries(entries)
    with pytest.raises(SingularEntry) as err:
        operator_eval(L, np.array([0.0, 1.0]))
    assert err.value.row == 1
    assert err.value.col == 1
    assert "entry (1,1)" in str(err.value)
    assert isinstance(err.value, SingularPointError)
