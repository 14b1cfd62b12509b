"""Scalar and operator field plumbing: validation, localization, guards."""

import numpy as np
import pytest

from nijenhuis.field import (OperatorField, ScalarField, SingularEntry,
                             operator_eval)
from nijenhuis.jet import SingularPointError
from nijenhuis.report import sample_box
from nijenhuis.torsion import torsion_identity
from sweeps import sweep

SEED = 911


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
    assert np.array_equal(ev.values, [[6.0, 9.0], [1.0, 5.0]])
    assert np.array_equal(ev.entry_grads[0, 0], [3.0, 2.0])
    assert np.array_equal(ev.entry_grads[0, 1], [0.0, 6.0])
    assert np.array_equal(ev.entry_grads[1, 0], [0.0, 0.0])
    assert np.array_equal(ev.entry_grads[1, 1], [1.0, 1.0])


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


def test_entry_accessor():
    entries = [
        [ScalarField.from_expression("x1", 2),
         ScalarField.from_expression("y", 2)],
        [ScalarField.constant(2.0, 2),
         ScalarField.from_expression("x1*y", 2)],
    ]
    L = OperatorField.from_entries(entries, label="m")
    e12 = L.entry(1, 2)
    assert e12(np.array([5.0, 7.0])).value == 7.0
    with pytest.raises(IndexError):
        L.entry(0, 1)
    with pytest.raises(IndexError):
        L.entry(3, 1)


def test_guard_passthrough():
    # from_entries' guard takes the points alone, and a sweep can run it
    f = ScalarField.from_expression("y", 2)
    L = OperatorField.from_entries([[f, f], [f, f]],
                                   guard=lambda p: abs(p[..., 1]))
    box = np.array([[-1.0, 1.0]] * 2)
    rep = sweep(L, torsion_identity(1.0, L.guard, 0.25), box, samples=50,
                seed=SEED)
    small = np.abs(sample_box(box, 2, 50, SEED)[:, 1]) < 0.25
    assert rep.rejected == np.count_nonzero(small) > 0
    assert np.all(np.abs(rep.records["point"][:, 1]) >= 0.25)
