"""Test helpers: a seeded sweep of one identity of an operator over a box,
and the conjugation residual of f's regular family."""

from nijenhuis.construct import build_regular_family, conjugation_residual
from nijenhuis.field import operator_eval
from nijenhuis.report import run_sweep, sample_box


def sweep(L, identity, box, samples, seed, source=None):
    """The report of `identity` at seeded points of the box, with L's
    source (or `source`) evaluated once per chunk."""
    return run_sweep(sample_box(box, L.dim, samples, seed), [identity],
                     source=L.source if source is None else source,
                     operator=L)[0]


def regular_conjugation(f, P):
    """conjugation_residual at the points P of f's regular family,
    evaluated from f's jet there."""
    fj = f(P)
    L = build_regular_family(f, f.dim)
    return conjugation_residual(P, fj, operator_eval(L, P, fj))
