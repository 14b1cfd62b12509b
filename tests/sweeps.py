"""A seeded sweep of one identity of an operator over a box."""

from nijenhuis.report import run_sweep, sample_box


def sweep(L, identity, box, samples, seed, source=None):
    """The report of `identity` at seeded points of the box, with L's
    source (or `source`) evaluated once per chunk."""
    return run_sweep(sample_box(box, L.dim, samples, seed), [identity],
                     source=L.source if source is None else source,
                     operator=L)[0]
