"""Outside-in layer tracing: spans around the package's public callables.

`Tracer.install()` rebinds each traced callable at every module of the
package that holds a reference to it (for example both
``nijenhuis.field.operator_eval`` and ``nijenhuis.torsion.operator_eval``),
wraps ``ScalarField.__call__``, and counts ``Jet2.__init__``. No source of
the package changes; `uninstall()` restores every binding. Spans (name,
start, end, parent) are kept in memory and reduced when the pass ends: a
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# Layer name -> (module, attribute) of the public callable it wraps.
LAYERS = {
    "cli.run": ("nijenhuis.cli", "run"),
    "expr.parse": ("nijenhuis.expr", "parse_expression"),
    "field.f_jet": ("nijenhuis.field", "ScalarField.__call__"),
    "field.operator_eval": ("nijenhuis.field", "operator_eval"),
    "linalg.invert_with_det": ("nijenhuis.linalg", "invert_with_det"),
    "linalg.matmul": ("nijenhuis.linalg", "matmul"),
    "linalg.plu_det": ("nijenhuis.linalg", "plu_det"),
    "torsion.contract": ("nijenhuis.torsion", "torsion_from_eval"),
    "torsion.fd_oracle": ("nijenhuis.torsion", "torsion_bracket_fd"),
    "invariants.charpoly": ("nijenhuis.invariants", "charpoly"),
    "construct.conjugation_residual": ("nijenhuis.construct",
                                       "conjugation_residual"),
    "singularity.morse_reduce": ("nijenhuis.singularity", "morse_reduce"),
    "singularity.morse_coordinate": ("nijenhuis.singularity",
                                     "morse_coordinate"),
    "singularity.pde_residuals": ("nijenhuis.singularity", "pde_residuals"),
    "report.run_sweep": ("nijenhuis.report", "run_sweep"),
}

# Columns of the per-n cost table: layer -> column label.
TABLE = {
    "field.f_jet": "f_jet",
    "field.operator_eval": "operator_eval",
    "torsion.contract": "contract",
    "invariants.charpoly": "charpoly",
    "torsion.fd_oracle": "fd_oracle",
}
TABLE_NS = (2, 3, 5, 8)

# Share of the harness-measured call time that the cli.run spans may miss.
ROOT_GAP_FRAC = 0.01


class Tracer:
    """Span recorder for one traced pass at a time."""

    def __init__(self):
        self.names = list(LAYERS)
        self._restore = []
        # The wrappers hold these lists, so reset() clears them in place.
        self.span_name = []     # layer index per span
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        self.span_n = []        # n of the invocation running the span
        self._stack = [-1]
        self.reset()

    def reset(self):
        for spans in (self.span_name, self.span_start, self.span_end,
                      self.span_parent, self.span_n):
            spans.clear()
        del self._stack[1:]
        self.current_n = 0
        self.jet_allocs = 0
        self.newton_iters = 0
        self.sweep_accepted = 0
        self.sweep_points_by_n = defaultdict(int)

    # -- installation ---------------------------------------------------

    def _wrap(self, index: int, fn, on_result=None):
        clock = time.perf_counter_ns
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ns, stack = self.span_parent, self.span_n, self._stack
        tracer = self

        def traced(*args, **kwargs):
            span = len(starts)
            names.append(index)
            parents.append(stack[-1])
            ns.append(tracer.current_n)
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_morse(self, data):
        self.newton_iters += data.newton_iters

    def _on_sweep(self, report):
        self.sweep_accepted += report.accepted
        self.sweep_points_by_n[self.current_n] += (report.accepted
                                                   + report.rejected)

    def counters(self) -> dict:
        return {"jet_allocs": self.jet_allocs,
                "newton_iters": self.newton_iters,
                "sweep_accepted": self.sweep_accepted,
                "sweep_points": sum(self.sweep_points_by_n.values()),
                "sweep_points_by_n": dict(self.sweep_points_by_n)}

    def install(self):
        """Rebind every traced callable; `uninstall()` undoes it."""
        modules = {m: importlib.import_module(m) for m, _ in LAYERS.values()}
        ScalarField = modules["nijenhuis.field"].ScalarField
        Jet2 = importlib.import_module("nijenhuis.jet").Jet2
        hooks = {"singularity.morse_reduce": self._on_morse,
                 "report.run_sweep": self._on_sweep}
        package = [m for name, m in sys.modules.items()
                   if name == "nijenhuis" or name.startswith("nijenhuis.")]
        for index, (layer, (module, attr)) in enumerate(LAYERS.items()):
            if attr == "ScalarField.__call__":
                original = ScalarField.__call__
                self._set(ScalarField, "__call__",
                          self._wrap(index, original))
                continue
            original = getattr(modules[module], attr)
            wrapper = self._wrap(index, original, hooks.get(layer))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        init = Jet2.__init__
        tracer = self

        def counted_init(jet, *args, **kwargs):
            tracer.jet_allocs += 1
            init(jet, *args, **kwargs)

        self._set(Jet2, "__init__", counted_init)

    def _set(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- reduction --------------------------------------------------------

    def reduce(self, begin_ns: int, end_ns: int) -> dict:
        """Per-layer calls, inclusive and self ns, per-(layer, n) stats and
        the counters of the pass.

        `begin_ns`..`end_ns` is the traced wall window; the time in it that
        no root span covers is reported as unattributed, so self times plus
        unattributed time equal the window by construction.
        """
        count = len(self.span_start)
        start, end, parent = self.span_start, self.span_end, self.span_parent
        child = [0] * count
        for s in range(count):
            p = parent[s]
            if p >= 0:
                child[p] += end[s] - start[s]
        calls = defaultdict(int)
        incl = defaultdict(int)
        self_ns = defaultdict(int)
        by_n = defaultdict(lambda: [0, 0])
        roots = []
        for s in range(count):
            name = self.names[self.span_name[s]]
            dur = end[s] - start[s]
            calls[name] += 1
            incl[name] += dur
            self_ns[name] += dur - child[s]
            cell = by_n[(name, self.span_n[s])]
            cell[0] += 1
            cell[1] += dur
            if parent[s] < 0:
                roots.append((name, dur))
        wall = end_ns - begin_ns
        return {"calls": dict(calls), "incl_ns": dict(incl),
                "self_ns": dict(self_ns), "by_n": dict(by_n),
                "wall_ns": wall,
                "unattributed_ns": wall - sum(d for _, d in roots),
                "roots": roots, "spans": count,
                "counters": self.counters()}

    def spans(self):
        """The recorded spans as (name, start_ns, end_ns, parent, n) rows."""
        for s in range(len(self.span_start)):
            yield (self.names[self.span_name[s]], self.span_start[s],
                   self.span_end[s], self.span_parent[s], self.span_n[s])


def check_roots(reduction: dict, walls: list) -> list:
    """Compare the pass's root spans with the wall times the harness
    measured around each `run(argv)` call; returns the mismatches.

    Each call must leave exactly one root span, a `cli.run` span that fits
    inside the call's wall time, and the spans must cover all but
    ROOT_GAP_FRAC (plus 1 ms) of the summed walls: the harness's own work
    around a call is microseconds.
    """
    roots = reduction["roots"]
    names = [name for name, _ in roots]
    if names != ["cli.run"] * len(walls):
        return [f"root spans {len(names)} ({sorted(set(names))}) for "
                f"{len(walls)} run(argv) calls"]
    reasons = []
    for i, ((_, dur), wall) in enumerate(zip(roots, walls)):
        if dur > wall * 1e9 + 1e3:
            reasons.append(f"call {i}: cli.run span {dur / 1e6:.3f} ms "
                           f"exceeds its wall {wall * 1e3:.3f} ms")
    total = sum(walls) * 1e9
    gap = total - sum(dur for _, dur in roots)
    if gap > ROOT_GAP_FRAC * total + 1e6:
        reasons.append(f"cli.run spans miss {gap / 1e6:.3f} ms of "
                       f"{total / 1e6:.3f} ms of measured calls")
    return reasons
