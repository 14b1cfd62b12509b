"""Benchmark of the nijenhuis CLI: seeded workloads driven through run(argv).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed pass of CLI invocations generated from --seed
(workloads.py). The pass runs in-process through `nijenhuis.cli.run`, closed
loop, one invocation at a time, and is repeated until --seconds have passed;
every invocation of every pass goes through the correctness gate (gate.py).

--trace 0 prints the end-to-end metrics. The host's speed drifts by up to 2x
over seconds to minutes, so each call is timed against a gauge: a fixed
jet-like kernel of the benchmark's own (`gauge()`) runs just before and just
after it, and the call's time is its wall time over the mean of the two
gauge times, times GAUGE_REF_S. An
invocation's time is the median of that over its repeats, and a pass's time
the sum over its invocations:
  points_per_s       sample or grid points of a pass (accepted + rejected)
                     over the pass's time
  invocation_ms_p50  median over the pass's invocations of their time
  setup_s            median over fresh interpreters of the time from before
                     `import nijenhuis` until the CLI has parsed a pass's
                     argv and built its operators, relative to the
                     start-up gauge of probe.py run just before it
  peak_rss_mb        ru_maxrss of a fresh interpreter running one full pass
                     and the workload's large invocation (make_big)
  correct_frac       invocations passing the gate over invocations attempted
--trace 1 prints the per-layer metrics of layertrace.py from alternating
untraced and traced passes, and the per-n microseconds-per-call table.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics. The package is imported from src/ beside this directory;
without it the benchmark exits 2 before measuring anything.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from gate import DEFAULT_SEED, frozen_counts, judge_pass  # noqa: E402
from layertrace import LAYERS, TABLE, TABLE_NS, Tracer, check_roots  # noqa: E402
from workloads import WORKLOADS, make_big, make_pass  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
# Gauge time that one unit of gauge-relative time is reported as: the
# gauge's typical time on the 2-vCPU Xeon KVM guest the benchmark was tuned
# on, so figures there read close to plain wall time.
GAUGE_REF_S = 2e-3

END_TO_END = {
    "points_per_s": "1/s",
    "invocation_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "correct_frac": "ratio",
}


# -- running a pass -----------------------------------------------------------

def invoke(cli, argv) -> tuple:
    """One `run(argv)` call with standard output captured."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run(list(argv))
    except Exception:   # a crash fails the invocation, not the benchmark
        traceback.print_exc(file=sys.stderr)
        code = -1
    return code, buf.getvalue()


class _GaugeJet:
    """A 2-jet stand-in that shares no code with the package."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v = float(v)
        self.g = np.asarray(g, dtype=float)
        self.h = 0.5 * (h + h.T)

    def __mul__(self, o):
        outer = np.outer(self.g, o.g)
        return _GaugeJet(self.v * o.v, self.v * o.g + o.v * self.g,
                         self.v * o.h + o.v * self.h + outer + outer.T)

    def __add__(self, o):
        return _GaugeJet(self.v + o.v, self.g + o.g, self.h + o.h)


_A = _GaugeJet(0.5, [1.0, 0.0, 0.0], np.zeros((3, 3)))
_B = _GaugeJet(0.3, [0.0, 1.0, 0.0], np.zeros((3, 3)))


def gauge() -> float:
    """Seconds for a fixed jet-like workload: the host's current speed.

    Its mix of small-object churn and tiny numpy calls matches the package's
    jet engine, so it slows down with the host the way the CLI does, while
    no change to the package can change it.
    """
    t0 = time.perf_counter()
    for _ in range(100):
        _A * _B + _A
    return time.perf_counter() - t0


def run_pass(invocations, tracer=None, gauges=None) -> tuple:
    """Run a pass; returns [(exit code, output)] and wall seconds per call.

    With a `gauges` list, `gauge()` runs before each call and once after
    the last, and its seconds are appended: call i lies between gauges i
    and i + 1.
    """
    from nijenhuis import cli
    outcomes, walls = [], []
    clock = time.perf_counter
    for inv in invocations:
        if tracer is not None:
            tracer.current_n = inv.n
        if gauges is not None:
            gauges.append(gauge())
        t0 = clock()
        outcomes.append(invoke(cli, inv.argv))
        walls.append(clock() - t0)
    if gauges is not None:
        gauges.append(gauge())
    return outcomes, walls


class Tally:
    """Gate verdicts of every pass a run makes."""

    def __init__(self, workload, invocations, seed):
        self.invocations = invocations
        self.frozen = frozen_counts(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, outcomes):
        verdicts = judge_pass(self.invocations, outcomes, self.frozen)
        self.attempted += len(verdicts)
        for inv, v in zip(self.invocations, verdicts):
            if not v.ok:
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append(f"{inv.key}: {'; '.join(v.reasons)}")


# -- fresh interpreters -------------------------------------------------------

def probe(mode: str, workload: str, seed: int) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), mode, workload, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {mode} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            **{var: os.environ[var] for var in THREAD_VARS}}


# -- end-to-end run -----------------------------------------------------------

def measure(workload: str, seed: int, seconds: float) -> dict:
    invocations = make_pass(workload, seed)
    big = make_big(workload, seed)
    tally = Tally(workload, invocations, seed)
    points = sum(inv.points for inv in invocations)

    # One untimed pass lets lazy set-up finish; it is gated like the rest.
    outcomes, _ = run_pass(invocations)
    tally.add(outcomes)
    relative = [[] for _ in invocations]
    every, gauges = [], []
    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        pass_gauges = []
        outcomes, walls = run_pass(invocations, gauges=pass_gauges)
        tally.add(outcomes)
        for i, (rel, wall) in enumerate(zip(relative, walls)):
            rel.append(wall / (0.5 * (pass_gauges[i] + pass_gauges[i + 1])))
        every += walls
        gauges += pass_gauges
        passes += 1
        if time.perf_counter() >= deadline:
            break
    times = [statistics.median(rel) * GAUGE_REF_S for rel in relative]

    probe("setup", workload, seed)      # compiles bytecode; not timed
    setups = [probe("setup", workload, seed) for _ in range(SETUP_PROBES)]
    full = probe("pass", workload, seed)
    tally.attempted += full["attempted"]
    tally.failed += len(full["failed"])
    tally.reasons += [f"fresh-interpreter pass: {reason}"
                      for reason in full["failed"]]

    every.sort()
    metrics = {
        "points_per_s": points / sum(times),
        "invocation_ms_p50": statistics.median(times) * 1e3,
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "peak_rss_mb": full["peak_rss_mb"],
        "correct_frac": 1.0 - tally.failed / tally.attempted,
    }
    samples = {
        "points_per_s": f"{points} points per pass, {passes} timed passes",
        "invocation_ms_p50": f"{len(invocations)} invocations x {passes} "
                             f"repeats, median repeat each",
        "setup_s": f"{SETUP_PROBES} fresh interpreters",
        "peak_rss_mb": f"1 fresh interpreter, 1 pass + {big.key} "
                       f"({big.points} points)",
        "correct_frac": f"{tally.attempted} invocations",
    }
    raw = {"raw_call_ms_p50": statistics.median(every) * 1e3,
           "raw_call_ms_p90": every[int(0.9 * (len(every) - 1))] * 1e3,
           "gauge_ms_p50": statistics.median(gauges) * 1e3,
           "raw_setup_s_p50": statistics.median(p["wall_s"] for p in setups),
           "startup_gauge_ms_p50": statistics.median(p["gauge_s"]
                                                     for p in setups) * 1e3,
           "failed_frac": tally.failed / tally.attempted}
    return {"tally": tally, "metrics": metrics, "samples": samples,
            "raw": raw}


def report_e2e(workload, seed, seconds, result):
    print(f"workload {workload}  seed {seed}  seconds {seconds}")
    print("environment " + json.dumps(environment()))
    for name, value in result["metrics"].items():
        print(f"  {name:<18} {value:>14.6g} {END_TO_END[name]:<6} "
              f"({result['samples'][name]})")
    for name, value in result["raw"].items():
        print(f"  {name:<18} {value:>14.6g}")
    tally = result["tally"]
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": END_TO_END[name]}
                        for name, value in result["metrics"].items()}}


# -- traced run ---------------------------------------------------------------

def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    invocations = make_pass(workload, seed)
    tally = Tally(workload, invocations, seed)
    points = sum(inv.points for inv in invocations)
    tracer = Tracer()
    outcomes, _ = run_pass(invocations)
    tally.add(outcomes)

    untraced, traced = [], []
    reductions, span_faults = [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter_ns()
        outcomes, _ = run_pass(invocations)
        untraced.append(time.perf_counter_ns() - t0)
        tally.add(outcomes)

        tracer.reset()
        tracer.install()
        try:
            begin = time.perf_counter_ns()
            outcomes, walls = run_pass(invocations, tracer)
            end = time.perf_counter_ns()
        finally:
            tracer.uninstall()
        traced.append(end - begin)
        tally.add(outcomes)
        reductions.append(tracer.reduce(begin, end))
        span_faults += check_roots(reductions[-1], walls)
        if time.perf_counter() >= deadline:
            break

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-{seed}.jsonl", "w") as fh:
        for span in tracer.spans():
            fh.write(json.dumps(span) + "\n")
    return {"tally": tally, "points": points, "untraced": untraced,
            "traced": traced, "reductions": reductions,
            "span_faults": span_faults}


def per_layer(result) -> dict:
    """Per-layer metrics, each the median over the traced passes."""
    reds = result["reductions"]
    points = result["points"]

    def med(fn):
        return statistics.median(fn(r) for r in reds)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (med(lambda r: r["calls"].get(layer, 0)),
                                 "count")
        out[f"{layer}.self_ms"] = (
            med(lambda r: r["self_ns"].get(layer, 0) / 1e6), "ms")
        out[f"{layer}.us_per_call"] = (
            med(lambda r: r["incl_ns"].get(layer, 0) / 1e3
                / max(r["calls"].get(layer, 0), 1)), "us")
        out[f"{layer}.self_share"] = (
            med(lambda r: r["self_ns"].get(layer, 0) / r["wall_ns"]),
            "ratio")
    out["field.f_jet.calls_per_point"] = (
        med(lambda r: r["calls"].get("field.f_jet", 0) / points),
        "calls/point")
    out["jet.Jet2.allocs_per_point"] = (
        med(lambda r: r["counters"]["jet_allocs"] / points), "allocs/point")
    out["singularity.newton_iters_per_slice"] = (
        med(lambda r: r["counters"]["newton_iters"]
            / max(r["calls"].get("singularity.morse_reduce", 0), 1)),
        "iters/slice")
    out["report.accept_ratio"] = (
        med(lambda r: r["counters"]["sweep_accepted"]
            / max(r["counters"]["sweep_points"], 1)), "ratio")
    best_untraced = min(result["untraced"])
    best_traced = min(result["traced"])
    out["trace.wall_ms"] = (med(lambda r: r["wall_ns"] / 1e6), "ms")
    out["trace.untraced_wall_ms"] = (statistics.median(result["untraced"])
                                     / 1e6, "ms")
    out["trace.overhead_ms"] = ((best_traced - best_untraced) / 1e6, "ms")
    out["trace.overhead_frac"] = (
        (best_traced - best_untraced) / best_untraced, "ratio")
    out["trace.unattributed_ms"] = (
        med(lambda r: r["unattributed_ns"] / 1e6), "ms")
    out["trace.spans"] = (med(lambda r: r["spans"]), "count")
    for n in TABLE_NS:
        for layer, column in TABLE.items():
            out[f"n{n}.{column}.us_per_call"] = (med(
                lambda r: r["by_n"].get((layer, n), (0, 0))[1] / 1e3
                / max(r["by_n"].get((layer, n), (0, 0))[0], 1)), "us")
        out[f"n{n}.sweep_point.us_per_call"] = (med(
            lambda r: r["by_n"].get(("report.run_sweep", n), (0, 0))[1] / 1e3
            / max(r["counters"]["sweep_points_by_n"].get(n, 0), 1)), "us")
    return out


def report_traced(workload, seed, seconds, result):
    layers = per_layer(result)
    tally = result["tally"]
    faults = result["span_faults"]
    tally.reasons += [f"spans: {fault}" for fault in faults[:10]]
    print(f"workload {workload}  seed {seed}  seconds {seconds}  traced "
          f"passes {len(result['traced'])}")
    print("environment " + json.dumps(environment()))
    for name, (value, unit) in layers.items():
        if not name.startswith("n"):
            print(f"  {name:<40} {value:>14.6g} {unit}")
    print("inclusive us/call by n (0 where this workload does not run it):")
    columns = list(TABLE.values()) + ["sweep_point"]
    print("| n | " + " | ".join(columns) + " |")
    print("|---|" + "---:|" * len(columns))
    for n in TABLE_NS:
        cells = [f"{layers[f'n{n}.{c}.us_per_call'][0]:,.0f}"
                 for c in columns]
        print(f"| {n} | " + " | ".join(cells) + " |")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    return {"correct": tally.failed == 0 and not faults,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in layers.items()}}


# -- entry point --------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "nijenhuis" / "__init__.py").is_file():
        print(f"bench: package source {SRC / 'nijenhuis'} not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds)
        line = report_traced(args.workload, args.seed, args.seconds, result)
    else:
        result = measure(args.workload, args.seed, args.seconds)
        line = report_e2e(args.workload, args.seed, args.seconds, result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
