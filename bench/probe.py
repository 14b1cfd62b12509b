"""Fresh-interpreter probes for set-up time and peak memory.

    python3 bench/probe.py setup WORKLOAD SEED
        times, from before `import nijenhuis` until the CLI has parsed the
        argv of every invocation of one pass and built its operators (no
        point evaluated), and prints that time as JSON, raw and relative
        to the start-up gauge run just before it
    python3 bench/probe.py pass WORKLOAD SEED
        runs one full pass plus the workload's large invocation in-process
        and prints failed invocations and ru_maxrss in MiB as JSON

The parent starts these with the thread-count variables of the numeric
libraries set to 1 and the package's `src` directory on PYTHONPATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from workloads import make_big, make_pass

# Gauge time that one unit of gauge-relative set-up time is reported as:
# the start-up gauge's typical time on the 2-vCPU Xeon KVM guest the
# benchmark was tuned on, so set-up figures there read close to seconds.
STARTUP_GAUGE_REF_S = 17.5e-3


def startup_gauge() -> float:
    """Seconds for a fixed pure-Python kernel: the host's current speed.

    It allocates and walks some megabytes of fresh small objects, as the
    imports and module execution of set-up do, so a host phase that slows
    memory-bound start-up slows it too. It imports nothing and runs before
    the package is imported, so no change to the package can change it.
    """
    t0 = time.perf_counter()
    data = [(i, str(i), [i]) for i in range(20000)]
    sum(len(s) for _, s, _ in data)
    del data
    return time.perf_counter() - t0


def build(invocations) -> None:
    """Import the package and let the CLI parse each argv and build what it
    names: the operator context, or for `morse-reduce` the field f."""
    from nijenhuis import cli
    parser = cli.build_parser()
    for inv in invocations:
        args = parser.parse_args(list(inv.argv))
        if args.command == "morse-reduce":
            cli._field(args.f, args.n)
        else:
            cli._build_context(args)


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    invocations = make_pass(workload, seed)
    if mode == "setup":
        gauge = startup_gauge()
        t0 = time.perf_counter()
        build(invocations)
        wall = time.perf_counter() - t0
        print(json.dumps({"setup_s": wall / gauge * STARTUP_GAUGE_REF_S,
                          "wall_s": wall, "gauge_s": gauge}))
        return 0
    from gate import frozen_counts, judge_pass
    from run import run_pass
    invocations.append(make_big(workload, seed))
    outcomes, _walls = run_pass(invocations)
    verdicts = judge_pass(invocations, outcomes,
                          frozen_counts(workload, seed))
    failed = [f"{inv.key}: {'; '.join(v.reasons)}"
              for inv, v in zip(invocations, verdicts) if not v.ok]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"failed": failed, "attempted": len(invocations),
                      "peak_rss_mb": rss_kib / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
