"""Rewrite expected_counts.json: accepted/rejected per invocation at the
default seed, from one pass of every workload and its large invocation
against the current package.

    python3 bench/freeze.py

The gate compares default-seed runs with these counts, so run this only
when a change to the package is meant to change which points are accepted.
"""

from __future__ import annotations

import json
import sys

from run import SRC, run_pass
from gate import DEFAULT_SEED, EXPECTED, judge_pass
from workloads import WORKLOADS, make_big, make_pass


def main() -> int:
    sys.path.insert(0, str(SRC))
    counts = {}
    for workload in WORKLOADS:
        invocations = make_pass(workload, DEFAULT_SEED)
        invocations.append(make_big(workload, DEFAULT_SEED))
        outcomes, _ = run_pass(invocations)
        verdicts = judge_pass(invocations, outcomes)
        bad = [f"{inv.key}: {v.reasons}"
               for inv, v in zip(invocations, verdicts) if not v.ok]
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        counts[workload] = {inv.key: [v.accepted, v.rejected]
                            for inv, v in zip(invocations, verdicts)}
    with open(EXPECTED, "w") as fh:
        fh.write("{\n" + ",\n".join(
            f"  {json.dumps(w)}: {{\n" + ",\n".join(
                f"    {json.dumps(k)}: {json.dumps(c)}" for k, c in v.items())
            + "\n  }" for w, v in counts.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
