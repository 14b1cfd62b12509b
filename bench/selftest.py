"""Self-test of the benchmark harness at tiny sizes (about 30 s).

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)

Smoke-runs every workload through the gate and the tracer, checks that the
gate flags tampered expectations, that BENCHMARK.json names exactly the
metrics the harness prints, and that the benchmark refuses to run without
the package source.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from gate import judge, judge_pass  # noqa: E402
from layertrace import LAYERS, Tracer, check_roots  # noqa: E402
from workloads import WORKLOADS, make_big, make_pass  # noqa: E402

SCALE = 0.15
SEED = 7


def _traced_pass(workload):
    invocations = make_pass(workload, SEED, SCALE)
    invocations.append(make_big(workload, SEED, SCALE))
    tracer = Tracer()
    tracer.install()
    try:
        begin = run.time.perf_counter_ns()
        outcomes, walls = run.run_pass(invocations, tracer)
        end = run.time.perf_counter_ns()
    finally:
        tracer.uninstall()
    return invocations, outcomes, walls, tracer.reduce(begin, end)


def test_smoke_every_workload_passes_gate_and_trace():
    import nijenhuis.field
    import nijenhuis.torsion
    original = nijenhuis.torsion.operator_eval
    for workload in WORKLOADS:
        invocations, outcomes, walls, red = _traced_pass(workload)
        for inv, v in zip(invocations, judge_pass(invocations, outcomes)):
            assert v.ok, (workload, inv.key, v.reasons)
        assert not check_roots(red, walls), workload
        # spans that miss measured call time, or a call without its span
        assert check_roots(red, [2 * w + 0.01 for w in walls])
        assert check_roots(red, walls + [0.0])
        calls = red["calls"]
        assert calls["cli.run"] == len(invocations)
        assert (calls.get("linalg.invert_with_det", 0) > 0) == (
            workload == "sweep-diffnondeg"), workload
        assert (calls.get("torsion.fd_oracle", 0) > 0) == (
            workload == "fd-oracle"), workload
        assert red["counters"]["jet_allocs"] > 0
    # uninstall restores every binding the tracer replaced
    assert nijenhuis.torsion.operator_eval is original
    assert nijenhuis.field.operator_eval is original
    assert not hasattr(nijenhuis.field.ScalarField.__call__, "__wrapped__")


def test_gate_flags_tampered_expectations():
    invocations = make_pass("sweep-regular", SEED, SCALE)
    outcomes, _ = run.run_pass(invocations)
    verdicts = judge_pass(invocations, outcomes)
    assert all(v.ok for v in verdicts)
    control, positive, csv_run = invocations[0], invocations[1], invocations[2]
    assert control.expect_exit == 1 and csv_run.fmt == "csv"
    (c_code, c_text), (p_code, p_text) = outcomes[0], outcomes[1]

    # a negative control is correct only when it exits 1
    assert not judge(dataclasses.replace(control, expect_exit=0),
                     c_code, c_text).ok
    assert not judge(control, 0, c_text).ok
    # wrong exit code, point count, frozen counts, non-finite residual
    assert not judge(positive, 1, p_text).ok
    assert not judge(dataclasses.replace(positive, points=positive.points
                                         + 1), p_code, p_text).ok
    v = verdicts[1]
    assert judge(positive, p_code, p_text,
                 frozen=[v.accepted, v.rejected]).ok
    assert not judge(positive, p_code, p_text,
                     frozen=[v.accepted + 1, v.rejected - 1]).ok
    report = json.loads(p_text)
    report["checks"][0]["max"] = math.nan
    assert not judge(positive, p_code, json.dumps(report)).ok
    # a residual above tolerance under a pass flag, and a dropped check
    report = json.loads(p_text)
    report["checks"][1]["max"] = 1.0
    assert not judge(positive, p_code, json.dumps(report)).ok
    report = json.loads(p_text)
    report["checks"].pop()
    assert not judge(positive, p_code, json.dumps(report)).ok
    # a CSV run must carry as many rows as its JSON twin accepted
    twin = dataclasses.replace(v, accepted=v.accepted + 1)
    assert not judge(csv_run, outcomes[2][0], outcomes[2][1], twin=twin).ok
    lines = outcomes[2][1].splitlines()
    assert not judge(csv_run, 0, "\n".join(lines[:-1]) + "\n",
                     twin=v).ok


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    _, _, _, red = _traced_pass("fd-oracle")
    result = {"reductions": [red], "points": 1, "untraced": [1],
              "traced": [2]}
    layers = run.per_layer(result)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in layers.items()}
    assert all(f"{layer}.calls" in layers for layer in LAYERS)


def test_setup_probe_builds_through_the_cli():
    for workload in WORKLOADS:
        out = run.probe("setup", workload, SEED)
        assert out["setup_s"] > 0 and out["wall_s"] > 0, (workload, out)


def test_refuses_to_run_without_package_source():
    bare = BENCH.parent / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload",
             "fd-oracle", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
