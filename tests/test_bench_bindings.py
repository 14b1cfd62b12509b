"""The package names the benchmark harness binds by name.

`bench/layertrace.py` rebinds the package's traced callables by module and
attribute name, `bench/selftest.py` checks the rebinding of
`nijenhuis.torsion.operator_eval`, and `bench/probe.py` calls three CLI
helpers. A rename of any of them breaks only a traced benchmark run, so
these tests pin them. The tracer's hooks also read the results of
`run_sweep` and `morse_reduce`, so a traced run must behave like an
untraced one.
"""

import importlib.util
from pathlib import Path

import nijenhuis.cli as cli
import nijenhuis.field
import nijenhuis.torsion

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", BENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_layer_and_restores_it():
    layertrace = _layertrace()
    originals = {}
    for layer, (module, attr) in layertrace.LAYERS.items():
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        originals[layer] = owner
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert nijenhuis.torsion.operator_eval.__wrapped__ is \
            originals["field.operator_eval"]
        assert nijenhuis.field.ScalarField.__call__.__wrapped__ is \
            originals["field.f_jet"]
    finally:
        tracer.uninstall()
    assert nijenhuis.torsion.operator_eval is originals["field.operator_eval"]
    assert nijenhuis.field.ScalarField.__call__ is originals["field.f_jet"]


def test_probe_and_selftest_names_exist():
    for name in ("build_parser", "_build_context", "_field"):
        assert callable(getattr(cli, name)), name
    assert nijenhuis.torsion.operator_eval is nijenhuis.field.operator_eval


# one invocation per traced path: both sweep families, the pde sweep (a
# failing control, as in the benchmark), the normal-form grid and the FD
# oracle
TRACED_ARGV = [
    ("verify", "--family", "theorem1", "--n", "3",
     "--f", "y^3/3 + 0.2*y + sin(x1)*y + 0.5*x2*y^2 + x1*x2",
     "--check", "all", "--samples", "30"),
    ("verify", "--family", "diffnondeg", "--n", "3",
     "--sigma", "x1+0.1*y^2,x2+0.2*x1*y,y+0.1*x1*x2+0.3*x2^2",
     "--check", "all", "--samples", "12"),
    ("verify", "--family", "theorem1", "--n", "3",
     "--f", "y^2 + x1*y + x2", "--check", "pde", "--samples", "20"),
    ("morse-reduce", "--f", "y^3/10 + y^2 - 0.6*sin(x1)*y + x1*x2", "--n", "3",
     "--box", "-1", "1", "--samples", "4"),
    ("torsion", "--family", "theorem1", "--n", "3",
     "--f", "y^3/3 + 0.2*y + x1*y", "--fd-step", "1e-4",
     "--point", "0.1", "0.2", "0.5", "--point", "-0.3", "0.4", "0.8"),
]


def _runs(capsys):
    """Exit code and output lines but wall_ms of cli.run on TRACED_ARGV,
    through whatever `cli.run` is bound to now."""
    runs = []
    for argv in TRACED_ARGV:
        code = cli.run(list(argv))
        lines = capsys.readouterr().out.splitlines()
        runs.append((code, [ln for ln in lines if "wall_ms" not in ln]))
    return runs


def test_traced_runs_report_like_untraced_ones(capsys):
    untraced = _runs(capsys)
    tracer = _layertrace().Tracer()
    tracer.install()
    try:
        traced = _runs(capsys)
    finally:
        tracer.uninstall()
    assert [code for code, _ in untraced] == [0, 0, 1, 0, 0]
    for argv, got, want in zip(TRACED_ARGV, traced, untraced):
        assert got == want, argv
    counters = tracer.counters()
    assert counters["sweep_points"] > 0
    assert counters["newton_iters"] > 0


def test_only_the_diffnondeg_run_calls_the_jet_matrix_routines(capsys):
    # bench/selftest.py asserts that linalg.invert_with_det runs on
    # sweep-diffnondeg and on no other workload; the layer table binds
    # both routines by name, so inlining or renaming them fails here too
    tracer = _layertrace().Tracer()
    tracer.install()
    try:
        calls = []
        for argv in TRACED_ARGV:
            tracer.reset()
            cli.run(list(argv))
            calls.append(tracer.reduce(0, 0)["calls"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    routines = ("linalg.invert_with_det", "linalg.matmul")
    for argv, called in zip(TRACED_ARGV, calls):
        diffnondeg = "diffnondeg" in argv
        for name in routines:
            assert (called.get(name, 0) > 0) == diffnondeg, (argv, name)
