"""The package names the benchmark harness binds by name.

`bench/layertrace.py` rebinds the package's traced callables by module and
attribute name, `bench/selftest.py` checks the rebinding of
`nijenhuis.torsion.operator_eval`, and `bench/probe.py` calls three CLI
helpers. A rename of any of them breaks only a traced benchmark run, so
these tests pin them.
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
