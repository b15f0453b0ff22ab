"""The benchmark's tracer wraps wordgraphs functions by name; every name must resolve.

A traced benchmark run fails when a target is renamed or deleted, so this
catches a public-API change before the benchmark does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    for module_name, attr in tracing.TARGETS:
        module = importlib.import_module(f"wordgraphs.{module_name}")
        if "." in attr:
            # A method, wrapped on its class as Tracer.install does.
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(module, cls_name))[method]), attr
        else:
            assert callable(getattr(module, attr)), attr
    names = {f"{m}.{a}" for m, a in tracing.TARGETS}
    assert tracing.GENERATORS <= names
    assert tracing.BRUTE_FORCE in names
