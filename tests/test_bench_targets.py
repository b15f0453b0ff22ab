"""The benchmark's tracer wraps wordgraphs functions by name; every name must resolve.

A traced benchmark run fails when a target is renamed or deleted, so this
catches a public-API change before the benchmark does.  The benchmark's
witness reader must also accept what `represent` prints, so a change to the
witness text fails here before it fails a benchmark run.
"""

import functools
import importlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from wordgraphs.cli import main

from test_golden import GRAPHS, json_form

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


@functools.cache
def load_workloads():
    """bench/workloads.py, which imports its neighbours from bench/."""
    bench = str(TRACING.parent)
    spec = importlib.util.spec_from_file_location("bench_workloads", bench + "/workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    sys.path.insert(0, bench)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(bench)
    return module


def bench_strong_graph():
    """A `words`-shaped graph of 30 symbols, whose labels include two-digit ids."""
    workloads = load_workloads()
    letters = workloads.canonical(workloads.strong_letters(random.Random(1), 300, 30))
    name = functools.partial(workloads.name, symbols=30)
    edges = {(name(u), name(v)) for u, v in zip(letters, letters[1:]) if u != v}
    return workloads.graph_json([name(c) for c in range(30)], edges)


@pytest.mark.parametrize("name", [*sorted(GRAPHS), "bench-strong-30"])
def test_bench_walk_reader_accepts_represent_output(name, tmp_path, capsys):
    doc = json_form(GRAPHS[name]) if name in GRAPHS else bench_strong_graph()
    path = tmp_path / "graph.json"
    path.write_text(doc, encoding="utf-8")
    code = main(["represent", "--input", str(path)])
    graph = json.loads(doc)
    edges = {tuple(e) for e in graph["edges"]}
    out = (code, capsys.readouterr().out)
    assert load_workloads().check_walk(graph["vertices"], edges, out) is None
