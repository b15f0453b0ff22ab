"""The package's public surface: `__all__` and the names bound beside it,
the oldest Python that pyproject.toml admits, and what importing it costs.

A name dropped from a module but left in `__all__` breaks
`from wordgraphs import *`; a name imported into the package but left out
of `__all__` is public surface nobody declared.  Both fail here.  Every CLI
command starts a fresh interpreter, so a module that imports `dataclasses`,
`typing` or, at module level, `json` adds milliseconds to every command:
that fails here too, naming the file and line.  Every immutable value
class must pickle and copy, and a new one without a sample here fails.
"""

import ast
import copy
import importlib
import os
import pathlib
import pickle
import subprocess
import sys
import types

import pytest

import wordgraphs
from wordgraphs.words import _Frozen


def test_every_exported_name_resolves_once():
    assert len(wordgraphs.__all__) == len(set(wordgraphs.__all__))
    for name in wordgraphs.__all__:
        assert hasattr(wordgraphs, name), name
    namespace: dict = {}
    exec("from wordgraphs import *", namespace)
    assert set(wordgraphs.__all__) <= set(namespace)


def test_every_public_name_is_exported():
    public = {
        name
        for name, value in vars(wordgraphs).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(wordgraphs.__all__)


SOURCES = sorted(pathlib.Path(wordgraphs.__file__).parent.glob("*.py"))


def test_sources_parse_as_the_oldest_supported_python():
    # pyproject.toml says requires-python = ">=3.10"; newer syntax fails here
    # even when the suite runs on a later interpreter.
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


# Modules whose import costs milliseconds: dataclasses pulls in inspect, ast,
# dis and tokenize.  json is read only when a graph is serialized.
NEVER_IMPORTED = {"dataclasses", "inspect", "typing"}
IMPORTED_ON_USE = {"json"}


def imports(tree: ast.Module):
    """(line, top-level module, inside a function) for each absolute import."""
    in_functions = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            yield node.lineno, name.partition(".")[0], id(node) in in_functions


def test_no_module_imports_what_every_command_would_pay_for():
    found = [
        f"{path.name}:{line} imports {module}"
        for path in SOURCES
        for line, module, in_function in imports(ast.parse(path.read_text(encoding="utf-8")))
        if module in NEVER_IMPORTED or (module in IMPORTED_ON_USE and not in_function)
    ]
    assert not found, found


# Runs in `python -I -S`: without `site`, no .pth hook preloads a module.
IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
watched = set(sys.argv[2:])
import wordgraphs
print(sorted(watched & set(sys.modules)))
import wordgraphs.cli
print(sorted(watched & set(sys.modules)))
wordgraphs.to_json(wordgraphs.build_graph(wordgraphs.parse_word("abca")))
print(sorted(watched & set(sys.modules)))
"""


def test_import_loads_no_costly_module():
    src = pathlib.Path(wordgraphs.__file__).parents[1]
    watched = sorted(NEVER_IMPORTED | IMPORTED_ON_USE)
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", IMPORT_PROBE, str(src), *watched],
        capture_output=True, text=True, timeout=60, check=True,
    )
    package, cli, serialized = result.stdout.splitlines()
    assert package == "[]"
    assert cli == "[]"
    assert serialized == "['json']"


# One sample per `_Frozen` subclass, by qualified name.
ABCB = wordgraphs.build_graph(wordgraphs.parse_word("abcb"))
SAMPLES = {
    "words.Word": [wordgraphs.Word((0, 1, 0)), wordgraphs.parse_word("aba")],
    "graphs.Digraph": [ABCB, wordgraphs.letter_labeled(ABCB)],
    "connectivity.SccDecomposition": [wordgraphs.scc_decomposition(ABCB)],
    "connectivity.Condensation": [wordgraphs.condensation(ABCB)],
}


def frozen_classes():
    """Every subclass of `_Frozen`, at any depth, once every module is loaded."""
    for path in SOURCES:
        if path.stem not in ("__init__", "__main__"):  # __main__ would run the CLI
            importlib.import_module(f"wordgraphs.{path.stem}")
    found, todo = [], [_Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return found


CLONES = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
def test_every_frozen_class_round_trips_and_stays_frozen(clone):
    names = {f"{c.__module__.rpartition('.')[2]}.{c.__qualname__}" for c in frozen_classes()}
    assert names == SAMPLES.keys(), "each _Frozen subclass needs a sample here"
    for sample in (value for values in SAMPLES.values() for value in values):
        twin = clone(sample)
        assert type(twin) is type(sample) and twin == sample, sample
        assert repr(twin) == repr(sample)
        with pytest.raises(AttributeError):
            setattr(twin, type(twin).__slots__[0], None)


def test_repr_is_the_same_under_every_hash_seed():
    # String labels iterate in hash order; the repr sorts every set it prints.
    probe = (
        "import wordgraphs as w; "
        "print(repr(w.letter_labeled(w.build_graph(w.parse_word('abcb')))))"
    )
    expected = (
        "Digraph(vertices=frozenset({'a', 'b', 'c'}), "
        "edges=frozenset({('a', 'b'), ('b', 'c'), ('c', 'b')}))\n"
    )
    for seed in ("0", "2", "9", "23"):
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=60, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert result.stdout == expected, seed


PYPROJECT = pathlib.Path(__file__).parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_runs_after():
    pass
"""


def test_a_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    # Under this configuration's warning filters, the report of a falsified
    # property must not abort the session before later tests run.
    probe = tmp_path / "test_probe.py"
    probe.write_text(FAILING_PROPERTY, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout
