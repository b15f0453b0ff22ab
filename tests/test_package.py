"""The package's public surface: `__all__` and the names bound beside it,
the oldest Python that pyproject.toml admits, and what importing it costs.

A name dropped from a module but left in `__all__` breaks
`from wordgraphs import *`; a name imported into the package but left out
of `__all__` is public surface nobody declared.  Both fail here.  Every CLI
command starts a fresh interpreter, so a module that imports `dataclasses`,
`typing` or, at module level, `json` adds milliseconds to every command:
that fails here too, naming the file and line.
"""

import ast
import pathlib
import subprocess
import sys
import types

import wordgraphs


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
