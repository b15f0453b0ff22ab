"""The package's public surface: `__all__` and the names bound beside it,
and the oldest Python that pyproject.toml admits.

A name dropped from a module but left in `__all__` breaks
`from wordgraphs import *`; a name imported into the package but left out
of `__all__` is public surface nobody declared.  Both fail here.
"""

import ast
import pathlib
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


def test_sources_parse_as_the_oldest_supported_python():
    # pyproject.toml says requires-python = ">=3.10"; newer syntax fails here
    # even when the suite runs on a later interpreter.
    sources = sorted(pathlib.Path(wordgraphs.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
