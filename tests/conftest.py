"""Child interpreters started by the tests import the wordgraphs the tests
import, whether it was found through PYTHONPATH or pytest's `pythonpath`."""

import os

import pytest

import wordgraphs


@pytest.fixture(autouse=True, scope="session")
def children_import_the_same_wordgraphs():
    src = os.path.dirname(os.path.dirname(os.path.abspath(wordgraphs.__file__)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield
