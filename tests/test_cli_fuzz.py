"""The CLI exit-code contract under arbitrary input, fuzzed with hypothesis.

`cli.main` runs in process with its streams captured by `redirect_stdout`
and `redirect_stderr`, since hypothesis rejects function-scoped fixtures
such as capsys.  Standard input is empty, so a fuzzed word `-` reads an
empty word instead of waiting on a terminal.  Whatever the input, main
returns 0, 1 or 2 (and 3 for `verify`) without raising, and writes nothing
to stderr unless it returns 2.

`count`, `table` and `histogram` sizes are drawn without an upper limit,
with and without a small `--cap`: the scan's cost model refuses a large
request before any work starts.  So does `verify`'s cap on the words it
enumerates, so its sizes are drawn without an upper limit whenever a
small `--cap` is; without one, `--max-length` stays at 6, since the
default cap admits length 12, which takes minutes.  An integer argument is
either a number or text that `int()` rejects.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from wordgraphs.cli import main  # noqa: E402

from brute import walk_edges  # noqa: E402

FUZZ = settings(max_examples=60, deadline=None)

keys = st.sampled_from(["vertices", "edges", "x"]) | st.text(max_size=3)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(keys, children, max_size=3),
    max_leaves=16,
)


@st.composite
def graph_documents(draw):
    """A well-formed graph document on up to 8 arbitrary string labels.

    Edges come from a walk over the labels, so many graphs are
    representable, plus a few arbitrary extra edges.
    """
    labels = draw(
        st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=8, unique=True)
    )
    n = len(labels)
    walk = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3 * n))
    pairs = walk_edges(walk)
    pairs |= draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    edges = [[labels[a], labels[b]] for a, b in sorted(pairs) if a != b]
    return {"vertices": labels, "edges": edges}


def parses_as_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


def non_integer_text(max_size=4):
    return st.text(max_size=max_size).filter(lambda text: not parses_as_int(text))


# Half the draws are small, so that many commands get past the work bound.
any_size = st.integers(-3, 60) | st.integers(min_value=-3)


def int_arg(cap=None):
    """An integer argument from -3 up to `cap` (any size when None) or, one
    time in four, short text that is not one: with text as often as numbers,
    most draws of several arguments would stop at argument parsing."""
    numbers = any_size if cap is None else st.integers(-3, cap)
    as_text = st.sampled_from([False, False, False, True])
    return as_text.flatmap(lambda text: non_integer_text() if text else numbers.map(str))


def optional(flag, values):
    """No flag, or the flag with one drawn value."""
    return st.just([]) | values.map(lambda value: [flag, value])


caps = st.integers(-5, 10**4).map(str) | non_integer_text()
seed_counts = st.lists(
    st.integers(-3, 8).map(str) | non_integer_text(3), max_size=4
).map(":".join)


def run(argv, codes=(0, 1, 2)):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with mock.patch("sys.stdin", io.StringIO()):
            code = main(argv)
    assert code in codes
    if code != 2:
        assert err.getvalue() == ""
    return code


@FUZZ
@given(
    st.one_of(
        json_values.map(json.dumps),
        graph_documents().map(json.dumps),
        st.text(max_size=40),
    )
)
@example("[" * 200_000)
@example('{"vertices":["a,b","c",""],"edges":[["a,b","c"],["c",""],["","a,b"]]}')
@example('{"vertices":["a\\nb","c"],"edges":[["a\\nb","c"],["c","a\\nb"]]}')
def test_represent_keeps_the_contract(document):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.json")
        # Lone surrogates go to the file as invalid UTF-8, an input error too.
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as handle:
            handle.write(document)
        run(["represent", "--input", path])


@FUZZ
@given(st.text(max_size=12), st.sampled_from([[], ["--verbose"]]))
def test_check_keeps_the_contract(text, flags):
    run(["check", text, *flags])


@FUZZ
@given(st.text(max_size=12), st.sampled_from(["dot", "json"]))
def test_build_keeps_the_contract(text, fmt):
    run(["build", text, "--format", fmt])


@FUZZ
@given(int_arg(), int_arg(), st.sampled_from([[], ["--partitions"]]), optional("--cap", caps))
@example("60", "20", ["--partitions"], [])
@example("2000", "100", [], [])
@example(str(10**30), "1", [], ["--cap", "0"])
def test_count_keeps_the_contract(length, alphabet, flags, cap):
    run(["count", "--length", length, "--alphabet", alphabet, *flags, *cap], codes=(0, 2))


@FUZZ
@given(int_arg(), int_arg(), optional("--cap", caps))
@example("30", "30", [])
@example("2000", "100", [])
@example(str(10**9), "1", ["--cap", "100"])
def test_table_keeps_the_contract(max_length, max_alphabet, cap):
    run(["table", "--max-length", max_length, "--max-alphabet", max_alphabet, *cap], codes=(0, 2))


@FUZZ
@given(int_arg(), int_arg(), optional("--cap", caps))
@example("8", "4", [])
@example("8", "4", ["--cap", "100"])
@example("400", "20", [])
@example(str(10**9), "1", [])
def test_histogram_keeps_the_contract(length, alphabet, flags):
    run(["histogram", "--length", length, "--alphabet", alphabet, *flags], codes=(0, 2))


# A --cap of at most 10**4 admits lengths up to 8 (Bell(8) = 4140).
verify_sizes = st.tuples(int_arg(6), st.just([])) | st.tuples(
    int_arg(), caps.map(lambda cap: ["--cap", cap])
)


@FUZZ
@given(
    verify_sizes,
    optional("--max-alphabet", int_arg()),
    optional("--seed-count", seed_counts),
    st.sampled_from([[], ["--verbose"]]),
)
@example(("6", []), [], [], ["--verbose"])
@example(("6", ["--cap", "10000"]), ["--max-alphabet", "3"], ["--seed-count", "5:3:8"], [])
@example(("400", ["--cap", "1000"]), [], [], [])
@example((str(10**30), ["--cap", "10000"]), ["--max-alphabet", str(10**30)], [], [])
def test_verify_keeps_the_contract(size, max_alphabet, seed_count, verbose):
    (max_length, cap), flags = size, [*max_alphabet, *seed_count, *verbose]
    run(["verify", "--max-length", max_length, *cap, *flags], codes=(0, 2, 3))
