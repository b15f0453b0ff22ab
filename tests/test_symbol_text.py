"""Symbol text: the one syntax the CLI writes symbols in, and reads back.

A symbol id is written `a`-`z` for alphabets of up to 26 symbols and in
decimal beyond.  `letters_text` is the one writer; `letter_labeled`
and `check`'s `bridges=` line go through it.  The rule is written out here
once more, as the oracle.  `represent` prints a witness that `check` reads
back: it runs lowercase letters together and joins any other labels with
commas.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from wordgraphs.cli import main  # noqa: E402
from wordgraphs.graphs import build_graph, letter_labeled  # noqa: E402
from wordgraphs.words import Word, letters_text, parse_word  # noqa: E402

from brute import canonical_letters, walk_edges  # noqa: E402


def name_oracle(i, n):
    return chr(97 + i) if n <= 26 else str(i)


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_one_symbol_text_matches_the_rule():
    for n in range(1, 301):
        for i in range(n):
            assert letters_text((i,), n) == name_oracle(i, n)
            if n <= 256:
                assert letters_text(bytes([i]), n) == name_oracle(i, n)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=200), st.booleans())
def test_letter_labeled_names_every_vertex_by_the_rule(raw, as_bytes):
    letters = canonical_letters(raw)
    n = max(letters) + 1
    word = Word(bytes(letters) if as_bytes else letters)
    graph = letter_labeled(build_graph(word))
    assert graph.vertices == {name_oracle(i, n) for i in range(n)}
    assert graph.edges == {(name_oracle(u, n), name_oracle(v, n)) for u, v in walk_edges(letters)}


@pytest.mark.parametrize("part", [3, 10, 100])
def test_check_names_bridge_ends_by_the_rule(part):
    # Three strong factors of `part` symbols each, every one ending on its
    # second symbol: 9 symbols as letters, 30 as a byte word, 300 as a tuple.
    factors = [[*range(b, b + part), b, b + 1] for b in range(0, 3 * part, part)]
    letters = [c for f in factors for c in f]
    n = 3 * part
    text = ("" if n <= 26 else ",").join(name_oracle(c, n) for c in letters)
    code, out, err = cli("check", text)
    assert (code, err) == (1, "")
    bridges = ";".join(
        f"{name_oracle(f[-1], n)}->{name_oracle(g[0], n)}" for f, g in zip(factors, factors[1:])
    )
    assert f"bridges={bridges}" in out.splitlines()
    assert "k=3" in out.splitlines()


def represent(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc))
        return cli("represent", "--input", path)


@pytest.mark.parametrize(
    "doc, witness",
    [
        ({"vertices": ["0", "1", "2"], "edges": [["0", "1"], ["1", "2"], ["2", "0"]]}, "0,1,2,0"),
        ({"vertices": ["0120"], "edges": []}, "0120"),
        ({"vertices": ["A", "B"], "edges": [["A", "B"], ["B", "A"]]}, "A,B,A"),
        ({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}, "abca"),
    ],
)
def test_only_lowercase_letters_run_together(doc, witness):
    assert represent(doc) == (0, witness + "\n", "")


def test_decimal_witness_reads_back_through_check():
    doc = {"vertices": ["0", "1", "2"], "edges": [["0", "1"], ["1", "2"], ["2", "0"]]}
    _, out, _ = represent(doc)
    # `check` names the three symbols by letters; the run-together text is one symbol.
    assert cli("check", out.strip())[1].splitlines()[:2] == ["word=abca", "strong=true"]
    assert cli("check", "0120")[1].splitlines()[0] == "word=a"


def walks_on(k):
    """One to three walks over the ids 0..k; their union may not be representable."""
    return st.lists(st.lists(st.integers(0, k), min_size=1), min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(walks_on))
def test_decimal_witness_parses_to_its_graph(walks):
    vertices = {str(c) for walk in walks for c in walk}
    edges = {(str(a), str(b)) for walk in walks for a, b in walk_edges(walk)}
    doc = {"vertices": sorted(vertices), "edges": sorted(map(list, edges))}
    code, out, err = represent(doc)
    if code == 1:
        return
    assert (code, err) == (0, "")
    text = out.removesuffix("\n")
    tokens = text.split(",")
    assert parse_word(text).alphabet_size == len(vertices)
    assert set(tokens) == vertices
    assert set(walk_edges(tokens)) == edges
