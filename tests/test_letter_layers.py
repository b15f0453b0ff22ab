"""Differential tests for the layers that scan a word letter by letter.

`parse_word`, `letters_text`, `build_graph` and `split_points` run their
per-letter passes inside C builtins.  Each is compared here with the
definition it implements, written out letter by letter in this file and
sharing no code with wordgraphs, on words up to 2,000 letters whose ids
need not be canonical, and on one 300k-letter `check -`.
"""

import io
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from wordgraphs.cli import main  # noqa: E402
from wordgraphs.factorization import split_points  # noqa: E402
from wordgraphs.graphs import build_graph  # noqa: E402
from wordgraphs.represent import synthesize_word  # noqa: E402
from wordgraphs.words import Word, letters_text, parse_word  # noqa: E402

from brute import canonical_letters, reachable, undirected_connected, walk_edges  # noqa: E402

MAX_LENGTH = 2_000


def random_letters(rng, chunks, overlap):
    """Chunks of random letters, each over its own run of symbols, then the
    ids shuffled so that they no longer first occur in order.  With
    `overlap` a chunk may also draw its predecessor's highest symbol, which
    closes the split point between them when it does."""
    letters = []
    base = 0
    for symbols, length in chunks:
        first = base - 1 if overlap and base else base
        letters += [rng.randrange(first, base + symbols) for _ in range(length)]
        base += symbols
    used = sorted(set(letters))
    names = list(range(len(used)))
    rng.shuffle(names)
    rename = dict(zip(used, names))
    return [rename[c] for c in letters]


@st.composite
def words(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    chunk = st.tuples(st.integers(1, 12), st.integers(1, 400))
    chunks = draw(st.lists(chunk, min_size=1, max_size=8))
    letters = random_letters(rng, chunks, draw(st.booleans()))[:MAX_LENGTH]
    # Truncation can drop a symbol; renumber densely, keeping the shuffle.
    dense = {c: i for i, c in enumerate(sorted(set(letters)))}
    word = Word(tuple(dense[c] for c in letters))
    if draw(st.booleans()):
        # The synthesized witness indexes sorted vertices: its own id order.
        word = synthesize_word(build_graph(word))
    return word


def split_oracle(letters):
    """Positions j where letters[:j] and letters[j:] share no symbol: their
    alphabets are disjoint exactly when their sizes add up to the whole."""
    whole = len(set(letters))
    prefix, seen = [], set()
    for c in letters:
        seen.add(c)
        prefix.append(len(seen))
    suffix, seen = [], set()
    for c in reversed(letters):
        seen.add(c)
        suffix.append(len(seen))
    suffix.reverse()
    return [j for j in range(1, len(letters)) if prefix[j - 1] + suffix[j] == whole]


def text_oracle(letters, alphabet_size):
    if alphabet_size <= 26:
        return "".join(chr(ord("a") + c) for c in letters)
    return ",".join(str(c) for c in letters)


@settings(max_examples=150, deadline=None)
@given(words())
def test_split_points_close_off_disjoint_alphabets(word):
    assert split_points(word) == split_oracle(word.letters)


@settings(max_examples=150, deadline=None)
@given(words())
def test_build_graph_has_one_edge_per_distinct_adjacent_pair(word):
    graph = build_graph(word)
    assert graph.vertices == frozenset(word.letters)
    assert graph.edges == walk_edges(word.letters)


@pytest.mark.parametrize("alphabet_size", [1, 25, 26, 27, 28, 300])
def test_text_round_trips_on_both_sides_of_26_symbols(alphabet_size):
    rng = random.Random(alphabet_size)
    ids = list(range(alphabet_size))
    rng.shuffle(ids)
    letters = tuple(ids + [rng.randrange(alphabet_size) for _ in range(500)])
    text = letters_text(letters, alphabet_size)
    assert text == text_oracle(letters, alphabet_size)
    assert parse_word(text).letters == canonical_letters(letters)
    if alphabet_size > 26:
        # Decimal ids: leading zeros name the same symbol.
        padded = ",".join("0" * rng.randrange(3) + str(c) for c in letters)
        assert parse_word(padded).letters == canonical_letters(letters)


def test_leading_zero_tokens_name_one_symbol():
    assert parse_word("01,1,002").letters == (0, 0, 1)
    assert parse_word("002,01,1,2,0,000").letters == (0, 1, 1, 0, 2, 2)


@pytest.mark.parametrize("symbols_per_part", [5, 12])
def test_check_on_a_300k_letter_word(monkeypatch, capsys, symbols_per_part):
    """Four strong parts over disjoint alphabets, each a closed walk: its
    report is read field by field against the oracles above."""
    rng = random.Random(symbols_per_part)
    letters = []
    for part in range(4):
        base = part * symbols_per_part
        body = [base + c for c in range(symbols_per_part)]
        body += [base + rng.randrange(symbols_per_part) for _ in range(75_000 - symbols_per_part - 1)]
        letters += body + [base]
    alphabet_size = 4 * symbols_per_part
    text = text_oracle(letters, alphabet_size)
    monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n"))
    code = main(["check", "-"])
    out, err = capsys.readouterr()
    fields = dict(line.split("=", 1) for line in out.splitlines())

    vertices = set(letters)
    edges = walk_edges(letters)
    reach = {u: reachable(edges, u) for u in vertices}
    components = {frozenset(v for v in reach[u] if u in reach[v]) for u in vertices}
    cuts = split_oracle(letters)
    bounds = [0, *cuts, len(letters)]
    factors = [letters[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1)]
    bridges = sorted(e for e in edges if not undirected_connected(vertices, edges - {e}))
    names = [text_oracle([c], alphabet_size) for c in range(alphabet_size)]

    assert (code, err) == (1, "")
    assert len(components) == len(factors) == 4
    assert fields == {
        "word": text,
        "strong": "false",
        "weak": "true",
        "lambda": "1",
        "bridges": ";".join(f"{names[u]}->{names[v]}" for u, v in bridges),
        "factors": "|".join(text_oracle(f, alphabet_size) for f in factors),
        "k": "4",
        "sccs": "4",
    }
