"""Differential tests for the layers that scan a word's letters.

`parse_word`, `letters_text`, `build_graph` and `split_points` run their
scans inside C builtins: over the tuple of a word built from one, and over
the bytes of a word built from bytes, which `parse_word` gives whenever the
alphabet fits in a byte.  Each is compared here, in both forms, with the
definition it implements, written out letter by letter in this file and
sharing no code with wordgraphs, on words up to 2,000 letters whose ids
need not be canonical, on `check -` of 300k-letter words, and on token
words at 255, 256 and 257 distinct ids, either side of the byte form.  The
byte and tuple forms' graphs are also compared with the pairs met letter by
letter at alphabets either side of 15 and 30 symbols, where the byte form's
pair passes give way to the `zip` that tuple words take.
`check` cuts its word's text once, and its factors= and bridges= lines are
compared with each factor rendered on its own by `letters_text`.
"""

import contextlib
import io
import itertools
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from wordgraphs.cli import main  # noqa: E402
from wordgraphs.factorization import finest_disjoint_factorization, split_points  # noqa: E402
from wordgraphs.graphs import build_graph  # noqa: E402
from wordgraphs.represent import synthesize_word  # noqa: E402
from wordgraphs.words import EmptyWordError, InvalidWordError, Word, letters_text, parse_word  # noqa: E402

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
    # Up to 320 symbols, so some words have no byte form.
    chunk = st.tuples(st.integers(1, 40), st.integers(1, 400))
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


def both_forms(word):
    """The word as built from its tuple and, when its ids fit in a byte, from bytes."""
    if word.alphabet_size > 256:
        return [word]
    return [word, Word(bytes(word.letters))]


@settings(max_examples=150, deadline=None)
@given(words())
def test_split_points_close_off_disjoint_alphabets(word):
    for form in both_forms(word):
        assert split_points(form) == split_oracle(word.letters)


@settings(max_examples=150, deadline=None)
@given(words())
def test_build_graph_has_one_edge_per_distinct_adjacent_pair(word):
    for form in both_forms(word):
        graph = build_graph(form)
        assert graph.vertices == frozenset(word.letters)
        assert graph.edges == walk_edges(word.letters)


@settings(max_examples=150, deadline=None)
@given(words())
def test_byte_and_tuple_forms_are_one_word(word):
    for form in both_forms(word)[1:]:
        assert type(form.letters) is tuple and form.letters == word.letters
        assert form == word and hash(form) == hash(word) and repr(form) == repr(word)
        assert form.alphabet_size == word.alphabet_size and form.text() == word.text()
        assert split_points(form) == split_points(word)
        assert finest_disjoint_factorization(form) == finest_disjoint_factorization(word)
        assert build_graph(form) == build_graph(word)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 256), st.integers(0, 600), st.integers(0, 2**32 - 1))
# Words of 1 and 2 letters, then alphabets either side of one and two groups
# of 15 symbols and of the byte form's 256.
@example(1, 0, 0)
@example(1, 1, 0)
@example(2, 0, 0)
@example(1, 3, 1)
@example(2, 6, 2)
@example(15, 45, 15)
@example(16, 48, 16)
@example(30, 90, 30)
@example(31, 93, 31)
@example(255, 765, 255)
@example(256, 768, 256)
def test_byte_pairs_match_the_tuple_scan(alphabet_size, extra, seed):
    """Every id once plus `extra` random ids, shuffled, so ids first occur in
    any order; both forms' graphs against the pairs met letter by letter.
    Past 30 symbols both forms take one `zip`, so comparing them with each
    other would test nothing."""
    rng = random.Random(seed)
    letters = list(range(alphabet_size)) + [rng.randrange(alphabet_size) for _ in range(extra)]
    rng.shuffle(letters)
    letters = tuple(letters)
    for form in (bytes(letters), letters):
        graph = build_graph(Word(form))
        assert graph.vertices == frozenset(range(alphabet_size))
        assert graph.edges == walk_edges(letters)


def test_a_30_symbol_word_has_every_ordered_pair():
    # Each u, u, v adds a repeat and the pair (u, v); the seams add more pairs.
    letters = [c for u in range(30) for v in range(30) for c in (u, u, v)]
    graph = build_graph(Word(bytes(letters)))
    assert graph.edges == {(u, v) for u in range(30) for v in range(30) if u != v}
    assert graph.edges == walk_edges(letters)


@pytest.mark.parametrize("letters", [(), (0, 2), (1, 1), (0, 1, 3, 3)])
def test_byte_and_tuple_forms_reject_alike(letters):
    errors = []
    for given in (letters, bytes(letters)):
        with pytest.raises((EmptyWordError, InvalidWordError)) as info:
            Word(given)
        errors.append((info.type, str(info.value)))
    assert errors[0] == errors[1]


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


def cut_oracle(vertices, edges, bridges):
    """The fewest edges whose removal disconnects the underlying multigraph,
    an antiparallel pair counting twice; None for one vertex."""
    if len(vertices) == 1:
        return None
    if not undirected_connected(vertices, edges):
        return 0
    if bridges:
        return 1
    # No single edge disconnects, so a vertex of degree 2 is a minimum cut.
    degree = {v: 0 for v in vertices}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    if min(degree.values()) == 2:
        return 2
    assert len(vertices) <= 16, "too many vertices to try every side of a cut"
    first, *rest = sorted(vertices)
    return min(
        sum((u in side) != (v in side) for u, v in edges)
        for r in range(len(rest))
        for side in map({first}.union, itertools.combinations(rest, r))
    )


def report_oracle(letters, alphabet_size):
    """Exit code and fields of `check` on the canonical form of `letters`,
    each field from the oracles above."""
    letters = list(canonical_letters(letters))
    vertices = set(letters)
    edges = walk_edges(letters)
    reach = {u: reachable(edges, u) for u in vertices}
    components = {frozenset(v for v in reach[u] if u in reach[v]) for u in vertices}
    cuts = split_oracle(letters)
    bounds = [0, *cuts, len(letters)]
    factors = [letters[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1)]
    assert len(components) == len(factors)
    bridges = sorted(e for e in edges if not undirected_connected(vertices, edges - {e}))
    cut = cut_oracle(vertices, edges, bridges)
    names = [text_oracle([c], alphabet_size) for c in range(alphabet_size)]
    strong = len(components) == 1
    return 0 if strong else 1, {
        "word": text_oracle(letters, alphabet_size),
        "strong": "true" if strong else "false",
        "weak": "false" if cut == 0 else "true",
        "lambda": "n/a" if cut is None else str(cut),
        "bridges": ";".join(f"{names[u]}->{names[v]}" for u, v in bridges),
        "factors": "|".join(text_oracle(f, alphabet_size) for f in factors),
        "k": str(len(factors)),
        "sccs": str(len(components)),
    }


def check_stdin(monkeypatch, capsys, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n"))
    code = main(["check", "-"])
    out, err = capsys.readouterr()
    assert err == ""
    return code, dict(line.split("=", 1) for line in out.splitlines())


@pytest.mark.parametrize(
    "parts, symbols_per_part",
    [pytest.param(4, 5, id="5"), pytest.param(4, 12, id="12"), pytest.param(1, 12, id="strong12")],
)
def test_check_on_a_300k_letter_word(monkeypatch, capsys, parts, symbols_per_part):
    """Strong parts over disjoint alphabets, each a closed walk: the report
    is read field by field against the oracles above.  A one-part word is
    strong, so `check` builds its graph and computes lambda."""
    rng = random.Random(symbols_per_part)
    letters = []
    for part in range(parts):
        base = part * symbols_per_part
        body = [base + c for c in range(symbols_per_part)]
        body += [base + rng.randrange(symbols_per_part) for _ in range(300_000 // parts - symbols_per_part - 1)]
        letters += body + [base]
    alphabet_size = parts * symbols_per_part
    expected = report_oracle(letters, alphabet_size)
    assert expected[1]["k"] == str(parts)
    assert check_stdin(monkeypatch, capsys, text_oracle(letters, alphabet_size)) == expected


@pytest.mark.parametrize("strong", [True, False])
@pytest.mark.parametrize("alphabet_size", [255, 256, 257])
def test_check_either_side_of_the_byte_form(monkeypatch, capsys, alphabet_size, strong):
    """Token words with shuffled ids and leading zeros: up to 256 distinct
    ids `parse_word` builds the word from bytes, past that from a tuple.
    The strong word's first symbol occurs only at its two ends, so it has
    degree 2; the other word is two strong parts joined by one seam."""
    rng = random.Random(alphabet_size)
    ids = list(range(alphabet_size))
    rng.shuffle(ids)
    if strong:
        letters = ids + [rng.choice(ids[1:]) for _ in range(300)] + ids[:1]
    else:
        half = alphabet_size // 2
        left, right = ids[:half], ids[half:]
        letters = left + [rng.choice(left) for _ in range(150)] + left[:1]
        letters += right + [rng.choice(right) for _ in range(150)] + right[:1]
    text = ",".join("0" * rng.randrange(3) + str(c) for c in letters)
    assert (parse_word(text)._bytes is None) == (alphabet_size > 256)
    expected = report_oracle(letters, alphabet_size)
    assert expected[1]["strong"] == str(strong).lower()
    assert check_stdin(monkeypatch, capsys, text) == expected


@st.composite
def chunked_texts(draw):
    """The text of a word over 1-26, 27-256 or 257-320 symbols: chunks over
    runs of their own symbols, each chunk every one of its symbols in a
    shuffled order and then more of them.  With `overlap` a chunk may also
    draw its predecessor's highest symbol, which closes the split point
    between them when it does."""
    low, high = draw(st.sampled_from([(1, 26), (27, 256), (257, 320)]))
    total = draw(st.integers(low, high))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    overlap = draw(st.booleans())
    ends = sorted(rng.sample(range(1, total), min(total - 1, draw(st.integers(0, 5)))))
    letters, base = [], 0
    for end in [*ends, total]:
        ids = list(range(base, end))
        rng.shuffle(ids)
        first = base - 1 if overlap and base else base
        letters += ids + [rng.randrange(first, end) for _ in range(rng.randrange(2 * len(ids)))]
        base = end
    return text_oracle(letters, total), total


@settings(max_examples=150, deadline=None)
@given(chunked_texts())
def test_check_cuts_its_text_as_each_factor_renders(case):
    """`check` cuts the text of its word once; its factors= and bridges=
    lines must read as each factor of `finest_disjoint_factorization`
    rendered on its own, on letter words, byte words and tuple words."""
    text, alphabet_size = case
    word = parse_word(text)
    assert word.alphabet_size == alphabet_size
    assert (word._bytes is None) == (alphabet_size > 256)
    factors = finest_disjoint_factorization(word)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["check", text])
    fields = dict(line.split("=", 1) for line in out.getvalue().splitlines())
    assert fields["factors"] == "|".join(letters_text(f, alphabet_size) for f in factors)
    assert fields["bridges"] == ";".join(
        f"{letters_text(f[-1:], alphabet_size)}->{letters_text(g[:1], alphabet_size)}"
        for f, g in zip(factors, factors[1:])
    )
