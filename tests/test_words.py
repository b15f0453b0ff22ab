import itertools
import pickle
import tracemalloc

import pytest

from wordgraphs.counting import stirling2
from wordgraphs.graphs import Digraph, build_graph
from wordgraphs.words import (
    EmptyWordError,
    InvalidWordError,
    Word,
    iter_canonical_words,
    parse_word,
)

from brute import all_words


def ids_first_occur_in_order(word):
    """True when ids first occur in increasing order (restricted growth)."""
    high = -1
    for c in word.letters:
        if c > high + 1:
            return False
        high = max(high, c)
    return True


class TestParse:
    def test_first_occurrence_ids(self):
        w = parse_word("abca")
        assert w.letters == (0, 1, 2, 0)
        assert w.length == 4
        assert w.alphabet_size == 3
        # The stored alphabet size is not compared: only the letters are.
        assert w == Word((0, 1, 2, 0)) and hash(w) == hash(Word((0, 1, 2, 0)))
        assert repr(w) == "Word(letters=(0, 1, 2, 0))"

    def test_trivial_word(self):
        assert parse_word("aa").letters == (0, 0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyWordError):
            parse_word("")

    def test_letters_relabel_by_first_occurrence(self):
        assert parse_word("bacb").letters == (0, 1, 2, 0)
        assert parse_word("bacb").text() == "abca"

    def test_comma_separated_ids(self):
        assert parse_word("0,1,2,0").letters == (0, 1, 2, 0)
        assert parse_word("5,3,5").letters == (0, 1, 0)
        assert parse_word("7").letters == (0,)
        # Decimal ids: leading zeros do not make a new id.
        assert parse_word("1,01,001").letters == (0, 0, 0)
        assert parse_word("0,00,10").letters == (0, 0, 1)

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("ab c", "unsupported character ' ' at position 2", id="ab c"),
            pytest.param("ABC", "unsupported character 'A' at position 0", id="ABC"),
            pytest.param("a-b", "unsupported character '-' at position 1", id="a-b"),
            pytest.param("a,b", "unsupported character ',' at position 1", id="a,b"),
            pytest.param("1,a", "unsupported character 'a' at position 2", id="1,a"),
            pytest.param(",", "malformed token list: empty token at position 0", id=","),
            pytest.param("1,,2", "malformed token list: empty token at position 2", id="1,,2"),
            pytest.param("12,", "malformed token list: empty token at position 3", id="12,"),
        ],
    )
    def test_unsupported_text(self, text, message):
        with pytest.raises(InvalidWordError) as info:
            parse_word(text)
        assert str(info.value) == message

    def test_text_round_trip(self):
        for w in all_words(4, 4, Word):
            c = parse_word(w.text())
            assert parse_word(c.text()) == c

    def test_large_alphabet_text_uses_commas(self):
        letters = tuple(range(27)) + (0,)
        w = Word(letters)
        assert w.text() == ",".join(str(c) for c in letters)
        assert parse_word(w.text()) == w


class TestWordInvariants:
    def test_ids_must_be_dense(self):
        with pytest.raises(InvalidWordError):
            Word((0, 2))
        with pytest.raises(InvalidWordError):
            Word((1, 1))

    def test_dense_error_names_one_missing_id(self):
        with pytest.raises(InvalidWordError) as info:
            Word(tuple(range(1, 1_000_001)))
        assert str(info.value) == "symbol ids must be exactly 0..999999, but 0 is missing"

    def test_empty_letters(self):
        with pytest.raises(EmptyWordError):
            Word(())


# A word in both forms: built from a tuple, and from bytes as `parse_word` builds it.
BOTH_FORMS = [
    pytest.param(lambda: Word((0, 1, 0)), id="tuple"),
    pytest.param(lambda: Word(b"\x00\x01\x00"), id="bytes"),
]


class TestWordValue:
    @pytest.mark.parametrize("make", BOTH_FORMS)
    def test_attributes_cannot_change(self, make):
        word = make()
        for name in ("letters", "_bytes", "_alphabet_size", "unknown"):
            with pytest.raises(AttributeError):
                setattr(word, name, (0,))
            with pytest.raises(AttributeError):
                delattr(word, name)
        assert word.letters == (0, 1, 0) and word.alphabet_size == 2

    def test_equal_only_to_words(self):
        assert Word((0, 1)) != (0, 1)
        assert (0, 1) != Word((0, 1))
        assert Word((0, 1)).__eq__((0, 1)) is NotImplemented

    def test_both_forms_hash_alike(self):
        tuple_form, byte_form = Word((0, 1, 0)), Word(b"\x00\x01\x00")
        assert hash(tuple_form) == hash(byte_form) == hash(((0, 1, 0),))
        assert len({tuple_form, byte_form}) == 1

    @pytest.mark.parametrize("make", BOTH_FORMS)
    def test_pickle_keeps_the_form(self, make):
        word = make()
        copy = pickle.loads(pickle.dumps(word))
        assert copy == word and copy._bytes == word._bytes and copy.alphabet_size == 2

    def test_a_parsed_byte_word_keeps_only_its_bytes(self):
        word = parse_word("abcab" * 1000)
        twin = Word(word.letters)
        # The byte form leaves its `letters` slot empty; the tuple form fills it.
        with pytest.raises(AttributeError):
            object.__getattribute__(word, "letters")
        assert object.__getattribute__(twin, "letters") is twin.letters
        assert word._bytes is not None and twin._bytes is None
        assert type(word.letters) is tuple and word.letters == twin.letters
        assert word.length == len(word.letters) == twin.length == 5000
        assert word == twin and hash(word) == hash(twin) and repr(word) == repr(twin)
        copy = pickle.loads(pickle.dumps(word))
        assert copy == twin and copy._bytes == word._bytes
        with pytest.raises(AttributeError, match="unknown"):
            word.unknown


class TestCanonicalize:
    """`parse_word(w.text())` is the canonical form of every word."""

    def test_relabels_by_first_occurrence(self):
        assert parse_word(Word((1, 0, 2, 1)).text()) == Word((0, 1, 2, 0))

    def test_idempotent_exhaustive(self):
        assert ids_first_occur_in_order(Word((0, 1, 2, 0)))
        assert not ids_first_occur_in_order(Word((1, 0, 2, 1)))
        for w in all_words(5, 4, Word):
            c = parse_word(w.text())
            assert ids_first_occur_in_order(c)
            assert parse_word(c.text()) == c

    def test_preserves_shape(self):
        for w in all_words(5, 4, Word):
            c = parse_word(w.text())
            assert c.length == w.length
            assert c.alphabet_size == w.alphabet_size
            for i in range(w.length):
                for j in range(w.length):
                    same = w.letters[i] == w.letters[j]
                    assert same == (c.letters[i] == c.letters[j])


class TestIteration:
    def test_explicit_small_family(self):
        words = [w.text() for w in iter_canonical_words(3, 2)]
        assert words == ["aab", "aba", "abb"]

    def test_all_distinct_is_unique(self):
        for n in range(1, 6):
            words = list(iter_canonical_words(n, n))
            assert words == [Word(tuple(range(n)))]
        # Far beyond the recursion limit: enumeration is iterative.
        assert list(iter_canonical_words(1500, 1500)) == [Word(tuple(range(1500)))]
        assert list(iter_canonical_words(1500, 1)) == [Word((0,) * 1500)]

    def test_counts_match_stirling(self):
        for length in range(1, 11):
            for n in range(1, length + 1):
                count = sum(1 for _ in iter_canonical_words(length, n))
                assert count == stirling2(length, n), (length, n)

    def test_lexicographic_and_unique(self):
        for length in range(1, 9):
            for n in range(1, length + 1):
                words = [w.letters for w in iter_canonical_words(length, n)]
                assert words == sorted(set(words)), (length, n)

    def test_short_length_is_empty(self):
        assert list(iter_canonical_words(2, 3)) == []

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            list(iter_canonical_words(0, 1))
        with pytest.raises(ValueError):
            list(iter_canonical_words(3, 0))


def restricted_growth_words(length, n):
    """Every id tuple of `length` whose ids first occur in order and number
    exactly n, in lexicographic order, by filtering a product.  Letter j of
    such a tuple is at most j, so the product bounds position j by j + 1
    choices; the filter alone decides which tuples stay."""
    for letters in itertools.product(*(range(min(j + 1, n)) for j in range(length))):
        top = -1
        for c in letters:
            if c > top + 1:
                break
            top = max(top, c)
        else:
            if top + 1 == n:
                yield letters


def test_enumeration_matches_a_filtered_product():
    for length in range(1, 9):
        for n in range(1, length + 1):
            words = list(iter_canonical_words(length, n))
            assert [w.letters for w in words] == list(restricted_growth_words(length, n))
            for w in words:
                # The enumerator skips the constructor's checks; the values
                # it builds must be the ones the constructor would.
                twin = Word(w.letters)
                assert w == twin and hash(w) == hash(twin) and w.alphabet_size == n
                for form in (w, parse_word(w.text())):
                    g = build_graph(form)
                    assert g == Digraph(g.vertices, g.edges)


def test_enumeration_keeps_one_word_of_memory():
    # The walk holds a constant number of length-sized lists and tuples; a
    # stack of prefixes would grow as the square of the length.
    tracemalloc.start()
    try:
        words = iter_canonical_words(3000, 2)
        first, second = next(words), next(words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.letters == (0,) * 2999 + (1,)
    assert second.letters == (0,) * 2998 + (1, 0)
    assert peak < 1_000_000
