import pytest

from wordgraphs.counting import stirling2
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
        # The stored alphabet size is not a field: only the letters compare.
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
