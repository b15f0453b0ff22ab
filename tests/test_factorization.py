import itertools

from wordgraphs.connectivity import strongly_connected
from wordgraphs.factorization import finest_disjoint_factorization, split_points
from wordgraphs.graphs import build_graph
from wordgraphs.words import iter_canonical_words, parse_word


def position_blocks(word):
    """The set partition of a word's 1-based positions: one block per symbol."""
    out = [set() for _ in range(word.alphabet_size)]
    for pos, c in enumerate(word.letters, start=1):
        out[c].add(pos)
    return out


def irreducible_oracle(blocks):
    """Try every proper non-empty subset of blocks against every prefix."""
    length = sum(len(b) for b in blocks)
    for r in range(1, len(blocks)):
        for combo in itertools.combinations(blocks, r):
            union = set().union(*combo)
            if union == set(range(1, len(union) + 1)) and len(union) < length:
                return False
    return True


class TestSplitPoints:
    def test_examples(self):
        assert split_points(parse_word("abcb")) == [1]
        assert split_points(parse_word("abca")) == []
        assert split_points(parse_word("aabc")) == [2, 3]

    def test_matches_alphabet_disjointness(self):
        # A split at j means the prefix and suffix share no symbols.
        for length in range(1, 8):
            for n in range(1, length + 1):
                for w in iter_canonical_words(length, n):
                    expected = [
                        j
                        for j in range(1, length)
                        if not set(w.letters[:j]) & set(w.letters[j:])
                    ]
                    assert split_points(w) == expected


class TestFinestFactorization:
    def test_examples(self):
        factors = finest_disjoint_factorization(parse_word("abcb"))
        assert factors == ((0,), (1, 2, 1))
        assert len(factors) == 2

        assert len(finest_disjoint_factorization(parse_word("abab"))) == 1
        assert finest_disjoint_factorization(parse_word("abc")) == (
            (0,),
            (1,),
            (2,),
        )

    def test_factor_properties(self):
        for length in range(1, 8):
            for n in range(1, length + 1):
                for w in iter_canonical_words(length, n):
                    factors = finest_disjoint_factorization(w)
                    assert sum(factors, ()) == w.letters
                    alphabets = [set(factor) for factor in factors]
                    for a, b in itertools.combinations(alphabets, 2):
                        assert not a & b
                    # Finest: no factor splits further.
                    for factor in factors:
                        last = {c: i for i, c in enumerate(factor, start=1)}
                        reach = 0
                        for j, c in enumerate(factor[:-1], start=1):
                            reach = max(reach, last[c])
                            assert reach != j


class TestIrreducible:
    """A partition is irreducible exactly when its canonical word has no split point."""

    def test_matches_subset_oracle(self):
        for length in range(1, 7):
            for n in range(1, length + 1):
                for w in iter_canonical_words(length, n):
                    assert (not split_points(w)) == irreducible_oracle(position_blocks(w))

    def test_irreducible_iff_strong(self):
        for length in range(1, 7):
            for n in range(1, length + 1):
                for w in iter_canonical_words(length, n):
                    strong = strongly_connected(build_graph(w))
                    assert irreducible_oracle(position_blocks(w)) == strong
                    assert (not split_points(w)) == strong
