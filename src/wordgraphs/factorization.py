"""Splitting words into alphabet-disjoint factors.

A split point of a word is a position after which no earlier symbol
reappears, so the prefix and suffix use disjoint alphabets.  Taking every
split point gives the finest disjoint factorization; its cardinality equals
the word graph's strong component count, and the boundaries are exactly the
graph's bridges.

Read as a set partition (see `words`), a canonical word has a split point
at j exactly when some blocks union to the prefix 1..j.  A partition is
irreducible when no proper subset of its blocks does, that is when its
word has no split point: `not split_points(word)`.
"""

from __future__ import annotations

from .words import Word


def split_points(word: Word) -> list[int]:
    """1-based positions where the prefix's alphabet is closed off.

    One left-to-right scan: position j splits the word exactly when the
    largest last-occurrence among the symbols seen so far is j itself.
    """
    last = {c: i for i, c in enumerate(word.letters, start=1)}
    out = []
    reach = 0
    for j, c in enumerate(word.letters[:-1], start=1):
        reach = max(reach, last[c])
        if reach == j:
            out.append(j)
    return out


def finest_disjoint_factorization(word: Word) -> tuple[tuple[int, ...], ...]:
    """Cut the word at every split point: its finest alphabet-disjoint factors."""
    bounds = (0, *split_points(word), word.length)
    return tuple(
        word.letters[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1)
    )
