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

    Symbols are taken in order of first occurrence, each with the span from
    its first to its last occurrence.  A prefix is closed off exactly where
    the next symbol first occurs past the furthest span end so far.  The
    scans over the letters run in C (the dict of last occurrences and
    `tuple.index` resuming at the previous first occurrence), so the Python
    loop is once per symbol.
    """
    letters = word.letters
    out = []
    reach = first = 0
    for c, last in dict(zip(letters, range(1, len(letters) + 1))).items():
        first = letters.index(c, first)
        if first == reach and reach:
            out.append(reach)
        if last > reach:
            reach = last
    return out


def finest_disjoint_factorization(word: Word) -> tuple[tuple[int, ...], ...]:
    """Cut the word at every split point: its finest alphabet-disjoint factors."""
    bounds = (0, *split_points(word), word.length)
    return tuple(
        word.letters[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1)
    )
