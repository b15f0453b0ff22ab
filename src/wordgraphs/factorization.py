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
    the next symbol first occurs past the furthest span end so far.  Every
    scan over the letters runs in C, so the Python loop is once per symbol.
    A tuple word takes its last occurrences from one dict of the letters; a
    byte word takes them from `bytes.rfind`, one call per symbol, ordered
    by `bytes.find`.  Each first occurrence then comes from `index`,
    resuming at the previous one.
    """
    letters = word._bytes
    if letters is None:
        letters = word.letters
        lasts = dict(zip(letters, range(1, len(letters) + 1)))
    else:
        order = sorted(range(word.alphabet_size), key=letters.find)
        lasts = {c: letters.rfind(c) + 1 for c in order}
    out = []
    reach = first = 0
    for c, last in lasts.items():
        first = letters.index(c, first)
        if first == reach and reach:
            out.append(reach)
        if last > reach:
            reach = last
    return out


def finest_disjoint_factorization(word: Word) -> tuple[tuple[int, ...], ...]:
    """Cut the word at every split point: its finest alphabet-disjoint factors."""
    letters = word.letters
    bounds = (0, *split_points(word), len(letters))
    return tuple(letters[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1))
