"""Exact counts: Stirling numbers, strong-word counts, and brute-force oracles.

All counts are Python integers, so they stay exact at any size.  The
central quantity is the number of canonical words of a given length and
alphabet size whose graph is strongly connected; one transfer scan over
the positions counts them all, and multiplying by the factorial of the
alphabet size counts strong words across all labelings.  The paper's
recurrence over Stirling numbers of the second kind lives in `verify`,
which checks the scan against it.  The brute-force counters here
enumerate words and inspect graphs directly, giving a third, independent
check at desk scale.
"""

from __future__ import annotations

import math
import threading
from typing import Iterator

from .connectivity import scc_decomposition
from .factorization import split_points
from .graphs import Digraph, build_graph
from .words import Word, iter_canonical_words

DEFAULT_CAP = 10_000_000


class CapExceededError(ValueError):
    """The requested enumeration is larger than the configured cap."""


class ComponentMismatchError(RuntimeError):
    """A word's component count disagreed with its factorization cardinality."""


def _transfer_scan(length: int, alphabet_size: int) -> list[list[int]]:
    """T(l, n) for every l <= length and n <= alphabet_size, as columns[n][l].

    A set partition of the positions is a weighted Motzkin path whose height
    is the number of open blocks (Flajolet 1980).  A proper prefix that is a
    union of blocks is a return to height 0, which splits the word; so T
    counts the paths that touch 0 only at their two ends.  The scan walks
    the positions keeping the number of prefixes per state (k blocks opened,
    o of them still open).  Each position opens a singleton (k+1, o), opens
    a block that stays open (k+1, o+1), or, in o ways each, closes an open
    block (k, o-1) or continues one (k, o).  A close that reaches o = 0 at
    position p ends a strong word: it adds to T(p, k) and the path stops.
    """
    columns = [[0] * (length + 1) for _ in range(alphabet_size + 1)]
    # states[k][o] for 1 <= o <= k; index 0 is an unused zero.
    states = [[0] for _ in range(alphabet_size + 1)]
    # One block stays open until it closes at the end: k = 1 never changes.
    states[1] = [0, 1]
    columns[1][1:] = [1] * length
    for p in range(2, length + 1):
        # More open blocks than positions left can never all close.
        room = length - p
        # Descending k reads states[k - 1] before it is overwritten.
        for k in range(min(p, alphabet_size), 1, -1):
            top = min(k, room)
            same = states[k] + [0] * (top + 2 - len(states[k]))
            fewer = states[k - 1] + [0] * (top + 1 - len(states[k - 1]))
            columns[k][p] = same[1]
            states[k] = [0] + [
                o * same[o] + (o + 1) * same[o + 1] + fewer[o] + fewer[o - 1]
                for o in range(1, top + 1)
            ]
    return columns


class CountTable:
    """Stirling and strong-word counts, filled bottom-up without recursion.

    Column n holds S(l, n) and T(l, n) as lists indexed by the length l.
    T comes from one transfer scan that fills every cell up to the table's
    bounds; a request past them refills the table to the request's bounds.
    Thread-safe: the table is filled under a lock.  `seed_strong_count`
    overwrites a table cell and exists purely as a fault-injection hook for
    testing the verification harness; it has no legitimate production use.
    A seeded cell reads back after every refill, and no other cell derives
    from it.
    """

    def __init__(self) -> None:
        self._stirling: list[list[int]] = []
        # T(l, n) for l <= length and n <= alphabet size, as columns[n][l].
        self._strong: list[list[int]] = []
        self._bounds = (0, 0)
        self._seeds: dict[tuple[int, int], int] = {}
        self._lock = threading.RLock()

    def _grow_stirling(self, length: int, blocks: int) -> None:
        columns = self._stirling
        for n in range(blocks + 1):
            if n == len(columns):
                columns.append([1 if n == 0 else 0])
            column = columns[n]
            for l in range(len(column), length + 1):
                column.append(n * column[l - 1] + (columns[n - 1][l - 1] if n else 0))

    def _fill_strong(self, length: int, alphabet_size: int) -> None:
        filled_length, filled_alphabet = self._bounds
        if length <= filled_length and alphabet_size <= filled_alphabet:
            return
        # Not to the union of old and new bounds: after (L, 2) and (10, N),
        # that would cost an (L, N) scan that neither request asked for.
        self._strong = _transfer_scan(length, alphabet_size)
        self._bounds = (length, alphabet_size)
        for (l, n), value in self._seeds.items():
            if l <= length and n <= alphabet_size:
                self._strong[n][l] = value

    def stirling2(self, length: int, blocks: int) -> int:
        """Stirling number of the second kind."""
        if length < 0 or blocks < 0:
            raise ValueError("arguments must be non-negative")
        if blocks > length:
            return 0
        with self._lock:
            self._grow_stirling(length, blocks)
            return self._stirling[blocks][length]

    def strong_partition_count(self, length: int, alphabet_size: int) -> int:
        """Canonical words of `length` over exactly `alphabet_size` symbols
        whose graph is strongly connected; equivalently, partitions of the
        positions in which no proper subset of blocks fills a prefix.

        Read from the table that `_transfer_scan` fills.  Base cases, in
        order of precedence: nothing for non-positive length, one trivial
        word per length on a single symbol, nothing when the length does
        not exceed the alphabet size.
        """
        if alphabet_size <= 0:
            raise ValueError("alphabet size must be positive")
        if length <= 0:
            return 0
        if alphabet_size == 1:
            return 1
        if length <= alphabet_size:
            return 0
        with self._lock:
            self._fill_strong(length, alphabet_size)
            return self._strong[alphabet_size][length]

    def strong_word_count(self, length: int, alphabet_size: int) -> int:
        """Strongly connected words of `length` over `alphabet_size` labeled symbols."""
        partitions = self.strong_partition_count(length, alphabet_size)
        # Skip the factorial when there is nothing to label (l <= n, n >= 2).
        return partitions and math.factorial(alphabet_size) * partitions

    def family_cardinality(self, length: int, alphabet_size: int) -> int:
        """All exact-alphabet words of `length` over `alphabet_size` labeled symbols."""
        if not 1 <= alphabet_size <= length:
            raise ValueError("need 1 <= alphabet_size <= length")
        return math.factorial(alphabet_size) * self.stirling2(length, alphabet_size)

    def bell(self, length: int) -> int:
        """Set partitions of `length` elements: the canonical words of that length."""
        return sum(self.stirling2(length, n) for n in range(length + 1))

    def seed_strong_count(self, length: int, alphabet_size: int, value: int) -> None:
        """Overwrite one strong-count cell (fault-injection test hook).  The
        seed outlives later refills; base cases cannot be seeded."""
        if length > alphabet_size > 1:
            with self._lock:
                self._seeds[length, alphabet_size] = value
                self._fill_strong(length, alphabet_size)
                self._strong[alphabet_size][length] = value

    def rows(self, max_length: int, max_alphabet: int) -> Iterator[tuple[int, int, int, int, int]]:
        """(length, alphabet, stirling, strong partitions, strong words) per pair."""
        if max_length < 1 or max_alphabet < 1:
            raise ValueError("bounds must be at least 1")
        with self._lock:
            self._fill_strong(max_length, min(max_length, max_alphabet))
        for length in range(1, max_length + 1):
            for n in range(1, min(length, max_alphabet) + 1):
                yield (
                    length,
                    n,
                    self.stirling2(length, n),
                    self.strong_partition_count(length, n),
                    self.strong_word_count(length, n),
                )


_SHARED = CountTable()


def stirling2(length: int, blocks: int) -> int:
    return _SHARED.stirling2(length, blocks)


def bell(length: int) -> int:
    return _SHARED.bell(length)


def strong_partition_count(length: int, alphabet_size: int) -> int:
    return _SHARED.strong_partition_count(length, alphabet_size)


def strong_word_count(length: int, alphabet_size: int) -> int:
    return _SHARED.strong_word_count(length, alphabet_size)


def family_cardinality(length: int, alphabet_size: int) -> int:
    return _SHARED.family_cardinality(length, alphabet_size)


def _check_cap(length: int, cap: int | None) -> None:
    """Bell numbers never decrease, so stop at the first one past the cap
    rather than computing Bell(length) itself, which costs O(length^2)."""
    if cap is not None and any(_SHARED.bell(m) > cap for m in range(length + 1)):
        raise CapExceededError(f"enumerating length {length} means more words than the cap {cap}")


def _check_table_cap(length: int, alphabet_size: int, cap: int, rows: bool) -> None:
    """Refuse, before any work, a table fill whose estimated cost exceeds `cap`.

    The unit is one transfer-scan state update on small integers.  Each of
    the length * m cells (m = min(length, alphabet_size)) takes about m
    updates, and an update costs one more unit per 4096 bits of the largest
    count (counts average half that size over the scan).  Keeping a cell
    costs one unit per 64 bits, which bounds the table's memory.  With
    `rows`, every cell is also printed, and decimal conversion is quadratic
    in the size of its numbers.
    """
    m = min(length, alphabet_size)
    # No count in the table exceeds m^length, so none is longer than this.
    bits = length * (m - 1).bit_length()
    cells = length * m
    cost = cells * (m * (1 + bits // 4096) + bits // 64)
    if rows:
        cost += cells * (bits // 512) ** 2
    if cost > cap:
        raise CapExceededError(
            f"counting to length {length} over {m} symbols costs about {cost} steps, "
            f"more than the cap {cap}"
        )


def _strong_counts_by_alphabet(length: int) -> list[int]:
    """One exhaustive pass over all canonical words of `length`.

    Walks the restricted-growth-string tree keeping adjacency bitmasks
    updated in place, and tallies strongly connected leaves per alphabet
    size.  Strong connectivity is decided by bitset reachability from
    symbol 0 in both edge directions.
    """
    counts = [0] * (length + 1)
    adj = [0] * length
    radj = [0] * length

    def leaf_is_strong(n: int) -> bool:
        full = (1 << n) - 1
        for rows in (adj, radj):
            reach = 1
            frontier = 1
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    low = f & -f
                    nxt |= rows[low.bit_length() - 1]
                    f ^= low
                frontier = nxt & ~reach
                reach |= frontier
            if reach != full:
                return False
        return True

    def rec(pos: int, prev: int, used: int) -> None:
        if pos == length:
            if leaf_is_strong(used):
                counts[used] += 1
            return
        for c in range(used + 1):
            if c == prev:
                rec(pos + 1, c, used + (c == used))
            else:
                a0 = adj[prev]
                r0 = radj[c]
                adj[prev] = a0 | (1 << c)
                radj[c] = r0 | (1 << prev)
                rec(pos + 1, c, used + (c == used))
                adj[prev] = a0
                radj[c] = r0

    rec(1, 0, 1)
    return counts


_BRUTE_CACHE: dict[int, list[int]] = {}
_BRUTE_LOCK = threading.Lock()


def brute_force_strong_count(
    length: int, alphabet_size: int, cap: int | None = DEFAULT_CAP
) -> int:
    """Count strongly connected canonical words by exhaustive enumeration.

    Independent of the recurrence: every canonical word is generated and
    its graph checked.  Guarded by `cap` on the total number of canonical
    words of the length (pass None to lift the guard).
    """
    if not 1 <= alphabet_size <= length:
        raise ValueError("need 1 <= alphabet_size <= length")
    _check_cap(length, cap)
    with _BRUTE_LOCK:
        counts = _BRUTE_CACHE.get(length)
        if counts is None:
            counts = _strong_counts_by_alphabet(length)
            _BRUTE_CACHE[length] = counts
    return counts[alphabet_size]


def _sweep(length: int, alphabet_size: int) -> Iterator[tuple[Word, Digraph, int, int]]:
    """(word, graph, strong component count, factor count) per canonical word.

    The two counts are separate derivations, one from the graph's strong
    components and one from the word's split points; callers compare them.
    """
    for word in iter_canonical_words(length, alphabet_size):
        graph = build_graph(word)
        yield word, graph, scc_decomposition(graph).count, len(split_points(word)) + 1


def scc_histogram(
    length: int, alphabet_size: int, cap: int | None = DEFAULT_CAP
) -> dict[int, int]:
    """Canonical words bucketed by their graph's strong component count.

    Cross-checks every word on the way: the component count must equal the
    cardinality of the word's finest disjoint factorization.
    """
    if not 1 <= alphabet_size <= length:
        raise ValueError("need 1 <= alphabet_size <= length")
    _check_cap(length, cap)
    histogram: dict[int, int] = {}
    for word, _, components, factors in _sweep(length, alphabet_size):
        if components != factors:
            raise ComponentMismatchError(
                f"word {word.text()}: {components} components but {factors} factors"
            )
        histogram[components] = histogram.get(components, 0) + 1
    return dict(sorted(histogram.items()))


def csv_lines(max_length: int, max_alphabet: int, table: CountTable | None = None) -> list[str]:
    """Count-table rows in the interchange CSV form, header included."""
    table = table if table is not None else _SHARED
    lines = ["l,n,stirling,T,phi"]
    for length, n, s, t, phi in table.rows(max_length, max_alphabet):
        lines.append(f"{length},{n},{s},{t},{phi}")
    return lines
