"""Exact counts: Stirling numbers, strong-word counts, and a brute-force oracle.

All counts are Python integers, so they stay exact at any size.  One
transfer scan over the positions counts canonical words by length, alphabet
size and number of strong components.  The strong words are the
one-component bucket, and multiplying by the factorial of the alphabet size
counts them across all labelings.  The paper's recurrence over Stirling
numbers of the second kind lives in `verify`, which checks the scan against
it.  The brute-force counter here enumerates words and decides strong
connectivity on adjacency bitsets, a third, independent check at desk
scale.  No graph code runs here.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from operator import add, mul

DEFAULT_CAP = 10_000_000


class CapExceededError(ValueError):
    """The requested enumeration or scan is larger than the configured cap."""


def _transfer_scan(length: int, alphabet_size: int, components: int = 1) -> list[list[list[int]]]:
    """Canonical words with l <= length letters, n <= alphabet_size symbols
    and c <= components strong components, as columns[c][n][l].

    A set partition of the positions is a weighted Motzkin path whose height
    is the number of open blocks (Flajolet 1980).  A proper prefix that is a
    union of blocks is a return to height 0, which splits the word, so each
    return ends one strong component and columns[1] holds T(l, n).  The scan
    walks the positions keeping per state (c components begun, k blocks
    opened) P(B), the sum of s[o] B^o over prefixes with o blocks open.  A
    position opens a singleton, opens a block that stays open, or, in o ways
    each, closes or continues an open block: P becomes (1 + B)(P' + Q), Q
    being row k - 1 with its complete words (o = 0) replaced by component
    c - 1's, since a new block after a complete word begins a component.

    Rows are kept in powers of u = 1 + B, where (1 + B) d/dB maps u^m to
    m u^m and 1 + B is a shift: new[m] = m b[m] + q[m - 1], one multiply and
    one add per entry.  At m = 0 both terms vanish, so row k holds b[1..k].
    The complete words, P at B = 0 (u = 1), are the row's sum.
    """
    # columns[0] is zero (every word has a component); its rows share a list.
    columns = [[[0] * (length + 1)] * (alphabet_size + 1)]
    columns += [[[0] * (length + 1) for _ in range(alphabet_size + 1)] for _ in range(components)]
    # Per c: rows b[1..k], columns c - 1 and c, and the k below the least
    # one updated (component c needs c blocks; k = 1 is seeded).
    layers = [
        ([[0] * k for k in range(alphabet_size + 1)], columns[c - 1], columns[c], c - 1 or 1)
        for c in range(1, components + 1)
    ]
    # k = 1 is one block, open until the last letter: P = 1 + B = u, fixed.
    layers[0][0][1] = [1]
    columns[1][1][1:] = [1] * length
    multipliers = range(1, alphabet_size + 1)
    for q, p in enumerate(range(2, length + 1), 1):
        high = min(p, alphabet_size)
        for row, below, column, low in layers:
            # Descending k reads row[k - 1] before it is overwritten; Q
            # differs from it only in the complete words, at u^0.
            for k in range(high, low, -1):
                adjust = below[k - 1][q] - column[k - 1][q]
                row[k] = new = [*map(add, map(mul, multipliers, row[k]), [adjust, *row[k - 1]])]
                column[k][p] = sum(new)
    return columns


class CountTable:
    """Stirling and strong-word counts, filled bottom-up without recursion.

    Column n holds S(l, n) and T(l, n) as lists indexed by the length l.
    T comes from one transfer scan that fills every cell up to the table's
    bounds; a request past them refills the table to the request's bounds.
    Thread-safe: the table is filled under a lock.  `seed_strong_count`
    records a value that reads in place of one cell and exists purely as a
    fault-injection hook for testing the verification harness; it has no
    legitimate production use.  Seeds are kept apart from the scan's
    columns, so a seeded cell reads back after every refill, and no other
    cell derives from it.
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
        # Every fill reaches columns 0..n alike, so column lengths never
        # increase with n: start after the last column that reaches length.
        start = min(blocks + 1, len(columns))
        while start and len(columns[start - 1]) <= length:
            start -= 1
        for n in range(start, blocks + 1):
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
        self._strong = _transfer_scan(length, alphabet_size)[1]
        self._bounds = (length, alphabet_size)

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

        Read from the table that `_transfer_scan` fills, or from the cell's
        seed (see `seed_strong_count`).  Base cases, in
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
            return self._seeds.get((length, alphabet_size), self._strong[alphabet_size][length])

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

    def seed_strong_count(self, length: int, alphabet_size: int, value: int) -> None:
        """Make one strong-count cell read `value` (fault-injection test hook).
        The seed is only recorded, never scans and never enters the scan's
        columns: `strong_partition_count` and `rows` read it in place of the
        cell's count, so it outlives every refill.  Base cases cannot be
        seeded."""
        if length > alphabet_size > 1:
            with self._lock:
                self._seeds[length, alphabet_size] = value

    def rows(self, max_length: int, max_alphabet: int) -> Iterator[tuple[int, int, int, int, int]]:
        """(length, alphabet, stirling, strong partitions, strong words) per pair."""
        if max_length < 1 or max_alphabet < 1:
            raise ValueError("bounds must be at least 1")
        m = min(max_length, max_alphabet)
        # The scan's columns hold the base cases.  A refill replaces
        # `_strong`, Stirling columns only grow and the seeds are copied, so
        # the cells are read outside the lock.
        with self._lock:
            self._grow_stirling(max_length, m)
            self._fill_strong(max_length, m)
            stirling, strong, seeds = self._stirling, self._strong, dict(self._seeds)
        factorials = [math.factorial(n) for n in range(m + 1)]
        for length in range(1, max_length + 1):
            for n in range(1, min(length, m) + 1):
                t = seeds.get((length, n), strong[n][length])
                yield length, n, stirling[n][length], t, factorials[n] * t


_SHARED = CountTable()
# The module's counting functions read one table shared by the process.
stirling2 = _SHARED.stirling2
strong_partition_count = _SHARED.strong_partition_count
strong_word_count = _SHARED.strong_word_count


def _check_cap(length: int, cap: int | None) -> None:
    """Bell numbers, the Stirling row sums, never decrease, so stop at the
    first one past the cap rather than computing Bell(length), O(length^2)."""
    if cap is not None and any(
        sum(stirling2(m, n) for n in range(m + 1)) > cap for m in range(length + 1)
    ):
        raise CapExceededError(f"enumerating length {length} means more words than the cap {cap}")


def _check_table_cap(
    length: int, alphabet_size: int, cap: int, rows: bool, components: int = 1
) -> None:
    """Refuse, before any work, a scan whose estimated cost exceeds `cap`.

    The unit is one transfer-scan state update on small integers.  Each of
    the length * m cells (m = min(length, alphabet_size)) takes about m
    updates per component counted, and an update costs one more unit per
    4096 bits of the largest count (counts average half that size over the
    scan).  Keeping a cell costs one unit, plus one per 64 bits, which bounds
    the scan's memory.  Decimal conversion is quadratic in the size of a
    number: with `rows` every cell is printed, else one count per component,
    and each printed count costs at least one unit.  So no cell is free,
    even when m = 1 and every count is 1.
    """
    m = min(length, alphabet_size)
    # No count in the scan exceeds m^length, so none is longer than this.
    bits = length * (m - 1).bit_length()
    cells = length * m
    cost = components * cells * (m * (1 + bits // 4096) + 1 + bits // 64)
    cost += (cells if rows else components) * (1 + (bits // 512) ** 2)
    if cost > cap:
        raise CapExceededError(
            f"counting to length {length} over {m} symbols costs about {cost} steps, "
            f"more than the cap {cap}"
        )


def _strong_counts_by_alphabet(length: int) -> list[int]:
    """One exhaustive pass over all canonical words of `length`.

    Walks the restricted-growth-string tree keeping successor bitmasks
    updated in place, and tallies strongly connected leaves per alphabet
    size.  A word is a walk through its own graph, so every symbol is
    reached from the first letter and reaches the last one.  Hence the graph
    is strong exactly when the last letter reaches the first, symbol 0: one
    bitset reachability per leaf decides it.
    """
    counts = [0] * (length + 1)
    adj = [0] * length

    def rec(pos: int, prev: int, used: int) -> None:
        if pos == length:
            reach = frontier = 1 << prev
            while frontier and not reach & 1:
                nxt = 0
                while frontier:
                    low = frontier & -frontier
                    nxt |= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = nxt & ~reach
                reach |= frontier
            counts[used] += reach & 1
            return
        for c in range(used + 1):
            # A repeated letter sets a self-loop bit, which reaches nothing new.
            a0 = adj[prev]
            adj[prev] = a0 | (1 << c)
            rec(pos + 1, c, used + (c == used))
            adj[prev] = a0

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


def scc_histogram(
    length: int, alphabet_size: int, cap: int | None = DEFAULT_CAP
) -> dict[int, int]:
    """Canonical words bucketed by their graph's strong component count.

    Read from one transfer scan that counts components (see
    `_transfer_scan`); the component count is also the number of factors
    of the word's finest disjoint factorization.  `cap` bounds the scan's
    estimated cost in the units of `_check_table_cap`, components included
    (pass None to lift it).  Empty buckets are left out.
    """
    if not 1 <= alphabet_size <= length:
        raise ValueError("need 1 <= alphabet_size <= length")
    if alphabet_size in (1, length):
        # One word, read off: a...a is strong; distinct symbols are singletons.
        return {alphabet_size: 1}
    if cap is not None:
        _check_table_cap(length, alphabet_size, cap, rows=False, components=alphabet_size)
    columns = _transfer_scan(length, alphabet_size, alphabet_size)
    buckets = {c: columns[c][alphabet_size][length] for c in range(1, alphabet_size + 1)}
    return {c: count for c, count in buckets.items() if count}


def csv_lines(max_length: int, max_alphabet: int, table: CountTable | None = None) -> list[str]:
    """Count-table rows in the interchange CSV form, header included."""
    table = table if table is not None else _SHARED
    lines = ["l,n,stirling,T,phi"]
    for length, n, s, t, phi in table.rows(max_length, max_alphabet):
        lines.append(f"{length},{n},{s},{t},{phi}")
    return lines
