"""Exhaustive desk-scale verification of the counting identities.

Everything the library claims about strong connectivity is re-derived here
from first principles and compared: the recurrence against brute-force
enumeration, the equivalence of strong connectivity with 2-edge
connectivity and with unfactorizability, the bridge count against the
factorization cardinality, component counts, family cardinalities, and
histogram totals.  Checks stop at the first counterexample.  The cap is
decided once, before any work: a run checks every length it is asked for,
or raises `CapExceededError`.  Each distinct word graph is built and
checked once per run, with its exact minimum cut, at the first word that has
it; each word is factored once and checked against its graph's components.
A word finds its graph by a key read off the canonical walk's prefixes, not
from its own letters (see `_keyed_words`).
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .connectivity import bridges, edge_connectivity, scc_decomposition
from .counting import DEFAULT_CAP, CountTable, _check_cap, brute_force_strong_count
from .factorization import split_points
from .graphs import build_graph
from .words import Word, _canonical_prefixes


class VerificationReport:
    """Outcome of a verification run: one line per check, failures separate."""

    __slots__ = ("lines", "failures")

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.failures: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.failures


# Each check yields (text, passed) pairs.  The runner stops at the first
# failure and never resumes that check, so a check need not return after one.
Check = Iterator[tuple[str, bool]]


def _family_count_by_inclusion_exclusion(length: int, alphabet_size: int) -> int:
    """Exact-alphabet words as surjections: sum over k of (-1)^k C(n, k) (n-k)^l."""
    n = alphabet_size
    return sum((-1) ** k * math.comb(n, k) * (n - k) ** length for k in range(n + 1))


def _paper_recurrence(max_length: int, max_alphabet: int, table: CountTable) -> list[list[int]]:
    """T(l, n) for l <= max_length and n <= max_alphabet, as columns[n][l], by
    the paper's recurrence over Stirling numbers, filled bottom-up:

    T(l, n) = S(l-1, n) + sum over j <= l-2, m <= n-2 of S(j, m) T(l-j-1, n-m) (n-m-1),

    with T(l, 1) = 1 and T(l, n) = 0 for l <= n.  S(j, 0) vanishes except
    at j = 0, so the m = 0 terms reduce to T(l-1, n) (n-1).  Only the
    Stirling numbers come from `table`; its transfer scan is never read.
    """
    stirling = [
        [table.stirling2(l, m) for l in range(max_length + 1)] for m in range(max_alphabet + 1)
    ]
    columns = [[0] * (max_length + 1), [0] + [1] * max_length]
    for n in range(2, max_alphabet + 1):
        column = [0] * (max_length + 1)
        for l in range(n + 1, max_length + 1):
            total = stirling[n][l - 1] + column[l - 1] * (n - 1)
            for m in range(1, n - 1):
                s, t = stirling[m], columns[n - m]
                # S(j, m) vanishes for j < m and T(i, n-m) for i <= n-m.
                total += (n - m - 1) * sum(
                    s[j] * t[l - j - 1] for j in range(m, l - 1 - n + m)
                )
            column[l] = total
        columns.append(column)
    return columns


def _verify_recurrence(
    length: int, max_alphabet: int, scan: dict, recurrence: list[list[int]]
) -> Check:
    """The recurrence, the table's transfer scan (`scan` maps (l, n) to the
    table's T(l, n)) and brute force: three derivations that share no code."""
    for n in range(1, min(length, max_alphabet) + 1):
        label = f"check=recurrence l={length} n={n}"
        enumerated = brute_force_strong_count(length, n, cap=None)
        expected, scanned = recurrence[n][length], scan[length, n]
        text = f"{label} recurrence={expected} scan={scanned} enumerated={enumerated}"
        yield text, expected == scanned == enumerated


def _verify_family(length: int, max_alphabet: int, table: CountTable) -> Check:
    for n in range(1, min(length, max_alphabet) + 1):
        expected = table.family_cardinality(length, n)
        actual = _family_count_by_inclusion_exclusion(length, n)
        text = f"check=family l={length} n={n} formula={expected} enumerated={actual}"
        yield text, expected == actual


def _keyed_words(length: int, n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each canonical word of `length` over exactly n symbols, as its letters,
    with its graph's key: the edge set as a bit mask, bit u * n + v for the
    edge (u, v).  Graphs over range(n) are determined by their edges.

    The walk hands out each prefix once with the first position it changed;
    masks[j], the key of the prefix's first j + 1 letters, is refreshed from
    there.  A word's key is then its prefix's mask, the seam bit from the
    prefix's last letter to the tail's first, and the tail's own bit.
    """
    if length == 1:
        yield (0,), 0
        return
    # bit[u][v]: the edge (u, v)'s bit, 0 for a repeated letter, which adds no edge.
    bit = [[0 if u == v else 1 << (u * n + v) for v in range(n)] for u in range(n)]
    m = length - 2
    masks = [0] * max(m, 1)
    for prefix, changed, tails in _canonical_prefixes(length, n):
        for j in range(changed or 1, m):
            masks[j] = masks[j - 1] | bit[prefix[j - 1]][prefix[j]]
        # At length 2 the prefix is empty and every tail starts with 0: no seam.
        mask, seam = (masks[m - 1], bit[prefix[-1]]) if m else (0, bit[0])
        for a, bs in tails:
            head, key, row = prefix + (a,), mask | seam[a], bit[a]
            for b in bs:
                yield head + (b,), key | row[b]


def _verify_words(
    length: int, max_alphabet: int, table: CountTable, scan: dict, known: list[dict[int, int]]
) -> Check:
    """Per-word structural checks plus histogram totals for one length.

    Alphabet sizes are checked in increasing order, and the words of each
    in lexicographic order, so a failure names the first word in that
    order.  `known[n]` maps each graph key (see `_keyed_words`) the run has
    analysed to its strong component count; every graph at length l comes
    back at l + 1.  A graph's own relations are checked at its first word,
    and every word is factored and its factor count checked against its
    graph's components.
    """
    label = f"check=equivalence l={length}"
    trusted = Word._trusted
    words = 0
    for n in range(1, min(length, max_alphabet) + 1):
        tally = [0] * (n + 1)  # tally[c]: words whose graph has c strong components
        components_of = known[n]
        for letters, key in _keyed_words(length, n):
            word = trusted(letters, None, n)
            # Two derivations: the graph's components, the word's factors.
            k = len(split_points(word)) + 1
            components = components_of.get(key)
            if components is None:
                graph = build_graph(word)
                # The exact minimum cut: 0 when weakly disconnected, None for one vertex.
                # No bound from strongness, which this cut is checked against.
                cut = edge_connectivity(graph)
                components_of[key] = components = scc_decomposition(graph).count
                bridge_count = len(bridges(graph))
                strong, two_edge_connected = components == 1, cut is None or cut >= 2
                if cut == 0:
                    yield f"{label} word={word.text()} detail=weakly-disconnected", False
                if not (strong == two_edge_connected == (k == 1)):
                    detail = f"strong:{strong},two-edge:{two_edge_connected},factors:{k}"
                    yield f"{label} word={word.text()} detail={detail}", False
                if bridge_count != k - 1:
                    detail = f"bridges:{bridge_count},factors:{k}"
                    yield f"{label} word={word.text()} detail={detail}", False
            if components != k:
                detail = f"components:{components},factors:{k}"
                yield f"{label} word={word.text()} detail={detail}", False
            tally[components] += 1
        total, stirling = sum(tally), table.stirling2(length, n)
        words += total
        if total != stirling:
            yield f"check=histogram l={length} n={n} total={total} stirling={stirling}", False
        strong_bucket, expected = tally[1], scan[length, n]
        if strong_bucket != expected:
            text = f"check=histogram l={length} n={n} strong={strong_bucket} scan={expected}"
            yield text, False
    yield f"{label} words={words} cut=exact", True
    yield f"check=histogram l={length}", True


def run_verification(
    max_length: int,
    max_alphabet: int | None = None,
    cap: int | None = DEFAULT_CAP,
    table: CountTable | None = None,
) -> VerificationReport:
    """Run the full identity suite for all lengths up to `max_length`.

    Raises `CapExceededError`, before any work, when the words of
    `max_length` are more canonical words than `cap`.  `table` supplies the
    Stirling numbers and the transfer scan's counts, read once for every
    cell the run checks; passing a pre-seeded table is how the harness's own
    failure path is tested.
    """
    if max_length < 2:
        raise ValueError("max length must be at least 2")
    if max_alphabet is None:
        max_alphabet = max_length
    if max_alphabet < 1:
        raise ValueError("max alphabet must be at least 1")
    _check_cap(max_length, cap)
    if table is None:
        table = CountTable()
    m = min(max_length, max_alphabet)
    recurrence = _paper_recurrence(max_length, m, table)
    # T(l, n) for every checked cell, seeds included, from one transfer scan.
    scan = {(l, n): t for l, n, _, t, _ in table.rows(max_length, m)}
    report = VerificationReport()
    # One graph table per alphabet size for the whole run, keyed by the edge
    # set as a bit mask: graphs over range(n) are determined by their edges.
    known: list[dict[int, int]] = [{} for _ in range(m + 1)]
    for length in range(1, max_length + 1):
        # Generators: a check after the first failure never runs.
        checks = (
            _verify_recurrence(length, max_alphabet, scan, recurrence),
            _verify_family(length, max_alphabet, table),
            _verify_words(length, max_alphabet, table, scan, known),
        )
        for check in checks:
            for text, passed in check:
                line = f"{text} status={'ok' if passed else 'fail'}"
                report.lines.append(line)
                if not passed:
                    report.failures.append(line)
                    return report
    return report
