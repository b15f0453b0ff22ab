"""Exhaustive desk-scale verification of the counting identities.

Everything the library claims about strong connectivity is re-derived here
from first principles and compared: the recurrence against brute-force
enumeration, the equivalence of strong connectivity with 2-edge
connectivity and with unfactorizability, the bridge count against the
factorization cardinality, component counts, family cardinalities, and
histogram totals.  Checks stop at the first counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .connectivity import bridges, edge_connectivity, weakly_connected
from .counting import (
    DEFAULT_CAP,
    CapExceededError,
    CountTable,
    brute_force_strong_count,
    _check_cap,
    _sweep,
)

# Up to this length each word's exact minimum cut is also computed, by max
# flow independent of `bridges`, and "cut >= 2" is checked against strong
# connectivity and the factor count.  Longer words take "cut >= 2" from the
# bridge predicate alone (weakly connected and bridge-free); the report
# labels that mode `cut=deletion`.
FULL_CUT_LENGTH = 7


@dataclass
class VerificationReport:
    """Outcome of a verification run: one line per check, failures separate."""

    max_length: int
    lines: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def ok(self, text: str) -> None:
        self.lines.append(f"{text} status=ok")

    def skip(self, text: str, reason: str) -> None:
        self.lines.append(f"{text} status=skipped reason={reason}")

    def fail(self, text: str) -> None:
        line = f"{text} status=fail"
        self.lines.append(line)
        self.failures.append(line)


def _family_count_by_inclusion_exclusion(length: int, alphabet_size: int) -> int:
    """Exact-alphabet words as surjections: sum over k of (-1)^k C(n, k) (n-k)^l."""
    n = alphabet_size
    return sum((-1) ** k * math.comb(n, k) * (n - k) ** length for k in range(n + 1))


def _verify_recurrence(
    length: int, max_alphabet: int, table: CountTable, cap: int | None, report: VerificationReport
) -> None:
    for n in range(1, min(length, max_alphabet) + 1):
        label = f"check=recurrence l={length} n={n}"
        try:
            actual = brute_force_strong_count(length, n, cap)
        except CapExceededError:
            report.skip(label, "cap")
            continue
        expected = table.strong_partition_count(length, n)
        text = f"{label} recurrence={expected} enumerated={actual}"
        if expected == actual:
            report.ok(text)
        else:
            report.fail(text)
            return


def _verify_family(
    length: int, max_alphabet: int, table: CountTable, report: VerificationReport
) -> None:
    for n in range(1, min(length, max_alphabet) + 1):
        label = f"check=family l={length} n={n}"
        expected = table.family_cardinality(length, n)
        actual = _family_count_by_inclusion_exclusion(length, n)
        text = f"{label} formula={expected} enumerated={actual}"
        if expected == actual:
            report.ok(text)
        else:
            report.fail(text)
            return


def _verify_words(
    length: int, max_alphabet: int, table: CountTable, cap: int | None, report: VerificationReport
) -> None:
    """Per-word structural checks plus histogram totals for one length."""
    label = f"check=equivalence l={length}"
    try:
        _check_cap(length, cap)
    except CapExceededError:
        report.skip(label, "cap")
        return
    exact_cut = length <= FULL_CUT_LENGTH
    words = 0
    for n in range(1, min(length, max_alphabet) + 1):
        histogram: dict[int, int] = {}
        for word, graph, components, k in _sweep(length, n):
            words += 1
            strong = components == 1
            bridge_list = bridges(graph)
            weak = weakly_connected(graph)
            if not weak:
                report.fail(f"{label} word={word.text()} detail=weakly-disconnected")
                return
            two_edge_connected = not bridge_list
            if n >= 2 and exact_cut:
                two_edge_connected = edge_connectivity(graph) >= 2
            if not (strong == two_edge_connected == (k == 1)):
                report.fail(
                    f"{label} word={word.text()} "
                    f"detail=strong:{strong},two-edge:{two_edge_connected},factors:{k}"
                )
                return
            if len(bridge_list) != k - 1:
                report.fail(
                    f"{label} word={word.text()} detail=bridges:{len(bridge_list)},factors:{k}"
                )
                return
            if components != k:
                report.fail(
                    f"{label} word={word.text()} detail=components:{components},factors:{k}"
                )
                return
            histogram[components] = histogram.get(components, 0) + 1
        total = sum(histogram.values())
        if total != table.stirling2(length, n):
            report.fail(
                f"check=histogram l={length} n={n} total={total} "
                f"stirling={table.stirling2(length, n)}"
            )
            return
        strong_bucket = histogram.get(1, 0)
        if strong_bucket != table.strong_partition_count(length, n):
            report.fail(
                f"check=histogram l={length} n={n} strong={strong_bucket} "
                f"recurrence={table.strong_partition_count(length, n)}"
            )
            return
    report.ok(f"{label} words={words} cut={'exact' if exact_cut else 'deletion'}")
    report.ok(f"check=histogram l={length}")


def run_verification(
    max_length: int,
    max_alphabet: int | None = None,
    cap: int | None = DEFAULT_CAP,
    table: CountTable | None = None,
) -> VerificationReport:
    """Run the full identity suite for all lengths up to `max_length`.

    `table` supplies the recurrence values; passing a pre-seeded
    table is how the harness's own failure path is tested.
    """
    if max_length < 2:
        raise ValueError("max length must be at least 2")
    if max_alphabet is None:
        max_alphabet = max_length
    if max_alphabet < 1:
        raise ValueError("max alphabet must be at least 1")
    if table is None:
        table = CountTable()
    report = VerificationReport(max_length)
    for length in range(1, max_length + 1):
        _verify_recurrence(length, max_alphabet, table, cap, report)
        if not report.passed:
            break
        _verify_family(length, max_alphabet, table, report)
        if not report.passed:
            break
        _verify_words(length, max_alphabet, table, cap, report)
        if not report.passed:
            break
    return report
