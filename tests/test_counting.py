import math
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import pytest

from wordgraphs import counting
from wordgraphs.connectivity import scc_decomposition, strongly_connected
from wordgraphs.counting import (
    CapExceededError,
    CountTable,
    brute_force_strong_count,
    csv_lines,
    scc_histogram,
    stirling2,
    strong_partition_count,
    strong_word_count,
)
from wordgraphs.graphs import build_graph
from wordgraphs.verify import _paper_recurrence, run_verification
from wordgraphs.words import iter_canonical_words


def stirling_oracle(l, n):
    if l == 0 and n == 0:
        return 1
    if l == 0 or n == 0:
        return 0
    return n * stirling_oracle(l - 1, n) + stirling_oracle(l - 1, n - 1)


def count_strong_by_iteration(length, n):
    return sum(
        1
        for w in iter_canonical_words(length, n)
        if strongly_connected(build_graph(w))
    )


class TestStirling:
    def test_conventions(self):
        assert stirling2(0, 0) == 1
        assert stirling2(3, 0) == 0
        assert stirling2(0, 2) == 0

    def test_diagonal(self):
        for n in range(1, 10):
            assert stirling2(n, n) == 1

    def test_known_value(self):
        assert stirling2(4, 2) == 7

    def test_matches_recurrence_oracle(self):
        for l in range(0, 10):
            for n in range(0, l + 2):
                assert stirling2(l, n) == stirling_oracle(l, n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stirling2(-1, 0)

    def test_filled_cell_is_read_without_walking_the_lower_columns(self):
        table = CountTable()
        assert table.stirling2(10, 5) == 42_525
        # Columns never get shorter as n grows, so column 5 reaching length
        # 10 says every lower column does; none of them is looked at again.
        table._stirling[:5] = [None] * 5
        assert table.stirling2(10, 5) == 42_525
        assert table.stirling2(7, 5) == 140

    def test_bell_numbers(self):
        bell = [sum(stirling2(l, n) for n in range(l + 1)) for l in (*range(8), 12)]
        assert bell == [1, 1, 2, 5, 15, 52, 203, 877, 4213597]


class TestStrongCounts:
    def test_pinned_values(self):
        assert strong_partition_count(3, 2) == 1
        assert strong_partition_count(4, 2) == 4
        assert strong_partition_count(5, 2) == 11
        assert strong_partition_count(4, 3) == 1
        assert strong_partition_count(5, 3) == 9

    def test_trivial_alphabet(self):
        for length in range(1, 21):
            assert strong_partition_count(length, 1) == 1

    def test_diagonal_is_zero(self):
        for n in range(2, 13):
            assert strong_partition_count(n, n) == 0

    def test_non_positive_length(self):
        assert strong_partition_count(0, 2) == 0
        assert strong_partition_count(-3, 2) == 0

    def test_bad_alphabet(self):
        with pytest.raises(ValueError):
            strong_partition_count(4, 0)

    def test_two_symbol_closed_form(self):
        for length in range(2, 21):
            assert strong_partition_count(length, 2) == 2 ** (length - 1) - length

    def test_scan_matches_the_paper_recurrence(self):
        table = CountTable()
        recurrence = _paper_recurrence(60, 20, CountTable())
        for length in range(1, 61):
            for n in range(1, 21):
                assert table.strong_partition_count(length, n) == recurrence[n][length]

    @pytest.mark.parametrize("max_length, max_alphabet", [(300, 4), (90, 90)])
    def test_scan_matches_the_paper_recurrence_past_60_by_20(self, max_length, max_alphabet):
        # Long thin columns, and a wide block whose last positions hold many
        # prefixes with more open blocks than positions left; the scan keeps
        # them, and they must not reach a complete word.
        recurrence = _paper_recurrence(max_length, max_alphabet, CountTable())
        table = CountTable()
        # Largest cells first, so that one scan fills the table.
        for length in range(max_length, 0, -1):
            for n in range(max_alphabet, 0, -1):
                assert table.strong_partition_count(length, n) == recurrence[n][length]

    def test_scan_shares_no_code_with_the_other_derivations(self, monkeypatch):
        # verify compares the scan with the Stirling table and the paper's
        # recurrence; the comparison shows something only while the three
        # share no code.
        strong = _paper_recurrence(30, 6, CountTable())[6][30]

        def forbidden(*args):
            raise AssertionError("the scan reached the Stirling table or the recurrence")

        monkeypatch.setattr(CountTable, "stirling2", forbidden)
        monkeypatch.setattr(CountTable, "_grow_stirling", forbidden)
        monkeypatch.setattr("wordgraphs.verify._paper_recurrence", forbidden)
        assert CountTable().strong_partition_count(30, 6) == strong
        assert scc_histogram(12, 3) == {1: 82_509, 2: 3_962, 3: 55}

    def test_one_letter_repeats_around_the_rest(self):
        # T(n+1, n) = 1: a, then every other letter once, then a again.
        table = CountTable()
        for n in range(200, 1, -1):
            assert table.strong_partition_count(n + 1, n) == 1

    def test_bounded_by_stirling(self):
        for length in range(1, 15):
            for n in range(1, length + 1):
                assert 0 <= strong_partition_count(length, n) <= stirling2(length, n)

    def test_word_counts(self):
        assert strong_word_count(3, 2) == 2
        assert strong_word_count(4, 3) == 6
        assert strong_word_count(2, 1) == 1
        assert strong_word_count(5, 3) == math.factorial(3) * 9

    def test_zero_count_skips_the_factorial(self, monkeypatch):
        def factorial(n):
            raise AssertionError(f"factorial({n}) computed for a zero count")

        monkeypatch.setattr(math, "factorial", factorial)
        assert strong_word_count(5, 100_000) == 0
        assert strong_word_count(7, 7) == 0
        assert CountTable().strong_word_count(0, 3) == 0


class TestFamilyCardinality:
    def test_examples(self):
        family_cardinality = CountTable().family_cardinality
        assert family_cardinality(3, 2) == 6
        assert family_cardinality(4, 3) == 36
        for n in range(1, 7):
            assert family_cardinality(n, n) == math.factorial(n)

    def test_range_check(self):
        with pytest.raises(ValueError):
            CountTable().family_cardinality(3, 4)


class TestBruteForce:
    def test_examples(self):
        assert brute_force_strong_count(4, 3) == 1
        assert brute_force_strong_count(3, 2) == 1
        for n in range(2, 7):
            assert brute_force_strong_count(n, n) == 0

    def test_matches_plain_iteration(self):
        for length in range(1, 9):
            for n in range(1, length + 1):
                assert brute_force_strong_count(length, n) == count_strong_by_iteration(
                    length, n
                )

    def test_matches_recurrence(self):
        for length in range(1, 10):
            for n in range(1, length + 1):
                assert brute_force_strong_count(length, n) == strong_partition_count(
                    length, n
                )

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            brute_force_strong_count(12, 3, cap=1000)
        assert brute_force_strong_count(5, 3, cap=None) == 9
        # The guard stops growing Bell numbers at the first one past the cap.
        with pytest.raises(CapExceededError):
            brute_force_strong_count(2000, 2)

    def test_range_check(self):
        with pytest.raises(ValueError):
            brute_force_strong_count(3, 4)


class TestHistogram:
    def test_examples(self):
        assert scc_histogram(4, 3) == {1: 1, 2: 2, 3: 3}
        assert scc_histogram(3, 2) == {1: 1, 2: 2}
        for n in range(2, 6):
            assert scc_histogram(n, n) == {n: 1}

    def test_totals(self):
        for length in range(1, 8):
            for n in range(1, length + 1):
                hist = scc_histogram(length, n)
                assert sum(hist.values()) == stirling2(length, n)
                assert hist.get(1, 0) == strong_partition_count(length, n)

    def test_matches_per_word_components(self):
        for length in range(1, 9):
            for n in range(1, length + 1):
                enumerated: dict[int, int] = {}
                for word in iter_canonical_words(length, n):
                    count = scc_decomposition(build_graph(word)).count
                    enumerated[count] = enumerated.get(count, 0) + 1
                assert scc_histogram(length, n) == dict(sorted(enumerated.items())), (length, n)

    @pytest.mark.parametrize("length, n", [(12, 5), (30, 8), (40, 12), (200, 3)])
    def test_convolution_of_strong_counts(self, length, n):
        # A canonical word is its first strong factor followed by a canonical
        # word on the remaining, disjoint symbols, so the c-component bucket
        # is the c-fold convolution of T.  T comes from the paper's recurrence.
        strong = _paper_recurrence(length, n, CountTable())

        @lru_cache(maxsize=None)
        def buckets(c, l, m):
            if c == 0:
                return int(l == m == 0)
            return sum(
                strong[m1][l1] * buckets(c - 1, l - l1, m - m1)
                for m1 in range(1, m - c + 2)
                for l1 in range(m1, l - (m - m1) + 1)
            )

        expected = {c: buckets(c, length, n) for c in range(1, n + 1)}
        assert scc_histogram(length, n) == {c: h for c, h in expected.items() if h}

    def test_cap_estimate_covers_every_entry_update(self, monkeypatch):
        # Each (c, k, p) of the scan updates the k entries of one row and
        # sums them; the cap's estimate must never fall below that work.
        def updates(length, n, components):
            return sum(
                (low + high) * (high - low + 1) // 2
                for c in range(1, components + 1)
                for p in range(2, length + 1)
                for low, high in [(max(c, 2), min(p, n))]
                if low <= high
            )

        summed = []

        def count_entries(row):
            summed.append(len(row))
            return 0

        # Checks the formula against the rows the scan really sums.
        monkeypatch.setattr(counting, "sum", count_entries, raising=False)
        for components in (1, 3, 7):
            summed.clear()
            counting._transfer_scan(40, 7, components)
            assert sum(summed) == updates(40, 7, components)
        monkeypatch.undo()
        for length in range(1, 81):
            for n in range(1, min(length, 30) + 1):
                for components in sorted({1, 2, n}):
                    with pytest.raises(CapExceededError):
                        cap = updates(length, n, components) - 1
                        counting._check_table_cap(length, n, cap, rows=False, components=components)

    def test_two_symbol_closed_form(self):
        # Strong: T(l, 2) = 2^(l-1) - l.  Two components: a^i b^(l-i).
        assert scc_histogram(2000, 2) == {1: 2**1999 - 2000, 2: 1999}

    def test_cap_guard(self):
        # The scan's cost model, times the n components it counts.
        with pytest.raises(CapExceededError):
            scc_histogram(400, 20, cap=8_000_000)
        assert scc_histogram(12, 3, cap=1000) == {1: 82_509, 2: 3_962, 3: 55}
        with pytest.raises(CapExceededError):
            scc_histogram(10**9, 10**6)


class TestCsv:
    def test_header_and_rows(self):
        lines = csv_lines(5, 3)
        assert lines[0] == "l,n,stirling,T,phi"
        assert len(lines) == 1 + 12
        assert "4,3,6,1,6" in lines
        assert "3,2,3,1,2" in lines

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            csv_lines(0, 3)


class TestCountTable:
    def test_concurrent_fills_agree(self):
        reference = CountTable()
        expected = {
            (l, n): reference.strong_partition_count(l, n)
            for l in range(1, 13)
            for n in range(1, l + 1)
        }
        shared = CountTable()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = pool.map(
                lambda key: (key, shared.strong_partition_count(*key)),
                list(expected) * 3,
            )
            assert all(expected[key] == value for key, value in results)

    def test_long_thin_cell_does_not_recurse(self):
        # T(l, 2) = 2^(l-1) - l: the words starting with a that contain b and ba.
        assert CountTable().strong_partition_count(1500, 2) == 2**1499 - 1500

    def test_seed_is_local_to_the_table(self):
        table = CountTable()
        table.seed_strong_count(5, 3, 1234)
        assert table.strong_partition_count(5, 3) == 1234
        assert strong_partition_count(5, 3) == 9
        # Base cases are never read from the table, so seeding them changes nothing.
        table = CountTable()
        table.seed_strong_count(3, 3, 7)
        table.seed_strong_count(5, 1, 7)
        assert table.strong_partition_count(4, 3) == 1
        assert table.strong_partition_count(5, 1) == 1

    def test_seed_never_scans(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("seeding ran a transfer scan")

        table = CountTable()
        assert table.strong_partition_count(6, 3) == strong_partition_count(6, 3)
        monkeypatch.setattr("wordgraphs.counting._transfer_scan", no_scan)
        # Seeding only records the value, for a cell inside the table's
        # bounds and for one past them.
        table.seed_strong_count(3000, 1500, 1)
        table.seed_strong_count(5, 3, 8)
        assert table.strong_partition_count(5, 3) == 8

    def test_seed_survives_a_refill(self):
        table = CountTable()
        table.seed_strong_count(5, 3, 8)
        assert table.strong_partition_count(30, 10) == strong_partition_count(30, 10)
        assert table.strong_partition_count(5, 3) == 8
        # A refill to (40, 2) leaves (5, 3) out; reading it refills again.
        assert table.strong_partition_count(40, 2) == 2**39 - 40
        assert table.strong_partition_count(5, 3) == 8
        # No other cell derives from the seed.
        assert table.strong_partition_count(6, 3) == strong_partition_count(6, 3)
        report = run_verification(6, table=table)
        assert report.failures == [report.lines[-1]]
        assert report.failures[0].startswith("check=recurrence l=5 n=3 ")

    def test_seeds_never_enter_the_scan(self):
        table = CountTable()
        table.seed_strong_count(5, 3, 8)
        table.seed_strong_count(6, 3, 11)
        # Up to (30, 10), down to (40, 2), which leaves both seeds out, and back.
        for bounds in [(30, 10), (40, 2), (30, 10)]:
            assert table.strong_partition_count(*bounds) == strong_partition_count(*bounds)
            assert table._bounds == bounds
            assert table._strong == counting._transfer_scan(*bounds)[1]
        assert table.strong_partition_count(6, 3) == 11

    def test_rows_shape(self):
        table = CountTable()
        rows = list(table.rows(5, 3))
        assert len(rows) == 12
        assert rows[-1] == (5, 3, 25, 9, 54)

    def test_rows_yield_a_seeded_cell(self):
        # One seed before the fill and one after it; both read back through rows.
        table = CountTable()
        table.seed_strong_count(5, 2, 7)
        assert (5, 2, 15, 7, 14) in table.rows(6, 3)
        table.seed_strong_count(6, 3, 11)
        rows = {row[:2]: row for row in table.rows(6, 3)}
        assert rows[5, 2] == (5, 2, 15, 7, 14)
        assert rows[6, 3] == (6, 3, 90, 11, 66)
        assert rows[6, 2] == (6, 2, 31, strong_partition_count(6, 2), strong_word_count(6, 2))

    @pytest.mark.parametrize("filled", [None, (60, 30), (80, 2)])
    def test_rows_match_the_cell_methods(self, filled):
        table = CountTable()
        if filled:
            table.strong_partition_count(*filled)
        expected = [
            (l, n, stirling2(l, n), strong_partition_count(l, n), strong_word_count(l, n))
            for l in range(1, 31)
            for n in range(1, min(l, 12) + 1)
        ]
        assert list(table.rows(30, 12)) == expected
