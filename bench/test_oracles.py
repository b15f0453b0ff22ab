"""Hand-value tests for the benchmark's own oracles (stdlib only).

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import math
import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import workloads  # noqa: E402


class CountingOracles(unittest.TestCase):
    def test_bell_numbers(self):
        self.assertEqual([oracles.bell(l) for l in range(1, 6)], [1, 2, 5, 15, 52])

    def test_stirling(self):
        self.assertEqual(oracles.stirling2(4, 2), 7)
        self.assertEqual(oracles.stirling2(0, 0), 1)
        self.assertEqual(oracles.stirling2(3, 5), 0)

    def test_count_length_4_alphabet_3(self):
        # Of aabc, abac, abbc, abca, abcb, abcc only abca is strong.
        t = oracles.strong_table(4, 3)[4][3]
        self.assertEqual(t, 1)
        self.assertEqual(math.factorial(3) * t, 6)

    def test_small_strong_counts(self):
        table = oracles.strong_table(4, 4)
        self.assertEqual(table[3][2], 1)  # aba
        self.assertEqual(table[2][2], 0)
        self.assertEqual([table[l][1] for l in range(1, 5)], [1, 1, 1, 1])

    def test_inversion_matches_enumeration(self):
        table = oracles.strong_table(8, 8)
        for l in range(1, 9):
            for n in range(1, l + 1):
                self.assertEqual(table[l][n], oracles.brute_force_strong(l, n), (l, n))

    def test_stirling_bounds(self):
        s = oracles.stirling_table(30, 8)
        t = oracles.strong_table(30, 8)
        for l in range(2, 31):
            for n in range(1, 9):
                self.assertTrue(s[l - 1][n] <= t[l][n] <= s[l][n], (l, n))

    def test_histogram_totals(self):
        hist = oracles.component_histogram(6, 3)
        self.assertEqual(sum(hist.values()), oracles.stirling2(6, 3))
        self.assertEqual(hist[1], oracles.brute_force_strong(6, 3))


class GraphOracles(unittest.TestCase):
    def test_components(self):
        # abcb: a -> b <-> c
        comps = oracles.strong_components(3, oracles.word_edges([0, 1, 2, 1]))
        self.assertEqual(comps, [{0}, {1, 2}])

    def test_bridges(self):
        self.assertEqual(oracles.multigraph_bridges(3, {(0, 1), (1, 2)}), {(0, 1), (1, 2)})
        self.assertEqual(oracles.multigraph_bridges(3, {(0, 1), (1, 0), (1, 2)}), {(1, 2)})
        self.assertEqual(oracles.multigraph_bridges(3, {(0, 1), (1, 2), (2, 0)}), set())

    def test_stoer_wagner(self):
        self.assertEqual(oracles.stoer_wagner(3, {(0, 1), (1, 2), (2, 0)}), 2)
        self.assertEqual(oracles.stoer_wagner(2, {(0, 1), (1, 0)}), 2)
        complete = {(u, v) for u in range(5) for v in range(5) if u != v}
        self.assertEqual(oracles.stoer_wagner(5, complete), 8)
        # Two triangles joined by one edge.
        joined = {(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)}
        self.assertEqual(oracles.stoer_wagner(6, joined), 1)

    def test_corpus_words_are_strong_with_cut_two(self):
        rng = random.Random(0)
        for length, symbols in [(40, 10), (300, 30)]:
            letters = workloads.canonical(workloads.strong_letters(rng, length, symbols))
            edges = oracles.word_edges(letters)
            self.assertTrue(oracles.reaches_all(symbols, edges))
            self.assertEqual(oracles.stoer_wagner(symbols, edges), 2)

    def test_representability(self):
        rng = random.Random(0)
        letters = workloads.chain_letters(rng, [(7, 3)] * 4)
        names = [str(c) for c in range(12)]
        edges = {(str(u), str(v)) for u, v in oracles.word_edges(letters)}
        self.assertTrue(workloads.representable(names, edges))
        for vertices, edges in workloads.unrepresentable_graphs(rng):
            self.assertFalse(workloads.representable(vertices, edges))


if __name__ == "__main__":
    unittest.main()
