"""Acceptance suite: every identity at its stated range, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import itertools
import subprocess
import sys
import time
from contextlib import contextmanager

from wordgraphs.connectivity import (
    bridges,
    edge_connectivity,
    scc_decomposition,
    strongly_connected,
)
from wordgraphs.counting import (
    CountTable,
    brute_force_strong_count,
    scc_histogram,
    stirling2,
    strong_partition_count,
    strong_word_count,
)
from wordgraphs.factorization import split_points
from wordgraphs.graphs import Digraph, build_graph
from wordgraphs.represent import NotRepresentableError, representational_walk, synthesize_word
from wordgraphs.words import iter_canonical_words

from brute import all_digraphs, covering_walk_exists, walk_edges


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS")


# ---- independent oracles used only here ----

def count_surjective_sequences(length, alphabet_size):
    """Walk every sequence over the labeled alphabet, pruned, counting the
    ones that use every symbol."""
    n = alphabet_size
    if length == 1:
        return 1 if n == 1 else 0
    total = 0
    stack = [(0, 0, 0)]
    while stack:
        pos, mask, used = stack.pop()
        if used + (length - pos) < n:
            continue
        if pos == length - 1:
            if used == n:
                total += n
            elif used == n - 1:
                total += 1
            continue
        for c in range(n):
            bit = 1 << c
            stack.append((pos + 1, mask | bit, used + (not mask & bit)))
    return total


def test_criterion_1_recurrence_matches_brute_force():
    with criterion(1, "recurrence == exhaustive count, lengths up to 12"):
        bell_12 = sum(stirling2(12, n) for n in range(13))
        assert bell_12 == 4213597
        started = time.time()
        for length in range(1, 13):
            for n in range(1, length + 1):
                assert strong_partition_count(length, n) == brute_force_strong_count(
                    length, n
                ), (length, n)
        elapsed = time.time() - started
        print(f"  [criterion 1 swept {bell_12}+ words in {elapsed:.1f}s]")


def test_criterion_2_pinned_values():
    with criterion(2, "pinned counts, oracle first"):
        derived = {(3, 2): 1, (4, 2): 4, (5, 2): 11, (4, 3): 1, (5, 3): 9}
        for (length, n), value in derived.items():
            assert brute_force_strong_count(length, n) == value, (length, n)
            assert strong_partition_count(length, n) == value, (length, n)

        # Labeled strong-word counts, reproduced by enumerating raw sequences.
        for (length, n), value in ((3, 2), 2), ((4, 3), 6):
            enumerated = sum(
                1
                for seq in itertools.product(range(n), repeat=length)
                if len(set(seq)) == n
                and strongly_connected(
                    Digraph(
                        frozenset(range(n)),
                        frozenset(walk_edges(seq)),
                    )
                )
            )
            assert enumerated == value
            assert strong_word_count(length, n) == value

        for length in range(1, 21):
            assert strong_partition_count(length, 1) == 1
            if length <= 12:
                assert brute_force_strong_count(length, 1) == 1
            else:
                only = list(iter_canonical_words(length, 1))
                assert len(only) == 1
                assert strongly_connected(build_graph(only[0]))

        for length in range(2, 13):
            assert strong_partition_count(length, length) == 0
            assert brute_force_strong_count(length, length) == 0


def test_criterion_3_three_way_equivalence():
    with criterion(3, "strong <=> cut size >= 2 <=> unfactorizable, lengths up to 7"):
        for length in range(2, 8):
            for n in range(2, length + 1):
                for word in iter_canonical_words(length, n):
                    graph = build_graph(word)
                    strong = strongly_connected(graph)
                    two_edge = edge_connectivity(graph) >= 2
                    one_factor = not split_points(word)
                    assert strong == two_edge == one_factor, word.text()


def test_criterion_4_bridges_and_components_count_factors():
    with criterion(4, "bridge count == k-1 and component count == k, lengths up to 8"):
        for length in range(1, 9):
            for n in range(1, length + 1):
                for word in iter_canonical_words(length, n):
                    graph = build_graph(word)
                    k = len(split_points(word)) + 1
                    assert len(bridges(graph)) == k - 1, word.text()
                    assert scc_decomposition(graph).count == k, word.text()


def test_criterion_5_representability():
    with criterion(5, "synthesis round trip and walk-oracle agreement"):
        for length in range(1, 7):
            for n in range(1, length + 1):
                for word in iter_canonical_words(length, n):
                    graph = build_graph(word)
                    # Raises NotRepresentableError unless the graph is representable.
                    rebuilt = build_graph(synthesize_word(graph))
                    assert rebuilt == graph, word.text()
        for count in range(1, 5):
            for graph in all_digraphs(count, Digraph):
                try:
                    representational_walk(graph)
                    representable = True
                except NotRepresentableError:
                    representable = False
                assert representable == covering_walk_exists(graph), sorted(graph.edges)


def test_criterion_6_family_cardinality():
    with criterion(6, "exact-alphabet word count == n! * stirling, lengths up to 8"):
        table = CountTable()
        for length in range(1, 9):
            for n in range(1, length + 1):
                assert count_surjective_sequences(length, n) == table.family_cardinality(
                    length, n
                ), (length, n)
        # The pruned counter itself, cross-checked the dumb way where affordable.
        for length in range(1, 7):
            for n in range(1, length + 1):
                direct = sum(
                    1
                    for seq in itertools.product(range(n), repeat=length)
                    if len(set(seq)) == n
                )
                assert count_surjective_sequences(length, n) == direct


def test_criterion_7_histogram_consistency():
    with criterion(7, "component histogram totals, lengths up to 8"):
        for length in range(1, 9):
            for n in range(1, length + 1):
                hist = scc_histogram(length, n)
                assert sum(hist.values()) == stirling2(length, n), (length, n)
                assert hist.get(1, 0) == strong_partition_count(length, n), (length, n)


def test_criterion_8_cli_verify_contract():
    with criterion(8, "CLI verify exits 0; corrupted memo exits 3 with the cell named"):
        clean = subprocess.run(
            [sys.executable, "-m", "wordgraphs", "verify", "--max-length", "10"],
            capture_output=True,
            text=True,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr
        assert clean.stderr == ""
        assert clean.stdout.splitlines()[-1] == "result=pass"

        corrupted = subprocess.run(
            [
                sys.executable,
                "-m",
                "wordgraphs",
                "verify",
                "--max-length",
                "6",
                "--seed-count",
                "5:3:8",
            ],
            capture_output=True,
            text=True,
        )
        assert corrupted.returncode == 3
        assert "l=5 n=3" in corrupted.stdout
        assert corrupted.stdout.splitlines()[-1] == "result=fail"
