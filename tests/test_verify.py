import pytest

import wordgraphs.counting
import wordgraphs.verify
from wordgraphs.counting import CapExceededError, CountTable
from wordgraphs.graphs import Digraph, build_graph
from wordgraphs.verify import VerificationReport, _keyed_words, run_verification
from wordgraphs.words import Word, iter_canonical_words


def test_small_run_passes():
    report = run_verification(6)
    assert report.passed
    assert not report.failures
    assert any(line.startswith("check=recurrence l=6") for line in report.lines)
    assert any(line.startswith("check=family l=6") for line in report.lines)
    assert any(line.startswith("check=equivalence l=6") for line in report.lines)


def test_run_makes_no_validated_words_or_graphs(monkeypatch):
    # Canonical words and their graphs are valid by construction, so the run
    # builds them without the public constructors' checks.
    calls = {}
    for cls in (Word, Digraph):
        real = cls.__init__

        def counting(self, *args, cls=cls, real=real):
            calls[cls.__name__] = calls.get(cls.__name__, 0) + 1
            real(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    Word((0, 1))
    assert calls == {"Word": 1}  # the spy is in place
    calls.clear()
    assert run_verification(6).passed
    assert calls == {}


def test_reports_do_not_share_their_lists():
    first, second = VerificationReport(), VerificationReport()
    first.lines.append("check=x status=fail")
    first.failures.append("check=x status=fail")
    assert second.lines == [] and second.failures == [] and second.passed


def test_graph_layers_run_once_per_distinct_graph(monkeypatch):
    calls = {}
    for name in (
        "bridges",
        "scc_decomposition",
        "edge_connectivity",
        "build_graph",
        "split_points",
    ):
        real = getattr(wordgraphs.verify, name)

        def counting(*args, name=name, real=real):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(f"wordgraphs.verify.{name}", counting)
    assert run_verification(5).passed
    # Distinct word graphs over 1..5 symbols: every graph at length l comes
    # back at l + 1, so the run meets 20, the count at length 5.  Each is
    # built and analysed once, its exact cut included.
    distinct = 20
    # Every canonical word, Bell(1) + ... + Bell(5), is still factored.
    words = 1 + 2 + 5 + 15 + 52
    assert calls == {
        "bridges": distinct,
        "scc_decomposition": distinct,
        "edge_connectivity": distinct,
        "build_graph": distinct,
        "split_points": words,
    }


def test_cut_fault_past_length_7_is_caught(monkeypatch):
    # The 7-cycle abcdefga is the first word with 7 symbols and a cut of 2,
    # so only an exact cut at length 8 can see this fault.
    real = wordgraphs.verify.edge_connectivity

    def weak_cut(graph):
        cut = real(graph)
        return 1 if len(graph.vertices) == 7 and cut >= 2 else cut

    monkeypatch.setattr("wordgraphs.verify.edge_connectivity", weak_cut)
    report = run_verification(8)
    assert not report.passed
    assert len(report.failures) == 1
    assert report.failures[0].startswith("check=equivalence l=8 word=abcdefga ")
    assert report.lines[-1] == report.failures[0]


def test_word_side_fault_on_a_cached_graph_is_caught(monkeypatch):
    # abb has the graph {(0, 1)} that ab already had analysed at l=2, n=2.
    real = wordgraphs.verify.split_points

    def lying(word):
        points = real(word)
        return [] if word.text() == "abb" else points

    monkeypatch.setattr("wordgraphs.verify.split_points", lying)
    report = run_verification(3)
    assert not report.passed
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert "check=equivalence l=3" in failure
    assert "word=abb" in failure


def test_first_failure_is_named_in_alphabet_then_word_order(monkeypatch):
    # aabc (n = 3) precedes abab (n = 2) lexicographically, but alphabet
    # sizes are checked in increasing order, so abab fails first.
    real = wordgraphs.verify.split_points

    def lying(word):
        points = real(word)
        return [1, *points] if word.text() in ("aabc", "abab") else points

    monkeypatch.setattr("wordgraphs.verify.split_points", lying)
    report = run_verification(4)
    assert not report.passed
    assert len(report.failures) == 1
    assert report.failures[0].startswith("check=equivalence l=4 word=abab ")
    assert report.lines[-1] == report.failures[0]


def test_keys_are_the_graphs_edge_masks():
    # Each key is read off the walk's prefixes; recompute it from the graph
    # of the word that `iter_canonical_words` yields in the same place.
    for length in range(1, 10):
        for n in range(1, length + 1):
            keyed = list(_keyed_words(length, n))
            words = list(iter_canonical_words(length, n))
            assert [letters for letters, _ in keyed] == [w.letters for w in words]
            for (_, key), word in zip(keyed, words):
                edges = build_graph(word).edges
                assert key == sum(1 << (u * n + v) for u, v in edges), (word.text(), n)


def inject_extra_bridge_on_aba(monkeypatch):
    real = wordgraphs.verify.bridges

    def extra_bridge(graph):
        found = real(graph)
        return [*found, (0, 1)] if graph.edges == {(0, 1), (1, 0)} else found

    monkeypatch.setattr("wordgraphs.verify.bridges", extra_bridge)


def test_graph_side_fault_names_the_first_word_with_that_graph(monkeypatch):
    inject_extra_bridge_on_aba(monkeypatch)
    report = run_verification(3)
    assert not report.passed
    assert len(report.failures) == 1
    assert report.failures[0].startswith("check=equivalence l=3 word=aba ")
    assert report.lines[-1] == report.failures[0]


def test_graph_table_does_not_outlive_its_run(monkeypatch):
    # A clean run first analyses every graph up to length 5; a table shared
    # between runs would let the second run skip the faulty bridges call.
    assert run_verification(5).passed
    inject_extra_bridge_on_aba(monkeypatch)
    report = run_verification(3)
    assert not report.passed
    assert report.failures == [report.lines[-1]]
    assert report.failures[0].startswith("check=equivalence l=3 word=aba ")


def test_run_reads_one_transfer_scan(monkeypatch):
    # Every cell the run checks, seeds included, comes from one snapshot of
    # the table, so the run never refills it cell by cell.
    scans = []
    real = wordgraphs.counting._transfer_scan

    def spy(*args):
        scans.append(args)
        return real(*args)

    monkeypatch.setattr("wordgraphs.counting._transfer_scan", spy)
    assert run_verification(10).passed
    assert scans == [(10, 10)]


def test_deterministic_output():
    assert run_verification(5).lines == run_verification(5).lines


def test_corrupted_memo_is_caught_and_named():
    table = CountTable()
    table.seed_strong_count(5, 3, 8)
    report = run_verification(6, table=table)
    assert not report.passed
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert "check=recurrence" in failure
    assert "l=5 n=3" in failure
    # Checks stop at the first counterexample.
    assert report.lines[-1] == failure


def test_component_mismatch_is_caught_and_named(monkeypatch):
    # One extra split point makes the factor count disagree with the graph.
    real = wordgraphs.verify.split_points
    monkeypatch.setattr(
        "wordgraphs.verify.split_points", lambda word: [*real(word), word.length]
    )
    report = run_verification(6)
    assert not report.passed
    assert len(report.failures) == 1
    assert report.failures[0].startswith("check=equivalence l=")
    assert report.lines[-1] == report.failures[0]


def test_alphabet_bound_restricts_checks():
    report = run_verification(6, max_alphabet=2)
    assert report.passed
    assert not any(" n=3 " in line for line in report.lines)


def test_boundary_run_the_cap_admits_checks_every_length():
    # Bell(7) = 877: the cap admits length 7 exactly, and nothing is skipped.
    report = run_verification(7, cap=877)
    assert report.passed
    assert all(line.endswith(" status=ok") for line in report.lines)
    equivalence = [line for line in report.lines if line.startswith("check=equivalence ")]
    assert len(equivalence) == 7
    assert any(line.startswith("check=recurrence l=7 n=7 recurrence=") for line in report.lines)


def test_recurrence_is_filled_to_the_requested_bounds(monkeypatch):
    real = wordgraphs.verify._paper_recurrence
    bounds = []

    def spy(max_length, max_alphabet, table):
        bounds.append((max_length, max_alphabet))
        return real(max_length, max_alphabet, table)

    monkeypatch.setattr("wordgraphs.verify._paper_recurrence", spy)
    assert run_verification(7, cap=877).passed
    assert bounds == [(7, 7)]
    bounds.clear()
    assert run_verification(6, max_alphabet=3, cap=None).passed
    assert bounds == [(6, 3)]


def test_over_the_cap_is_refused_before_any_work(monkeypatch):
    calls = []
    # The canonical walk and the keys read from it, as well as the oracles.
    walks = ("_canonical_prefixes", "_keyed_words")
    for name in ("brute_force_strong_count", "_paper_recurrence", *walks):
        monkeypatch.setattr(
            f"wordgraphs.verify.{name}", lambda *args, name=name, **kw: calls.append(name)
        )
    # Bell(8) = 4140 > 877, and at cap 0 even length 0, one word, is over it.
    for max_length, cap in ((8, 877), (4, 0), (10**30, 1000)):
        with pytest.raises(CapExceededError):
            run_verification(max_length, cap=cap)
    assert calls == []


def test_bounds_validated():
    with pytest.raises(ValueError):
        run_verification(1)
    with pytest.raises(ValueError):
        run_verification(4, max_alphabet=0)
