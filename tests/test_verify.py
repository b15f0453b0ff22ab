import pytest

import wordgraphs.connectivity
import wordgraphs.verify
from wordgraphs.counting import CountTable
from wordgraphs.verify import run_verification


def test_small_run_passes():
    report = run_verification(6)
    assert report.passed
    assert not report.failures
    assert any(line.startswith("check=recurrence l=6") for line in report.lines)
    assert any(line.startswith("check=family l=6") for line in report.lines)
    assert any(line.startswith("check=equivalence l=6") for line in report.lines)


def test_bridges_runs_once_per_word(monkeypatch):
    real = wordgraphs.connectivity.bridges
    calls = []

    def counting(graph):
        calls.append(graph)
        return real(graph)

    for module in ("wordgraphs.connectivity", "wordgraphs.verify"):
        monkeypatch.setattr(f"{module}.bridges", counting)
    assert run_verification(5).passed
    # Bell(1) + ... + Bell(5) canonical words are swept.
    assert len(calls) == 1 + 2 + 5 + 15 + 52


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


def test_cap_skips_instead_of_failing():
    report = run_verification(5, cap=10)
    assert report.passed
    assert any("status=skipped reason=cap" in line for line in report.lines)
    # The family check is closed-form, so the cap never skips it.
    family = [line for line in report.lines if line.startswith("check=family")]
    assert len(family) == 1 + 2 + 3 + 4 + 5
    assert all(line.endswith("status=ok") for line in family)


def test_recurrence_is_filled_only_as_far_as_the_cap_admits(monkeypatch):
    real = wordgraphs.verify._paper_recurrence
    bounds = []

    def spy(max_length, max_alphabet, table):
        bounds.append((max_length, max_alphabet))
        return real(max_length, max_alphabet, table)

    monkeypatch.setattr("wordgraphs.verify._paper_recurrence", spy)
    # Bell(7) = 877 <= 1000 < Bell(8) = 4140: brute force stops after length 7.
    report = run_verification(30, cap=1000)
    assert report.passed
    assert bounds == [(7, 7)]
    assert any(line.startswith("check=recurrence l=7 n=7 recurrence=") for line in report.lines)
    assert "check=recurrence l=8 n=1 status=skipped reason=cap" in report.lines
    bounds.clear()
    assert run_verification(6, max_alphabet=3, cap=None).passed
    assert bounds == [(6, 3)]


def test_brute_force_is_never_asked_past_the_reach(monkeypatch):
    real = wordgraphs.verify.brute_force_strong_count
    lengths = []

    def spy(length, alphabet_size, cap):
        lengths.append(length)
        return real(length, alphabet_size, cap)

    monkeypatch.setattr("wordgraphs.verify.brute_force_strong_count", spy)
    # Bell(7) = 877 <= 1000 < Bell(8) = 4140: the reach is 7.
    report = run_verification(30, cap=1000)
    assert report.passed
    assert max(lengths) == 7
    refused = [line for line in report.lines if line.startswith("check=recurrence l=30 ")]
    assert len(refused) == 30
    assert all(line.endswith("status=skipped reason=cap") for line in refused)
    # Within the reach, brute force's own cap check still refuses: at cap 0
    # even length 1, one word, is over it.
    lengths.clear()
    report = run_verification(4, cap=0)
    assert lengths == [1]
    assert report.lines[0] == "check=recurrence l=1 n=1 status=skipped reason=cap"


def test_bounds_validated():
    with pytest.raises(ValueError):
        run_verification(1)
    with pytest.raises(ValueError):
        run_verification(4, max_alphabet=0)
