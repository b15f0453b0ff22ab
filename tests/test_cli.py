import io
import json
import math
import os
import subprocess
import sys
import time

import pytest

import wordgraphs.cli
import wordgraphs.connectivity
from wordgraphs.cli import main
from wordgraphs.graphs import build_graph, from_json, letter_labeled
from wordgraphs.words import parse_word

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def decimal(value):
    """str(value), past the interpreter's 4,300-digit limit where it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def run_with_stdin(stdin, *argv):
    """The CLI in a fresh interpreter, fed `stdin`."""
    return subprocess.run(
        [sys.executable, "-m", "wordgraphs", *argv],
        input=stdin,
        capture_output=True,
        text=True,
    )

class TestBuild:
    def test_json(self, capsys):
        code, out, err = run(capsys, "build", "abca", "--format", "json")
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert len(doc["edges"]) == 3
        assert out == '{"vertices":["a","b","c"],"edges":[["a","b"],["b","c"],["c","a"]]}\n'

    def test_dot_single_edge(self, capsys):
        code, out, err = run(capsys, "build", "aabb", "--format", "dot")
        assert code == 0
        edge_lines = [line for line in out.splitlines() if "->" in line]
        assert edge_lines == ["  a -> b;"]

    def test_empty_word(self, capsys):
        code, out, err = run(capsys, "build", "")
        assert code == 2
        assert "error" in err

    def test_unknown_format(self, capsys):
        code, out, err = run(capsys, "build", "ab", "--format", "xml")
        assert code == 2

    def test_word_from_stdin(self, capsys):
        piped = run_with_stdin("abca\n", "build", "-")
        code, out, err = run(capsys, "build", "abca")
        assert (piped.returncode, piped.stdout, piped.stderr) == (code, out, err)

class TestCheck:
    def test_strong_word(self, capsys):
        code, out, err = run(capsys, "check", "abca")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert "strong=true" in lines
        assert "weak=true" in lines
        assert "lambda=2" in lines
        assert "bridges=" in lines
        assert "k=1" in lines
        assert "sccs=1" in lines

    def test_factorable_word(self, capsys):
        code, out, err = run(capsys, "check", "abcb")
        assert code == 1
        lines = out.splitlines()
        assert "strong=false" in lines
        assert "bridges=a->b" in lines
        assert "factors=a|bcb" in lines
        assert "k=2" in lines
        assert "sccs=2" in lines

    def test_trivial_word(self, capsys):
        code, out, err = run(capsys, "check", "aa")
        assert code == 0
        lines = out.splitlines()
        assert "lambda=n/a" in lines
        assert "k=1" in lines

    def test_bad_word(self, capsys):
        code, out, err = run(capsys, "check", "a!b")
        assert code == 2

    def test_ids_beyond_26_symbols(self, capsys):
        cycle = ",".join(str(c) for c in [*range(2, 28), 2])
        code, out, err = run(capsys, "check", "0,1,0," + cycle)
        assert code == 1
        lines = out.splitlines()
        assert "word=0,1,0," + cycle in lines
        assert "bridges=0->2" in lines
        assert "factors=0,1,0|" + cycle in lines

    def test_verbose_adds_comment(self, capsys):
        code, out, err = run(capsys, "check", "abcb", "--verbose")
        assert any(line.startswith("#") for line in out.splitlines())

    def test_only_a_strong_word_builds_its_graph(self, capsys, monkeypatch):
        # The report is read off the factorization; the graph is built, and
        # lambda run, only for a strong word, and never the scc or bridge pass.
        calls = {}

        def spy(module, name):
            real = getattr(module, name)

            def counting(*args):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)

            monkeypatch.setattr(module, name, counting)

        spy(wordgraphs.cli, "build_graph")
        spy(wordgraphs.cli, "edge_connectivity")
        spy(wordgraphs.connectivity, "scc_decomposition")
        spy(wordgraphs.connectivity, "bridges")
        expected = {
            "abcb": {},
            "abca": {"build_graph": 1, "edge_connectivity": 1},
            "aa": {"build_graph": 1, "edge_connectivity": 1},
        }
        for word, counts in expected.items():
            calls.clear()
            code, out, err = run(capsys, "check", word)
            assert calls == counts, word
        # The last word, aa, has one symbol.
        assert "lambda=n/a" in out.splitlines()

    @pytest.mark.parametrize(
        "word, message",
        [
            ("ab" * 350_000 + "!" + "c" * 299_999, "unsupported character '!' at position 700000"),
            ("1,2," * 250_000 + "x", "unsupported character 'x' at position 1000000"),
            ("1,2," * 100_000 + "," + "3,4," * 150_000, "malformed token list: empty token at position 400000"),
        ],
    )
    def test_malformed_million_letter_word_names_one_position(self, capsys, monkeypatch, word, message):
        # The error names the first offending place, not the whole text.
        monkeypatch.setattr("sys.stdin", io.StringIO(word + "\n"))
        code, out, err = run(capsys, "check", "-")
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert len(err) < 200

    def test_word_from_stdin_beyond_the_argv_limit(self):
        # One argv string is capped at 128 KiB on Linux; stdin has no cap.
        word = "ab" * 99_999 + "cd"
        proc = run_with_stdin(word + "\n", "check", "-")
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert f"word={word}" in proc.stdout.splitlines()

class TestCount:
    def test_word_count(self, capsys):
        code, out, err = run(capsys, "count", "--length", "4", "--alphabet", "3")
        assert (code, out) == (0, "6\n")

    def test_partition_count(self, capsys):
        code, out, err = run(
            capsys, "count", "--length", "4", "--alphabet", "3", "--partitions"
        )
        assert (code, out) == (0, "1\n")

    def test_trivial_alphabet(self, capsys):
        code, out, err = run(capsys, "count", "--length", "5", "--alphabet", "1")
        assert (code, out) == (0, "1\n")

    def test_bad_bounds(self, capsys):
        code, out, err = run(capsys, "count", "--length", "0", "--alphabet", "1")
        assert code == 2

    def test_long_length_exits_cleanly(self, capsys):
        def surjections(l, n):  # n! S(l, n), by inclusion-exclusion
            return sum((-1) ** k * math.comb(n, k) * (n - k) ** l for k in range(n + 1))

        code, out, err = run(capsys, "count", "--length", "1200", "--alphabet", "5")
        assert (code, err) == (0, "")
        # S(l-1, n) <= T(l, n) <= S(l, n): the recurrence's first term, and a subset of all words.
        assert surjections(1199, 5) <= int(out) <= surjections(1200, 5)

    def test_over_the_cap_is_refused_before_any_work(self):
        start = time.perf_counter()
        proc = run_with_stdin("", "count", "--length", "2000", "--alphabet", "100")
        assert time.perf_counter() - start < 1
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_cap_flag(self, capsys):
        code, out, err = run(capsys, "count", "--length", "60", "--alphabet", "12", "--cap", "100")
        assert (code, out) == (2, "")
        assert "cap 100" in err
        code, out, err = run(capsys, "count", "--length", "20", "--alphabet", "4", "--cap", "1000")
        assert (code, out, err) == (0, "1071592148736\n", "")

    def test_counts_past_the_interpreter_digit_limit(self, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "count", "--length", "15000", "--alphabet", "2")
        assert (code, err) == (0, "")
        assert out == decimal(2 * (2**14999 - 15000)) + "\n"
        # The limit is lifted for the command only.
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_base_cases_are_never_refused(self, capsys):
        for length, alphabet, count in [(10**30, 1, 1), (5, 10**30, 0), (7, 7, 0)]:
            argv = ["--length", str(length), "--alphabet", str(alphabet), "--partitions"]
            code, out, err = run(capsys, "count", *argv, "--cap", "0")
            assert (code, out, err) == (0, f"{count}\n", "")

class TestTable:
    def test_stdout(self, capsys):
        code, out, err = run(
            capsys, "table", "--max-length", "5", "--max-alphabet", "3"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "l,n,stirling,T,phi"
        assert len(lines) == 13
        assert "4,3,6,1,6" in lines
        assert "3,2,3,1,2" in lines

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, err = run(
            capsys,
            "table",
            "--max-length",
            "5",
            "--max-alphabet",
            "3",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert "4,3,6,1,6" in target.read_text()

    def test_over_the_cap_is_refused(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, err = run(
            capsys, "table", "--max-length", "5", "--max-alphabet", "3", "--cap", "10",
            "--out", str(target),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not target.exists()
        # One long column costs its length, so even a single symbol is bounded.
        code, out, err = run(capsys, "table", "--max-length", str(10**9), "--max-alphabet", "1")
        assert (code, out) == (2, "")

    def test_one_symbol_cells_are_not_free(self, capsys, monkeypatch):
        # Over one symbol every count is 1, so only the per-cell units price
        # the kept and the printed rows; the refusal comes before any work.
        def no_table(*args):
            raise AssertionError("the table was built past the cap")

        monkeypatch.setattr("wordgraphs.cli.csv_lines", no_table)
        code, out, err = run(capsys, "table", "--max-length", "10000000", "--max-alphabet", "1")
        assert (code, out) == (2, "")
        assert err == (
            "error: counting to length 10000000 over 1 symbols costs about 30000000 steps, "
            "more than the cap 10000000\n"
        )

    def test_unwritable_file(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "table",
            "--max-length",
            "3",
            "--max-alphabet",
            "2",
            "--out",
            str(tmp_path / "missing" / "table.csv"),
        )
        assert code == 2
        assert "error" in err

class TestVerify:
    def test_passes_at_small_scale(self, capsys):
        code, out, err = run(capsys, "verify", "--max-length", "6")
        assert code == 0
        assert err == ""
        assert out.splitlines()[-1] == "result=pass"

    def test_injected_fault_exits_3_and_names_the_cell(self, capsys):
        code, out, err = run(
            capsys, "verify", "--max-length", "6", "--seed-count", "5:3:8"
        )
        assert code == 3
        assert "l=5 n=3" in out
        assert "status=fail" in out
        assert out.splitlines()[-1] == "result=fail"

    def test_bad_bounds(self, capsys):
        code, out, err = run(capsys, "verify", "--max-length", "1")
        assert code == 2

    def test_malformed_seed_count_names_the_option(self, capsys):
        for value in ("1:2", "a:b:c", "::", "1:2:3:4"):
            code, out, err = run(capsys, "verify", "--max-length", "3", "--seed-count", value)
            assert (code, out) == (2, "")
            assert err == (
                f"error: --seed-count expects L:N:VALUE, three integers; got {value!r}\n"
            )

    def test_over_the_cap_checks_nothing(self, capsys):
        # Bell(9) = 21,147 > 1000: no length is checked, so nothing passes.
        code, out, err = run(capsys, "verify", "--max-length", "9", "--cap", "1000", "--verbose")
        assert (code, out) == (2, "")
        assert err == "error: enumerating length 9 means more words than the cap 1000\n"

    def test_over_the_cap_is_refused_before_any_work(self):
        for argv in (["--max-length", "400", "--cap", "1000"], ["--max-length", str(10**30)]):
            start = time.perf_counter()
            proc = run_with_stdin("", "verify", *argv)
            assert time.perf_counter() - start < 1
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

class TestRepresent:
    def write(self, tmp_path, text):
        path = tmp_path / "graph.json"
        path.write_text(text)
        return str(path)

    def test_cycle_round_trip(self, capsys, tmp_path):
        doc = '{"vertices":["a","b","c"],"edges":[["a","b"],["b","c"],["c","a"]]}'
        code, out, err = run(capsys, "represent", "--input", self.write(tmp_path, doc))
        assert code == 0
        rebuilt = letter_labeled(build_graph(parse_word(out.strip())))
        assert rebuilt == from_json(doc)

    def test_not_representable(self, capsys, tmp_path):
        doc = '{"vertices":["a","b","c"],"edges":[["a","b"],["a","c"],["c","b"]]}'
        code, out, err = run(capsys, "represent", "--input", self.write(tmp_path, doc))
        assert code == 1
        assert out.strip() == "not representable"

    def test_self_loop_is_input_error(self, capsys, tmp_path):
        doc = '{"vertices":["a"],"edges":[["a","a"]]}'
        code, out, err = run(capsys, "represent", "--input", self.write(tmp_path, doc))
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "represent", "--input", str(tmp_path / "no.json"))
        assert code == 2

    def test_deeply_nested_document_is_input_error(self, capsys, tmp_path):
        path = self.write(tmp_path, "[" * 200_000)
        code, out, err = run(capsys, "represent", "--input", path)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_long_integer_literal_is_input_error(self, capsys, tmp_path):
        path = self.write(tmp_path, '{"vertices":[' + "1" * 5000 + '],"edges":[]}')
        code, out, err = run(capsys, "represent", "--input", path)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "set_int_max_str_digits" not in err

    def test_unprintable_label_is_input_error(self, capsys, tmp_path):
        doc = '{"vertices":["a\\nb","c"],"edges":[["a\\nb","c"],["c","a\\nb"]]}'
        code, out, err = run(capsys, "represent", "--input", self.write(tmp_path, doc))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

class TestHistogram:
    def test_example(self, capsys):
        code, out, err = run(capsys, "histogram", "--length", "4", "--alphabet", "3")
        assert code == 0
        assert out.splitlines() == ["1,1", "2,2", "3,3"]

    def test_two_symbols(self, capsys):
        code, out, err = run(capsys, "histogram", "--length", "3", "--alphabet", "2")
        assert out.splitlines() == ["1,1", "2,2"]

    def test_all_distinct(self, capsys):
        code, out, err = run(capsys, "histogram", "--length", "3", "--alphabet", "3")
        assert out.splitlines() == ["3,1"]

    def test_cap(self, capsys):
        code, out, err = run(
            capsys, "histogram", "--length", "12", "--alphabet", "3", "--cap", "100"
        )
        assert code == 2
        # The scan's cost model refuses before any work.
        start = time.perf_counter()
        code, out, err = run(capsys, "histogram", "--length", "2000", "--alphabet", "100")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error: counting to length 2000 over 100 symbols costs about ")
        assert err.endswith(" steps, more than the cap 10000000\n")

    def test_lengths_past_enumeration(self, capsys):
        code, out, err = run(capsys, "histogram", "--length", "2000", "--alphabet", "2")
        assert (code, err) == (0, "")
        assert out.splitlines() == [f"1,{2**1999 - 2000}", "2,1999"]
        start = time.perf_counter()
        code, out, err = run(capsys, "histogram", "--length", "400", "--alphabet", "20")
        assert time.perf_counter() - start < 5
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 20
        assert out.splitlines()[-1] == f"20,{math.comb(399, 19)}"

    def test_counts_past_the_interpreter_digit_limit(self, capsys):
        argv = ["--length", "15000", "--alphabet", "2"]
        code, out, err = run(capsys, "histogram", *argv)
        assert (code, out) == (2, "")
        code, out, err = run(capsys, "histogram", *argv, "--cap", "20000000")
        assert (code, err) == (0, "")
        assert out == f"1,{decimal(2**14999 - 15000)}\n2,14999\n"

class TestHarnessContract:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_negative_cap_is_usage_error_on_every_command(self, capsys):
        for argv in (
            ["count", "--length", "3", "--alphabet", "1"],
            ["count", "--length", "6", "--alphabet", "3"],
            ["histogram", "--length", "4", "--alphabet", "1"],
            ["table", "--max-length", "3", "--max-alphabet", "3"],
            ["verify", "--max-length", "3"],
        ):
            code, out, err = run(capsys, *argv, "--cap", "-1")
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_deterministic_output(self, capsys):
        first = run(capsys, "check", "abcab")
        second = run(capsys, "check", "abcab")
        assert first == second
        third = run(capsys, "table", "--max-length", "6", "--max-alphabet", "6")
        fourth = run(capsys, "table", "--max-length", "6", "--max-alphabet", "6")
        assert third == fourth

    def test_parser_reuse_matches_fresh_interpreters(self, capsys):
        # One process builds the parser once; each call must parse as if fresh.
        sequence = [
            ["check", "--verbose", "abcb"],
            ["check", "abcb"],
            ["verify", "--max-length", "4", "--max-alphabet", "3"],
            ["count", "--length", "3"],
            ["verify", "--max-length", "4"],
            ["histogram", "--length", "5", "--alphabet", "2"],
        ]
        codes = []
        for argv in sequence:
            fresh = run_with_stdin("", *argv)
            assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            codes.append(fresh.returncode)
        # The usage error (no --alphabet) sits between two valid calls.
        assert codes == [1, 1, 0, 2, 0, 0]

    def test_success_keeps_stderr_empty(self, capsys):
        for argv in (
            ["build", "abca"],
            ["check", "aba"],
            ["count", "--length", "3", "--alphabet", "2"],
            ["table", "--max-length", "3", "--max-alphabet", "2"],
            ["histogram", "--length", "3", "--alphabet", "2"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 0
            assert err == ""

    def test_closed_stdout_exits_141_quietly(self):
        # The read end closes before the child starts, so even output that
        # would fit in the pipe's buffer meets a broken pipe.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            for argv in (["verify", "--max-length", "9"], ["check", "abcb"]):
                proc = subprocess.run(
                    [sys.executable, "-m", "wordgraphs", *argv],
                    stdout=write_end,
                    stderr=subprocess.PIPE,
                )
                assert (proc.returncode, proc.stderr) == (141, b""), argv
        finally:
            os.close(write_end)

    def test_out_of_memory_is_one_error_line(self):
        # 4M two-digit tokens need about 250 MB once split, past the child's
        # 128 MB address space; the limit is set in the child only.
        resource = pytest.importorskip("resource")
        limit = 128 * 2**20

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "wordgraphs", "check", "-"],
            input=b"10," * 4_000_000 + b"11",
            capture_output=True,
            preexec_fn=cap_address_space,
            timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"error: out of memory\n"

    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path):
        # String labels iterate in hash order, so every order that reaches
        # stdout must come from sorting.  Three strong components joined by
        # one edge each, with antiparallel pairs.
        edges = [
            ["zeta", "alpha"], ["alpha", "zeta"], ["alpha", "b10"], ["b10", "zeta"],
            ["b10", "gamma"],
            ["gamma", "beta"], ["beta", "gamma"], ["beta", "delta"], ["delta", "gamma"],
            ["delta", "eps"],
            ["eps", "b2"], ["b2", "eps"],
        ]
        vertices = sorted({label for edge in edges for label in edge})
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
        commands = [
            ["represent", "--input", str(path)],
            ["build", "abcabdcb", "--format", "dot"],
            ["build", "abcabdcb", "--format", "json"],
            ["check", "abcb"],
        ]
        for argv in commands:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "wordgraphs", *argv],
                    capture_output=True,
                    text=True,
                    env={**os.environ, "PYTHONHASHSEED": seed},
                )
                for seed in ("0", "1")
            ]
            assert runs[0].stdout != ""
            assert runs[0].stdout == runs[1].stdout, argv
            assert runs[0].returncode == runs[1].returncode, argv
