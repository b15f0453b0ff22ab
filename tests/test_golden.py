"""Pinned witness words on a fixed set of graphs, and pinned CLI reports.

`synthesize_word` and `wordgraphs represent` are deterministic, so their
exact output is part of the contract, not only the graph it rebuilds.  The
expected values below pin that output; long ones are pinned by length and
SHA-256 digest, and the witnesses of a seeded corpus of 3,000 graphs by
one digest.  The reports of `verify`, `check`, `build`, `table`,
`histogram` and `count` are pinned the same way, by exit code, line count
and digest, so the order and format of every line is kept, not only the
fields a parser reads.  The whole corpus also runs in two child
interpreters under different hash seeds, which must print the same, pinned
bytes.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from wordgraphs.cli import main
from wordgraphs.connectivity import scc_decomposition, strongly_connected
from wordgraphs.graphs import Digraph, build_graph, letter_labeled, to_json
from wordgraphs.represent import (
    NotRepresentableError,
    representational_walk,
    synthesize_word,
)
from wordgraphs.words import Word, parse_word

from brute import walk_edges


def lcg(seed):
    """draw(bound) from a 64-bit LCG, so seeded inputs do not depend on `random`."""
    state = seed

    def draw(bound):
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return (state >> 33) % bound

    return draw


def lcg_strong_graph(symbols, letters, seed):
    """Graph of a closed walk that visits every symbol, drawn with a 64-bit LCG.

    The walk starts and ends at symbol 0, so the graph is strongly connected.
    """
    draw = lcg(seed)
    rest = list(range(1, symbols))
    for i in range(len(rest) - 1, 0, -1):
        j = draw(i + 1)
        rest[i], rest[j] = rest[j], rest[i]
    rest += [1 + draw(symbols - 1) for _ in range(letters - symbols - 1)]
    walk = [0, *rest, 0]
    return Digraph(frozenset(range(symbols)), frozenset(walk_edges(walk)))


def chain_graph(components):
    """A path of strong three-symbol components, each walked in one of three shapes."""
    shapes = [(0, 1, 2, 1, 0), (0, 2, 1, 2, 0, 1), (0, 1, 0, 2, 0)]
    letters = []
    for i in range(components):
        letters += [3 * i + c for c in shapes[i % 3]]
    return build_graph(Word(tuple(letters)))


GRAPHS = {
    "two-cycle": build_graph(parse_word("aba")),
    "source-then-cycle": build_graph(parse_word("abcb")),
    "mixed": build_graph(parse_word("abacbcdbdceafe")),
    "chain": build_graph(parse_word("ababcdcdcefegfhg")),
    "labels": Digraph(
        {"x1", "x2", "y", "zz"},
        {("x1", "x2"), ("x2", "x1"), ("x2", "y"), ("y", "zz"), ("zz", "y")},
    ),
    "strong-30": lcg_strong_graph(30, 90, seed=7),
    "strong-200": lcg_strong_graph(200, 600, seed=11),
    "chain-300": chain_graph(300),
}

# name: (synthesize_word(graph).text(), represent stdout on the JSON form)
EXPECTED = {
    "chain": ("ababcdcefegfhgfe", "ababcdcefegfhgfe\n"),
    "chain-300": (
        "len=6977 sha256=94f8fc60df5b83f692186c1b6bd70b760218cac7de834987c509a11730a8d11f",
        "len=6966 sha256=d581772dfa48bf45af47f37acbc04ed4d40fdc2e03d5adf88beb3b434d7d35f9",
    ),
    "labels": ("ababcdc", "x1,x2,x1,x2,y,zz,y\n"),
    "mixed": ("abacbafeabcbdcdceabdba", "abacbafeabcbdcdceabdba\n"),
    "source-then-cycle": ("abcb", "abcb\n"),
    "strong-200": (
        "len=3737 sha256=089c32b10ea17dddd18b14f07009d21516a0cf05da4da760950ad9268daf7fae",
        "len=3650 sha256=0103704bbd3a490122081a50b218489d711fac9aa6dcd01a46fd27e561c44040",
    ),
    "strong-30": (
        "len=365 sha256=c026a560068f3b1458ec876c3b993cf9e7133f3f5b9552436afb1e5d38ca0cea",
        "len=378 sha256=f4fd8c68786ff466ae608a3fe3a943332353d8dea46c3b189a843f63a6280909",
    ),
    "two-cycle": ("aba", "aba\n"),
}


def pin(text):
    if len(text) <= 120:
        return text
    return f"len={len(text)} sha256={hashlib.sha256(text.encode()).hexdigest()}"


def json_form(graph):
    if all(isinstance(v, int) for v in graph.vertices):
        graph = letter_labeled(graph)
    return to_json(graph)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_synthesized_word_is_pinned(name):
    assert pin(synthesize_word(GRAPHS[name]).text()) == EXPECTED[name][0]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_represent_output_is_pinned(name, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json_form(GRAPHS[name]), encoding="utf-8")
    assert main(["represent", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert pin(captured.out) == EXPECTED[name][1]


def seeded_corpus(count, seed):
    """Graphs of words with 1-4 alphabet-disjoint strong factors, a copy of
    each with string labels, and small random digraphs, some not representable."""
    draw = lcg(seed)
    for _ in range(count):
        letters, base = [], 0
        for _ in range(1 + draw(4)):
            n = 1 + draw(6)
            order = [base + i for i in range(n)]
            for i in range(n - 1, 0, -1):
                j = draw(i + 1)
                order[i], order[j] = order[j], order[i]
            letters += [*order, *(base + draw(n) for _ in range(draw(2 * n + 1))), order[0]]
            base += n
        ids = {}
        g = build_graph(Word(tuple(ids.setdefault(c, len(ids)) for c in letters)))
        yield g
        name = {v: f"s{draw(1000)}-{v}" for v in g.vertices}
        yield Digraph(set(name.values()), {(name[u], name[v]) for u, v in g.edges})
        n, threshold = 1 + draw(6), 1 + draw(3)
        yield Digraph(
            range(n),
            {(u, v) for u in range(n) for v in range(n) if u != v and draw(4) < threshold},
        )


def witness_line(graph):
    try:
        return ",".join(map(str, representational_walk(graph)))
    except NotRepresentableError:
        return "not representable"


# (graphs, not representable, SHA-256 of the witness lines)
CORPUS_EXPECTED = (
    3000,
    327,
    "7cbc0d8c8daa55d7394ce57015c030760a1d96dfa5503781f8905b9a1c499722",
)


def test_seeded_corpus_witnesses_are_pinned():
    lines = [witness_line(g) for g in seeded_corpus(1000, seed=21)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), lines.count("not representable"), digest) == CORPUS_EXPECTED


def test_chain_has_300_components():
    assert scc_decomposition(GRAPHS["chain-300"]).count == 300


def test_random_graphs_are_strong():
    assert strongly_connected(GRAPHS["strong-30"])
    assert strongly_connected(GRAPHS["strong-200"])


# verify argv: (exit code, stdout line count, stdout SHA-256)
VERIFY_EXPECTED = {
    ("--max-length", "8"): (
        0,
        89,
        "57277c5df09d17a4a94f41fe5cfadbfaf44f81d53136b34967e171051c175e5b",
    ),
    # Of the pinned runs, the one whose words most often share a graph.
    ("--max-length", "9"): (
        0,
        109,
        "ff5b1eea83becf76171f576056e7e011edad46d2b89bbc75110ac5b7ab9b00c4",
    ),
    # Bell(7) = 877: the largest run this cap admits.
    ("--max-length", "7", "--cap", "877"): (
        0,
        71,
        "dc1f6af0fbc7d2ed045e975b0f21e376292295d284e7e2e9874359bf1110b9d8",
    ),
    ("--max-length", "6", "--seed-count", "5:3:8"): (
        3,
        32,
        "342303b00f371f239c4cd04d7afdeb94b28e7117cb41ca86f8071a3211534d26",
    ),
}


@pytest.mark.parametrize("argv", sorted(VERIFY_EXPECTED))
def test_verify_output_is_pinned(argv, capsys):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert captured.err == ""
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert (code, captured.out.count("\n"), digest) == VERIFY_EXPECTED[argv]


COMMA_30 = ",".join(str(i) for i in range(30)) + ",0"
COMMA_28 = ",".join(str(i) for i in range(28)) + ",0,5,27"
# Three factors over 30 symbols; each seam leaves a factor by a symbol that
# is not its largest.
SEAMS_30 = ",".join(str(c) for c in [0, 1, 0, *range(2, 15), 2, *range(15, 30), 15, 29])

# argv: (exit code, stdout line count, stdout SHA-256)
CLI_EXPECTED = {
    ("check", "abcb", "--verbose"): (
        1,
        9,
        "26ac2d37134af8818b804970cefefde6b7a6b3ffaf810e4b07b44df16bd8c5dc",
    ),
    ("check", COMMA_30): (
        0,
        8,
        "bdf201b624e86e2e06bd8288cecda42a6dc8467ebb6b64c4f38be98871162abb",
    ),
    ("check", SEAMS_30): (
        1,
        8,
        "ca2260dd7095a49f321b0fb069f6a98a73f6ac0e4df2b51876122d7b3324da16",
    ),
    ("build", "abcab", "--format", "dot"): (
        0,
        8,
        "063c22ad40215c37ad6e2d8af8a661a3397baecd67e063d91d71a0f19ea31b84",
    ),
    ("build", "abcab", "--format", "json"): (
        0,
        1,
        "442fc4e8ff1fab3d2aad6605352c2e50acf61bc0ed8fedd092c928a6827c909e",
    ),
    ("build", COMMA_28, "--format", "dot"): (
        0,
        60,
        "8040c4fab8dc8960508d3d412be966b841c602c3d2feecff8b7fe795cf5c2e83",
    ),
    ("table", "--max-length", "60", "--max-alphabet", "60"): (
        0,
        1831,
        "515c4d7f0360983ac16eeb2f38a586b88dfb12eae676d339587ecf93b53804a9",
    ),
    ("histogram", "--length", "9", "--alphabet", "4"): (
        0,
        4,
        "9a708aecee8023284442796592663f19022e20261dca22f9333e83fcf7dd3c1a",
    ),
    ("histogram", "--length", "10", "--alphabet", "3"): (
        0,
        3,
        "a923ebae14953496951cc85d5ecc26c87b964a4e1d7b0802cc41d40540501a02",
    ),
    ("histogram", "--length", "8", "--alphabet", "5"): (
        0,
        5,
        "d3b49adbc3b296f2e7923d63c29987f5b52ebde415d6a3225e418f99447427c5",
    ),
    ("count", "--length", "60", "--alphabet", "12"): (
        0,
        1,
        "6eb893ae5f4d643770a18c2529d37d3d627aa910dcf30fb8d0f1cb36f442d42c",
    ),
    ("count", "--length", "60", "--alphabet", "12", "--partitions"): (
        0,
        1,
        "e59eeaa9c75e620665d26846294c7a58452107a5ac9e548b670b9763f4e4eb1f",
    ),
}


@pytest.mark.parametrize(
    "argv", sorted(CLI_EXPECTED), ids=lambda argv: " ".join(argv)[:48]
)
def test_cli_output_is_pinned(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.err == ""
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert (code, captured.out.count("\n"), digest) == CLI_EXPECTED[argv]


# Runs each argv read from stdin through `main` in this one interpreter and
# prints a JSON list of [exit code, stdout, stderr].
CORPUS_CHILD = """
import contextlib, io, json, sys
from wordgraphs.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_golden_cli_corpus_is_the_same_bytes_under_two_hash_seeds(tmp_path):
    """Every pinned CLI report and `represent` output, each seed in its own
    interpreter: string labels iterate in hash order, so each seed must
    print the pinned bytes, and the two seeds the same bytes."""
    pinned = {**CLI_EXPECTED, **{("verify", *argv): v for argv, v in VERIFY_EXPECTED.items()}}
    argvs = [list(argv) for argv in sorted(pinned)]
    for name in sorted(GRAPHS):
        path = tmp_path / f"{name}.json"
        path.write_text(json_form(GRAPHS[name]), encoding="utf-8")
        argvs.append(["represent", "--input", str(path)])
    outputs = []
    for seed in ("2", "9"):
        child = subprocess.run(
            [sys.executable, "-c", CORPUS_CHILD],
            input=json.dumps(argvs),
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert (child.returncode, child.stderr) == (0, ""), seed
        outputs.append(child.stdout)
    assert outputs[0] == outputs[1]
    results = json.loads(outputs[0])
    for argv, (code, out, err) in zip(argvs, results[: len(pinned)]):
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, out.count("\n"), digest, err) == (*pinned[tuple(argv)], ""), argv
    for name, (code, out, err) in zip(sorted(GRAPHS), results[len(pinned) :]):
        assert (code, pin(out), err) == (0, EXPECTED[name][1], ""), name
