"""The three workloads: seeded inputs, operations, and output checks.

Each workload is a list of operations run in the same order every round.
An operation returns its output, which is checked once against the
oracles (every later round must reproduce it exactly).  Sizes are fixed
per workload; the seed draws the contents (words, graphs, cell jitter)
and the order of the operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import oracles
from refloop import time_reference

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 60


@dataclass
class Sample:
    output: Any
    op_s: float  # the operation alone
    ref_s: float  # the reference loop around it, in the process that ran it
    wall_s: float  # what the caller waited, process start-up included
    trace: dict | None


@dataclass
class Op:
    label: str
    measure: Callable[[Any], Sample]  # takes the installed Tracer or None
    check: Callable[[Any], str | None]  # returns a complaint or None


@dataclass
class Workload:
    ops: list[Op]
    in_children: bool  # operations run in child interpreters
    quality: Callable[[list], dict]  # first-round outputs -> quality metrics


class OpError(RuntimeError):
    """A child interpreter did not produce a report."""


def in_process(func: Callable[[], Any]) -> Callable[[Any], Sample]:
    def measure(tracer) -> Sample:
        before = time_reference()
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        output = func()
        took = time.perf_counter() - start
        snapshot = tracer.snapshot() if tracer is not None else None
        ref = (before + time_reference()) / 2
        return Sample(output, took, ref, took, snapshot)

    return measure


def cli(argv: list[str]) -> tuple[int, str]:
    """wordgraphs.cli.main in this process, stdout captured."""
    import wordgraphs.cli

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = wordgraphs.cli.main(argv)
    return code, captured.getvalue()


def in_child(src: str, argv: list[str]) -> Callable[[Any], Sample]:
    def measure(tracer) -> Sample:
        cmd = [sys.executable, "-I", CHILD, src, "0" if tracer is None else "1", *argv]
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0 or not proc.stdout:
            raise OpError(f"child exited {proc.returncode}: {proc.stderr[-400:]}")
        report = json.loads(proc.stdout.splitlines()[-1])
        return Sample(
            (report["rc"], report["out"]),
            report["op_s"],
            report["ref_s"],
            wall,
            report["trace"],
        )

    return measure


# --- count ----------------------------------------------------------------

SQUARE_CELLS = [(40, 8), (60, 12), (80, 16), (100, 20)]  # l ~ 5n
THIN_CELLS = [(300, 2), (600, 2), (500, 3), (400, 4)]  # well below the crash at l ~ 1000
CSV_BLOCK = (40, 20)


def build_count(seed: int, src: str, workdir: str) -> Workload:
    # Looked up at call time, so the tracer's wrappers are seen.
    from wordgraphs import counting

    rng = random.Random(seed)
    cells = [(l + rng.randint(-1, 1), n) for l, n in SQUARE_CELLS]
    cells += [(l + rng.randint(-2, 2), n) for l, n in THIN_CELLS]
    max_sq = max(l for l, _ in cells[: len(SQUARE_CELLS)])
    max_thin = max(l for l, _ in cells[len(SQUARE_CELLS) :])
    oracle: dict = {}

    def truth():
        if not oracle:
            oracle["sq"] = oracles.strong_table(max(max_sq, CSV_BLOCK[0]), 20)
            oracle["thin"] = oracles.strong_table(max_thin, 4)
            oracle["s"] = oracles.stirling_table(max(max_sq, max_thin), 20)
        return oracle

    def t_value(l: int, n: int) -> int:
        table = truth()["sq"] if l < len(truth()["sq"]) else truth()["thin"]
        return table[l][n]

    ops = []
    for l, n in cells:
        labeled = rng.random() < 0.5
        if labeled:
            run = lambda l=l, n=n: counting.CountTable().strong_word_count(l, n)
        else:
            run = lambda l=l, n=n: counting.CountTable().strong_partition_count(l, n)

        def check(value, l=l, n=n, labeled=labeled) -> str | None:
            t = t_value(l, n)
            s = truth()["s"]
            if not s[l - 1][n] <= t <= s[l][n]:
                return f"oracle T({l},{n}) outside its Stirling bounds"
            want = math.factorial(n) * t if labeled else t
            if value != want:
                return f"T({l},{n}): got {value}, oracle {want}"
            return None

        kind = "strong_word_count" if labeled else "strong_partition_count"
        ops.append(Op(f"{kind}({l},{n})", in_process(run), check))

    def check_csv(lines) -> str | None:
        max_l, max_n = CSV_BLOCK
        want = ["l,n,stirling,T,phi"]
        s = truth()["s"]
        for l in range(1, max_l + 1):
            for n in range(1, min(l, max_n) + 1):
                t = t_value(l, n)
                want.append(f"{l},{n},{s[l][n]},{t},{math.factorial(n) * t}")
        if list(lines) != want:
            bad = next((w for w, g in zip(want, lines) if w != g), "length")
            return f"csv_lines differs from the oracle at {bad}"
        return None

    ops.append(
        Op(
            f"csv_lines{CSV_BLOCK}",
            in_process(lambda: counting.csv_lines(*CSV_BLOCK, table=counting.CountTable())),
            check_csv,
        )
    )
    rng.shuffle(ops)
    return Workload(ops, in_children=False, quality=lambda outputs: {})


# --- words ----------------------------------------------------------------

RANDOM_STRONG = [(300, 30), (500, 50), (1200, 40), (2000, 30), (400, 200)]  # (letters, symbols)
CHAINS = [100, 150]  # strong components per chain word
CHAIN_PART = (7, 3)  # (letters, symbols) of each component
LONG = [(100_000, 26, 1), (120_000, 8, 1), (100_000, 20, 4)]  # (letters, symbols, components)
UNREPRESENTABLE = 3


def strong_letters(rng: random.Random, length: int, symbols: int, base: int = 0) -> list[int]:
    """A closed walk through every symbol: its graph is strongly connected.

    The start symbol occurs only at the two ends, so it has exactly two
    incident edges and the edge connectivity is 2 whatever the seed; the
    cost of the max-flow cut search grows with that degree, and leaving it
    to the seed made one `check` vary twofold between seeds.
    """
    first = list(range(symbols))
    rng.shuffle(first)
    others = first[1:]
    body = first + [rng.choice(others) for _ in range(length - symbols - 1)]
    return [base + c for c in body + [first[0]]]


def chain_letters(rng: random.Random, parts: list[tuple[int, int]]) -> list[int]:
    """Strong words over disjoint alphabets, concatenated: one component each."""
    out: list[int] = []
    base = 0
    for length, symbols in parts:
        out += strong_letters(rng, length, symbols, base)
        base += symbols
    return out


def canonical(letters: list[int]) -> list[int]:
    ids: dict[int, int] = {}
    return [ids.setdefault(c, len(ids)) for c in letters]


def name(symbol: int, symbols: int) -> str:
    return chr(97 + symbol) if symbols <= 26 else str(symbol)


def text_of(letters: list[int], symbols: int) -> str:
    sep = "" if symbols <= 26 else ","
    return sep.join(name(c, symbols) for c in letters)


def graph_json(vertices: list[str], edges) -> str:
    return json.dumps({"vertices": sorted(vertices), "edges": sorted([u, v] for u, v in edges)})


def check_report(letters: list[int], symbols: int, out: tuple[int, str]) -> str | None:
    """Check one `check` report against the oracles and the theorem's properties."""
    code, text = out
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    edges = oracles.word_edges(letters)
    sccs = len(oracles.strong_components(symbols, edges))
    bridge_set = oracles.multigraph_bridges(symbols, edges)
    strong = sccs == 1
    word = text_of(letters, symbols)
    if fields.get("word") != word:
        return "word= differs from the input"
    if code != (0 if strong else 1):
        return f"exit {code} for a word with {sccs} strong components"
    if fields["strong"] != ("true" if strong else "false") or fields["weak"] != "true":
        return "strong= or weak= wrong"
    if int(fields["sccs"]) != sccs or int(fields["k"]) != sccs:
        return f"sccs={fields['sccs']} k={fields['k']}, oracle {sccs}"
    got_bridges = set(fields["bridges"].split(";")) - {""}
    want_bridges = {f"{name(u, symbols)}->{name(v, symbols)}" for u, v in bridge_set}
    if got_bridges != want_bridges or len(bridge_set) != sccs - 1:
        return "bridges= differs from the low-link oracle"
    factors = fields["factors"].split("|")
    sep = "" if symbols <= 26 else ","
    if len(factors) != sccs or sep.join(factors) != word:
        return "factors do not concatenate back to the word, or miscount"
    alphabets = [set(f) if symbols <= 26 else set(f.split(",")) for f in factors]
    if sum(len(a) for a in alphabets) != len(set().union(*alphabets)):
        return "factors share symbols"
    cut = int(fields["lambda"])
    if not strong:
        want_cut_ok = cut == 1
    elif symbols <= 100:
        want_cut_ok = cut == oracles.stoer_wagner(symbols, edges)
    else:
        want_cut_ok = 2 <= cut <= oracles.min_multidegree(symbols, edges)
    if not want_cut_ok:
        return f"lambda={cut} disagrees with the cut oracle"
    return None


def check_walk(vertices: list[str], edges: set, out: tuple[int, str]) -> str | None:
    code, text = out
    if code != 0:
        return f"represent exited {code} on a word graph"
    line = text.rstrip("\n")
    walk = list(line) if all(len(v) == 1 for v in vertices) else line.split(",")
    walk_edges = {(a, b) for a, b in zip(walk, walk[1:]) if a != b}
    if set(walk) != set(vertices) or walk_edges != edges:
        return "the printed walk's graph differs from the input graph"
    return None


def representable(vertices: list[str], edges: set) -> bool:
    """The condensation is a path whose consecutive components share one edge."""
    index = {v: i for i, v in enumerate(vertices)}
    numbered = {(index[u], index[v]) for u, v in edges}
    comps = oracles.strong_components(len(vertices), numbered)
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    crossing = [(comp_of[u], comp_of[v]) for u, v in numbered if comp_of[u] != comp_of[v]]
    # Kosaraju lists components in topological order of the condensation.
    return sorted(crossing) == [(i, i + 1) for i in range(len(comps) - 1)]


def unrepresentable_graphs(rng: random.Random) -> list[tuple[list[str], set]]:
    """A strong core with two sinks, with two sources, and with a doubled boundary."""
    graphs = []
    for shape in range(UNREPRESENTABLE):
        core = 30 + rng.randrange(10)
        letters = strong_letters(rng, 4 * core, core)
        edges = {(f"v{u}", f"v{v}") for u, v in oracles.word_edges(letters)}
        vertices = [f"v{i}" for i in range(core)]
        if shape == 0:
            edges |= {(f"v{rng.randrange(core)}", "x"), (f"v{rng.randrange(core)}", "y")}
            vertices += ["x", "y"]
        elif shape == 1:
            edges |= {("x", f"v{rng.randrange(core)}"), ("y", f"v{rng.randrange(core)}")}
            vertices += ["x", "y"]
        else:
            tail = strong_letters(rng, 40, 10)
            edges |= {(f"w{u}", f"w{v}") for u, v in oracles.word_edges(tail)}
            vertices += [f"w{i}" for i in range(10)]
            a, b = rng.sample(range(core), 2)
            edges |= {(f"v{a}", "w0"), (f"v{b}", "w1")}
        graphs.append((vertices, edges))
    return graphs


def build_words(seed: int, src: str, workdir: str) -> Workload:
    rng = random.Random(seed)
    corpus = []  # (label, canonical letters, symbols)
    for length, symbols in RANDOM_STRONG:
        corpus.append((f"random{length}x{symbols}", strong_letters(rng, length, symbols)))
    for k in CHAINS:
        corpus.append((f"chain{k}", chain_letters(rng, [CHAIN_PART] * k)))
    for length, symbols, comps in LONG:
        per = symbols // comps
        parts = [(length // comps, per)] * comps
        corpus.append((f"long{length}x{symbols}c{comps}", chain_letters(rng, parts)))

    ops = []
    graphs = []
    for label, raw in corpus:
        letters = canonical(raw)
        symbols = max(letters) + 1
        word = text_of(letters, symbols)
        ops.append(
            Op(
                f"check:{label}",
                in_process(lambda word=word: cli(["check", word])),
                lambda out, letters=letters, symbols=symbols: check_report(letters, symbols, out),
            )
        )
        vertices = [name(c, symbols) for c in range(symbols)]
        edges = {(name(u, symbols), name(v, symbols)) for u, v in oracles.word_edges(letters)}
        graphs.append((f"represent:{label}", vertices, edges, True))
    for i, (vertices, edges) in enumerate(unrepresentable_graphs(rng)):
        graphs.append((f"represent:unrepresentable{i}", vertices, edges, False))

    walk_ops = set()
    for label, vertices, edges, expect_walk in graphs:
        path = os.path.join(workdir, label.replace(":", "-") + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(graph_json(vertices, edges))
        if expect_walk:
            if not representable(vertices, edges):
                raise RuntimeError(f"oracle calls the word graph {label} unrepresentable")
            check = lambda out, v=vertices, e=edges: check_walk(v, e, out)
            walk_ops.add(label)
        else:
            if representable(vertices, edges):
                raise RuntimeError(f"{label} was built to be unrepresentable")
            check = lambda out: (
                None if out == (1, "not representable\n") else f"expected exit 1, got {out[0]}"
            )
        ops.append(Op(label, in_process(lambda path=path: cli(["represent", "--input", path])), check))

    rng.shuffle(ops)

    def quality(outputs: list) -> dict:
        letters = 0
        for op, out in zip(ops, outputs):
            if op.label in walk_ops and out is not None:
                line = out[1].rstrip("\n")
                letters += len(line.split(",")) if "," in line else len(line)
        return {"represent.witness_letters": letters}

    return Workload(ops, in_children=False, quality=quality)


# --- exhaustive -----------------------------------------------------------

VERIFY_LENGTHS = [8, 7]
HISTOGRAM_CELLS = [(9, 4), (10, 3), (8, 5)]


def parse_fields(line: str) -> dict:
    return dict(token.split("=", 1) for token in line.split() if "=" in token)


def check_verify(max_length: int, brute: dict, out: tuple[int, str]) -> str | None:
    code, text = out
    lines = text.splitlines()
    if code != 0 or lines[-1:] != ["result=pass"]:
        return f"verify --max-length {max_length}: exit {code}, last line {lines[-1:]}"
    seen = set()
    for line in lines[:-1]:
        f = parse_fields(line)
        if f.get("status") != "ok":
            return f"not ok: {line}"
        l = int(f["l"])
        if f["check"] == "recurrence":
            n = int(f["n"])
            if int(f["recurrence"]) != brute[l, n] or int(f["enumerated"]) != brute[l, n]:
                return f"{line}: brute force gives {brute[l, n]}"
        elif f["check"] == "family":
            n = int(f["n"])
            want = math.factorial(n) * oracles.stirling2(l, n)
            if int(f["formula"]) != want or int(f["enumerated"]) != want:
                return f"{line}: n! S(l,n) = {want}"
        elif f["check"] == "equivalence":
            if int(f["words"]) != oracles.bell(l):
                return f"{line}: Bell({l}) = {oracles.bell(l)}"
        seen.add((f["check"], l, f.get("n")))
    want_lines = {
        (check, l, str(n))
        for l in range(1, max_length + 1)
        for n in range(1, l + 1)
        for check in ("recurrence", "family")
    } | {(check, l, None) for l in range(1, max_length + 1) for check in ("equivalence", "histogram")}
    if seen != want_lines:
        return f"verify --max-length {max_length}: checks missing or extra"
    return None


def check_histogram(l: int, n: int, out: tuple[int, str]) -> str | None:
    code, text = out
    if code != 0:
        return f"histogram {l} {n}: exit {code}"
    got = {int(k): int(v) for k, v in (line.split(",") for line in text.splitlines())}
    want = dict(oracles.component_histogram(l, n))
    if got != want:
        return f"histogram {l} {n} differs from enumeration"
    if sum(got.values()) != oracles.stirling2(l, n):
        return f"histogram {l} {n} total is not S({l},{n})"
    if got.get(1, 0) != oracles.strong_table(l, n)[l][n]:
        return f"histogram {l} {n}: k=1 bucket is not T({l},{n})"
    return None


def build_exhaustive(seed: int, src: str, workdir: str) -> Workload:
    rng = random.Random(seed)
    brute: dict = {}

    def check_v(out, max_length):
        if not brute:
            for l in range(1, max(VERIFY_LENGTHS) + 1):
                for n in range(1, l + 1):
                    brute[l, n] = oracles.brute_force_strong(l, n)
        return check_verify(max_length, brute, out)

    ops = [
        Op(
            f"verify --max-length {m}",
            in_child(src, ["verify", "--max-length", str(m)]),
            lambda out, m=m: check_v(out, m),
        )
        for m in VERIFY_LENGTHS
    ]
    ops += [
        Op(
            f"histogram {l} {n}",
            in_child(src, ["histogram", "--length", str(l), "--alphabet", str(n)]),
            lambda out, l=l, n=n: check_histogram(l, n, out),
        )
        for l, n in HISTOGRAM_CELLS
    ]
    rng.shuffle(ops)
    return Workload(ops, in_children=True, quality=lambda outputs: {})


BUILDERS = {"count": build_count, "words": build_words, "exhaustive": build_exhaustive}
