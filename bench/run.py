"""wordgraphs benchmark: one command, three workloads, end-to-end or traced.

    python3 bench/run.py --workload {count,words,exhaustive} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; wordgraphs is imported from its `src/`.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  `--trace 0` reports the end-to-end metrics;
`--trace 1` spends half the time untraced and half traced and reports the
per-layer metrics and the tracing overhead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from refloop import REF_SECONDS  # noqa: E402
from tracing import BRUTE_FORCE, Tracer  # noqa: E402
from workloads import BUILDERS  # noqa: E402

SETUP_SAMPLES = 31
MIN_ROUNDS = 5

# Times the reference loop five times in a fresh interpreter, then
# `import wordgraphs`; prints the import seconds and the median loop
# seconds.  Only `sys`, `time` and refloop are loaded before the import.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from refloop import time_reference
ref = sorted(time_reference() for _ in range(5))[2]
sys.path.insert(0, sys.argv[2])
start = time.perf_counter()
import wordgraphs
print(time.perf_counter() - start, ref)
"""

# Per-layer metrics: (name, trace layer, field) with field "s" inclusive
# seconds, "self_s" self seconds, "calls" call count, all per pass.
LAYER_METRICS = [
    ("connectivity.bridges.s", "connectivity.bridges", "s"),
    ("connectivity.bridges.calls", "connectivity.bridges", "calls"),
    ("connectivity.edge_connectivity.self_s", "connectivity.edge_connectivity", "self_s"),
    ("connectivity.edge_connectivity.calls", "connectivity.edge_connectivity", "calls"),
    ("connectivity.scc_decomposition.s", "connectivity.scc_decomposition", "s"),
    ("connectivity.scc_decomposition.calls", "connectivity.scc_decomposition", "calls"),
    ("connectivity.weakly_connected.s", "connectivity.weakly_connected", "s"),
    ("connectivity.condensation.s", "connectivity.condensation", "s"),
    ("represent.representational_walk.self_s", "represent.representational_walk", "self_s"),
    ("represent.covering_walk.s", "represent.covering_walk", "s"),
    ("words.parse_word.s", "words.parse_word", "s"),
    ("graphs.build_graph.s", "graphs.build_graph", "s"),
    ("graphs.build_graph.calls", "graphs.build_graph", "calls"),
    ("graphs.from_json.s", "graphs.from_json", "s"),
    ("factorization.split_points.s", "factorization.split_points", "s"),
    ("words.iter_canonical_words.s", "words.iter_canonical_words", "s"),
    ("counting.CountTable.strong_partition_count.s", "counting.CountTable.strong_partition_count", "s"),
    ("counting.csv_lines.s", "counting.csv_lines", "s"),
    ("counting.brute_force_strong_count.s", "counting.brute_force_strong_count", "s"),
    ("counting.scc_histogram.self_s", "counting.scc_histogram", "self_s"),
    ("verify.run_verification.self_s", "verify.run_verification", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
]
FIELD = {"s": 0, "self_s": 1, "calls": 2}
# Read from the outputs, not from spans; 0 where no operation produces them.
QUALITY_METRICS = {"represent.witness_letters": "letters"}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def setup_sample() -> tuple[float, float]:
    """(import seconds, reference seconds) in one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, HERE, SRC],
        capture_output=True, text=True, timeout=60, check=True,
    )
    took, ref = proc.stdout.split()
    return float(took), float(ref)


def timed_rounds(workload, seconds: float, tracer, first: dict) -> list[list]:
    """Whole rounds of every operation until `seconds` have passed.

    The first output of each operation is kept in `first` for checking;
    later outputs are replaced by whether they equal it, so memory does
    not grow with the number of rounds.
    """
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        row = []
        for i, op in enumerate(workload.ops):
            try:
                sample = op.measure(tracer)
            except Exception as exc:  # an operation that raises counts as failed
                row.append(exc)
                continue
            first.setdefault(i, sample.output)
            sample.output = sample.output == first[i]
            row.append(sample)
        rounds.append(row)
    return rounds


def judge(workload, rounds: list[list], first: dict) -> tuple[int, list[str]]:
    """Failed attempts: raised, or output not the first one, or that one fails its check."""
    failed = 0
    complaints = []
    for i, op in enumerate(workload.ops):
        problem = op.check(first[i]) if i in first else "never completed"
        if problem:
            complaints.append(f"{op.label}: {problem}")
        for row in rounds:
            sample = row[i]
            if isinstance(sample, Exception):
                complaints.append(f"{op.label}: {type(sample).__name__}: {sample}")
                failed += 1
            elif problem or not sample.output:
                failed += 1
                if not sample.output:
                    complaints.append(f"{op.label}: output changed between rounds")
    return failed, complaints


def per_op(workload, rounds, pick) -> list[list[float]]:
    return [
        [pick(row[i]) for row in rounds if not isinstance(row[i], Exception)]
        for i in range(len(workload.ops))
    ]


def ref_pass(workload, rounds, time_of) -> float:
    """Sum over operations of the median over rounds of (time / adjacent reference loop)."""
    ratios = per_op(workload, rounds, lambda s: time_of(s) / s.ref_s)
    return sum(statistics.median(r) for r in ratios if r)


def pass_ref(workload, rounds) -> float:
    return ref_pass(workload, rounds, lambda s: s.op_s)


def pass_wall(workload, rounds) -> float:
    """One pass as the caller waits for it (child start-up included), in
    reference loops, converted to seconds at REF_SECONDS per loop."""
    return ref_pass(workload, rounds, lambda s: s.wall_s) * REF_SECONDS


def layer_metrics(workload, rounds) -> dict:
    """Per-pass layer totals (median over rounds) from the traced rounds."""
    passes = []
    for row in rounds:
        totals: dict = {}
        lengths = 0
        for sample in row:
            if isinstance(sample, Exception):
                continue
            for layer, values in sample.trace["totals"].items():
                acc = totals.setdefault(layer, [0.0, 0.0, 0])
                for k in range(3):
                    acc[k] += values[k]
            lengths += sum(oracles.bell(l) for l in sample.trace["brute_force_lengths"])
        passes.append((totals, lengths))
    metrics = {}
    for metric, layer, field in LAYER_METRICS:
        values = [t.get(layer, [0.0, 0.0, 0])[FIELD[field]] for t, _ in passes]
        if field == "calls":  # a count seen in some pass, never a midpoint
            metrics[metric] = {"value": statistics.median_low(values), "unit": "count"}
        else:
            metrics[metric] = {"value": statistics.median(values), "unit": "s"}
    rates = [w / t[BRUTE_FORCE][0] if w and BRUTE_FORCE in t else 0.0 for t, w in passes]
    metrics["counting.brute_force.words_per_s"] = {
        "value": statistics.median(rates), "unit": "words/s"
    }
    return metrics


def edge_table(rounds) -> dict:
    """Calls per (parent > layer) pair over one pass, from the first traced round."""
    edges: dict = {}
    for sample in rounds[0]:
        if not isinstance(sample, Exception):
            for key, calls in sample.trace["edges"].items():
                edges[key] = edges.get(key, 0) + calls
    return dict(sorted(edges.items()))


def peak_rss_mb(in_children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["count", "words", "exhaustive"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "wordgraphs", "__init__.py")):
        return fail(f"no wordgraphs sources under {SRC}")
    sys.path.insert(0, SRC)
    import wordgraphs

    if not os.path.abspath(wordgraphs.__file__).startswith(SRC):
        return fail(f"wordgraphs imported from {wordgraphs.__file__}, not {SRC}")

    os.makedirs(OUT, exist_ok=True)
    setup_samples: list[tuple[float, float]] = []
    first: dict = {}
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = BUILDERS[args.workload](args.seed, SRC, workdir)
        if args.trace:
            plain = timed_rounds(workload, args.seconds / 2, None, first)
            tracer = Tracer()
            if not workload.in_children:
                tracer.install()
            try:
                traced = timed_rounds(workload, args.seconds / 2, tracer, first)
            finally:
                tracer.uninstall()
            rounds = plain + traced
        else:
            setup_sample()  # warm-up: writes the bytecode caches
            setup_samples = [setup_sample() for _ in range(SETUP_SAMPLES)]
            rounds = timed_rounds(workload, args.seconds, None, first)
        rss = peak_rss_mb(workload.in_children)
        failed, complaints = judge(workload, rounds, first)

    for line in complaints[:20]:
        print(f"bench: {line}", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(workload, traced)
        overhead = pass_ref(workload, traced) / pass_ref(workload, plain) - 1.0
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
        outputs = [first.get(i) for i in range(len(workload.ops))]
        quality = workload.quality(outputs)
        for metric, unit in QUALITY_METRICS.items():
            metrics[metric] = {"value": quality.get(metric, 0), "unit": unit}
        trace_file = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump({"metrics": metrics, "calls_by_parent": edge_table(traced)}, handle, indent=1)
    else:
        metrics = {
            "pass_ref": {"value": pass_ref(workload, rounds), "unit": "ref"},
            "wall_s": {"value": pass_wall(workload, rounds), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "setup_s": {
                "value": statistics.median(t / r for t, r in setup_samples) * REF_SECONDS,
                "unit": "s",
            },
        }
    result = {
        "correct": failed == 0,
        "attempted": len(rounds) * len(workload.ops),
        "failed": failed,
        "metrics": metrics,
    }
    result_file = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    samples = {
        op.label: [
            None if isinstance(row[i], Exception) else [row[i].op_s, row[i].ref_s, row[i].wall_s]
            for row in rounds
        ]
        for i, op in enumerate(workload.ops)
    }
    with open(result_file, "w", encoding="utf-8") as handle:
        json.dump({**result, "setup_samples": setup_samples, "samples": samples}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
