"""Run the benchmark on several seeds and print each metric's spread.

    python3 bench/spread.py --workload words --seeds 1-10 --seconds 30 [--trace 1]

For each metric: the median over the runs, and the distance between the
first and third quartiles as a share of the median (the run-to-run spread
that BENCHMARK.json's bounds are set against).  Also checks that every run
was correct and that the failed share is the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    results = []
    for seed in seed_list(args.seeds):
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append(result)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"all correct: {all(r['correct'] for r in results)}; failed shares: {sorted(shares)}")
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median) if median else float("nan")
        print(f"{metric:45s} median {median:12.6g}  iqr/median {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
