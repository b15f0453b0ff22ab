"""Run one wordgraphs command in this fresh interpreter and report on it.

Usage: python3 -I bench/child.py SRC_DIR TRACE ARG...

Imports wordgraphs from SRC_DIR, times the reference loop before and after
the command (so the ratio is taken in the process that did the work), runs
`wordgraphs.cli.main(ARG...)` with its stdout captured, and prints one JSON
object: exit code, captured stdout, command seconds, reference seconds and,
with TRACE=1, the per-layer totals.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = 3  # reference loops timed before the command, and again after


def main() -> int:
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, HERE)
    sys.path.insert(0, src)
    from refloop import time_reference

    import wordgraphs.cli

    if not os.path.abspath(wordgraphs.cli.__file__).startswith(os.path.abspath(src)):
        print(f"wordgraphs imported from {wordgraphs.cli.__file__}", file=sys.stderr)
        return 2
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    before = statistics.median(time_reference() for _ in range(REFS))
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        start = time.perf_counter()
        code = wordgraphs.cli.main(argv)
        took = time.perf_counter() - start
    after = statistics.median(time_reference() for _ in range(REFS))
    report = {
        "rc": code,
        "out": captured.getvalue(),
        "op_s": took,
        "ref_s": (before + after) / 2,
        "trace": tracer.snapshot() if tracer else None,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
