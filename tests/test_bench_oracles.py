"""The benchmark's oracles have their own stdlib tests; they run here too.

A broken oracle would otherwise show only as `outputs_incorrect` when the
benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_oracle_tests_pass():
    result = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench", "-p", "test_*.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
