"""The benchmark harness's self-test, run with the suite.

bench/tracing.py wraps library functions by name and reads their arguments
and results (plan.delta, the terms of plan.equations, the
equation_subfile_matrix(scheme, plan) hook), so a library change that breaks
those hooks fails here, not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
