"""The benchmark's own self-test, run as part of the suite.

bench/ calls coso through its public entry points, so an API change that
breaks a workload or an output check fails here, not only when the
benchmark is next run.
"""
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
