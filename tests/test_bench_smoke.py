"""Smoke run of the benchmark harness at its tiny size.

``bench/selftest.py`` runs every workload untraced and traced and
checks outputs, metric names and failure detection; running it here
keeps the harness and the layer tracer's hooks from rotting unnoticed.
It takes about ten seconds.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
