"""Each demo runs to completion as a script and leaves nothing behind,
and the golden pins hold when checked without pytest."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp), PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert os.listdir(tmp) == []
    assert os.listdir(tmp_path) == ["tmp"]


def test_golden_check_needs_no_third_party_module():
    # -S leaves site-packages, and so pytest, off the module path
    done = subprocess.run([sys.executable, "-S",
                           str(ROOT / "tests" / "golden_check.py")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith("all pins hold\n")
