"""Byte-identical outputs: every golden-checked run must match bench/golden.json."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_golden_digests_unchanged():
    done = subprocess.run([sys.executable, "bench/run.py", "--check"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
