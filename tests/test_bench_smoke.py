"""Smoke test of the benchmark harness: its self-check runs and passes.

`bench/run.py --selfcheck` runs one job of each workload, checks it, then
feeds corrupted outputs to the checks and confirms each one is caught.  It
takes about a second and writes no results file.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--selfcheck"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck passed" in proc.stdout
