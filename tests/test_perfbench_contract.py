"""The benchmark's self-tests, run as part of the test suite.

perfbench/ traces functions of timelens by name, calls prepare_sweep and
checks which modules bind sfg_convolve.  A change that breaks that
contract fails here rather than only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
