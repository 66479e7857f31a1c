"""The benchmark's self-test, run as part of the suite.

perfbench/check_bites.py checks that the benchmark's correctness checks
flag perturbed values and that its tracer still finds every layer it
wraps (solver.step, the SimState it reads, the history-size count), so
an interface change that breaks the tracer fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_check_bites_passes():
    proc = subprocess.run([sys.executable, "perfbench/check_bites.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
