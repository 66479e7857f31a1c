"""The benchmark's self-test, run as part of the suite.

perfbench/check_bites.py checks that the benchmark's correctness checks
flag perturbed values and that its tracer still finds every layer it
wraps (solver.step, the SimState it reads, the history-size count), so
an interface change that breaks the tracer fails here.  Its tracer check
takes a damped run; the undamped run, which keeps no CQ history, is
traced here in-process.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracwave import fem, solver

ROOT = Path(__file__).resolve().parents[1]


def test_check_bites_passes():
    proc = subprocess.run([sys.executable, "perfbench/check_bites.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_counts_an_undamped_run(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    system = fem.assemble(fem.build_mesh(1, (0.0, 1.0), 16))
    tracer = spans.Tracer()
    tracer.install()
    try:
        config = solver.SimConfig(fem=system, T=0.25, kappa=1.0 / 64,
                                  u0=np.ones(system.ndof))
        traj = solver.run(config)
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics()
    assert traj.history.shape == (0, system.ndof)
    assert m["solver.traj_mb"] * 1e6 == pytest.approx(
        sum(a.nbytes for a in (traj.times, traj.us, traj.energy, traj.history)))
    assert m["solver.history_gb"] == 0
