"""The package's export list, and what importing it loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import fracwave

# Modules a fresh `import fracwave` leaves unloaded: scalar Gamma comes
# from math, and rl_integral_quadrature loads quad (which imports
# scipy.optimize) on its first call.
_NOT_ON_IMPORT = ("scipy.special", "scipy.integrate", "scipy.optimize")

_FRESH_PROCESS = f"""
import json, sys
import fracwave, fracwave.cli, fracwave.acceptance
loaded = [m for m in {_NOT_ON_IMPORT!r} if m in sys.modules]
from fracwave.fraccalc import rl_integral_monomial, rl_integral_quadrature
quadrature = rl_integral_quadrature(lambda s: s * s, 0.5, 1.7)
print(json.dumps(dict(loaded=loaded, quadrature=quadrature,
                      closed_form=rl_integral_monomial(0.5, 2.0, 1.7))))
"""


def test_every_exported_name_resolves():
    missing = [name for name in fracwave.__all__ if not hasattr(fracwave, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from fracwave import *", namespace)
    assert set(fracwave.__all__) <= set(namespace)


def test_import_leaves_special_and_integrate_unloaded():
    src = str(Path(fracwave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FRESH_PROCESS],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    assert abs(out["quadrature"] - out["closed_form"]) <= 1e-13 * out["closed_form"]
