"""The package's export list, what importing it and a damped run load, and
that every top-level name and every method in the package is used by the
package."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracwave

# Modules no fracwave code path loads: scalar Gamma comes from math, and
# the source oracle, rl_integral_quadrature, is a tanh-sinh rule written
# with math alone, so verify_case leaves them unloaded too.
_NOT_ON_IMPORT = ("scipy.special", "scipy.integrate", "scipy.optimize")

# A damped run of more than 128 steps builds the exponential tail of its
# CQ history from fraccalc.gauss_jacobi (scipy.linalg's eigh_tridiagonal):
# it leaves those modules unloaded and imports no numpy.polynomial (which
# scipy.sparse, in scipy 1.17, has already imported, so only the run's own
# imports can be checked).
_FRESH_PROCESS = f"""
import json, sys
import fracwave, fracwave.cli, fracwave.acceptance
loaded = [m for m in {_NOT_ON_IMPORT!r} if m in sys.modules]
from fracwave.fraccalc import FracParams
from fracwave.harness import mesh_system
from fracwave.solver import SimConfig, run
before = set(sys.modules)
system = mesh_system(1, (0.0, 1.0), 16)
config = SimConfig(fem=system, T=0.25, kappa=1.0 / 1024, frac=FracParams(0.5),
                   u0=system.mesh.nodes[system.mesh.interior][:, 0] ** 2)
steps = len(run(config).times) - 1
polynomial_by_run = "numpy.polynomial" in set(sys.modules) - before
loaded_after_run = [m for m in {_NOT_ON_IMPORT!r} if m in sys.modules]
from fracwave.fraccalc import rl_integral_monomial, rl_integral_quadrature
quadrature = rl_integral_quadrature(lambda s: s * s, 0.5, 1.7)
from fracwave.harness import build_case, verify_case
deviation = verify_case(build_case("smooth2d", FracParams(0.7)))
loaded_after_verify = [m for m in {_NOT_ON_IMPORT!r} if m in sys.modules]
print(json.dumps(dict(loaded=loaded, steps=steps, polynomial_by_run=polynomial_by_run,
                      loaded_after_run=loaded_after_run, quadrature=quadrature,
                      closed_form=rl_integral_monomial(0.5, 2.0, 1.7),
                      deviation=deviation, loaded_after_verify=loaded_after_verify)))
"""


def test_every_exported_name_resolves():
    missing = [name for name in fracwave.__all__ if not hasattr(fracwave, name)]
    assert not missing


def test_version_is_the_one_in_pyproject():
    # pyproject.toml states the version statically, because the benchmark's
    # run record reads it from there; fracwave.__version__ must agree
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert fracwave.__version__ == tomllib.loads(pyproject.read_text())["project"]["version"]


def test_star_import():
    namespace = {}
    exec("from fracwave import *", namespace)
    assert set(fracwave.__all__) <= set(namespace)


def _top_level_names(stmt) -> set:
    """Names a module-level statement defines: a function, a class or
    assigned names."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)}
    return set()


def _names_read(stmt) -> set:
    """Names a statement reads, bare or as an attribute of anything."""
    return ({node.id for node in ast.walk(stmt)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)})


def test_every_top_level_name_is_used_by_the_package():
    # code that only the tests call belongs in the tests: each function,
    # class and assigned name defined at the top of a module must be read
    # by some other top-level statement of the package; dunders and the
    # export list are the package's interface and need no caller
    defined, statements = {}, []
    for path in sorted(Path(fracwave.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = _top_level_names(stmt)
            for name in names:
                defined.setdefault(name, f"{path.name}:{stmt.lineno}")
            statements.append((names, _names_read(stmt)))
    unused = [f"{name} ({where})" for name, where in sorted(defined.items())
              if not (name.startswith("__") and name.endswith("__"))
              and name not in fracwave.__all__
              and not any(name in read and name not in names
                          for names, read in statements)]
    assert not unused, "defined in src/fracwave but not used there: " + ", ".join(unused)


def test_every_method_is_used_by_the_package():
    # the same for methods: each function in a class body, dunders aside,
    # must be read as an attribute somewhere in the package outside its
    # own body
    methods, reads = [], []
    for path in sorted(Path(fracwave.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads += [node for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
        methods += [(fn, f"{path.name}:{fn.lineno}")
                    for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                    for fn in cls.body
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (fn.name.startswith("__") and fn.name.endswith("__"))]
    unused = []
    for fn, where in methods:
        own = {id(node) for node in ast.walk(fn)}
        if not any(node.attr == fn.name and id(node) not in own for node in reads):
            unused.append(f"{fn.name} ({where})")
    assert not unused, "methods in src/fracwave not used there: " + ", ".join(unused)


def test_no_module_imports_a_private_name_of_another():
    # a _-prefixed name is its module's own: no other fracwave module may
    # import it (dunders such as __version__ are the package's interface)
    private = []
    for path in sorted(Path(fracwave.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "fracwave"):
                private += [f"{alias.name} ({path.name}:{node.lineno})" for alias in node.names
                            if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not private, "private names imported across src/fracwave: " + ", ".join(private)


def test_import_leaves_special_and_integrate_unloaded():
    src = str(Path(fracwave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FRESH_PROCESS],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    assert out["steps"] > 128          # the damped run built its exponential tail
    assert not out["polynomial_by_run"]
    assert out["loaded_after_run"] == []
    assert abs(out["quadrature"] - out["closed_form"]) <= 1e-13 * out["closed_form"]
    assert out["deviation"] <= 1e-7
    assert out["loaded_after_verify"] == []
