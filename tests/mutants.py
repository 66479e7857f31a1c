"""Mutation harness: each mutant in the table must fail its tests.

Run as `python tests/mutants.py [NAME ...]`; with no names it runs every
mutant.  A mutant is one exact text edit of a file under src/ and the
pytest node ids that must catch it.  The harness copies src/ to a
temporary directory per mutant, applies the edit there, and runs the node
ids against the copy; the mutant is killed when every one of them fails.
An unmodified copy must pass the same node ids, and an old text that does
not occur exactly once in its file fails the harness, so a change that
moves a mutant's anchor updates the table in the same diff.  The exit
status is 0 when every selected mutant is killed.

Not a test module: pytest does not collect it; tests/test_mutants.py
runs the cheapest mutants as part of the suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# Copies tested at once, each in its own pytest process.
WORKERS = 2


class Mutant(NamedTuple):
    name: str
    path: str           # the file, relative to src/
    old: str            # exact text, found once in the file
    new: str
    kills: tuple        # node ids that must fail, relative to the repository root


MUTANTS = (
    Mutant("level_system_cell_off", "fracwave/harness.py",
           "return mesh_system(case.dimension, case.domain, cells)",
           "return mesh_system(case.dimension, case.domain, cells + 1)",
           ("tests/test_cli.py::TestSolve::test_one_assembly_per_mesh",)),
    Mutant("save_ignores_outdir", "fracwave/cli.py",
           "    if not args.outdir:\n        return\n",
           "    return\n",
           ("tests/test_cli.py::TestOde::test_outdir_csv",)),
    Mutant("save_writes_without_outdir", "fracwave/cli.py",
           "    if not args.outdir:\n        return\n",
           "",
           ("tests/test_cli.py::TestConstants::test_grid_rows_and_ordering",)),
    Mutant("history_term_scaled", "fracwave/solver.py",
           "rows.append(cq.known_sum(n))",
           "rows.append((1.0 + 1e-6) * cq.known_sum(n))",
           ("tests/test_solver.py::TestModeStructure::test_scalar_recurrence_equivalence",)),
    Mutant("record_slot_off", "fracwave/cq.py",
           "self.values[self._n % len(self.values)] = row",
           "self.values[(self._n + 1) % len(self.values)] = row",
           ("tests/test_cq.py::TestCQHistory::test_ring_matches_the_full_history"
            "[-0.5-False-65-7]",)),
    Mutant("tail_fold_skipped_at_64", "fracwave/cq.py",
           "if self.tail is not None:",
           "if self.tail is not None and lo > FAR_STEPS:",
           ("tests/test_cq.py::TestCQHistory::test_matches_direct_sum_at_every_step"
            "[0.5-False-300-7]",)),
    Mutant("startup_from_live_rows", "fracwave/cq.py",
           "startup @ self._first[:, cols]",
           "startup @ self.values[:2, cols]",
           ("tests/test_cq.py::TestCQHistory::test_ring_matches_the_full_history"
            "[0.5-True-300-7]",)),
    Mutant("panel_skips_last_column", "fracwave/cq.py",
           "cols = slice(start, start + width)",
           "cols = slice(start, start + width - 1)",
           ("tests/test_cq.py::TestCQHistory::test_ring_in_panels_of_two_columns"
            "[0.5-True-300]",)),
    Mutant("tail_panel_ignores_modes", "fracwave/cq.py",
           "else max(FAR_STEPS, self.tail.modes))",
           "else FAR_STEPS)",
           ("tests/test_solver.py::TestBlockBudget::test_tail_panels_stay_within_the_budget",)),
    Mutant("block_ignores_budget", "fracwave/solver.py",
           "block = min(CHECK_STEPS, budget_rows(system.ndof))",
           "block = CHECK_STEPS",
           ("tests/test_solver.py::TestBlockBudget::test_short_blocks_give_the_same_run",
            "tests/test_solver.py::TestBlockBudget"
            "::test_block_temporaries_stay_within_the_budget")),
    Mutant("observe_before_check", "fracwave/solver.py",
           "_check_block(config, rows, energy, lo)\n            observe(lo, rows)",
           "observe(lo, rows)\n            _check_block(config, rows, energy, lo)",
           ("tests/test_solver.py::TestObservedRun::test_divergence_reaches_no_observer",)),
    Mutant("guard_returns_theta", "fracwave/fem.py",
           "    if n <= LANCZOS_VECTORS:\n        return theta\n",
           "    return theta\n",
           ("tests/test_fem.py::TestInverseConstant::test_guard_against_dense_eigenvalue",)),
    Mutant("shift_margin_never_widens", "fracwave/fem.py",
           "margin *= 4.0",
           "margin *= 1.0",
           ("tests/test_fem.py::TestInverseConstant::test_refused_shift_widens_the_margin",)),
    Mutant("lanczos_unreorthogonalized", "fracwave/fem.py",
           "        w -= (basis[:k] @ (M @ w)) @ basis[:k]\n",
           "",
           ("tests/test_fem.py::TestInverseConstant::test_ritz_pair_over_the_whole_space",)),
    Mutant("refine_stops_unconverged", "fracwave/fem.py",
           "    for _ in range(n // LANCZOS_VECTORS):\n        if converged:\n            break\n"
           "        mu, x, converged = _top_ritz(shift_invert, system.M, x, tol)\n"
           "    if not converged:\n",
           "    if False:\n",
           ("tests/test_fem.py::TestInverseConstant::test_unconverged_refine_is_never_returned",)),
    Mutant("mass_solver_uncached", "fracwave/fem.py",
           "    @functools.cached_property\n    def _mass_solver",
           "    @property\n    def _mass_solver",
           ("tests/test_fem.py::TestSolvers::test_one_mass_factor_per_system",)),
)


class Outcome(NamedTuple):
    failed: set         # the node ids of the failed tests
    returncode: int
    output: str
    seconds: float


def _test_copy(dest: Path, mutant: Mutant | None, node_ids) -> Outcome:
    """Copy src/ to dest, apply the mutant's edit, and run node_ids on it."""
    start = time.perf_counter()
    src = dest / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = src / mutant.path
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
    # the copy, not the checkout, on the test process's path; no plugins
    # from entry points, which the tests do not use (hypothesis's alone
    # takes 0.8 s to import)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTEST_DISABLE_PLUGIN_AUTOLOAD"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *node_ids],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    failed = {line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return Outcome(failed, proc.returncode, proc.stdout + proc.stderr,
                   time.perf_counter() - start)


def _stale(mutant: Mutant) -> str | None:
    """Why the mutant's edit does not apply to the checkout, if it does not."""
    count = (ROOT / "src" / mutant.path).read_text().count(mutant.old)
    if count != 1:
        return (f"{mutant.name}: the old text occurs {count} times in"
                f" src/{mutant.path}, not once")
    return None


def _caught(node_id: str, failed: set) -> bool:
    """Whether node_id, or one of its parametrized cases, failed."""
    return any(f == node_id or f.startswith(node_id + "[") for f in failed)


def run(names=None) -> list[str]:
    """Test the named mutants (all by default); returns the problems found,
    none when the unmodified copy passes and every mutant is killed."""
    unknown = set(names or ()) - {m.name for m in MUTANTS}
    if unknown:
        return [f"unknown mutants: {', '.join(sorted(unknown))}"]
    chosen = [m for m in MUTANTS if names is None or m.name in names]
    problems = [p for p in map(_stale, chosen) if p]
    if problems:
        return problems
    node_ids = list(dict.fromkeys(n for m in chosen for n in m.kills))
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(WORKERS) as pool:
        base = pool.submit(_test_copy, Path(tmp) / "unmodified", None, node_ids)
        jobs = [(m, pool.submit(_test_copy, Path(tmp) / m.name, m, m.kills))
                for m in chosen]
        outcome = base.result()
        if outcome.returncode != 0:
            problems.append(f"the unmodified copy fails its node ids:\n{outcome.output}")
        for mutant, job in jobs:
            outcome = job.result()
            survived = [n for n in mutant.kills if not _caught(n, outcome.failed)]
            status = "survived" if survived else "killed"
            print(f"{status:8} {mutant.name:28} {len(outcome.failed)} failed"
                  f" in {outcome.seconds:.1f} s")
            if outcome.returncode not in (0, 1):
                problems.append(f"{mutant.name}: pytest exited {outcome.returncode}:\n"
                                f"{outcome.output}")
            elif survived:
                problems.append(f"{mutant.name} survived: {', '.join(survived)} passed")
    return problems


if __name__ == "__main__":
    found = run(sys.argv[1:] or None)
    for problem in found:
        print(problem, file=sys.stderr)
    sys.exit(1 if found else 0)
