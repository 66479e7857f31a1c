"""Self-test of the benchmark: every correctness check flags a perturbed
value and admits round-off, and the tracer reports every per-layer metric
that BENCHMARK.json names.

    python3 perfbench/check_bites.py

Not collected by the repository's pytest run (the file name does not
match ``test_*.py``); it takes about ten seconds.
"""

import json
import sys
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as w  # noqa: E402
from fracwave import acceptance, fem, harness, solver  # noqa: E402
from fracwave.fraccalc import FracParams  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NOTES = json.loads((HERE / "metrics.json").read_text())


def _verdicts(outcomes):
    return [(o.ok, o.passed) for o in outcomes]


class AcceptanceCheck(unittest.TestCase):
    def results(self):
        red = w.REFERENCE["acceptance"]["red_at_seed"]
        return [acceptance.CriterionResult(i, "c", str(i) not in red, red.get(str(i), "fine"))
                for i in range(1, 11)]

    def test_seed_state_is_correct_with_two_red(self):
        out = w.check_acceptance(self.results())
        self.assertTrue(all(o.ok for o in out))
        self.assertEqual(sum(o.passed for o in out), 8)

    def test_green_criterion_turning_red_is_flagged(self):
        res = self.results()
        res[0] = replace(res[0], passed=False)
        self.assertEqual(_verdicts(w.check_acceptance(res))[0], (False, False))

    def test_red_criterion_with_changed_rates_is_flagged(self):
        res = self.results()
        res[4] = replace(res[4], detail=res[4].detail.replace("1.24", "1.25"))
        self.assertEqual(_verdicts(w.check_acceptance(res))[4], (False, False))

    def test_red_criterion_turning_green_passes(self):
        res = self.results()
        res[6] = replace(res[6], passed=True, detail="new")
        self.assertEqual(_verdicts(w.check_acceptance(res))[6], (True, True))

    def test_raising_criterion_is_flagged(self):
        res = self.results()
        res[2] = w._Raised("Traceback\nRuntimeError: boom")
        self.assertEqual(_verdicts(w.check_acceptance(res))[2], (False, False))


class LadderCheck(unittest.TestCase):
    def report(self, scale_l2=1.0, level=3):
        ref = w.REFERENCE["ladder2d"]
        rows = [(h, h / 10.0, e_en, e_l2 * (scale_l2 if lev == level else 1.0))
                for lev, (h, e_en, e_l2) in enumerate(ref["levels"])]
        rep = harness.ConvergenceReport(case="smooth2d", gamma=w.LADDER_GAMMA, alpha0=1.0,
                                        corrected=False, coupling=10.0, levels=rows)
        rep.fit()
        return rep

    def test_stored_values_pass(self):
        self.assertTrue(all(o.ok for o in w.check_ladder(self.report())))

    def test_round_off_is_admitted(self):
        self.assertTrue(all(o.ok for o in w.check_ladder(self.report(1 + 1e-9))))

    def test_perturbed_error_is_flagged(self):
        out = w.check_ladder(self.report(1 + 1e-5, level=1))
        self.assertEqual([o.ok for o in out], [True, False, True, True])

    def test_changed_rate_is_flagged(self):
        rep = self.report()
        rep.rate_l2 += 0.01
        self.assertFalse(w.check_ladder(rep)[-1].ok)

    def test_raised_ladder_fails_every_level(self):
        out = w.check_ladder(w._Raised("Traceback\nValueError: CFL violated"))
        self.assertEqual(len(out), w.LADDER_LEVELS)
        self.assertFalse(any(o.ok for o in out))


class DecayCheck(unittest.TestCase):
    """Uses the stored default-seed final states, which are the seed
    commit's outputs, so no long run is needed."""

    @classmethod
    def setUpClass(cls):
        cls.inputs = w.decay_inputs(w.DEFAULT_SEED)
        cls.modes = w._modes(cls.inputs.system)

    def outputs(self, delta=None, growth=0.0):
        out = []
        for gamma, corrected in w.DECAY_RUNS:
            final = np.array(w.REFERENCE["decay1d"]["final_state"][w.decay_label(gamma, corrected)])
            if delta is not None:
                final = final + delta
            energy = np.linspace(1.0, 0.5, 16)
            energy[5] = max(energy[5], 1.0 + growth)
            out.append(w.DecayResult(final, energy, FracParams(gamma=gamma).a_gamma))
        return out

    def verdicts(self, outputs, seed=w.DEFAULT_SEED):
        return [o.ok for o in w.check_decay(self.inputs, outputs, seed)]

    def test_stored_run_passes(self):
        self.assertEqual(self.verdicts(self.outputs()), [True, True])

    def test_round_off_is_admitted(self):
        self.assertEqual(self.verdicts(self.outputs(1e-12 * self.modes[0])), [True, True])

    def test_energy_growth_is_flagged(self):
        self.assertEqual(self.verdicts(self.outputs(growth=1e-6)), [False, True])

    def test_checked_mode_perturbation_is_flagged_for_any_seed(self):
        delta = 1e-6 * self.modes[w.DECAY_MODES - 1]
        self.assertEqual(self.verdicts(self.outputs(delta), seed=12345), [False, False])

    def test_unchecked_mode_perturbation_is_flagged_by_stored_state(self):
        delta = 1e-6 * self.modes[2]
        self.assertEqual(self.verdicts(self.outputs(delta)), [False, False])

    def test_raised_run_is_flagged(self):
        out = self.outputs()
        out[1] = w._Raised("Traceback\nSolverDivergence: energy grew")
        self.assertEqual(self.verdicts(out), [True, False])


class TracerCheck(unittest.TestCase):
    def test_layers_match_benchmark_and_notes(self):
        system = fem.assemble(fem.build_mesh(1, (0.0, 1.0), 16))
        tracer = spans.Tracer()
        originals = (solver.step, fem.FemSystem.solve_mass, harness.run)
        tracer.install()
        try:
            config = solver.SimConfig(fem=system, T=0.25, kappa=1.0 / 64,
                                      frac=FracParams(gamma=-0.5),
                                      u0=np.ones(system.ndof))
            traj = solver.run(config)
        finally:
            tracer.uninstall()
        self.assertEqual((solver.step, fem.FemSystem.solve_mass, harness.run), originals)
        m = tracer.layer_metrics()
        self.assertEqual(m["solver.step_n"], 15)
        self.assertEqual(m["fem.solve_mass_n"], 16)
        self.assertEqual(m["fem.inverse_constant_solves"] > 0, True)
        self.assertEqual(m["solver.history_gb"] * 1e9, 8 * system.ndof * sum(range(1, 16)))
        self.assertAlmostEqual(m["solver.traj_mb"] * 1e6, traj.us.nbytes + traj.history.nbytes
                               + traj.energy.nbytes + traj.times.nbytes)
        declared = {p["name"] for p in BENCHMARK["per_layer"]}
        self.assertEqual(set(m) | {"trace.overhead_s"}, declared)
        self.assertEqual({p["name"] for p in NOTES["per_layer"]}, declared)
        self.assertEqual({x["name"] for x in NOTES["workloads"]},
                         {x["name"] for x in BENCHMARK["workloads"]})


if __name__ == "__main__":
    unittest.main()
