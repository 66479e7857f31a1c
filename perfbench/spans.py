"""In-memory spans around calls into fracwave's modules.

The tracer replaces the module attributes that callers look up (for
example ``fracwave.solver.step``, which ``solver.run`` calls, and
``fracwave.harness.run``, which ``harness.run_level`` calls) with timing
wrappers.  Nothing inside ``src/fracwave`` is edited; ``uninstall``
puts every original back.  Spans are kept as (name, parent, start, end)
and written out when the pass ends.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from contextlib import contextmanager

from fracwave import acceptance, cq, fem, harness, oracle, solver

def _trajectory_bytes(traj) -> int:
    return sum(a.nbytes for a in (traj.times, traj.us, traj.energy, traj.history))


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []          # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self._patches: list = []
        self.history_bytes = 0         # computed: 8 * ndof * n per damped step
        self.max_traj_bytes = 0        # computed: largest returned Trajectory

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, after=None):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                after(args, result)
            return result
        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, name, after))
        else:
            replacement = self._wrap(original, name, after)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are built from."""
        for owner in (harness, acceptance, fem):
            self.patch(owner, "build_mesh", "fem.build_mesh")
            self.patch(owner, "assemble", "fem.assemble")
        self.patch(solver, "inverse_constant", "fem.inverse_constant")
        self.patch(fem.FemSystem, "solve_mass", "fem.solve_mass")
        self.patch(solver, "load_vector", "fem.load_vector")
        self.patch(solver, "ritz_projection", "fem.ritz_projection")
        self.patch(cq.CQScheme, "build", "cq.build")
        # acceptance's own bindings: mixed_operator's inner apply_cq call
        # goes to cq's module global and so is not counted twice
        for attr in ("apply_cq", "apply_cq_corrected", "mixed_operator"):
            self.patch(acceptance, attr, "cq.apply")
        for owner in (harness, acceptance, solver):
            self.patch(owner, "run", "solver.run", after=self._after_run)
        self.patch(solver, "initial_data", "solver.initial_data")
        self.patch(solver, "step", "solver.step", after=self._after_step)
        self.patch(solver, "discrete_energy", "solver.energy")
        self.patch(harness.ManufacturedCase, "source_temporal", "harness.source")
        self.patch(harness, "error_norm_energy", "harness.error_norms")
        self.patch(harness, "error_norm_l2max", "harness.error_norms")
        self.patch(harness, "verify_case", "harness.verify_case")
        self.patch(harness, "caputo_series", "fraccalc.caputo_series")
        self.patch(harness, "caputo_quadrature", "fraccalc.caputo_quadrature")
        for owner in (acceptance, oracle):
            self.patch(owner, "solve_volterra", "oracle.solve_volterra")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _after_step(self, args, _result) -> None:
        config, state = args[0], args[1]
        if config.a_gamma != 0.0:
            self.history_bytes += 8 * config.fem.ndof * state.n

    def _after_run(self, _args, traj) -> None:
        self.max_traj_bytes = max(self.max_traj_bytes, _trajectory_bytes(traj))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start", "end"])
            for sid, (name, parent, start, end) in enumerate(self.spans):
                writer.writerow([sid, parent, name, repr(start), repr(end)])

    def layer_metrics(self) -> dict[str, float]:
        """Summed span seconds (``_s``) and call counts (``_n``) per layer."""
        total = defaultdict(float)
        count = defaultdict(int)
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            d = end - start
            total[name] += d
            count[name] += 1
            if parent >= 0:
                child_time[parent] += d
                pname = self.spans[parent][0]
                total[name, pname] += d
                count[name, pname] += 1
        step_self = sum(end - start - child_time[sid]
                        for sid, (name, _, start, end) in enumerate(self.spans)
                        if name == "solver.step")
        solves_in_cfl = count["fem.solve_mass", "fem.inverse_constant"]
        metrics = {
            "fem.build_mesh_s": total["fem.build_mesh"],
            "fem.assemble_s": total["fem.assemble"],
            "fem.inverse_constant_s": total["fem.inverse_constant"],
            "fem.inverse_constant_solves": solves_in_cfl,
            "fem.solve_mass_step_s": total["fem.solve_mass", "solver.step"],
            "fem.solve_mass_n": count["fem.solve_mass"] - solves_in_cfl,
            "fem.load_vector_s": total["fem.load_vector"],
            "fem.ritz_projection_s": total["fem.ritz_projection"],
            "cq.build_s": total["cq.build"],
            "cq.apply_s": total["cq.apply"],
            "cq.apply_n": count["cq.apply"],
            "solver.run_s": total["solver.run"],
            "solver.initial_data_s": total["solver.initial_data"],
            "solver.step_n": count["solver.step"],
            "solver.step_self_s": step_self,
            "solver.energy_s": total["solver.energy"],
            "solver.history_gb": self.history_bytes / 1e9,
            "solver.traj_mb": self.max_traj_bytes / 1e6,
            "harness.source_s": total["harness.source"],
            "harness.source_n": count["harness.source"],
            "harness.error_norms_s": total["harness.error_norms"],
            "harness.verify_case_s": total["harness.verify_case"],
            "fraccalc.caputo_series_n": count["fraccalc.caputo_series"],
            "fraccalc.caputo_quadrature_n": count["fraccalc.caputo_quadrature"],
            "oracle.solve_volterra_s": total["oracle.solve_volterra"],
            "oracle.solve_volterra_n": count["oracle.solve_volterra"],
            "trace.spans_n": len(self.spans),
        }
        for i in range(1, 11):
            metrics[f"acceptance.criterion_{i}_s"] = total[f"acceptance.criterion_{i}"]
        return metrics
