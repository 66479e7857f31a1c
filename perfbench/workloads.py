"""The benchmark's three workloads: inputs from a seed, one pass of solves,
and the checks that decide whether each operation's outputs are correct.

Every workload keeps to sizes where the solver's default CFL guard
(power iteration in ``fem.inverse_constant``) already works: no workload
passes ``cfl_override`` or a hand-computed ``c_inv``.  The guard raises
for smooth1d at kappa = 1/2048 (340 dofs), so the 1D long-horizon
workload uses a fixed 127-dof mesh instead of a ladder that would reach
that size.
"""

from __future__ import annotations

import json
import math
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fracwave import acceptance, fem, harness, solver
from fracwave.fraccalc import FracParams

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
DEFAULT_SEED = REFERENCE["decay1d"]["seed"]

# ladder2d: smooth2d at gamma = 0.7, uncorrected, 4 levels from kappa = 1/40.
LADDER_GAMMA = 0.7
LADDER_LEVELS = 4
LADDER_KAPPA0 = 1.0 / 40.0
# Admits the round-off of a fast (FFT) CQ history that agrees with the
# direct sum to 1e-10 relative, and nothing that changes the scheme.
LADDER_RTOL = 1e-6

# decay1d: free decay of seeded sine modes on a fixed 128-cell mesh.
DECAY_CELLS = 128
DECAY_MODES = 8
DECAY_KAPPA = 1.0 / 2048.0
DECAY_T = 4.0
DECAY_RUNS = ((-0.5, False), (0.5, True))   # (gamma, corrected)
DECAY_CHECKED_MODES = (1, DECAY_MODES)
DECAY_GROWTH_TOL = 1e-8      # criterion 8's bound on damped energy growth
DECAY_MODE_TOL = 1e-9        # relative to the largest initial amplitude
DECAY_STATE_RTOL = 1e-7      # final state against the stored default-seed run


@dataclass
class Outcome:
    """One operation: a criterion, a ladder level or a decay run.

    ``ok`` is the benchmark's correctness verdict (counted in ``failed``);
    ``passed`` is the operation's own verdict, which differs from ``ok``
    only for acceptance criteria already red at the seed.
    """

    label: str
    ok: bool
    passed: bool
    detail: str


def setup(name: str, seed: int):
    """Build the workload's inputs; only decay1d depends on the seed."""
    if name == "acceptance":
        return None
    if name == "ladder2d":
        case = harness.build_case("smooth2d", FracParams(gamma=LADDER_GAMMA))
        harness.verify_case(case)
        return case
    if name == "decay1d":
        return decay_inputs(seed)
    raise ValueError(f"unknown workload {name!r}")


def no_span(_label: str):
    return nullcontext()


def run_pass(name: str, inputs, span=no_span):
    """One pass of the workload's solves; exceptions become outputs."""
    if name == "acceptance":
        out = []
        for i in range(1, 11):
            with span(f"acceptance.criterion_{i}"):
                out.append(_attempt(lambda: acceptance.run_all([i])[0]))
        return out
    if name == "ladder2d":
        return _attempt(lambda: harness.run_convergence(
            inputs, corrected=False, levels=LADDER_LEVELS,
            kappa0=LADDER_KAPPA0, check_rhs=False))
    if name == "decay1d":
        return [_attempt(lambda: _decay_run(inputs, g, c)) for g, c in DECAY_RUNS]
    raise ValueError(f"unknown workload {name!r}")


def check(name: str, inputs, outputs, seed: int) -> list[Outcome]:
    if name == "acceptance":
        return check_acceptance(outputs)
    if name == "ladder2d":
        return check_ladder(outputs)
    if name == "decay1d":
        return check_decay(inputs, outputs, seed)
    raise ValueError(f"unknown workload {name!r}")


class _Raised:
    def __init__(self, text: str) -> None:
        self.text = text


def _attempt(fn):
    # The pass must go on after a failed operation, so any error is kept
    # with its traceback and reported by the checks.
    try:
        return fn()
    except Exception:
        return _Raised(traceback.format_exc(limit=3))


def _raised_detail(out) -> str:
    return "raised: " + out.text.strip().splitlines()[-1]


# --- acceptance -----------------------------------------------------------

def check_acceptance(outputs) -> list[Outcome]:
    """Each criterion's passed flag.  A criterion red at the seed (5, 7)
    still counts as correct while it reproduces the seed's detail string,
    so its measured rates are pinned; it is not counted as passed."""
    red = REFERENCE["acceptance"]["red_at_seed"]
    result = []
    for i, out in enumerate(outputs, start=1):
        label = f"criterion_{i}"
        if isinstance(out, _Raised):
            result.append(Outcome(label, False, False, _raised_detail(out)))
        elif out.passed:
            result.append(Outcome(label, True, True, out.detail))
        elif str(i) in red:
            same = out.detail == red[str(i)]
            note = "red as at the seed" if same else "red with changed detail"
            result.append(Outcome(label, same, False, f"{note}: {out.detail}"))
        else:
            result.append(Outcome(label, False, False, f"red: {out.detail}"))
    return result


# --- ladder2d -------------------------------------------------------------

def check_ladder(report) -> list[Outcome]:
    """Each level's (h, error_energy, error_l2max) against the stored seed
    values; the finest level also carries the fitted rate_l2 to 2 decimals."""
    ref = REFERENCE["ladder2d"]
    if isinstance(report, _Raised):
        detail = _raised_detail(report)
        return [Outcome(f"level_{lev}", False, False, detail)
                for lev in range(LADDER_LEVELS)]
    result = []
    for lev in range(LADDER_LEVELS):
        label = f"level_{lev}"
        if lev >= len(report.levels):
            result.append(Outcome(label, False, False, "level missing"))
            continue
        h, _, e_en, e_l2 = report.levels[lev]
        r_h, r_en, r_l2 = ref["levels"][lev]
        bad = [f"{what} {got:.12g} != {want:.12g}"
               for what, got, want, rtol in (("h", h, r_h, 1e-12),
                                             ("error_energy", e_en, r_en, LADDER_RTOL),
                                             ("error_l2max", e_l2, r_l2, LADDER_RTOL))
               if not math.isclose(got, want, rel_tol=rtol)]
        if lev == LADDER_LEVELS - 1 and f"{report.rate_l2:.2f}" != f"{ref['rate_l2']:.2f}":
            bad.append(f"rate_l2 {report.rate_l2:.2f} != {ref['rate_l2']:.2f}")
        ok = not bad
        detail = "; ".join(bad) if bad else f"h={h:g} e_en={e_en:.6e} e_l2={e_l2:.6e}"
        result.append(Outcome(label, ok, ok, detail))
    return result


# --- decay1d --------------------------------------------------------------

@dataclass
class DecayInputs:
    system: fem.FemSystem
    amplitudes: np.ndarray     # a_k, k = 1..DECAY_MODES
    u0: np.ndarray


@dataclass
class DecayResult:
    final: np.ndarray          # u_N
    energy: np.ndarray         # E_1..E_N
    a_gamma: float


def decay_inputs(seed: int) -> DecayInputs:
    """u0 = sum_k a_k sin(k pi x) with |a_k| in [0.5, 1] and random signs,
    so every mode is excited whatever the seed."""
    mesh = fem.build_mesh(1, (0.0, 1.0), DECAY_CELLS)
    system = fem.assemble(mesh)
    rng = np.random.default_rng(seed)
    amplitudes = rng.choice((-1.0, 1.0), DECAY_MODES) * rng.uniform(0.5, 1.0, DECAY_MODES)
    u0 = amplitudes @ _modes(system)
    return DecayInputs(system=system, amplitudes=amplitudes, u0=u0)


def _modes(system: fem.FemSystem) -> np.ndarray:
    x = system.mesh.nodes[system.mesh.interior][:, 0]
    k = np.arange(1, DECAY_MODES + 1)
    return np.sin(np.pi * k[:, None] * x[None, :])


def decay_label(gamma: float, corrected: bool) -> str:
    return f"gamma={gamma:g}{'C' if corrected else 'U'}"


def _decay_run(inputs: DecayInputs, gamma: float, corrected: bool) -> DecayResult:
    frac = FracParams(gamma=gamma)
    config = solver.SimConfig(fem=inputs.system, T=DECAY_T, kappa=DECAY_KAPPA,
                              frac=frac, corrected=corrected, u0=inputs.u0,
                              v0=np.zeros_like(inputs.u0))
    traj = solver.run(config)
    return DecayResult(final=traj.us[-1].copy(), energy=traj.energy, a_gamma=frac.a_gamma)


def mode_eigenvalue(h: float, k: int) -> float:
    """Discrete eigenvalue of sin(k pi x) under (K, M) on the uniform mesh."""
    c = math.cos(k * math.pi * h)
    return (6.0 / h**2) * (1.0 - c) / (2.0 + c)


def check_decay(inputs: DecayInputs, outputs, seed: int) -> list[Outcome]:
    """Damped energy growth (gamma < 0), two modes of the final state
    against ``solver.scalar_run``, and for the default seed the final
    state against the stored run."""
    modes = _modes(inputs.system)
    h = inputs.system.mesh.h
    n_steps = int(math.ceil(DECAY_T / DECAY_KAPPA - 1e-12))
    scale = float(np.max(np.abs(inputs.amplitudes)))
    result = []
    for (gamma, corrected), out in zip(DECAY_RUNS, outputs):
        label = decay_label(gamma, corrected)
        if isinstance(out, _Raised):
            result.append(Outcome(label, False, False, _raised_detail(out)))
            continue
        bad, notes = [], []
        if gamma < 0.0:
            growth = float(np.max(out.energy)) / out.energy[0] - 1.0
            notes.append(f"growth {growth:.2e}")
            if not growth <= DECAY_GROWTH_TOL:
                bad.append(f"energy growth {growth:.3e} > {DECAY_GROWTH_TOL:g}")
        for k in DECAY_CHECKED_MODES:
            s = modes[k - 1]
            coef = float(s @ out.final) / float(s @ s)
            lam = mode_eigenvalue(h, k)
            d = solver.scalar_run(gamma, out.a_gamma, lam, DECAY_KAPPA, n_steps,
                                  d0=1.0, d1=1.0 - 0.5 * DECAY_KAPPA**2 * lam,
                                  dtd0=0.0, corrected=corrected)
            err = abs(coef - inputs.amplitudes[k - 1] * d[-1]) / scale
            notes.append(f"mode {k} {err:.1e}")
            if not err <= DECAY_MODE_TOL:
                bad.append(f"mode {k} differs from scalar_run by {err:.3e}")
        if seed == DEFAULT_SEED:
            stored = np.array(REFERENCE["decay1d"]["final_state"][label])
            dev = float(np.max(np.abs(out.final - stored))) / float(np.max(np.abs(stored)))
            notes.append(f"stored {dev:.1e}")
            if not dev <= DECAY_STATE_RTOL:
                bad.append(f"final state differs from stored seed run by {dev:.3e}")
        ok = not bad
        result.append(Outcome(label, ok, ok, "; ".join(bad) if bad else ", ".join(notes)))
    return result
