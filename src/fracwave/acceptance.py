"""End-to-end acceptance checks.

Ten numbered criteria covering CQ exactness and rate tables, discrete
positivity, the positivity-constant comparison, manufactured convergence
in 1D and 2D, energy conservation and dissipation, the scalar oracle's
startup asymptotics, and solver/oracle equivalence.  Each criterion
returns a result with a one-line detail string; run_all prints one
pass/fail line per criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fracwave.cq import CQScheme, apply_cq, apply_cq_corrected, mixed_operator
from fracwave.fem import assemble, build_mesh
from fracwave.fraccalc import FracParams, caputo_monomial, constants_table
from fracwave.harness import (GEOMETRY, build_case, fit_rate, level_system,
                              run_convergence, time_errors)
from fracwave.oracle import VolterraProblem, asymptotic_check, solve_volterra
from fracwave.solver import KeptRows, SimConfig, run, scalar_run


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.index} ({self.name}): {self.detail}"


def criterion_1() -> CriterionResult:
    """Corrected CQ exactness on constants (gamma<0) and linears (gamma>0)."""
    N = 256
    worst = 0.0
    for gamma in (0.25, 0.75, -0.25, -0.75):
        kappa = 1.0 / N
        scheme = CQScheme.build(gamma, kappa, N)
        t = kappa * np.arange(N + 1)
        if gamma < 0.0:
            g = np.ones(N + 1)
            exact = lambda s: s ** (-gamma) / math.gamma(1.0 - gamma)
        else:
            g = t
            exact = lambda s: s ** (1.0 - gamma) / math.gamma(2.0 - gamma)
        for n in range(1, N + 1):
            ref = exact(t[n])
            rel = abs(apply_cq_corrected(scheme, g, n) - ref) / abs(ref)
            worst = max(worst, rel)
    passed = worst <= 1e-10
    return CriterionResult(1, "corrected CQ exactness", passed,
                           f"worst relative error {worst:.2e} (tol 1e-10)")


# Orders implied by the four monomial error tables at fixed t = 1; None
# marks rows that are exact.  Superconvergent cells are admitted by the
# one-sided check: observed order >= table order - 0.1.
def _expected_order(op: str, gamma: float, beta: float) -> float | None:
    if op == "cq":
        return 2.0
    if op == "cqc":
        return None if (beta == 1.0 and gamma > 0.0) else 2.0
    if op == "mix":
        if beta == 1.0:
            return None if gamma > 0.0 else 1.0
        if beta == 2.5 and gamma > 0.0:
            return 2.0 - gamma
        return 2.0
    # mixc
    if beta == 1.0 or (beta == 2.0 and gamma > 0.0):
        return None
    if beta == 2.5 and gamma > 0.0:
        return 2.0 - gamma
    return 2.0


def _monomial_errors(op: str, beta: float, schemes) -> tuple[np.ndarray, float]:
    """Errors at t = 1 of op on t^beta, one per scheme, and the exact value."""
    gamma = schemes[0].gamma
    ref = caputo_monomial(gamma + 1.0 if op.startswith("mix") else gamma, beta, 1.0)
    errors = []
    for scheme in schemes:
        N = scheme.N
        g = (scheme.kappa * np.arange(N + 2)) ** beta
        if op == "cq":
            value = apply_cq(scheme, g, N)
        elif op == "cqc":
            value = apply_cq_corrected(scheme, g, N)
        else:
            slope0 = 1.0 if beta == 1.0 else 0.0
            value = mixed_operator(scheme, g, N, slope0, corrected=(op == "mixc"))
        errors.append(abs(value - ref))
    return np.array(errors), ref


def criterion_2() -> CriterionResult:
    """Empirical monomial orders against the lemma rate tables."""
    gammas = (0.25, 0.75, -0.25, -0.75)
    schemes = {gamma: [CQScheme.build(gamma, 1.0 / 2**k, 2**k) for k in range(4, 11)]
               for gamma in gammas}
    failures = []
    checked = 0
    for op in ("cq", "cqc", "mix", "mixc"):
        for gamma in gammas:
            for beta in (1.0, 2.0, 2.5, 3.0):
                errors, ref = _monomial_errors(op, beta, schemes[gamma])
                expected = _expected_order(op, gamma, beta)
                checked += 1
                if expected is None:
                    if errors.max() > 1e-10 * max(1.0, abs(ref)):
                        failures.append(f"{op} g={gamma:g} b={beta:g} not exact")
                    continue
                order = fit_rate(errors)[0]
                if order < expected - 0.1:
                    failures.append(
                        f"{op} g={gamma:g} b={beta:g} order {order:.2f} < {expected:g}"
                    )
    passed = not failures
    detail = (f"{checked} table cells, orders within tolerance"
              if passed else "; ".join(failures))
    return CriterionResult(2, "monomial rate tables", passed, detail)


def criterion_3() -> CriterionResult:
    """Quadratic-form positivity of uncorrected CQ for negative orders."""
    N, dim = 256, 4
    worst = math.inf
    for gamma in (-0.25, -0.75):
        kappa = 1.0 / N
        omega = CQScheme.build(gamma, kappa, N).omega
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            v = rng.standard_normal((N + 1, dim))
            v[0] = 0.0
            total = 0.0
            for k in range(dim):
                conv = np.convolve(omega, v[:, k])[: N + 1]
                total += float(conv @ v[:, k])
            norm = float(np.sum(v * v))
            worst = min(worst, total / norm)
    passed = worst >= -1e-10
    return CriterionResult(3, "discrete positivity", passed,
                           f"min normalized form {worst:.3e} (floor -1e-10)")


def criterion_4() -> CriterionResult:
    """C2 >= C1 strictly on the 99-point gamma grid at T = 1."""
    table = constants_table(99)
    margin = float(np.min(table[:, 2] - table[:, 1]))
    passed = margin > 0.0
    return CriterionResult(4, "positivity constants", passed,
                           f"min C2-C1 = {margin:.4f} over 99 gammas")


def _fit_subcase(case_name, gamma, alpha0, corrected, target, tol, levels=4):
    """One convergence fit graded against a pinned rate window.

    smooth2d is graded in the max-L2 norm, the other cases in the energy
    norm.  Returns (ok, text).  Fits flagged pre-asymptotic in the graded
    norm are not asserted, per the rate-fit guard, and count as skipped.
    """
    case = build_case(case_name, FracParams(gamma=gamma, alpha0=alpha0))
    report = run_convergence(case, corrected=corrected, levels=levels,
                             check_rhs=False)
    if case_name == "smooth2d":
        rate, pre_asymptotic = report.rate_l2, report.pre_asymptotic_l2
    else:
        rate, pre_asymptotic = report.rate_energy, report.pre_asymptotic_energy
    label = f"g={gamma:g}{'@a0=' + format(alpha0, 'g') if alpha0 != 1.0 else ''}" \
            f"{'C' if corrected else 'U'}"
    return _grade(label, rate, pre_asymptotic, target, tol)


def _grade(label, rate, pre_asymptotic, target, tol):
    if pre_asymptotic:
        return None, f"{label} {rate:.2f} skipped(pre-asymptotic)"
    ok = abs(rate - target) <= tol
    mark = "" if ok else f" OUTSIDE {target:g}+-{tol:g}"
    return ok, f"{label} {rate:.2f}{mark}"


def criterion_5() -> CriterionResult:
    """Smooth 1D rates with h = 6 kappa over 4 levels from kappa = 1/64."""
    subcases = [
        ("smooth1d", -0.75, 1.0, False, 1.0, 0.15),
        ("smooth1d", -0.75, 1.0, True, 2.0, 0.15),
        ("smooth1d", -0.25, 1.0, False, 1.0, 0.15),
        ("smooth1d", -0.25, 1.0, True, 2.0, 0.15),
        ("smooth1d", 0.75, 1.0, False, 1.25, 0.15),
        ("smooth1d", 0.75, 1.0, True, 2.0, 0.15),
        ("smooth1d", 0.25, 20.0, False, 1.75, 0.15),
    ]
    parts, passed = [], True
    for args in subcases:
        ok, text = _fit_subcase(*args)
        parts.append(text)
        if ok is False:
            passed = False
    return CriterionResult(5, "smooth 1D convergence", passed, "; ".join(parts))


def criterion_6() -> CriterionResult:
    """Nonsmooth 1D corrected rates against the startup-regularity bound."""
    parts, passed = [], True
    for gamma in (-0.75, -0.25, 0.25, 0.75):
        case = build_case("nonsmooth1d", FracParams(gamma=gamma))
        alpha = case.alpha
        bound = (min(2.0, 1.0 + alpha) if gamma < 0.0 else 1.0 + alpha) - 0.15
        report = run_convergence(case, corrected=True, levels=4, check_rhs=False)
        ok = report.rate_energy >= bound
        passed = passed and ok
        mark = "" if ok else f" BELOW {bound:.2f}"
        parts.append(f"g={gamma:g} rate {report.rate_energy:.2f}"
                     f" (floor {bound:.2f}){mark}")
    return CriterionResult(6, "nonsmooth 1D convergence", passed, "; ".join(parts))


def criterion_7() -> CriterionResult:
    """Smooth 2D rates at gamma = 0.7 in the max-L2 norm.

    Uncorrected leg, target 2 - gamma = 1.3 +- 0.2: a time-only fit on
    one fixed mesh, the ladder's level-0 mesh (h = 10/40, 8 cells per
    side), of max_n ||u_kappa(t_n) - u_{kappa/2}(t_n)||_M over the
    halvings kappa = 1/160 -> 1/320 -> 1/640 -> 1/1280.  With h = 10
    kappa the P1 error of order h^2 outweighs the time error of this
    scheme several times over, so a combined fit shows h^2, not 2 - gamma.

    Corrected leg, target 2 +- 0.2: the combined space-time error with
    h = 10 kappa over 3 levels from kappa = 1/40.
    """
    gamma, tol = 0.7, 0.2
    case = build_case("smooth2d", FracParams(gamma=gamma))
    errors = time_errors(case, level_system(case, GEOMETRY[2].kappa0), corrected=False,
                         kappa0=1.0 / 160, levels=3)
    ok_u, text_u = _grade(f"g={gamma:g}U time-only", *fit_rate(errors),
                          2.0 - gamma, tol)
    ok_c, text_c = _fit_subcase("smooth2d", gamma, 1.0, True, 2.0, tol, levels=3)
    passed = ok_u is not False and ok_c is not False
    return CriterionResult(7, "smooth 2D convergence", passed, f"{text_u}; {text_c}")


def criterion_8() -> CriterionResult:
    """Undamped energy conservation; damped monotone energy bound."""
    mesh = build_mesh(1, (0.0, 1.0), 64)
    system = assemble(mesh)
    u0 = np.sin(np.pi * mesh.nodes[mesh.interior][:, 0])
    kappa = 1.0 / 1000
    config = SimConfig(fem=system, T=1.0, kappa=kappa, frac=None, u0=u0)
    traj = run(config)
    drift = float(np.max(np.abs(traj.energy - traj.energy[0]))) / traj.energy[0]

    growth = 0.0
    for gamma in (-0.25, -0.75):
        config = SimConfig(fem=system, T=1.0, kappa=1.0 / 256,
                           frac=FracParams(gamma=gamma), corrected=False, u0=u0)
        traj = run(config)
        growth = max(growth, float(np.max(traj.energy)) / traj.energy[0] - 1.0)
    passed = drift <= 1e-10 and growth <= 1e-8
    return CriterionResult(
        8, "energy conservation/dissipation", passed,
        f"undamped drift {drift:.2e} (tol 1e-10); damped growth {growth:.2e}"
        f" (tol 1e-8)")


def criterion_9() -> CriterionResult:
    """Startup exponent of the oracle's second derivative."""
    cases = [
        # small alpha0 keeps the next-order term from contaminating the fit
        (0.5, VolterraProblem(gamma=0.5, a_gamma=FracParams(0.5, 0.25).a_gamma,
                              lam=4.0, u0=1.0, v0=0.0,
                              f=lambda t: math.cos(3.0 * t)), 0.5),
        (-0.5, VolterraProblem(gamma=-0.5, a_gamma=FracParams(-0.5, 2.0).a_gamma,
                               lam=4.0, u0=1.0, v0=1.0,
                               f=lambda t: math.cos(3.0 * t)), 0.5),
    ]
    parts, passed = [], True
    for gamma, problem, target in cases:
        exponent = asymptotic_check(problem, T=1.0, M=4096)
        ok = abs(exponent - target) <= 0.05
        passed = passed and ok
        mark = "" if ok else " OUTSIDE"
        parts.append(f"g={gamma:g} exponent {exponent:.3f}"
                     f" (target {target:g}+-0.05){mark}")
    return CriterionResult(9, "oracle startup asymptotics", passed, "; ".join(parts))


def criterion_10() -> CriterionResult:
    """Mode solve vs scalar recurrence vs Volterra reference."""
    gamma, k_mode, T = 0.5, 3, 1.0
    frac = FracParams(gamma=gamma)
    N = 256
    kappa = T / N
    system = level_system(build_case("smooth1d", frac), kappa)
    mesh = system.mesh
    x = mesh.nodes[mesh.interior][:, 0]
    mode = np.sin(k_mode * np.pi * x)
    # discrete eigenvalue of the interpolated mode under (K, M)
    h = mesh.h
    c = math.cos(k_mode * math.pi * h)
    lam_h = (6.0 / h**2) * (1.0 - c) / (2.0 + c)

    config = SimConfig(fem=system, T=T, kappa=kappa, frac=frac, corrected=True,
                       u0=mode.copy(), v0=np.zeros_like(mode))
    probe = int(np.argmax(np.abs(mode)))
    kept = KeptRows(column=probe)
    run(config, observe=kept)
    fem_trace = kept.us / mode[probe]

    d = scalar_run(gamma, frac.a_gamma, lam_h, kappa, N, d0=1.0,
                   d1=1.0 - 0.5 * kappa**2 * lam_h, dtd0=0.0, corrected=True)
    mode_diff = float(np.max(np.abs(fem_trace - d)))

    # Volterra solution of the same scalar ODE, with Richardson-style
    # self-estimates bounding both discretization errors
    problem = VolterraProblem(gamma=gamma, a_gamma=frac.a_gamma, lam=lam_h,
                              u0=1.0, v0=0.0)
    coarse = solve_volterra(problem, T, 2 * N)
    fine = solve_volterra(problem, T, 4 * N)
    volterra_u = fine.u[-1]
    volterra_est = abs(fine.u[-1] - coarse.u[-1])
    d_half = scalar_run(gamma, frac.a_gamma, lam_h, kappa / 2.0, 2 * N, d0=1.0,
                        d1=1.0 - 0.5 * (kappa / 2.0) ** 2 * lam_h, dtd0=0.0,
                        corrected=True)
    scheme_est = abs(d[-1] - d_half[-1])
    cross = abs(d[-1] - volterra_u)
    budget = 4.0 * (scheme_est + volterra_est)
    passed = mode_diff <= 1e-12 and cross <= budget
    return CriterionResult(
        10, "oracle/solver equivalence", passed,
        f"mode vs scalar {mode_diff:.2e} (tol 1e-12); scalar vs Volterra"
        f" {cross:.2e} within budget {budget:.2e}")


_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
             criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]


def run_all(indices=None) -> list[CriterionResult]:
    selected = indices or range(1, 11)
    return [_CRITERIA[i - 1]() for i in selected]
