"""Manufactured-solution experiment driver.

Builds the three manufactured cases (trigonometric 1D and 2D, and a 1D
solution with the characteristic t^(2+ceil(gamma)-gamma) startup
singularity), computes the two error norms used to report convergence,
runs refinement ladders with h proportional to kappa, and produces the
damping demonstration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import gamma as gamma_fn

from fracwave.fem import FemSystem, ScalarField, assemble, build_mesh, interpolate
from fracwave.fraccalc import (
    GAUSS_JACOBI_NODES,
    FracParams,
    caputo_quadrature,
    caputo_series,
    rl_integral_gauss_jacobi,
)
from fracwave.solver import SeparableSource, SimConfig, Trajectory, run

# Largest phase omega * t of the trig time factor at which the
# Gauss-Jacobi rule has converged to round-off: against adaptive
# quadrature it agrees to 1e-13 relative up to t = 4.5, 1e-11 at t = 5
# and 6e-6 at t = 6.
_MAX_PHASE = 2.0 * GAUSS_JACOBI_NODES

# Floats per block of steps in the batched M-norms of trajectories.
_NORM_BLOCK_FLOATS = 2**16

# verify_case: quad cross-checks of the source at this many seeded random
# times, each within this relative tolerance.
_VERIFY_SAMPLES = 20
_VERIFY_TOL = 1e-7
_VERIFY_SEED = 7

# Times near t = 0 at which the source's singular exponent is fitted.
_SINGULAR_FIT_TIMES = np.geomspace(1e-9, 1e-7, 12)

# Step of the damping demonstration: kappa = h / _DAMPING_COUPLING.
_DAMPING_COUPLING = 10.0

# Assembled systems kept for reuse by mesh_system; the acceptance
# criteria use eight distinct meshes.
_SYSTEMS_KEPT = 8


@dataclass
class TemporalFactor:
    """Scalar time factor with closed-form derivatives and its fractional
    derivative of order gamma+1; each maps a time or an array of times
    to values of the same shape."""

    value: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    frac: Callable[[np.ndarray], np.ndarray]


def _trig_temporal(gamma: float) -> TemporalFactor:
    """sin(24 t) + cos(12 t); D^(gamma+1) is the Riemann-Liouville integral
    of order 1-gamma of d2 (gamma > 0) or of order -gamma of d1 (gamma < 0)."""
    w1, w2 = 24.0, 12.0
    value = lambda t: np.sin(w1 * t) + np.cos(w2 * t)
    d1 = lambda t: w1 * np.cos(w1 * t) - w2 * np.sin(w2 * t)
    d2 = lambda t: -w1**2 * np.sin(w1 * t) - w2**2 * np.cos(w2 * t)
    g, beta = (d2, 1.0 - gamma) if gamma > 0.0 else (d1, -gamma)

    def frac(t):
        if w1 * np.max(t) > _MAX_PHASE:
            raise ValueError(
                f"time {np.max(t):g} beyond the source's range t <= {_MAX_PHASE / w1:g}")
        return rl_integral_gauss_jacobi(g, beta, t)

    return TemporalFactor(value=value, d1=d1, d2=d2, frac=frac)


def _poly_temporal(frac_params: FracParams) -> TemporalFactor:
    """1 + t + t^2 - a_gamma/Gamma(3-gamma+ceil(gamma)) t^(2+ceil(gamma)-gamma)."""
    gamma = frac_params.gamma
    ceil_g = math.ceil(gamma)
    mu = 2.0 + ceil_g - gamma
    c = -frac_params.a_gamma / gamma_fn(3.0 - gamma + ceil_g)
    # mu - 2 = ceil(gamma) - gamma > 0, so every power vanishes at t = 0
    value = lambda t: 1.0 + t + t * t + c * t**mu
    d1 = lambda t: 1.0 + 2.0 * t + c * mu * t ** (mu - 1.0)
    d2 = lambda t: 2.0 + c * mu * (mu - 1.0) * t ** (mu - 2.0)

    def frac(t):
        return caputo_series(((0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (mu, c)),
                             gamma + 1.0, t)

    return TemporalFactor(value=value, d1=d1, d2=d2, frac=frac)


@dataclass
class ManufacturedCase:
    """Exact solution spatial(x) * temporal(t) plus everything the solver
    and error norms need: the spatial Laplacian coefficient (spatial is a
    Dirichlet eigenfunction, -lap(spatial) = lap_coef * spatial), the
    temporal derivatives, and the derived source factor."""

    name: str
    dimension: int
    domain: tuple
    coupling: float
    spatial: ScalarField
    lap_coef: float
    temporal: TemporalFactor
    frac: FracParams
    alpha: float | None       # startup exponent class, None when smooth

    def source_temporal(self, t):
        """G(t) with f(x,t) = G(t) spatial(x), at a time or an array of times."""
        return (
            self.temporal.d2(t)
            + self.lap_coef * self.temporal.value(t)
            + self.frac.a_gamma * self.temporal.frac(t)
        )

    def exact(self, t):
        return self.temporal.value(t)

    def exact_d1(self, t):
        return self.temporal.d1(t)


def _spatial_1d() -> ScalarField:
    return ScalarField(
        value=lambda x: np.sin(np.pi * x[:, 0]),
        gradient=lambda x: (np.pi * np.cos(np.pi * x[:, 0]))[:, None],
    )


def _spatial_2d() -> ScalarField:
    def grad(x):
        return np.column_stack(
            [
                np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
                np.pi * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]),
            ]
        )

    return ScalarField(
        value=lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
        gradient=grad,
    )


def build_case(name: str, frac: FracParams) -> ManufacturedCase:
    if name == "smooth1d":
        return ManufacturedCase(
            name=name, dimension=1, domain=(0.0, 1.0), coupling=6.0,
            spatial=_spatial_1d(), lap_coef=math.pi**2,
            temporal=_trig_temporal(frac.gamma), frac=frac, alpha=None,
        )
    if name == "smooth2d":
        return ManufacturedCase(
            name=name, dimension=2, domain=((-1.0, 1.0), (-1.0, 1.0)),
            coupling=10.0, spatial=_spatial_2d(), lap_coef=2.0 * math.pi**2,
            temporal=_trig_temporal(frac.gamma), frac=frac, alpha=None,
        )
    if name == "nonsmooth1d":
        return ManufacturedCase(
            name=name, dimension=1, domain=(0.0, 1.0), coupling=6.0,
            spatial=_spatial_1d(), lap_coef=math.pi**2,
            temporal=_poly_temporal(frac), frac=frac,
            alpha=math.ceil(frac.gamma) - frac.gamma,
        )
    raise ValueError(f"unknown case {name!r}")


def verify_case(case: ManufacturedCase, T: float = 1.0) -> float:
    """Cross-check the assembled source against the quadrature-evaluated
    operator at random times in (0.05, T); returns the worst deviation
    scaled by the sample magnitude (sources reach O(10^3), so the
    comparison is relative once |ref| exceeds 1)."""
    rng = np.random.default_rng(_VERIFY_SEED)
    gamma = case.frac.gamma
    worst = 0.0
    for t in rng.uniform(0.05, T, size=_VERIFY_SAMPLES):
        t = float(t)
        fr = caputo_quadrature(gamma + 1.0, t, df=case.temporal.d1, d2f=case.temporal.d2)
        ref = (
            case.temporal.d2(t)
            + case.lap_coef * case.temporal.value(t)
            + case.frac.a_gamma * fr
        )
        dev = abs(case.source_temporal(t) - ref) / max(1.0, abs(ref))
        worst = max(worst, dev)
    if worst > _VERIFY_TOL:
        raise RuntimeError(
            f"source inconsistency {worst:.3e} exceeds {_VERIFY_TOL:.1e} for {case.name}"
        )
    return worst


def singular_exponent_of_source(case: ManufacturedCase) -> float:
    """Fitted exponent of the non-polynomial part of G near t = 0.

    Only defined for the startup-singularity case, whose smooth part is
    exactly the quadratic 2 + lap_coef*(1 + t + t^2): every other
    contribution to G carries a non-integer power of t.  Subtracting the
    quadratic in closed form exposes the leading singular power.
    """
    if case.alpha is None:
        raise ValueError("singular exponent only defined for nonsmooth cases")
    ts = _SINGULAR_FIT_TIMES
    smooth = 2.0 + case.lap_coef * (1.0 + ts + ts * ts)
    resid = np.abs(case.source_temporal(ts) - smooth)
    if np.any(resid == 0.0):
        raise RuntimeError("vanishing singular residual; exponent undefined")
    return float(np.polyfit(np.log(ts), np.log(resid), 1)[0])


def _m_norms(system: FemSystem, count: int, rows) -> np.ndarray:
    """||d_i||_M for the rows d_0..d_{count-1} that rows(lo, hi) returns as a
    (hi - lo, ndof) block; blocks hold at most _NORM_BLOCK_FLOATS floats."""
    size = max(1, _NORM_BLOCK_FLOATS // system.ndof)
    out = np.empty(count)
    for lo in range(0, count, size):
        hi = min(lo + size, count)
        d = rows(lo, hi)
        out[lo:hi] = np.einsum("ij,ji->i", d, system.M @ d.T)
    return np.sqrt(np.maximum(out, 0.0))


def error_norm_energy(traj: Trajectory, case: ManufacturedCase,
                      system: FemSystem, kappa: float) -> float:
    """max_n ||du_n - I_h u'(t_n - k/2)||_M + ||avg_n - I_h u(t_n - k/2)||_M.

    Exact values enter through nodal interpolation of the spatial factor.
    """
    s = interpolate(system, case.spatial)
    us = traj.us
    t_half = (np.arange(1, us.shape[0]) - 0.5) * kappa

    def slope(lo, hi):
        return ((us[lo + 1:hi + 1] - us[lo:hi]) / kappa
                - case.exact_d1(t_half[lo:hi])[:, None] * s)

    def mean(lo, hi):
        return (0.5 * (us[lo + 1:hi + 1] + us[lo:hi])
                - case.exact(t_half[lo:hi])[:, None] * s)

    steps = len(t_half)
    return float(np.max(_m_norms(system, steps, slope) + _m_norms(system, steps, mean)))


def error_norm_l2max(traj: Trajectory, case: ManufacturedCase,
                     system: FemSystem, kappa: float) -> float:
    """max_n ||u_n - I_h u(t_n)||_M over all steps."""
    s = interpolate(system, case.spatial)
    us = traj.us
    t = np.arange(us.shape[0]) * kappa
    return float(np.max(_m_norms(
        system, len(t), lambda lo, hi: us[lo:hi] - case.exact(t[lo:hi])[:, None] * s)))


def fit_rate(errors) -> tuple[float, bool]:
    """Least-squares rate of errors on successive halvings of the step,
    and whether it is pre-asymptotic: the last halving's rate differs
    from the fitted one by 0.2 or more."""
    e = np.log2(errors)
    rate = float(-np.polyfit(np.arange(len(e)), e, 1)[0])
    return rate, abs(float(e[-2] - e[-1]) - rate) >= 0.2


@dataclass
class ConvergenceReport:
    case: str
    gamma: float
    alpha0: float
    corrected: bool
    coupling: float
    levels: list            # (h, kappa, error_energy, error_l2max)
    rate_energy: float = field(default=None)
    rate_l2: float = field(default=None)
    pre_asymptotic_energy: bool = False
    pre_asymptotic_l2: bool = False

    def fit(self) -> None:
        self.rate_energy, self.pre_asymptotic_energy = fit_rate(
            [row[2] for row in self.levels])
        self.rate_l2, self.pre_asymptotic_l2 = fit_rate([row[3] for row in self.levels])

    def summary(self) -> str:
        def flag(pre):
            return " (pre-asymptotic)" if pre else ""

        return (
            f"case={self.case} gamma={self.gamma:g} alpha0={self.alpha0:g} "
            f"corrected={self.corrected} "
            f"rate_energy={self.rate_energy:.3f}{flag(self.pre_asymptotic_energy)} "
            f"rate_l2={self.rate_l2:.3f}{flag(self.pre_asymptotic_l2)}"
        )


def _side_length(case: ManufacturedCase) -> float:
    if case.dimension == 1:
        a, b = case.domain
        return b - a
    (a, b), _ = case.domain
    return b - a


def level_cells(case: ManufacturedCase, kappa: float) -> int:
    """Cells per side of the mesh with h = coupling * kappa."""
    return round(_side_length(case) / (case.coupling * kappa))


@functools.lru_cache(maxsize=_SYSTEMS_KEPT)
def mesh_system(dimension: int, domain: tuple, cells: int) -> FemSystem:
    """The assembled system of the uniform mesh with these arguments of
    build_mesh, built once and shared, with its factorizations and its
    lambda_max, by every run on that mesh."""
    return assemble(build_mesh(dimension, domain, cells))


def solve_case(case: ManufacturedCase, system: FemSystem, kappa: float,
               corrected: bool, T: float = 1.0) -> Trajectory:
    """Run the scheme on the case's data, on a given mesh and step."""
    config = SimConfig(
        fem=system, T=T, kappa=kappa, frac=case.frac, corrected=corrected,
        f=SeparableSource(spatial=case.spatial, temporal=case.source_temporal),
        u0=case.spatial.scaled(case.exact(0.0)),
        v0=case.spatial.scaled(case.exact_d1(0.0)),
    )
    return run(config)


def run_level(case: ManufacturedCase, kappa: float, corrected: bool,
              T: float = 1.0) -> tuple[float, float, float]:
    """Solve one refinement level; returns (h, error_energy, error_l2max)."""
    system = mesh_system(case.dimension, case.domain, level_cells(case, kappa))
    traj = solve_case(case, system, kappa, corrected, T)
    e_en = error_norm_energy(traj, case, system, kappa)
    e_l2 = error_norm_l2max(traj, case, system, kappa)
    return system.mesh.h, e_en, e_l2


def run_convergence(case: ManufacturedCase, corrected: bool, levels: int = 4,
                    kappa0: float | None = None, T: float = 1.0,
                    check_rhs: bool = True) -> ConvergenceReport:
    if levels < 3:
        raise ValueError(f"need at least 3 refinement levels, got {levels}")
    if check_rhs:
        verify_case(case, T)
    if kappa0 is None:
        kappa0 = 1.0 / 64 if case.dimension == 1 else 1.0 / 40
    rows = []
    for lev in range(levels):
        kappa = kappa0 / 2**lev
        h, e_en, e_l2 = run_level(case, kappa, corrected, T)
        rows.append((h, kappa, e_en, e_l2))
    report = ConvergenceReport(
        case=case.name, gamma=case.frac.gamma, alpha0=case.frac.alpha0,
        corrected=corrected, coupling=case.coupling, levels=rows,
    )
    report.fit()
    return report


def time_errors(case: ManufacturedCase, n_per_side: int, corrected: bool,
                kappa0: float, levels: int, T: float = 1.0) -> list[float]:
    """Time error alone, on one fixed mesh.

    For kappa = kappa0 / 2**lev, lev = 0..levels-1, returns
    max_n ||u_kappa(t_n) - u_{kappa/2}(t_n)||_M over t_n = n kappa.  Both
    runs share the mesh, so their spatial errors cancel and the
    differences fall at the rate of the time discretization alone.
    """
    system = mesh_system(case.dimension, case.domain, n_per_side)
    coarse = solve_case(case, system, kappa0, corrected, T).us
    errors = []
    for lev in range(1, levels + 1):
        fine = solve_case(case, system, kappa0 / 2**lev, corrected, T).us
        diff = lambda lo, hi: fine[2 * lo:2 * hi:2] - coarse[lo:hi]
        errors.append(float(np.max(_m_norms(system, coarse.shape[0], diff))))
        coarse = fine
    return errors


def _gaussian_bump() -> ScalarField:
    value = lambda x: np.exp(-10.0 * np.sum(x**2, axis=1))
    grad = lambda x: -20.0 * x * np.exp(-10.0 * np.sum(x**2, axis=1))[:, None]
    return ScalarField(value=value, gradient=grad)


def run_damping_demo(gammas=(0.25, 0.75, -0.25, -0.75), n_per_side: int = 32,
                     T: float = 2.0):
    """Gaussian initial bump on the square, traced at the center node.

    Returns (times, dict gamma-label -> trace, dict gamma-label -> energy).
    The undamped baseline is labeled "none".  n_per_side must be even so
    the origin is a mesh node.
    """
    if n_per_side % 2 != 0:
        raise ValueError("n_per_side must be even so (0,0) is a node")
    mesh = build_mesh(2, ((-1.0, 1.0), (-1.0, 1.0)), n_per_side)
    system = assemble(mesh)
    kappa = mesh.h / _DAMPING_COUPLING
    center = np.flatnonzero(
        (np.abs(mesh.nodes[mesh.interior][:, 0]) < 1e-12)
        & (np.abs(mesh.nodes[mesh.interior][:, 1]) < 1e-12)
    )
    if len(center) != 1:
        raise RuntimeError("origin is not an interior mesh node")
    dof = int(center[0])
    bump = _gaussian_bump()
    traces, energies = {}, {}
    for g in (None,) + tuple(gammas):
        frac = None if g is None else FracParams(gamma=g)
        config = SimConfig(fem=system, T=T, kappa=kappa, frac=frac,
                           corrected=False, u0=bump)
        traj = run(config)
        label = "none" if g is None else f"{g:g}"
        traces[label] = traj.us[:, dof].copy()
        energies[label] = traj.energy.copy()
    return traj.times, traces, energies

