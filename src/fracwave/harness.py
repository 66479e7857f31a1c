"""Manufactured-solution experiment driver.

Builds the three manufactured cases (trigonometric 1D and 2D, and a 1D
solution with the characteristic t^(2+ceil(gamma)-gamma) startup
singularity), computes the two error norms used to report convergence
block by block as a run steps, runs refinement ladders with h
proportional to kappa, and produces the damping demonstration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from fracwave.fem import (
    FemSystem,
    ScalarField,
    assemble,
    build_mesh,
    interpolate,
    ritz_projection,
)
from fracwave.fraccalc import (
    GAUSS_JACOBI_NODES,
    FracParams,
    caputo_quadrature,
    caputo_series,
    rl_integral_gauss_jacobi,
)
from fracwave.solver import (
    KeptRows,
    SeparableSource,
    SimConfig,
    Trajectory,
    run,
)

# Largest phase omega * t of the trig time factor at which the
# Gauss-Jacobi rule has converged to round-off: against the tanh-sinh
# oracle, fraccalc.rl_integral_quadrature, it agrees to 8e-14 of the
# largest value on (0, 4.5], 2e-11 on (0, 5] and 1e-5 on (0, 6], for nine
# orders |gamma| <= 0.95.
_MAX_PHASE = 2.0 * GAUSS_JACOBI_NODES

# verify_case: tanh-sinh cross-checks (fraccalc.rl_integral_quadrature) of
# the source at this many seeded random times, each within this relative
# tolerance.
_VERIFY_SAMPLES = 20
_VERIFY_TOL = 1e-7
_VERIFY_SEED = 7

# Step of the damping demonstration: kappa = h / _DAMPING_COUPLING.
_DAMPING_COUPLING = 10.0

# Assembled systems kept for reuse by mesh_system; the acceptance
# criteria use eight distinct meshes.
_SYSTEMS_KEPT = 8

# The manufactured cases: name -> (dimension, smooth).  Smooth cases take
# the trigonometric time factor, the nonsmooth one the singular polynomial.
CASES = {"smooth1d": (1, True), "smooth2d": (2, True), "nonsmooth1d": (1, False)}


class _Geometry(NamedTuple):
    domain: tuple
    coupling: float   # h = coupling * kappa on a refinement ladder
    kappa0: float     # the ladder's default coarsest step


# Per dimension: the unit interval and the square (-1, 1)^2.
GEOMETRY = {1: _Geometry((0.0, 1.0), 6.0, 1.0 / 64),
             2: _Geometry(((-1.0, 1.0), (-1.0, 1.0)), 10.0, 1.0 / 40)}


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
    c = -frac_params.a_gamma / math.gamma(3.0 - gamma + ceil_g)
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
    Dirichlet eigenfunction, -lap(spatial) = lap_coef * spatial), the time
    factor temporal with its derivatives, and the derived source factor."""

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


def _sine_field(dimension: int) -> ScalarField:
    """prod_k sin(pi x_k); gradient entry k is pi times the factors in axis
    order, with cos(pi x_k) in slot k."""
    def product(factors):
        return functools.reduce(np.multiply, factors)

    def gradient(x):
        s, c = np.sin(np.pi * x), np.cos(np.pi * x)
        return np.column_stack([
            product([np.pi] + [(c if j == k else s)[:, j] for j in range(dimension)])
            for k in range(dimension)])

    return ScalarField(
        value=lambda x: product([np.sin(np.pi * x[:, k]) for k in range(dimension)]),
        gradient=gradient,
    )


def build_case(name: str, frac: FracParams) -> ManufacturedCase:
    if name not in CASES:
        raise ValueError(f"unknown case {name!r}")
    dimension, smooth = CASES[name]
    geometry = GEOMETRY[dimension]
    return ManufacturedCase(
        name=name, dimension=dimension, domain=geometry.domain,
        coupling=geometry.coupling, spatial=_sine_field(dimension),
        lap_coef=dimension * math.pi**2,
        temporal=_trig_temporal(frac.gamma) if smooth else _poly_temporal(frac),
        frac=frac, alpha=None if smooth else math.ceil(frac.gamma) - frac.gamma,
    )


def verify_case(case: ManufacturedCase, T: float = 1.0) -> float:
    """Cross-check the assembled source against the quadrature-evaluated
    operator at random times in (0.05 T, T); returns the worst deviation
    scaled by the sample magnitude (sources reach O(10^3), so the
    comparison is relative once |ref| exceeds 1).  A deviation that is
    not finite fails the check; one source call serves every time."""
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    t = np.random.default_rng(_VERIFY_SEED).uniform(0.05 * T, T, size=_VERIFY_SAMPLES)
    fr = [caputo_quadrature(case.frac.gamma + 1.0, float(ti), df=case.temporal.d1,
                            d2f=case.temporal.d2) for ti in t]
    # the source's formula written out, independent of source_temporal
    ref = (case.temporal.d2(t) + case.lap_coef * case.temporal.value(t)
           + case.frac.a_gamma * np.array(fr))
    devs = np.abs(case.source_temporal(t) - ref) / np.maximum(1.0, np.abs(ref))
    worst = float(np.max(devs))
    if not worst <= _VERIFY_TOL:
        raise RuntimeError(
            f"source inconsistency {worst:.3e} exceeds {_VERIFY_TOL:.1e} for {case.name}"
        )
    return worst


def _m_norms(system: FemSystem, d: np.ndarray) -> np.ndarray:
    """||d_i||_M for each row d_i of d."""
    return np.sqrt(np.maximum(np.einsum("ij,ji->i", d, system.M @ d.T), 0.0))


class ErrorNorms:
    """The two error norms of a run, accumulated over blocks of its rows:

    energy = max_n ||du_n - I_h u'(t_n - k/2)||_M + ||avg_n - I_h u(t_n - k/2)||_M,
    l2 = max_n ||u_n - I_h u(t_n)||_M.

    Exact values enter through nodal interpolation of the spatial factor.
    Called as observe(lo, rows) with the rows u_lo..u_hi of a block, as
    solver.run passes them, and reduces each block as a whole; the
    boundary row that two blocks share enters both maxima twice, which
    leaves them unchanged.
    """

    def __init__(self, case: ManufacturedCase, system: FemSystem, kappa: float):
        self.case, self.system, self.kappa = case, system, kappa
        self.s = interpolate(system, case.spatial)
        self.energy = self.l2 = 0.0

    def __call__(self, lo: int, rows: np.ndarray) -> None:
        case, system, s, kappa = self.case, self.system, self.s, self.kappa
        t = np.arange(lo, lo + rows.shape[0]) * kappa
        t_half = (np.arange(lo + 1, lo + rows.shape[0]) - 0.5) * kappa
        # one block-sized temporary at a time: the mean's norms add into
        # the slope's
        energy = _m_norms(system, (rows[1:] - rows[:-1]) / kappa
                          - case.temporal.d1(t_half)[:, None] * s)
        energy += _m_norms(system, 0.5 * (rows[1:] + rows[:-1])
                           - case.temporal.value(t_half)[:, None] * s)
        self.energy = max(self.energy, float(np.max(energy)))
        self.l2 = max(self.l2, float(np.max(
            _m_norms(system, rows - case.temporal.value(t)[:, None] * s))))


def _kept_norms(us: np.ndarray, case: ManufacturedCase, system: FemSystem,
                kappa: float) -> ErrorNorms:
    """ErrorNorms of the rows u_0..u_N that a KeptRows observer kept, fed
    as one block."""
    if us.ndim != 2 or us.shape[0] < 2:
        raise ValueError(
            f"the error norms need the rows u_0..u_N that KeptRows keeps, got shape"
            f" {us.shape}; a Trajectory's us is u_N alone")
    norms = ErrorNorms(case, system, kappa)
    norms(0, us)
    return norms


def error_norm_energy(us: np.ndarray, case: ManufacturedCase,
                      system: FemSystem, kappa: float) -> float:
    """ErrorNorms.energy of the kept rows us = KeptRows.us."""
    return _kept_norms(us, case, system, kappa).energy


def error_norm_l2max(us: np.ndarray, case: ManufacturedCase,
                     system: FemSystem, kappa: float) -> float:
    """ErrorNorms.l2 of the kept rows us = KeptRows.us:
    max_n ||u_n - I_h u(t_n)||_M."""
    return _kept_norms(us, case, system, kappa).l2


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
    rate_energy: float = field(default=None, init=False)     # set by fit()
    rate_l2: float = field(default=None, init=False)
    pre_asymptotic_energy: bool = field(default=False, init=False)
    pre_asymptotic_l2: bool = field(default=False, init=False)

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


def level_cells(case: ManufacturedCase, kappa: float) -> int:
    """Cells per side of the mesh with h = coupling * kappa."""
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if not 0.0 < case.coupling < math.inf:
        raise ValueError(f"coupling must be positive and finite, got {case.coupling}")
    a, b = case.domain if case.dimension == 1 else case.domain[0]
    cells = round((b - a) / (case.coupling * kappa))
    if cells < 2:
        raise ValueError(f"kappa = {kappa} and coupling = {case.coupling} give h ="
                         f" coupling * kappa = {case.coupling * kappa},"
                         f" fewer than 2 cells on {case.domain}")
    return cells


@functools.lru_cache(maxsize=_SYSTEMS_KEPT)
def mesh_system(dimension: int, domain: tuple, cells: int) -> FemSystem:
    """The assembled system of the uniform mesh with these arguments of
    build_mesh, built once and shared, with its mass factor and its
    lambda_max, by every run on that mesh."""
    return assemble(build_mesh(dimension, domain, cells))


def solve_case(case: ManufacturedCase, system: FemSystem, kappa: float,
               corrected: bool, T: float = 1.0, observe=None) -> Trajectory:
    """Run the scheme on the case's data, on a given mesh and step; observe
    goes to solver.run.  u0 and v0 are multiples of case.spatial, so one
    Ritz projection gives both."""
    projected = ritz_projection(system, case.spatial)
    config = SimConfig(
        fem=system, T=T, kappa=kappa, frac=case.frac, corrected=corrected,
        f=SeparableSource(spatial=case.spatial, temporal=case.source_temporal),
        u0=case.temporal.value(0.0) * projected, v0=case.temporal.d1(0.0) * projected,
    )
    return run(config, observe=observe)


def run_level(case: ManufacturedCase, kappa: float, corrected: bool,
              T: float = 1.0) -> tuple[ErrorNorms, Trajectory]:
    """Solve one refinement level on the mesh with h = coupling * kappa;
    returns the run's ErrorNorms, whose system holds the mesh, and its
    Trajectory."""
    system = mesh_system(case.dimension, case.domain, level_cells(case, kappa))
    norms = ErrorNorms(case, system, kappa)
    return norms, solve_case(case, system, kappa, corrected, T, observe=norms)


def run_convergence(case: ManufacturedCase, corrected: bool, levels: int = 4,
                    kappa0: float | None = None, T: float = 1.0,
                    check_rhs: bool = True) -> ConvergenceReport:
    if levels < 3:
        raise ValueError(f"need at least 3 refinement levels, got {levels}")
    if check_rhs:
        verify_case(case, T)
    if kappa0 is None:
        kappa0 = GEOMETRY[case.dimension].kappa0
    rows = []
    for lev in range(levels):
        kappa = kappa0 / 2**lev
        # [0]: the level's Trajectory is dropped before the next level runs
        norms = run_level(case, kappa, corrected, T)[0]
        rows.append((norms.system.mesh.h, kappa, norms.energy, norms.l2))
    report = ConvergenceReport(
        case=case.name, gamma=case.frac.gamma, alpha0=case.frac.alpha0,
        corrected=corrected, coupling=case.coupling, levels=rows,
    )
    report.fit()
    return report


def time_errors(case: ManufacturedCase, n_per_side: int, corrected: bool,
                kappa0: float, levels: int) -> list[float]:
    """Time error alone, on one fixed mesh.

    For kappa = kappa0 / 2**lev, lev = 0..levels-1, returns
    max_n ||u_kappa(t_n) - u_{kappa/2}(t_n)||_M over t_n = n kappa in [0, 1].
    Both runs share the mesh, so their spatial errors cancel and the
    differences fall at the rate of the time discretization alone.
    """
    system = mesh_system(case.dimension, case.domain, n_per_side)

    def kept_rows(kappa: float) -> np.ndarray:
        kept = KeptRows()
        solve_case(case, system, kappa, corrected, observe=kept)
        return kept.us

    coarse = kept_rows(kappa0)
    errors = []
    for lev in range(1, levels + 1):
        fine = kept_rows(kappa0 / 2**lev)
        errors.append(float(np.max(_m_norms(system, fine[::2] - coarse))))
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
    the origin is a mesh node, and orders that share a label (0.25 and
    0.250) raise ValueError before any run.
    """
    n = n_per_side
    if n % 2 != 0:
        raise ValueError("n_per_side must be even so (0,0) is a node")
    labels = [f"{g:g}" for g in gammas]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValueError(f"repeated damping orders: {', '.join(repeated)}")
    system = mesh_system(2, GEOMETRY[2].domain, n)
    kappa = system.mesh.h / _DAMPING_COUPLING
    # the interior node nearest the origin (linspace may miss 0 by round-off)
    dof = int(np.argmin(np.sum(system.mesh.nodes[system.mesh.interior]**2, axis=1)))
    bump = _gaussian_bump()
    traces, energies = {}, {}
    for label, g in [("none", None), *zip(labels, gammas)]:
        frac = None if g is None else FracParams(gamma=g)
        config = SimConfig(fem=system, T=T, kappa=kappa, frac=frac,
                           corrected=False, u0=bump)
        trace = KeptRows(column=dof)
        traj = run(config, observe=trace)
        traces[label] = trace.us
        energies[label] = traj.energy
    return traj.times, traces, energies

