"""Fully discrete time stepping: leapfrog plus CQ damping.

The damping term couples the CQ sum of order gamma with central
differences of the solution.  The j = n history entry contains the
unknown u_{n+1}, so each step solves a mass system with a scalar shift;
one factorization of M is reused throughout.  For the corrected scheme
the first step's w1 contribution also references the unknown and is
folded into the same scalar shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from fracwave.cq import CQScheme
from fracwave.fem import (
    FemSystem,
    ScalarField,
    inverse_constant,
    load_vector,
    ritz_projection,
)
from fracwave.fraccalc import FracParams


class SolverDivergence(RuntimeError):
    """Raised when the time loop produces NaN or runaway energy growth."""


@dataclass
class SeparableSource:
    """Source f(x, t) = spatial(x) * temporal(t); the spatial load is
    assembled once and rescaled every step."""

    spatial: ScalarField
    temporal: Callable[[float], float]


@dataclass
class SimConfig:
    fem: FemSystem
    T: float
    kappa: float
    frac: FracParams | None = None           # None disables the damping term
    corrected: bool = False
    f: SeparableSource | Callable | None = None
    u0: ScalarField | np.ndarray | None = None
    v0: ScalarField | np.ndarray | None = None
    quad_order: int = 3
    cfl_override: bool = False
    energy_abort_factor: float = 1e6
    c_inv: float = field(default=None)

    def __post_init__(self) -> None:
        if self.kappa <= 0.0 or self.T <= 0.0:
            raise ValueError("T and kappa must be positive")
        if self.c_inv is None:
            self.c_inv = inverse_constant(self.fem)
        limit = math.sqrt(2.0) * self.fem.mesh.h / self.c_inv
        if self.kappa > limit and not self.cfl_override:
            raise ValueError(
                f"CFL violated: kappa={self.kappa} exceeds sqrt(2) h/C_inv={limit}"
            )

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.T / self.kappa - 1e-12))

    @property
    def a_gamma(self) -> float:
        return 0.0 if self.frac is None else self.frac.a_gamma


@dataclass
class Trajectory:
    times: np.ndarray
    us: np.ndarray        # (N+1, ndof)
    energy: np.ndarray    # E_n for n = 1..N (index 0 is E_1)
    history: np.ndarray   # central differences, entries 0..N-1


def _project_initial(system: FemSystem, data, quad_order: int) -> np.ndarray:
    if data is None:
        return np.zeros(system.ndof)
    if isinstance(data, np.ndarray):
        return data.copy()
    return ritz_projection(system, data, quad_order)


def _source_load(config: SimConfig, spatial_load: np.ndarray | None, t: float):
    if config.f is None:
        return None
    if isinstance(config.f, SeparableSource):
        return config.f.temporal(t) * spatial_load
    return load_vector(config.fem, lambda x: config.f(x, t), config.quad_order)


def initial_data(config: SimConfig):
    """Ritz-projected initial data and the L2-projected initial acceleration.

    u1 = R_h(u0 + kappa v0) + kappa^2/2 * w, where M w = F(0) - K u0_h;
    the Ritz load of u0 equals K u0_h by Galerkin orthogonality.
    """
    system = config.fem
    u0_h = _project_initial(system, config.u0, config.quad_order)
    dtu0_h = _project_initial(system, config.v0, config.quad_order)
    spatial_load = None
    if isinstance(config.f, SeparableSource):
        spatial_load = load_vector(system, config.f.spatial.value, config.quad_order)
    rhs0 = -(system.K @ u0_h)
    f0 = _source_load(config, spatial_load, 0.0)
    if f0 is not None:
        rhs0 = rhs0 + f0
    w = system.solve_mass(rhs0)
    u1_h = u0_h + config.kappa * dtu0_h + 0.5 * config.kappa**2 * w
    return u0_h, u1_h, dtu0_h


def discrete_energy(system: FemSystem, u_cur, u_prev, kappa: float) -> float:
    d = (u_cur - u_prev) / kappa
    return 0.5 * float(d @ (system.M @ d)) + 0.5 * float(u_cur @ (system.K @ u_prev))


@dataclass
class SimState:
    n: int
    u_prev: np.ndarray
    u_cur: np.ndarray
    history: np.ndarray       # (N, ndof) central differences filled through n-1
    energy: list


def step(config: SimConfig, state: SimState, scheme: CQScheme | None,
         spatial_load: np.ndarray | None = None) -> SimState:
    """Advance u_n -> u_{n+1}; appends the step-n central difference."""
    system = config.fem
    kappa = config.kappa
    n = state.n
    if n < 1:
        raise ValueError("stepping starts at n = 1")
    a = config.a_gamma

    rhs = system.M @ ((2.0 * state.u_cur - state.u_prev) / kappa**2)
    rhs -= system.K @ state.u_cur
    fn = _source_load(config, spatial_load, n * kappa)
    if fn is not None:
        rhs = rhs + fn

    coef = 1.0 / kappa**2
    if a != 0.0:
        # the step-n central difference holds the unknown u_{n+1}
        c_n = scheme.self_weight(n, config.corrected)
        H = scheme.known_sum(state.history, n, config.corrected)
        rhs = rhs - a * (system.M @ H)
        rhs = rhs + (a * c_n / (2.0 * kappa)) * (system.M @ state.u_prev)
        coef += a * c_n / (2.0 * kappa)

    u_next = system.solve_mass(rhs) / coef
    state.history[n] = (u_next - state.u_prev) / (2.0 * kappa)
    e_next = discrete_energy(system, u_next, state.u_cur, kappa)
    state.energy.append(e_next)
    return SimState(
        n=n + 1,
        u_prev=state.u_cur,
        u_cur=u_next,
        history=state.history,
        energy=state.energy,
    )


def run(config: SimConfig) -> Trajectory:
    """Execute initial data and all time steps, recording the energy log.

    Aborts with SolverDivergence on NaN or energy growth beyond the
    configured factor of E_1, which flags CFL violations cleanly.
    """
    system = config.fem
    N = config.n_steps
    kappa = config.kappa
    scheme = None
    if config.a_gamma != 0.0:
        scheme = CQScheme.build(config.frac.gamma, kappa, N)
    spatial_load = None
    if isinstance(config.f, SeparableSource):
        spatial_load = load_vector(system, config.f.spatial.value, config.quad_order)

    u0_h, u1_h, dtu0_h = initial_data(config)
    us = np.empty((N + 1, system.ndof))
    us[0] = u0_h
    us[1] = u1_h
    history = np.zeros((max(N, 1), system.ndof))
    history[0] = dtu0_h
    e1 = discrete_energy(system, u1_h, u0_h, kappa)
    state = SimState(n=1, u_prev=u0_h, u_cur=u1_h, history=history, energy=[e1])
    e_ref = abs(e1)
    for n in range(1, N):
        state = step(config, state, scheme, spatial_load)
        us[state.n] = state.u_cur
        e_n = state.energy[-1]
        if not np.isfinite(e_n) or not np.all(np.isfinite(state.u_cur)):
            raise SolverDivergence(
                f"non-finite solution at step {state.n}; check the CFL condition"
            )
        if e_ref > 0.0 and e_n > config.energy_abort_factor * e_ref:
            raise SolverDivergence(
                f"energy grew to {e_n:.3e} (> {config.energy_abort_factor:.0e} x E_1)"
                f" at step {state.n}; check the CFL condition"
            )
    return Trajectory(
        times=kappa * np.arange(N + 1),
        us=us,
        energy=np.array(state.energy),
        history=state.history,
    )


def scalar_run(gamma: float | None, a_gamma: float, lam: float, kappa: float,
               N: int, d0: float, d1: float, dtd0: float,
               corrected: bool = False,
               forcing: Callable[[float], float] | None = None) -> np.ndarray:
    """The identical recurrence on a single mode: d'' + lam d + damping = f.

    Mirrors step() with M = 1, K = lam; used to isolate the time
    discretization from space.
    """
    d = np.empty(N + 1)
    d[0], d[1] = d0, d1
    hist = np.zeros(max(N, 1))
    hist[0] = dtd0
    scheme = None
    if a_gamma != 0.0:
        scheme = CQScheme.build(gamma, kappa, N)
    for n in range(1, N):
        rhs = (2.0 * d[n] - d[n - 1]) / kappa**2 - lam * d[n]
        if forcing is not None:
            rhs += forcing(n * kappa)
        coef = 1.0 / kappa**2
        if a_gamma != 0.0:
            omega = scheme.omega
            c_n = omega[0]
            if corrected and scheme.chi and n == 1:
                c_n += scheme.w1[1]
            H = float(np.dot(omega[n:0:-1], hist[:n]))
            if corrected:
                H += scheme.w0[n] * hist[0]
                if scheme.chi and n >= 2:
                    H += scheme.w1[n] * hist[1]
            elif scheme.chi:
                H -= scheme.omega_cumsum[n] * hist[0]
            rhs -= a_gamma * H
            rhs += (a_gamma * c_n / (2.0 * kappa)) * d[n - 1]
            coef += a_gamma * c_n / (2.0 * kappa)
        d[n + 1] = rhs / coef
        hist[n] = (d[n + 1] - d[n - 1]) / (2.0 * kappa)
    return d
