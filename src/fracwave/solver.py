"""Fully discrete time stepping: leapfrog plus CQ damping.

The damping term couples the CQ sum of order gamma with central
differences of the solution.  The j = n history entry contains the
unknown u_{n+1}, so it enters each step as a scalar shift of the
leapfrog coefficient; for the corrected scheme the first step's w1
contribution also references the unknown and is folded into the same
shift.  A step costs one stiffness mat-vec, one mass solve (one
factorization of M is reused throughout) and one product that combines
u_n, u_{n-1}, the known CQ sum and the solve, with coefficients folded
once per run; only step 1, with its w1 term, has its own.  The known
part of the sum comes from the blocked history `cq.CQHistory`, exact
up to lag 127 and a sum of Q ~ 100 exponentials beyond, so the time
loop costs O(N * Q * ndof); each damped step records its central
difference there, in a ring of 64 rows whatever N, and an undamped
run keeps no history.  run alone knows the step count N, assembles
the source load and its F(0), and holds the loop state: step returns
u_{n+1} and run advances the state.  The energy log and the divergence
check run once per CHECK_STEPS steps, on one reused block of the
trajectory rows of those steps, and each checked block then goes to the
caller's observer, if any: a run keeps u_N alone, and a caller that
reads rows keeps them, or the columns it reads, with a KeptRows
observer, while one that only reduces them (the error norms) keeps none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from fracwave.cq import CQHistory, CQScheme
from fracwave.fem import (
    FemSystem,
    ScalarField,
    inverse_constant,
    load_vector,
    ritz_projection,
)
from fracwave.fraccalc import FracParams


# A kinetic part 1/2 |d_n|_M^2 beyond this multiple of the energy E_n
# aborts the run as divergent; under the CFL condition it is at most 2 E_n.
ENERGY_ABORT_FACTOR = 1e6
# The energy log, the divergence check and the observers take blocks of
# this many steps.
CHECK_STEPS = 32


class SolverDivergence(RuntimeError):
    """Raised when the time loop produces NaN or runaway energy growth."""


@dataclass
class SeparableSource:
    """Source f(x, t) = spatial(x) * temporal(t).  The spatial load is
    assembled once per run, and temporal maps the array of all step times
    to the array of its values, once per run."""

    spatial: ScalarField
    temporal: Callable[[np.ndarray], np.ndarray]


@dataclass
class SimConfig:
    fem: FemSystem
    T: float
    kappa: float
    frac: FracParams | None = None           # None disables the damping term
    corrected: bool = False
    f: SeparableSource | None = None
    u0: ScalarField | np.ndarray | None = None
    v0: ScalarField | np.ndarray | None = None
    c_inv: float = field(init=False)         # the CFL guard's inverse constant

    def __post_init__(self) -> None:
        if not (0.0 < self.kappa < math.inf and 0.0 < self.T < math.inf):
            raise ValueError(f"T and kappa must be positive and finite,"
                             f" got T={self.T}, kappa={self.kappa}")
        if self.f is not None and not isinstance(self.f, SeparableSource):
            raise TypeError(f"f must be a SeparableSource or None, got {type(self.f)}")
        steps = self.T / self.kappa
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"T={self.T} is not a whole number of steps kappa={self.kappa}:"
                             f" T/kappa={steps}")
        self.c_inv = inverse_constant(self.fem)
        limit = math.sqrt(2.0) * self.fem.mesh.h / self.c_inv
        if self.kappa > limit:
            raise ValueError(
                f"CFL violated: kappa={self.kappa} exceeds sqrt(2) h/C_inv={limit}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.T / self.kappa)

    @property
    def a_gamma(self) -> float:
        return 0.0 if self.frac is None else self.frac.a_gamma


@dataclass(eq=False)
class Trajectory:
    times: np.ndarray
    us: np.ndarray        # (1, ndof), u_N alone; KeptRows keeps the others
    energy: np.ndarray    # E_n for n = 1..N (index 0 is E_1)
    history: np.ndarray   # the damping term's CQHistory.values, the ring of
                          # the last min(N, 64) central differences; (0, ndof) undamped


def _project_initial(system: FemSystem, data, name: str) -> np.ndarray:
    if data is None:
        return np.zeros(system.ndof)
    if isinstance(data, np.ndarray):
        if data.shape != (system.ndof,):
            raise ValueError(f"{name} has shape {data.shape}; nodal initial data needs"
                             f" shape ({system.ndof},), one value per interior node")
        return data.copy()
    return ritz_projection(system, data)


def initial_data(config: SimConfig, f0: np.ndarray | None):
    """Ritz-projected initial data and the L2-projected initial acceleration.

    u1 = R_h(u0 + kappa v0) + kappa^2/2 * w, where M w = F(0) - K u0_h;
    the Ritz load of u0 equals K u0_h by Galerkin orthogonality.  f0 is
    the source load F(0) that run assembles, None without a source.
    """
    system = config.fem
    u0_h = _project_initial(system, config.u0, "u0")
    dtu0_h = _project_initial(system, config.v0, "v0")
    rhs0 = -(system.K @ u0_h)
    if f0 is not None:
        rhs0 = rhs0 + f0
    w = system.solve_mass(rhs0)
    u1_h = u0_h + config.kappa * dtu0_h + 0.5 * config.kappa**2 * w
    return u0_h, u1_h, dtu0_h


def discrete_energy(system: FemSystem, u_cur, u_prev, k_u_prev, kappa: float):
    """Discrete energy of the step pair (u_prev, u_cur); k_u_prev = K @ u_prev.

    Vectors give a float.  2-D arrays hold one pair per row, with
    k_u_prev = (K @ u_prev.T).T, and give an array of one energy per row.
    """
    d = (u_cur - u_prev) / kappa
    return 0.5 * np.sum(d * (system.M @ d.T).T + u_cur * k_u_prev, axis=-1)


@dataclass
class SimState:
    n: int
    u_prev: np.ndarray
    u_cur: np.ndarray
    cq: CQHistory | None      # the damping term's history of central differences
    source: np.ndarray | None  # G(t_n) for every step, with f = G(t) * load
    load: np.ndarray | None    # the assembled spatial load
    combine: tuple            # _combine_rows' rows c, for n >= 2 and for n = 1


def _combine_rows(config: SimConfig, cq: CQHistory | None) -> tuple:
    """The rows c of step's product for n >= 2 and for n = 1.

    Undamped, c = [2, -1, -kappa^2].  Damped, the step-n central
    difference holds the unknown u_{n+1}, whose weight enters as
    shift = a w_n / (2 kappa), w_n = cq.scheme.self_weight(n, corrected), and
    c = s [2, kappa^2 shift - 1, -kappa^2 a, -kappa^2] with
    s = 1 / (1 + kappa^2 shift).  Only w_1 differs, by the corrected
    scheme's w1 term.
    """
    k2 = config.kappa**2
    if cq is None:
        row = np.array([2.0, -1.0, -k2])
        return row, row
    a = config.a_gamma

    def row(n: int) -> np.ndarray:
        w = cq.scheme.self_weight(n, config.corrected)
        k2_shift = k2 * a * w / (2.0 * config.kappa)
        return (1.0 / (1.0 + k2_shift)) * np.array([2.0, k2_shift - 1.0, -k2 * a, -k2])

    return row(2), row(1)


def step(config: SimConfig, state: SimState) -> np.ndarray:
    """Return u_{n+1} from the state of step n; a damped step records its
    central difference (u_{n+1} - u_{n-1}) / (2 kappa) in the CQ history.

    u_{n+1} = c @ [u_n, u_{n-1}, known_n, M^-1 (K u_n - G(t_n) load)],
    one product with the row c of _combine_rows (without known_n when
    undamped), known_n the CQ history sum without its unknown term.
    The state keeps its n and vectors: run advances it.
    """
    n = state.n
    if n < 1:
        raise ValueError("stepping starts at n = 1")
    cq = state.cq
    rhs = config.fem.K @ state.u_cur
    if state.load is not None:
        rhs -= state.source[n] * state.load
    rows = [state.u_cur, state.u_prev]
    if cq is not None:
        rows.append(cq.known_sum(n))
    rows.append(config.fem.solve_mass(rhs))
    u_next = np.dot(state.combine[n == 1], np.array(rows))
    if cq is not None:
        cq.record((u_next - state.u_prev) / (2.0 * config.kappa))
    return u_next


def _check_block(config: SimConfig, rows: np.ndarray, energy: np.ndarray,
                 lo: int) -> None:
    """Fill energy[lo:hi] (E_{lo+1}..E_hi, from the rows u_lo..u_hi) and
    raise SolverDivergence at the first step of the block that is not
    finite or whose kinetic part exceeds ENERGY_ABORT_FACTOR times its
    energy.

    The kinetic part 1/2 |d_n|_M^2 = E_n - 1/2 u_n . K u_{n-1} is at most
    2 E_n under the CFL condition, whatever the data and the source.  Past
    the limit, leapfrog still conserves E_n, as the energy of a growing
    mode is indefinite and cancels, but the kinetic part grows with the
    mode.
    """
    system = config.fem
    hi = lo + rows.shape[0] - 1
    u_prev, u_cur = rows[:-1], rows[1:]
    with np.errstate(all="ignore"):   # overflow is reported below
        k_u_prev = (system.K @ u_prev.T).T
        energy[lo:hi] = discrete_energy(system, u_cur, u_prev, k_u_prev, config.kappa)
        kinetic = energy[lo:hi] - 0.5 * np.sum(u_cur * k_u_prev, axis=1)
        grown = kinetic > ENERGY_ABORT_FACTOR * np.maximum(energy[lo:hi], 0.0)
    finite = np.isfinite(kinetic) & np.isfinite(u_cur).all(axis=1)
    bad = np.flatnonzero(~finite | grown)
    if bad.size == 0:
        return
    i = lo + int(bad[0])
    if not finite[i - lo]:
        raise SolverDivergence(
            f"non-finite solution at step {i + 1}; check the CFL condition")
    raise SolverDivergence(
        f"kinetic part of the energy grew to {kinetic[i - lo]:.3e}"
        f" (> {ENERGY_ABORT_FACTOR:.0e} x E_n) at step {i + 1}; check the CFL condition")


class KeptRows:
    """An observer for run that keeps the rows it is passed: after a run,
    us[n] is u_n for n = 0..N, or with a column (an index or a slice of
    the dofs) that part of u_n alone.  Each block is copied, with the
    boundary row two blocks share kept once, and us joins the copies; the
    block at lo = 0 starts over, so a second run replaces the first."""

    def __init__(self, column: int | slice = slice(None)):
        self.column = column
        self._blocks = []

    def __call__(self, lo: int, rows: np.ndarray) -> None:
        if lo == 0:
            self._blocks = [rows[:1, self.column].copy()]
        self._blocks.append(rows[1:, self.column].copy())

    @property
    def us(self) -> np.ndarray:
        return np.concatenate(self._blocks)


def run(config: SimConfig,
        observe: Callable[[int, np.ndarray], None] | None = None) -> Trajectory:
    """Execute initial data and all time steps, recording the energy log.

    Aborts with SolverDivergence on NaN or when the kinetic part of the
    energy grows beyond ENERGY_ABORT_FACTOR times the energy E_n, which
    flags CFL violations cleanly: past the CFL limit the energy itself
    stays put, but the kinetic part of a growing mode grows with it, and
    within the limit it is at most 2 E_n.  Both are checked once per
    block of CHECK_STEPS steps and at the end,
    so a divergent run may take up to CHECK_STEPS - 1 steps past the
    first offending one, which the error names, before it raises.

    The rows u_lo..u_hi of each block of CHECK_STEPS steps, and of the
    last, partial one, go to observe(lo, rows) once they are checked;
    consecutive blocks share their boundary row, and rows is one buffer,
    reused, so it is only valid during the call: KeptRows copies the rows,
    or the columns, a caller reads.  The Trajectory's us holds u_N alone,
    observed or not.  Only run knows N and F(0): it gives initial_data
    F(0), and after each step it advances the state to the u_{n+1} that
    step returns.
    """
    system = config.fem
    N = config.n_steps
    kappa = config.kappa
    times = kappa * np.arange(N + 1)
    load = source = f0 = None
    if config.f is not None:
        load = load_vector(system, config.f.spatial.value)
        source = np.asarray(config.f.temporal(times), dtype=float)
        if source.shape != times.shape:
            raise ValueError(
                f"source temporal factor returned shape {source.shape} for times of"
                f" shape {times.shape}; it must map an array of times elementwise")
        f0 = source[0] * load

    u0_h, u1_h, dtu0_h = initial_data(config, f0)
    if observe is None:
        def observe(lo: int, rows: np.ndarray) -> None:
            pass
    energy = np.empty(N)
    cq = None
    if config.a_gamma != 0.0:
        cq = CQHistory(CQScheme.build(config.frac.gamma, kappa, N), dtu0_h,
                       config.corrected)
    state = SimState(n=1, u_prev=u0_h, u_cur=u1_h, cq=cq, source=source, load=load,
                     combine=_combine_rows(config, cq))
    rows = np.empty((min(CHECK_STEPS, N) + 1, system.ndof))
    rows[0] = u0_h
    rows[1] = u1_h
    lo = 0
    for n in range(2, N + 1):
        u_next = step(config, state)
        state.n, state.u_prev, state.u_cur = n, state.u_cur, u_next
        rows[n - lo] = u_next
        if n - lo == CHECK_STEPS:
            _check_block(config, rows, energy, lo)
            observe(lo, rows)
            lo = n
            rows[0] = u_next           # the boundary row opens the next block
    if N > lo:
        _check_block(config, rows[:N - lo + 1], energy, lo)
        observe(lo, rows[:N - lo + 1])
    us = rows[N - lo:N - lo + 1].copy()
    history = np.zeros((0, system.ndof)) if cq is None else cq.values
    return Trajectory(times=times, us=us, energy=energy, history=history)


def scalar_run(gamma: float | None, a_gamma: float, lam: float, kappa: float,
               N: int, d0: float, d1: float, dtd0: float,
               corrected: bool = False) -> np.ndarray:
    """The same recurrence on a single mode: d'' + lam d + damping = 0.

    step() with M = 1, K = lam, written as a division by the leapfrog
    and CQ coefficient rather than as step's one product, so the two
    agree to round-off; used to isolate the time discretization from
    space.  The damping term takes the direct CQ sum of CQScheme,
    independent of the time loop's CQHistory.
    """
    if N < 1:
        raise ValueError(f"scalar_run needs N >= 1 steps, got N={N}")
    d = np.empty(N + 1)
    d[0], d[1] = d0, d1
    hist = np.zeros(N)
    hist[0] = dtd0
    scheme = None
    if a_gamma != 0.0:
        scheme = CQScheme.build(gamma, kappa, N)
    for n in range(1, N):
        rhs = (2.0 * d[n] - d[n - 1]) / kappa**2 - lam * d[n]
        coef = 1.0 / kappa**2
        if scheme is not None:
            shift = a_gamma * scheme.self_weight(n, corrected) / (2.0 * kappa)
            rhs -= a_gamma * scheme.known_sum(hist, n, corrected)
            rhs += shift * d[n - 1]
            coef += shift
        d[n + 1] = rhs / coef
        hist[n] = (d[n + 1] - d[n - 1]) / (2.0 * kappa)
    return d
