"""Solver library for the weakly damped fractional wave equation.

Implements piecewise linear finite elements in space with leapfrog time
stepping, where the fractional damping term is discretized by BDF2-based
convolution quadrature applied to central differences, with optional
startup correction weights.
"""

__version__ = "0.1.0"

from fracwave.fraccalc import (
    FracParams,
    a_gamma,
    caputo_monomial,
    caputo_series,
    positivity_constants,
    rl_integral_monomial,
)
from fracwave.cq import CQScheme, bdf2_weights
from fracwave.fem import FemSystem, Mesh, ScalarField, assemble, build_mesh
from fracwave.harness import (
    ConvergenceReport,
    ManufacturedCase,
    build_case,
    error_norm_energy,
    error_norm_l2max,
    run_convergence,
)
from fracwave.oracle import VolterraProblem, VolterraSolution, solve_volterra
from fracwave.solver import (
    KeptRows,
    SeparableSource,
    SimConfig,
    Trajectory,
    run,
    scalar_run,
)

__all__ = [
    "FracParams",
    "a_gamma",
    "caputo_monomial",
    "caputo_series",
    "positivity_constants",
    "rl_integral_monomial",
    "CQScheme",
    "bdf2_weights",
    "FemSystem",
    "Mesh",
    "ScalarField",
    "assemble",
    "build_mesh",
    "ConvergenceReport",
    "ManufacturedCase",
    "build_case",
    "error_norm_energy",
    "error_norm_l2max",
    "run_convergence",
    "VolterraProblem",
    "VolterraSolution",
    "solve_volterra",
    "KeptRows",
    "SeparableSource",
    "SimConfig",
    "Trajectory",
    "run",
    "scalar_run",
]
