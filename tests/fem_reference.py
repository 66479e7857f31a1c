"""Reference norms of P1 coefficient vectors, and the interval's sine
modes, for the tests.

The package grades its runs with harness._m_norms, the M-norms of every
row of a block; these are the one-vector forms the tests check those
and the Ritz projection against.  The interpolated sin(k pi x) on a
uniform mesh of the unit interval is an exact eigenvector of (K, M), so
a run from it stays a multiple of it, one scalar recurrence per mode.
Not a test module: pytest does not collect it, the test modules import
it.
"""

import math

import numpy as np

from fracwave.fem import FemSystem, Mesh, ScalarField, _element_quadrature, _field_at
from fracwave.solver import scalar_run


def _gather(mesh: Mesh, x: np.ndarray) -> np.ndarray:
    """Vertex values (ne, dim+1) of an interior coefficient vector."""
    full = np.zeros(len(mesh.nodes))
    full[mesh.interior] = x
    return full[mesh.elements]


def l2_norm(system: FemSystem, x: np.ndarray) -> float:
    return float(np.sqrt(max(x @ (system.M @ x), 0.0)))


def l2_error_against(system: FemSystem, x: np.ndarray, field: ScalarField) -> float:
    """L2 distance of a coefficient vector from a function."""
    mesh = system.mesh
    phys, wts, basis = _element_quadrature(mesh)
    uh = np.einsum("qa,ea->eq", basis, _gather(mesh, x))
    return float(np.sqrt(np.sum(wts * (uh - _field_at(field.value, phys)) ** 2)))


def h1_seminorm_error_against(system: FemSystem, x: np.ndarray,
                              field: ScalarField) -> float:
    """H1 seminorm distance of a coefficient vector from a function."""
    mesh = system.mesh
    if field.gradient is None:
        raise ValueError("H1 error needs the gradient of the reference function")
    phys, wts, _ = _element_quadrature(mesh)
    grad_uh = np.einsum("ea,ead->ed", _gather(mesh, x), mesh.gradients)
    diff = grad_uh[:, None, :] - _field_at(field.gradient, phys)
    return float(np.sqrt(np.sum(wts * np.sum(diff**2, axis=2))))


def mode_eigenvalue(h: float, k) -> float:
    """Discrete eigenvalue of sin(k pi x) under (K, M) on the uniform mesh
    of width h on the unit interval."""
    c = math.cos(k * math.pi * h)
    return (6.0 / h**2) * (1.0 - c) / (2.0 + c)


def mode_scalar_run(gamma: float, a_gamma: float, lam_h: float, kappa: float,
                    N: int, corrected: bool) -> np.ndarray:
    """solver.scalar_run of a mode started at rest with amplitude 1: the
    scheme's first step is d1 = 1 - kappa^2 lam_h / 2."""
    return scalar_run(gamma, a_gamma, lam_h, kappa, N, d0=1.0,
                      d1=1.0 - 0.5 * kappa**2 * lam_h, dtd0=0.0, corrected=corrected)
