"""Reference norms of P1 coefficient vectors, for the tests.

The package grades its runs with harness._m_norms, the M-norms of every
row of a block; these are the one-vector forms the tests check those
and the Ritz projection against.  Not a test module: pytest does not
collect it, the test modules import it.
"""

import numpy as np

from fracwave.fem import FemSystem, Mesh, ScalarField, _element_quadrature, _field_at


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
