"""P1 finite elements on uniform interval meshes and structured triangulations.

Homogeneous Dirichlet conditions are imposed by elimination: the
assembled mass and stiffness matrices act on interior nodes only.
Factorizations are computed lazily and reused across the many solves of
a time loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Lanczos vectors of the CFL guard's eigsh (ARPACK's ncv; scipy's default
# is 20): the top of the spectrum clusters, and a larger subspace needs
# far fewer restarts, so far fewer mass solves.
LANCZOS_VECTORS = 40


@dataclass
class ScalarField:
    """Spatial function with optional gradient, vectorized over point arrays.

    value maps (npts, dim) -> (npts,); gradient maps (npts, dim) ->
    (npts, dim).  The gradient is needed for Ritz projection.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None

    def scaled(self, factor: float) -> "ScalarField":
        grad = None
        if self.gradient is not None:
            grad = lambda x, g=self.gradient: factor * g(x)
        return ScalarField(value=lambda x, v=self.value: factor * v(x), gradient=grad)


@dataclass
class Mesh:
    dimension: int
    domain: tuple
    h: float
    nodes: np.ndarray           # (num_nodes, dim)
    elements: np.ndarray        # (num_elems, dim+1) vertex indices
    interior: np.ndarray        # interior node indices, in dof order
    interior_index: np.ndarray  # node -> dof index, -1 on the boundary

    @property
    def num_interior(self) -> int:
        return len(self.interior)

    def element_measures(self) -> np.ndarray:
        """Per-element measure |det J| / d!."""
        return np.abs(np.linalg.det(_jacobians(self))) / math.factorial(self.dimension)


def build_mesh(dimension: int, domain, n_per_side: int) -> Mesh:
    """Uniform mesh: n_per_side cells on an interval, or a structured
    triangulation of a rectangle with every cell split along the same
    diagonal for determinism."""
    if n_per_side < 2:
        raise ValueError(f"n_per_side must be at least 2, got {n_per_side}")
    n = n_per_side
    if dimension == 1:
        a, b = domain
        if b <= a:
            raise ValueError(f"degenerate interval {domain}")
        nodes = np.linspace(a, b, n + 1).reshape(-1, 1)
        elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
        boundary = np.zeros(n + 1, dtype=bool)
        boundary[[0, -1]] = True
        h = (b - a) / n
    elif dimension == 2:
        (a, b), (c, d) = domain
        if b <= a or d <= c:
            raise ValueError(f"degenerate rectangle {domain}")
        X, Y = np.meshgrid(np.linspace(a, b, n + 1), np.linspace(c, d, n + 1),
                           indexing="ij")
        nodes = np.column_stack([X.ravel(), Y.ravel()])
        # node (i, j) is i * (n + 1) + j; cell (i, j), i-major, is split
        # along its diagonal v00-v11 into (v00, v10, v11) and (v00, v11, v01)
        v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
        v10, v01, v11 = v00 + n + 1, v00 + 1, v00 + n + 2
        elements = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)
        i, j = np.divmod(np.arange(len(nodes)), n + 1)
        boundary = (i == 0) | (i == n) | (j == 0) | (j == n)
        h = max((b - a) / n, (d - c) / n)
    else:
        raise ValueError(f"dimension must be 1 or 2, got {dimension}")

    interior = np.flatnonzero(~boundary)
    interior_index = -np.ones(len(nodes), dtype=int)
    interior_index[interior] = np.arange(len(interior))
    return Mesh(
        dimension=dimension,
        domain=domain,
        h=h,
        nodes=nodes,
        elements=elements,
        interior=interior,
        interior_index=interior_index,
    )


def _jacobians(mesh: Mesh) -> np.ndarray:
    """Per-element J (ne, d, d) with the edges p_k - p_0 as columns."""
    pts = mesh.nodes[mesh.elements]
    return np.swapaxes(pts[:, 1:] - pts[:, :1], 1, 2)


def _basis_gradients(mesh: Mesh) -> np.ndarray:
    """P1 basis gradients (ne, d+1, d).

    The rows of J^{-1} are the gradients of the barycentric coordinates
    lambda_1..lambda_d, and lambda_0 = 1 - sum_k lambda_k.
    """
    inv = np.linalg.inv(_jacobians(mesh))
    return np.concatenate([-inv.sum(axis=1, keepdims=True), inv], axis=1)


def _reference_rule(dimension: int, quad_order: int):
    """Barycentric points (nq, dim+1) and weights (nq,) summing to one."""
    if dimension == 1:
        q, w = np.polynomial.legendre.leggauss(quad_order)
        q = 0.5 * (q + 1.0)
        return np.column_stack([1.0 - q, q]), 0.5 * w
    # degree-2 exact edge-midpoint rule
    return (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
            np.full(3, 1.0 / 3.0))


@dataclass
class FemSystem:
    """Assembled interior-node mass and stiffness matrices with lazy solvers."""

    mesh: Mesh
    M: sp.csr_matrix
    K: sp.csr_matrix
    _M_solve: Callable | None = field(default=None, repr=False)
    _K_solve: Callable | None = field(default=None, repr=False)
    _lambda_max: float | None = field(default=None, repr=False)

    @property
    def ndof(self) -> int:
        return self.M.shape[0]

    def solve_mass(self, rhs: np.ndarray) -> np.ndarray:
        if self._M_solve is None:
            self._M_solve = _spd_solver(self.M)
        return self._M_solve(rhs)

    def solve_stiffness(self, rhs: np.ndarray) -> np.ndarray:
        if self._K_solve is None:
            self._K_solve = _spd_solver(self.K)
        return self._K_solve(rhs)

    def lambda_max(self) -> float:
        """lambda_max(K, M), computed once per system."""
        if self._lambda_max is None:
            self._lambda_max = max_generalized_eigenvalue(self)
        return self._lambda_max


def _spd_solver(A: sp.csr_matrix) -> Callable:
    """Solver of A x = b for symmetric positive definite A: SuperLU with
    the minimum-degree ordering of A^T + A and no pivoting, which fills
    the factor less than the default COLAMD ordering."""
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True)).solve


def assemble(mesh: Mesh) -> FemSystem:
    """Standard P1 mass and stiffness assembly with Dirichlet elimination."""
    measures, grads = mesh.element_measures(), _basis_gradients(mesh)
    d = mesh.dimension
    k_loc = measures[:, None, None] * grads @ np.swapaxes(grads, 1, 2)
    m_loc = (measures / ((d + 1) * (d + 2)))[:, None, None] * (
        np.ones((d + 1, d + 1)) + np.eye(d + 1))
    dofs = mesh.interior_index[mesh.elements]
    rows = np.broadcast_to(dofs[:, :, None], k_loc.shape)
    cols = np.broadcast_to(dofs[:, None, :], k_loc.shape)
    keep = (rows >= 0) & (cols >= 0)
    n = mesh.num_interior

    def csr(vals):
        return sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                             shape=(n, n)).tocsr()

    return FemSystem(mesh=mesh, M=csr(m_loc), K=csr(k_loc))


def _element_quadrature(mesh: Mesh, quad_order: int):
    """Physical quadrature points, weights, and P1 values per element.

    Returns (points (ne, nq, dim), jac-weighted weights (ne, nq),
    basis values (nq, dim+1)).
    """
    lam, w = _reference_rule(mesh.dimension, quad_order)
    phys = np.einsum("qa,ead->eqd", lam, mesh.nodes[mesh.elements])
    return phys, mesh.element_measures()[:, None] * w, lam


def _scatter(mesh: Mesh, contrib: np.ndarray) -> np.ndarray:
    """Sum per-element vertex entries (ne, dim+1) into interior dofs."""
    full = np.zeros(len(mesh.nodes))
    np.add.at(full, mesh.elements.ravel(), contrib.ravel())
    return full[mesh.interior]


def _gather(mesh: Mesh, x: np.ndarray) -> np.ndarray:
    """Vertex values (ne, dim+1) of an interior coefficient vector."""
    full = np.zeros(len(mesh.nodes))
    full[mesh.interior] = x
    return full[mesh.elements]


def _field_at(fn, phys: np.ndarray) -> np.ndarray:
    """Evaluate fn on (ne, nq, dim) points; the result keeps the (ne, nq)
    lead and any trailing axes of fn's output."""
    ne, nq, dim = phys.shape
    vals = np.asarray(fn(phys.reshape(-1, dim)), dtype=float)
    return vals.reshape(ne, nq, *vals.shape[1:])


def load_vector(system: FemSystem, f, quad_order: int = 3) -> np.ndarray:
    """Interior load entries int f phi_i dx by per-element Gauss quadrature."""
    mesh = system.mesh
    phys, wts, basis = _element_quadrature(mesh, quad_order)
    contrib = np.einsum("eq,eq,qa->ea", wts, _field_at(f, phys), basis)
    return _scatter(mesh, contrib)


def _gradient_load(system: FemSystem, field: ScalarField, quad_order: int = 3):
    """Entries int grad(u) . grad(phi_i) dx for the Ritz right side."""
    mesh = system.mesh
    if field.gradient is None:
        raise ValueError("Ritz projection of a function needs its gradient")
    phys, wts, _ = _element_quadrature(mesh, quad_order)
    integral = np.einsum("eq,eqd->ed", wts, _field_at(field.gradient, phys))
    return _scatter(mesh, np.einsum("ead,ed->ea", _basis_gradients(mesh), integral))


def ritz_projection(system: FemSystem, u, quad_order: int = 3) -> np.ndarray:
    """H1-elliptic projection of a continuous field."""
    g = _gradient_load(system, u, quad_order)
    return system.solve_stiffness(g)


def l2_norm(system: FemSystem, x: np.ndarray) -> float:
    return float(np.sqrt(max(x @ (system.M @ x), 0.0)))


def interpolate(system: FemSystem, field: ScalarField) -> np.ndarray:
    """Nodal interpolant of a spatial function on the interior nodes."""
    return np.asarray(
        field.value(system.mesh.nodes[system.mesh.interior]), dtype=float
    )


def l2_error_against(system: FemSystem, x: np.ndarray, field: ScalarField,
                     quad_order: int = 5) -> float:
    """L2 distance between a coefficient vector and a continuous function."""
    mesh = system.mesh
    phys, wts, basis = _element_quadrature(mesh, quad_order)
    uh = np.einsum("qa,ea->eq", basis, _gather(mesh, x))
    return float(np.sqrt(np.sum(wts * (uh - _field_at(field.value, phys)) ** 2)))


def h1_seminorm_error_against(system: FemSystem, x: np.ndarray, field: ScalarField,
                              quad_order: int = 5) -> float:
    """H1 seminorm distance between a coefficient vector and a function."""
    mesh = system.mesh
    if field.gradient is None:
        raise ValueError("H1 error needs the gradient of the reference function")
    phys, wts, _ = _element_quadrature(mesh, quad_order)
    grad_uh = np.einsum("ea,ead->ed", _gather(mesh, x), _basis_gradients(mesh))
    diff = grad_uh[:, None, :] - _field_at(field.gradient, phys)
    return float(np.sqrt(np.sum(wts * np.sum(diff**2, axis=2))))


def max_generalized_eigenvalue(system: FemSystem) -> float:
    """Largest eigenvalue of K x = lambda M x by Lanczos (ARPACK eigsh).

    The inverse of M is the system's own cached factorization, which the
    time loop reuses, and the subspace holds LANCZOS_VECTORS vectors.
    The seeded start vector makes the result reproducible from run to run.
    """
    n = system.ndof
    if n == 1:
        return float(system.K[0, 0] / system.M[0, 0])
    m_inv = spla.LinearOperator((n, n), matvec=system.solve_mass, dtype=float)
    v0 = np.random.default_rng(1234).standard_normal(n)
    lam = spla.eigsh(system.K, k=1, M=system.M, Minv=m_inv, which="LA",
                     v0=v0, ncv=min(n, LANCZOS_VECTORS), return_eigenvectors=False)
    return float(lam[0])


def inverse_constant(system: FemSystem) -> float:
    """Sharp inverse-inequality constant h * sqrt(lambda_max(K, M))."""
    return system.mesh.h * float(np.sqrt(system.lambda_max()))
