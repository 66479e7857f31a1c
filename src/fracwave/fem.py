"""P1 finite elements on uniform interval meshes and structured triangulations.

Homogeneous Dirichlet conditions are imposed by elimination: the
assembled mass and stiffness matrices act on interior nodes only.  Full
(pre-elimination) matrices are kept for diagnostics.  Factorizations are
computed lazily and reused across the many solves of a time loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


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
        pts = self.nodes[self.elements]
        if self.dimension == 1:
            return np.abs(pts[:, 1, 0] - pts[:, 0, 0])
        d1 = pts[:, 1] - pts[:, 0]
        d2 = pts[:, 2] - pts[:, 0]
        return 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def build_mesh(dimension: int, domain, n_per_side: int) -> Mesh:
    """Uniform mesh: n_per_side cells on an interval, or a structured
    triangulation of a rectangle with every cell split along the same
    diagonal for determinism."""
    if n_per_side < 2:
        raise ValueError(f"n_per_side must be at least 2, got {n_per_side}")
    if dimension == 1:
        a, b = domain
        if b <= a:
            raise ValueError(f"degenerate interval {domain}")
        nodes = np.linspace(a, b, n_per_side + 1).reshape(-1, 1)
        elements = np.column_stack(
            [np.arange(n_per_side), np.arange(1, n_per_side + 1)]
        )
        boundary = np.zeros(n_per_side + 1, dtype=bool)
        boundary[[0, -1]] = True
        h = (b - a) / n_per_side
    elif dimension == 2:
        (a, b), (c, d) = domain
        if b <= a or d <= c:
            raise ValueError(f"degenerate rectangle {domain}")
        n = n_per_side
        xs = np.linspace(a, b, n + 1)
        ys = np.linspace(c, d, n + 1)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        nodes = np.column_stack([X.ravel(), Y.ravel()])

        def node_id(i, j):
            return i * (n + 1) + j

        tris = []
        for i in range(n):
            for j in range(n):
                v00 = node_id(i, j)
                v10 = node_id(i + 1, j)
                v01 = node_id(i, j + 1)
                v11 = node_id(i + 1, j + 1)
                # fixed diagonal v00-v11
                tris.append((v00, v10, v11))
                tris.append((v00, v11, v01))
        elements = np.array(tris, dtype=int)
        boundary = np.zeros(len(nodes), dtype=bool)
        ii = np.arange(n + 1)
        for i in (0, n):
            boundary[[node_id(i, j) for j in ii]] = True
            boundary[[node_id(j, i) for j in ii]] = True
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


# Quadrature rules on the reference element.

def _gauss_1d(order: int):
    pts, wts = np.polynomial.legendre.leggauss(order)
    return 0.5 * (pts + 1.0), 0.5 * wts  # mapped to [0,1]


# Degree-2 exact midpoint rule in barycentric coordinates.
_TRI_POINTS = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
_TRI_WEIGHTS = np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])


@dataclass
class FemSystem:
    """Assembled interior-node mass and stiffness matrices with lazy solvers."""

    mesh: Mesh
    M: sp.csr_matrix
    K: sp.csr_matrix
    M_full: sp.csr_matrix
    K_full: sp.csr_matrix
    _M_solve: Callable | None = field(default=None, repr=False)
    _K_solve: Callable | None = field(default=None, repr=False)

    @property
    def ndof(self) -> int:
        return self.M.shape[0]

    def solve_mass(self, rhs: np.ndarray) -> np.ndarray:
        if self._M_solve is None:
            self._M_solve = spla.factorized(self.M.tocsc())
        return self._M_solve(rhs)

    def solve_stiffness(self, rhs: np.ndarray) -> np.ndarray:
        if self._K_solve is None:
            self._K_solve = spla.factorized(self.K.tocsc())
        return self._K_solve(rhs)


def assemble(mesh: Mesh) -> FemSystem:
    """Standard P1 mass and stiffness assembly with Dirichlet elimination."""
    nn = len(mesh.nodes)
    rows, cols, mvals, kvals = [], [], [], []
    pts = mesh.nodes[mesh.elements]
    if mesh.dimension == 1:
        hE = np.abs(pts[:, 1, 0] - pts[:, 0, 0])
        m_loc = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
        k_loc = np.array([[1.0, -1.0], [-1.0, 1.0]])
        for e, elem in enumerate(mesh.elements):
            for a in range(2):
                for b in range(2):
                    rows.append(elem[a])
                    cols.append(elem[b])
                    mvals.append(hE[e] * m_loc[a, b])
                    kvals.append(k_loc[a, b] / hE[e])
    else:
        for elem in mesh.elements:
            p = mesh.nodes[elem]
            d1 = p[1] - p[0]
            d2 = p[2] - p[0]
            det = d1[0] * d2[1] - d1[1] * d2[0]
            area = 0.5 * abs(det)
            # gradients of barycentric coordinates
            grads = np.array(
                [
                    [p[1, 1] - p[2, 1], p[2, 0] - p[1, 0]],
                    [p[2, 1] - p[0, 1], p[0, 0] - p[2, 0]],
                    [p[0, 1] - p[1, 1], p[1, 0] - p[0, 0]],
                ]
            ) / det
            k_loc = area * grads @ grads.T
            m_loc = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
            for a in range(3):
                for b in range(3):
                    rows.append(elem[a])
                    cols.append(elem[b])
                    mvals.append(m_loc[a, b])
                    kvals.append(k_loc[a, b])
    M_full = sp.coo_matrix((mvals, (rows, cols)), shape=(nn, nn)).tocsr()
    K_full = sp.coo_matrix((kvals, (rows, cols)), shape=(nn, nn)).tocsr()
    idx = mesh.interior
    M = M_full[np.ix_(idx, idx)].tocsr()
    K = K_full[np.ix_(idx, idx)].tocsr()
    return FemSystem(mesh=mesh, M=M, K=K, M_full=M_full, K_full=K_full)


def _element_quadrature(mesh: Mesh, quad_order: int):
    """Physical quadrature points, weights, and P1 values per element.

    Returns (points (ne, nq, dim), jac-weighted weights (ne, nq),
    basis values (nq, dim+1)).
    """
    pts = mesh.nodes[mesh.elements]
    if mesh.dimension == 1:
        q, w = _gauss_1d(quad_order)
        x0 = pts[:, 0, 0][:, None]
        x1 = pts[:, 1, 0][:, None]
        phys = (x0 + (x1 - x0) * q[None, :])[:, :, None]
        wts = np.abs(x1 - x0) * w[None, :]
        basis = np.column_stack([1.0 - q, q])
    else:
        lam = _TRI_POINTS
        w = _TRI_WEIGHTS
        phys = np.einsum("qa,ead->eqd", lam, pts)
        areas = mesh.element_measures()
        wts = areas[:, None] * w[None, :]
        basis = lam
    return phys, wts, basis


def load_vector(system: FemSystem, f, quad_order: int = 3) -> np.ndarray:
    """Interior load entries int f phi_i dx by per-element Gauss quadrature."""
    mesh = system.mesh
    phys, wts, basis = _element_quadrature(mesh, quad_order)
    ne, nq, dim = phys.shape
    fvals = np.asarray(f(phys.reshape(-1, dim)), dtype=float).reshape(ne, nq)
    contrib = np.einsum("eq,eq,qa->ea", wts, fvals, basis)
    full = np.zeros(len(mesh.nodes))
    np.add.at(full, mesh.elements.ravel(), contrib.ravel())
    return full[mesh.interior]


def _gradient_load(system: FemSystem, field: ScalarField, quad_order: int = 3):
    """Entries int grad(u) . grad(phi_i) dx for the Ritz right side."""
    mesh = system.mesh
    if field.gradient is None:
        raise ValueError("Ritz projection of a function needs its gradient")
    pts = mesh.nodes[mesh.elements]
    full = np.zeros(len(mesh.nodes))
    if mesh.dimension == 1:
        q, w = _gauss_1d(quad_order)
        x0 = pts[:, 0, 0][:, None]
        x1 = pts[:, 1, 0][:, None]
        hE = x1 - x0
        phys = (x0 + hE * q[None, :])[:, :, None]
        gvals = field.gradient(phys.reshape(-1, 1)).reshape(len(pts), len(q))
        integral = (np.abs(hE) * w[None, :] * gvals).sum(axis=1)
        # grad phi is -1/h, +1/h on the element
        contrib = np.column_stack([-integral, integral]) / hE[:, 0, None]
    else:
        lam = _TRI_POINTS
        w = _TRI_WEIGHTS
        phys = np.einsum("qa,ead->eqd", lam, pts)
        areas = mesh.element_measures()
        d1 = pts[:, 1] - pts[:, 0]
        d2 = pts[:, 2] - pts[:, 0]
        det = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])[:, None]
        grads = np.stack(
            [
                np.column_stack([pts[:, 1, 1] - pts[:, 2, 1], pts[:, 2, 0] - pts[:, 1, 0]]),
                np.column_stack([pts[:, 2, 1] - pts[:, 0, 1], pts[:, 0, 0] - pts[:, 2, 0]]),
                np.column_stack([pts[:, 0, 1] - pts[:, 1, 1], pts[:, 1, 0] - pts[:, 0, 0]]),
            ],
            axis=1,
        ) / det[:, :, None]
        gvals = field.gradient(phys.reshape(-1, 2)).reshape(len(pts), len(w), 2)
        avg = np.einsum("q,eqd->ed", w, gvals)  # quadrature mean of grad u
        contrib = areas[:, None] * np.einsum("ead,ed->ea", grads, avg)
    np.add.at(full, system.mesh.elements.ravel(), contrib.ravel())
    return full[system.mesh.interior]


def ritz_projection(system: FemSystem, u, quad_order: int = 3) -> np.ndarray:
    """H1-elliptic projection; nodal input is returned unchanged."""
    if isinstance(u, np.ndarray):
        return u.copy()
    g = _gradient_load(system, u, quad_order)
    return system.solve_stiffness(g)


def l2_projection(system: FemSystem, f_load: np.ndarray) -> np.ndarray:
    """Mass-matrix projection from a load vector."""
    return system.solve_mass(f_load)


def norms(system: FemSystem, x: np.ndarray) -> tuple[float, float]:
    """(L2, H1) norms of an interior coefficient vector."""
    mx = x @ (system.M @ x)
    kx = x @ (system.K @ x)
    return float(np.sqrt(max(mx, 0.0))), float(np.sqrt(max(mx + kx, 0.0)))


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
    ne, nq, dim = phys.shape
    full = np.zeros(len(mesh.nodes))
    full[mesh.interior] = x
    uh = np.einsum("qa,ea->eq", basis, full[mesh.elements])
    uex = np.asarray(field.value(phys.reshape(-1, dim)), dtype=float).reshape(ne, nq)
    return float(np.sqrt(np.sum(wts * (uh - uex) ** 2)))


def h1_seminorm_error_against(system: FemSystem, x: np.ndarray, field: ScalarField,
                              quad_order: int = 5) -> float:
    """H1 seminorm distance between a coefficient vector and a function."""
    mesh = system.mesh
    if field.gradient is None:
        raise ValueError("H1 error needs the gradient of the reference function")
    pts = mesh.nodes[mesh.elements]
    full = np.zeros(len(mesh.nodes))
    full[mesh.interior] = x
    uh = full[mesh.elements]
    if mesh.dimension == 1:
        q, w = _gauss_1d(quad_order)
        x0 = pts[:, 0, 0][:, None]
        hE = pts[:, 1, 0][:, None] - x0
        phys = (x0 + hE * q[None, :])[:, :, None]
        grad_uh = ((uh[:, 1] - uh[:, 0]) / hE[:, 0])[:, None]
        gex = field.gradient(phys.reshape(-1, 1)).reshape(len(pts), len(q))
        return float(
            np.sqrt(np.sum(np.abs(hE) * w[None, :] * (grad_uh - gex) ** 2))
        )
    lam = _TRI_POINTS
    w = _TRI_WEIGHTS
    phys = np.einsum("qa,ead->eqd", lam, pts)
    areas = mesh.element_measures()
    d1 = pts[:, 1] - pts[:, 0]
    d2 = pts[:, 2] - pts[:, 0]
    det = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])[:, None]
    grads = np.stack(
        [
            np.column_stack([pts[:, 1, 1] - pts[:, 2, 1], pts[:, 2, 0] - pts[:, 1, 0]]),
            np.column_stack([pts[:, 2, 1] - pts[:, 0, 1], pts[:, 0, 0] - pts[:, 2, 0]]),
            np.column_stack([pts[:, 0, 1] - pts[:, 1, 1], pts[:, 1, 0] - pts[:, 0, 0]]),
        ],
        axis=1,
    ) / det[:, :, None]
    grad_uh = np.einsum("ea,ead->ed", uh, grads)
    gex = field.gradient(phys.reshape(-1, 2)).reshape(len(pts), len(w), 2)
    diff = grad_uh[:, None, :] - gex
    return float(
        np.sqrt(np.sum(areas[:, None] * w[None, :] * np.sum(diff**2, axis=2)))
    )


def max_generalized_eigenvalue(system: FemSystem) -> float:
    """Largest eigenvalue of K x = lambda M x by Lanczos (ARPACK eigsh).

    The inverse of M is the system's own cached factorization, which the
    time loop reuses.  The seeded start vector makes the result
    reproducible from run to run.
    """
    n = system.ndof
    if n == 1:
        return float(system.K[0, 0] / system.M[0, 0])
    m_inv = spla.LinearOperator((n, n), matvec=system.solve_mass, dtype=float)
    v0 = np.random.default_rng(1234).standard_normal(n)
    lam = spla.eigsh(system.K, k=1, M=system.M, Minv=m_inv, which="LA",
                     v0=v0, return_eigenvectors=False)
    return float(lam[0])


def inverse_constant(system: FemSystem) -> float:
    """Sharp inverse-inequality constant h * sqrt(lambda_max(K, M))."""
    lam = max_generalized_eigenvalue(system)
    return system.mesh.h * float(np.sqrt(lam))
