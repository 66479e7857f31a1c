"""P1 finite elements on uniform interval meshes and structured triangulations.

Homogeneous Dirichlet conditions are imposed by elimination: the
assembled mass and stiffness matrices act on interior nodes only.  A
FemSystem caches its mass factorization and lambda_max(K, M) on first
use, for every run on it; a Ritz projection factors K and drops it.
lambda_max comes from the CFL guard's own Lanczos runs, on numpy and
scipy.linalg, so importing fem loads no scipy.sparse.linalg.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpttrf, dpttrs

from fracwave.fraccalc import gauss_jacobi

# The basis rows of each Lanczos run of the CFL guard: a run stops after
# this many steps, and at most this many dofs it spans the whole space.
LANCZOS_VECTORS = 40
# The guard's estimate stops at this relative residual bound, and its first
# shift lies this far above the Ritz value it returns.
ESTIMATE_TOL = 1e-3


@dataclass
class ScalarField:
    """Spatial function with optional gradient, vectorized over point arrays.

    value maps (npts, dim) -> (npts,); gradient maps (npts, dim) ->
    (npts, dim).  The gradient is needed for Ritz projection.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(eq=False)
class Mesh:
    dimension: int
    h: float
    nodes: np.ndarray           # (num_nodes, dim)
    elements: np.ndarray        # (num_elems, dim+1) vertex indices
    interior: np.ndarray        # interior node indices, in dof order
    interior_index: np.ndarray  # node -> dof index, -1 on the boundary
    # read-only, as every run on the mesh shares them
    measures: np.ndarray = field(init=False, repr=False)   # |det J| / d!
    gradients: np.ndarray = field(init=False, repr=False)  # (ne, d+1, d)

    def __post_init__(self) -> None:
        # J has the edges p_k - p_0 as columns; the rows of J^{-1} are the
        # gradients of lambda_1..lambda_d, and lambda_0 = 1 - sum_k lambda_k
        pts = self.nodes[self.elements]
        jac = np.swapaxes(pts[:, 1:] - pts[:, :1], 1, 2)
        self.measures = np.abs(np.linalg.det(jac)) / math.factorial(self.dimension)
        inv = np.linalg.inv(jac)
        self.gradients = np.concatenate([-inv.sum(axis=1, keepdims=True), inv], axis=1)
        self.measures.flags.writeable = False
        self.gradients.flags.writeable = False


def build_mesh(dimension: int, domain, n_per_side: int) -> Mesh:
    """Uniform mesh: n_per_side cells on an interval, or a structured
    triangulation of a rectangle with every cell split along the same
    diagonal for determinism."""
    if n_per_side < 2:
        raise ValueError(f"n_per_side must be at least 2, got {n_per_side}")
    if dimension not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {dimension}")
    n = n_per_side
    # one (a, b) side per axis; node (i, j) is i * (n + 1) + j
    sides = (domain,) if dimension == 1 else domain
    if any(b <= a for a, b in sides):
        raise ValueError(f"degenerate {('interval', 'rectangle')[dimension - 1]} {domain}")
    axes = np.meshgrid(*(np.linspace(a, b, n + 1) for a, b in sides), indexing="ij")
    nodes = np.column_stack([x.ravel() for x in axes])
    index = np.indices((n + 1,) * dimension).reshape(dimension, -1)
    boundary = ((index == 0) | (index == n)).any(axis=0)
    h = max((b - a) / n for a, b in sides)
    if dimension == 1:
        elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    else:
        # cell (i, j), i-major, is split along its diagonal v00-v11 into
        # (v00, v10, v11) and (v00, v11, v01)
        v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
        v10, v01, v11 = v00 + n + 1, v00 + 1, v00 + n + 2
        elements = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)

    interior = np.flatnonzero(~boundary)
    interior_index = -np.ones(len(nodes), dtype=int)
    interior_index[interior] = np.arange(len(interior))
    return Mesh(
        dimension=dimension,
        h=h,
        nodes=nodes,
        elements=elements,
        interior=interior,
        interior_index=interior_index,
    )


def _reference_rule(dimension: int):
    """Barycentric points (nq, dim+1) and weights (nq,) summing to one: on
    the interval the 3-point Gauss-Legendre rule of fraccalc.gauss_jacobi,
    on triangles the degree-2 exact edge-midpoint rule."""
    if dimension == 1:
        q, w = gauss_jacobi(3, 0.0, 0.0)
        q = 0.5 * (q + 1.0)
        return np.column_stack([1.0 - q, q]), 0.5 * w
    return (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
            np.full(3, 1.0 / 3.0))


@dataclass(eq=False)
class FemSystem:
    """Interior-node M and K; the mass factor and lambda_max are cached."""

    mesh: Mesh
    M: sp.csr_matrix
    K: sp.csr_matrix

    @property
    def ndof(self) -> int:
        return self.M.shape[0]

    @functools.cached_property
    def _mass_solver(self) -> Callable:
        return _spd_solver(self.M)

    def solve_mass(self, rhs: np.ndarray) -> np.ndarray:
        return self._mass_solver(rhs)

    @functools.cached_property
    def lambda_max(self) -> float:
        """lambda_max(K, M) by max_generalized_eigenvalue."""
        return max_generalized_eigenvalue(self)


def _spd_solver(A: sp.csr_matrix) -> Callable:
    """Solver of A x = b, for 1-D and 2-D b, for symmetric positive definite A.

    The band of A is max |i - j| over its nonzeros: build_mesh numbers
    the dofs lexicographically, so it is 1 on the interval and at most n
    on a rectangle of n cells per side.  At band 1 A = L D L^T is
    factored once by LAPACK dpttrf and each solve runs dpttrs; any other
    band gets a banded Cholesky factor (dpbtrf) and dpbtrs, whose sweeps
    at band 1 would make one BLAS call per column.  The band array is
    Fortran-ordered, as LAPACK stores it, so dpbtrf factors it in place
    rather than a copy: the factor is the one band-sized array.  A single dof (band 0)
    stays banded: f2py's dpttrf refuses an empty off-diagonal.
    """
    coo = A.tocoo()
    lower = (coo.row >= coo.col) & (coo.data != 0.0)
    rows, cols = coo.row[lower], coo.col[lower]
    band = int((rows - cols).max(initial=0))
    ab = np.zeros((band + 1, A.shape[0]), order="F")
    ab[rows - cols, cols] = coo.data[lower]
    if band == 1:
        d, e, info = dpttrf(ab[0], ab[1, :-1])
        solve = lambda b: dpttrs(d, e, b)[0]
    else:
        factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        solve = lambda b: dpbtrs(factor, b, lower=1)[0]
    if info != 0:
        raise ValueError(f"matrix is not positive definite: leading minor {info}"
                         f" of {A.shape[0]} is not positive")
    return solve


def assemble(mesh: Mesh) -> FemSystem:
    """Standard P1 mass and stiffness assembly with Dirichlet elimination."""
    measures, grads = mesh.measures, mesh.gradients
    d = mesh.dimension
    k_loc = measures[:, None, None] * grads @ np.swapaxes(grads, 1, 2)
    m_loc = (measures / ((d + 1) * (d + 2)))[:, None, None] * (
        np.ones((d + 1, d + 1)) + np.eye(d + 1))
    dofs = mesh.interior_index[mesh.elements]
    rows = np.broadcast_to(dofs[:, :, None], k_loc.shape)
    cols = np.broadcast_to(dofs[:, None, :], k_loc.shape)
    keep = (rows >= 0) & (cols >= 0)
    n = len(mesh.interior)

    def csr(vals):
        return sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                             shape=(n, n)).tocsr()

    return FemSystem(mesh=mesh, M=csr(m_loc), K=csr(k_loc))


def _element_quadrature(mesh: Mesh):
    """Physical quadrature points, weights, and P1 values per element.

    Returns (points (ne, nq, dim), jac-weighted weights (ne, nq),
    basis values (nq, dim+1)).
    """
    lam, w = _reference_rule(mesh.dimension)
    phys = np.einsum("qa,ead->eqd", lam, mesh.nodes[mesh.elements])
    return phys, mesh.measures[:, None] * w, lam


def _scatter(mesh: Mesh, contrib: np.ndarray) -> np.ndarray:
    """Sum per-element vertex entries (ne, dim+1) into interior dofs."""
    full = np.zeros(len(mesh.nodes))
    np.add.at(full, mesh.elements.ravel(), contrib.ravel())
    return full[mesh.interior]


def _field_at(fn, phys: np.ndarray) -> np.ndarray:
    """Evaluate fn on (ne, nq, dim) points; the result keeps the (ne, nq)
    lead and any trailing axes of fn's output."""
    ne, nq, dim = phys.shape
    vals = np.asarray(fn(phys.reshape(-1, dim)), dtype=float)
    return vals.reshape(ne, nq, *vals.shape[1:])


def load_vector(system: FemSystem, f) -> np.ndarray:
    """Interior load entries int f phi_i dx by per-element quadrature."""
    mesh = system.mesh
    phys, wts, basis = _element_quadrature(mesh)
    contrib = np.einsum("eq,eq,qa->ea", wts, _field_at(f, phys), basis)
    return _scatter(mesh, contrib)


def _gradient_load(system: FemSystem, field: ScalarField):
    """Entries int grad(u) . grad(phi_i) dx for the Ritz right side."""
    mesh = system.mesh
    if field.gradient is None:
        raise ValueError("Ritz projection of a function needs its gradient")
    phys, wts, _ = _element_quadrature(mesh)
    integral = np.einsum("eq,eqd->ed", wts, _field_at(field.gradient, phys))
    return _scatter(mesh, np.einsum("ead,ed->ea", mesh.gradients, integral))


def ritz_projection(system: FemSystem, u) -> np.ndarray:
    """H1-elliptic projection of a continuous field."""
    g = _gradient_load(system, u)
    # K is factored for this one solve and not kept
    return _spd_solver(system.K)(g)


def interpolate(system: FemSystem, field: ScalarField) -> np.ndarray:
    """Nodal interpolant of a spatial function on the interior nodes."""
    return np.asarray(
        field.value(system.mesh.nodes[system.mesh.interior]), dtype=float
    )


def _top_ritz(op: Callable, M: sp.csr_matrix, v: np.ndarray, tol: float):
    """Largest Ritz pair of op, self-adjoint in the M inner product, by
    Lanczos from v with full reorthogonalization (Parlett, The Symmetric
    Eigenvalue Problem, 1998, ch. 13).

    The basis V (one row per Lanczos vector, at most LANCZOS_VECTORS) is
    kept, M V is not: each step takes one product with op and two with M,
    one for the reorthogonalization coefficients V M w and one for w's M
    norm.  The run stops once the residual bound beta_j |s_j| of the
    largest Ritz value theta is at most tol * theta, on breakdown, or after
    LANCZOS_VECTORS steps.  When those span the whole space no bound is
    checked on the way: one tridiagonal eigensolve at the end gives an
    eigenvalue to round-off.  Returns theta, its M-unit Ritz vector and
    whether the bound was met, as it always is over the whole space.
    """
    n = len(v)
    steps = min(n, LANCZOS_VECTORS)
    basis = np.empty((steps, n))
    alpha, beta = np.empty(steps), np.empty(steps)
    mv = M @ v
    norm = math.sqrt(v @ mv)
    v, mv = v / norm, mv / norm

    def top(k):
        theta, s = eigh_tridiagonal(alpha[:k], beta[:k - 1], select="i",
                                    select_range=(k - 1, k - 1))
        return float(theta[0]), s[:, 0], beta[k - 1] * abs(s[-1, 0]) <= tol * theta[0]

    for k in range(1, steps + 1):
        j = k - 1
        basis[j] = v
        w = op(v)
        alpha[j] = w @ mv
        w -= alpha[j] * v
        if j:
            w -= beta[j - 1] * basis[j - 1]
        w -= (basis[:k] @ (M @ w)) @ basis[:k]
        mv = M @ w
        beta[j] = math.sqrt(w @ mv)
        if beta[j] <= np.finfo(float).eps * np.abs(alpha[:k]).max():
            break    # breakdown: the Krylov space is invariant
        if steps < n and top(k)[2]:
            break
        v, mv = w / beta[j], mv / beta[j]
    theta, s, converged = top(k)
    return theta, s @ basis[:k], converged or steps == n


def max_generalized_eigenvalue(system: FemSystem) -> float:
    """Largest eigenvalue of K x = lambda M x by Lanczos (_top_ritz) with
    a certified shift.

    1. Estimate: Lanczos on M^-1 K to the loose tolerance ESTIMATE_TOL, or
       for LANCZOS_VECTORS steps, with the system's cached mass
       factorization (which the time loop reuses) and a seeded start
       vector, gives a Ritz value theta <= lambda_max and its vector.
    2. Certificate: sigma = theta (1 + margin), margin = ESTIMATE_TOL at
       first.  By Sylvester's law of inertia sigma M - K is positive
       definite, so its Cholesky factor exists, only if sigma > lambda_max;
       while the factorization fails the margin grows fourfold.
    3. Refine: Lanczos on (sigma M - K)^-1 M, started from the Ritz vector,
       gives its largest eigenvalue mu, and lambda_max = sigma - 1 / mu, to
       within machine epsilon times lambda_max.  It needs no mass solves.
       Its Ritz value lies below mu, on the unsafe side, so a run that
       stops unconverged restarts from its Ritz vector, and a refine still
       unconverged after about n steps raises RuntimeError.
    At most LANCZOS_VECTORS dofs, the estimate's Krylov space is the
    whole space, so theta is lambda_max to round-off and steps 2 and 3
    are skipped.
    """
    n = system.ndof
    if n == 1:
        return float(system.K[0, 0] / system.M[0, 0])
    v0 = np.random.default_rng(1234).standard_normal(n)
    theta, x, _ = _top_ritz(lambda b: system.solve_mass(system.K @ b), system.M, v0,
                            ESTIMATE_TOL)
    if n <= LANCZOS_VECTORS:
        return theta
    margin = ESTIMATE_TOL
    while True:
        sigma = theta * (1.0 + margin)
        try:
            solve = _spd_solver(sigma * system.M - system.K)
            break
        except ValueError:
            margin *= 4.0
    # mu - mu_ritz <= tol mu_ritz puts lambda within tol (sigma - lambda_max)
    # <= tol theta margin = eps theta of lambda_max
    tol = np.finfo(float).eps / margin
    shift_invert = lambda b: solve(system.M @ b)
    mu, x, converged = _top_ritz(shift_invert, system.M, x, tol)
    # restarts, to about n steps in all: the most Lanczos takes in exact
    # arithmetic
    for _ in range(n // LANCZOS_VECTORS):
        if converged:
            break
        mu, x, converged = _top_ritz(shift_invert, system.M, x, tol)
    if not converged:
        raise RuntimeError(f"CFL guard: shift-invert Lanczos about {sigma!r} did not"
                           f" converge in {n // LANCZOS_VECTORS} restarts; its Ritz value"
                           f" {sigma - 1.0 / mu!r} may lie below lambda_max")
    lam = sigma - 1.0 / mu
    # theta, a Rayleigh quotient, is at most lambda_max up to round-off
    if lam < theta * (1.0 - 1e-12):
        raise RuntimeError(f"CFL guard: shift-invert Lanczos about {sigma!r} gave"
                           f" {lam!r}, below the Ritz value {theta!r}")
    return lam


def inverse_constant(system: FemSystem) -> float:
    """Sharp inverse-inequality constant h * sqrt(lambda_max(K, M))."""
    return system.mesh.h * float(np.sqrt(system.lambda_max))
