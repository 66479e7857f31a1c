"""P1 finite element meshes, assembly, projections, and norms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracwave.fem import (
    ScalarField,
    assemble,
    build_mesh,
    h1_seminorm_error_against,
    interpolate,
    inverse_constant,
    l2_error_against,
    l2_norm,
    load_vector,
    max_generalized_eigenvalue,
    ritz_projection,
)


def sin_field():
    return ScalarField(
        value=lambda x: np.sin(np.pi * x[:, 0]),
        gradient=lambda x: (np.pi * np.cos(np.pi * x[:, 0]))[:, None],
    )


def sin_sin_field():
    def value(x):
        return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

    def gradient(x):
        sx, sy = np.sin(np.pi * x[:, 0]), np.sin(np.pi * x[:, 1])
        cx, cy = np.cos(np.pi * x[:, 0]), np.cos(np.pi * x[:, 1])
        return np.pi * np.column_stack([cx * sy, sx * cy])

    return ScalarField(value=value, gradient=gradient)


def bubble_field():
    return ScalarField(
        value=lambda x: x[:, 0] * (1.0 - x[:, 0]),
        gradient=lambda x: (1.0 - 2.0 * x[:, 0])[:, None],
    )


UNIT_INTERVAL = (1, (0.0, 1.0))
UNIT_SQUARE = (2, ((0.0, 1.0), (0.0, 1.0)))


class TestBuildMesh:
    def test_interval_counts(self):
        mesh = build_mesh(1, (0.0, 1.0), 4)
        assert len(mesh.nodes) == 5
        assert mesh.num_interior == 3
        assert mesh.h == pytest.approx(0.25)

    def test_square_counts(self):
        mesh = build_mesh(2, ((-1.0, 1.0), (-1.0, 1.0)), 4)
        assert len(mesh.nodes) == 25
        assert mesh.num_interior == 9
        assert len(mesh.elements) == 32

    def test_element_measures_sum_to_domain(self):
        mesh = build_mesh(2, ((-1.0, 1.0), (-1.0, 1.0)), 6)
        assert mesh.element_measures().sum() == pytest.approx(4.0, rel=1e-12)
        assert np.all(mesh.element_measures() > 0.0)
        mesh1 = build_mesh(1, (0.0, 1.0), 7)
        assert mesh1.element_measures().sum() == pytest.approx(1.0, rel=1e-12)

    def test_boundary_nodes_have_no_dof(self):
        mesh = build_mesh(2, ((-1.0, 1.0), (-1.0, 1.0)), 4)
        on_boundary = (np.abs(np.abs(mesh.nodes[:, 0]) - 1.0) < 1e-14) | (
            np.abs(np.abs(mesh.nodes[:, 1]) - 1.0) < 1e-14)
        assert np.all(mesh.interior_index[on_boundary] == -1)
        assert np.all(mesh.interior_index[~on_boundary] >= 0)

    def test_square_element_order(self):
        mesh = build_mesh(2, ((0.0, 1.0), (0.0, 1.0)), 2)
        assert mesh.elements.tolist() == [
            [0, 3, 4], [0, 4, 1], [1, 4, 5], [1, 5, 2],
            [3, 6, 7], [3, 7, 4], [4, 7, 8], [4, 8, 5],
        ]

    def test_degenerate_domains_rejected(self):
        with pytest.raises(ValueError):
            build_mesh(1, (1.0, 1.0), 4)
        with pytest.raises(ValueError):
            build_mesh(2, ((0.0, 1.0), (1.0, 1.0)), 4)
        with pytest.raises(ValueError):
            build_mesh(1, (0.0, 1.0), 1)


class TestAssembly:
    def test_interval_closed_forms(self):
        mesh = build_mesh(1, (0.0, 1.0), 4)
        system = assemble(mesh)
        h = 0.25
        K = system.K.toarray()
        M = system.M.toarray()
        assert K == pytest.approx(
            (1.0 / h) * (2 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1)))
        assert M == pytest.approx(
            (h / 6.0) * (4 * np.eye(3) + np.eye(3, k=1) + np.eye(3, k=-1)))

    def test_square_closed_forms(self):
        mesh = build_mesh(2, ((-1.0, 1.0), (-1.0, 1.0)), 4)
        system = assemble(mesh)
        h = 0.5
        K = system.K.toarray()
        M = system.M.toarray()
        # the centre node (2, 2) and its neighbours (2 + di, 2 + dj) are dofs
        centre = mesh.interior_index[2 * 5 + 2]

        def entry(A, di, dj):
            return A[centre, mesh.interior_index[(2 + di) * 5 + 2 + dj]]

        assert entry(K, 0, 0) == pytest.approx(4.0)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert entry(K, di, dj) == pytest.approx(-1.0)
        for di, dj in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
            assert entry(K, di, dj) == pytest.approx(0.0, abs=1e-14)
        assert entry(M, 0, 0) == pytest.approx(h**2 / 2.0)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)):
            assert entry(M, di, dj) == pytest.approx(h**2 / 12.0)
        for di, dj in ((1, -1), (-1, 1)):
            assert entry(M, di, dj) == 0.0
        assert np.count_nonzero(M[centre]) == 7

    def test_symmetry_and_definiteness(self):
        system = assemble(build_mesh(2, ((-1.0, 1.0), (-1.0, 1.0)), 8))
        M = system.M.toarray()
        K = system.K.toarray()
        assert np.max(np.abs(M - M.T)) < 1e-14 * np.max(np.abs(M))
        assert np.max(np.abs(K - K.T)) < 1e-14 * np.max(np.abs(K))
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.standard_normal(system.ndof)
            assert x @ (M @ x) > 0.0
            assert x @ (K @ x) > 0.0

    def test_full_stiffness_annihilates_constants(self):
        # K 1 = 0 on every dof whose element neighbours are all dofs
        mesh = build_mesh(2, ((-1.0, 1.0), (-1.0, 1.0)), 6)
        system = assemble(mesh)
        i, j = np.divmod(mesh.interior, 7)
        away = (i > 1) & (i < 5) & (j > 1) & (j < 5)
        assert np.count_nonzero(away) == 9
        residual = system.K @ np.ones(system.ndof)
        assert np.max(np.abs(residual[away])) < 1e-12
        assert np.all(np.abs(residual[~away]) > 0.5)

    def test_mass_row_sums_are_hat_integrals(self):
        # a dof next to the boundary loses h/6 of its hat integral h to the
        # eliminated boundary node
        system = assemble(build_mesh(1, (0.0, 1.0), 8))
        row_sums = np.asarray(system.M.sum(axis=1)).ravel()
        h = 1.0 / 8
        expected = np.full(7, h)
        expected[[0, -1]] = 5.0 * h / 6.0
        assert row_sums == pytest.approx(expected, abs=1e-14)

    def test_smallest_eigenvalue_approaches_pi_squared(self):
        import scipy.linalg as sla

        errs = []
        for n in (16, 32):
            system = assemble(build_mesh(1, (0.0, 1.0), n))
            vals = sla.eigh(system.K.toarray(), system.M.toarray(),
                            eigvals_only=True)
            errs.append(abs(vals[0] - math.pi**2))
        assert errs[0] < 0.05 * math.pi**2
        assert errs[1] < errs[0] / 3.0  # roughly O(h^2)


class TestLoadVector:
    def test_zero_function(self):
        system = assemble(build_mesh(1, (0.0, 1.0), 8))
        assert np.all(load_vector(system, lambda x: np.zeros(len(x))) == 0.0)

    def test_unit_function_gives_h(self):
        system = assemble(build_mesh(1, (0.0, 1.0), 8))
        lv = load_vector(system, lambda x: np.ones(len(x)))
        assert lv == pytest.approx(np.full(7, 1.0 / 8), rel=1e-13)

    def test_sine_load_vs_adaptive_quadrature(self):
        n = 8
        system = assemble(build_mesh(1, (0.0, 1.0), n))
        lv = load_vector(system, lambda x: np.sin(np.pi * x[:, 0]), quad_order=6)
        h = 1.0 / n
        for dof, i in enumerate(range(1, n)):
            xi = i * h

            def hat(s):
                return max(0.0, 1.0 - abs(s - xi) / h)

            ref = quad(lambda s: math.sin(math.pi * s) * hat(s),
                       xi - h, xi + h, epsabs=1e-12)[0]
            assert lv[dof] == pytest.approx(ref, abs=1e-10)


class TestProjections:
    @pytest.mark.parametrize("domain, field", [
        (UNIT_INTERVAL, sin_field), (UNIT_SQUARE, sin_sin_field)],
        ids=["1d", "2d"])
    def test_ritz_l2_rate(self, domain, field):
        errs = []
        for n in (8, 16, 32):
            system = assemble(build_mesh(*domain, n))
            x = ritz_projection(system, field(), quad_order=6)
            errs.append(l2_error_against(system, x, field()))
        order = float(-np.polyfit(range(3), np.log2(errs), 1)[0])
        assert order == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("domain, field", [
        (UNIT_INTERVAL, bubble_field), (UNIT_SQUARE, sin_sin_field)],
        ids=["1d", "2d"])
    def test_ritz_h1_rate(self, domain, field):
        errs = []
        for n in (8, 16, 32):
            system = assemble(build_mesh(*domain, n))
            x = ritz_projection(system, field(), quad_order=6)
            errs.append(h1_seminorm_error_against(system, x, field()))
        order = float(-np.polyfit(range(3), np.log2(errs), 1)[0])
        assert order == pytest.approx(1.0, abs=0.1)

    def test_ritz_galerkin_residual(self):
        system = assemble(build_mesh(1, (0.0, 1.0), 16))
        from fracwave.fem import _gradient_load

        g = _gradient_load(system, sin_field(), quad_order=6)
        x = ritz_projection(system, sin_field(), quad_order=6)
        residual = np.max(np.abs(system.K @ x - g))
        assert residual <= 1e-10 * np.max(np.abs(g))

    def test_l2_projection_recovers_grid_function(self):
        system = assemble(build_mesh(1, (0.0, 1.0), 16))
        y = np.sin(2.5 * system.mesh.nodes[system.mesh.interior][:, 0])
        assert system.solve_mass(system.M @ y) == pytest.approx(y, abs=1e-12)

    def test_l2_projection_zero(self):
        system = assemble(build_mesh(1, (0.0, 1.0), 8))
        assert np.all(system.solve_mass(np.zeros(7)) == 0.0)


class TestNorms:
    def test_sine_interpolant_l2_limit(self):
        system = assemble(build_mesh(1, (0.0, 1.0), 128))
        x = interpolate(system, sin_field())
        assert l2_norm(system, x) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-3)


class TestSolvers:
    @pytest.mark.parametrize("dimension,domain,cells", [
        (1, (0.0, 1.0), 2), (1, (0.0, 1.0), 7), (1, (0.0, 1.0), 1000),
        (2, ((-1.0, 1.0), (-1.0, 1.0)), 16), (2, ((0.0, 1.0), (0.0, 1.0)), 64),
        (2, ((0.0, 2.0), (0.0, 1.0)), 9), (2, ((0.0, 2.0), (0.0, 1.0)), 40),
    ])
    def test_mass_and_stiffness_residuals(self, dimension, domain, cells):
        # normwise backward error |A x - b| / (|A| |x|), max norms, of one
        # and of several right-hand sides
        system = assemble(build_mesh(dimension, domain, cells))
        rng = np.random.default_rng(cells)
        for A, solve in ((system.M, system.solve_mass), (system.K, system.solve_stiffness)):
            norm = abs(A).sum(axis=1).max()
            for b in (rng.standard_normal(system.ndof),
                      rng.standard_normal((system.ndof, 3))):
                x = solve(b)
                assert x.shape == b.shape
                assert np.max(np.abs(A @ x - b)) <= 1e-14 * norm * np.max(np.abs(x))


class TestInverseConstant:
    def test_interval_limit_sqrt_twelve(self):
        system = assemble(build_mesh(1, (0.0, 1.0), 64))
        assert inverse_constant(system) == pytest.approx(math.sqrt(12.0), rel=5e-3)

    def test_refinement_stability(self):
        values = [
            inverse_constant(assemble(build_mesh(1, (0.0, 1.0), n)))
            for n in (32, 128)
        ]
        assert abs(values[1] - values[0]) / values[0] < 0.01

    def test_2d_mesh_stability(self):
        values = [
            inverse_constant(assemble(build_mesh(2, ((-1.0, 1.0), (-1.0, 1.0)), n)))
            for n in (8, 16)
        ]
        assert abs(values[1] - values[0]) / values[0] < 0.05

    @pytest.mark.parametrize("cells", [2, 3])
    def test_smallest_meshes_closed_form(self, cells):
        system = assemble(build_mesh(1, (0.0, 1.0), cells))
        h = system.mesh.h
        c = math.cos((cells - 1) * math.pi * h)
        lam = (6.0 / h**2) * (1.0 - c) / (2.0 + c)
        assert max_generalized_eigenvalue(system) == pytest.approx(lam, rel=1e-12)

    @pytest.mark.parametrize("dimension,domain,cells", [
        (1, (0.0, 1.0), 7), (1, (0.0, 1.0), 170),
        (2, ((-1.0, 1.0), (-1.0, 1.0)), 7), (2, ((-1.0, 1.0), (-1.0, 1.0)), 8),
        (2, ((-1.0, 1.0), (-1.0, 1.0)), 15), (2, ((-1.0, 1.0), (-1.0, 1.0)), 16),
        (2, ((0.0, 2.0), (0.0, 1.0)), 9), (2, ((0.0, 2.0), (0.0, 1.0)), 16),
    ])
    def test_guard_against_dense_eigenvalue(self, dimension, domain, cells):
        # the CFL guard's eigenvalue must not fall below the true one (the
        # unsafe side) by more than the dense solver's own round-off
        import scipy.linalg as sla

        system = assemble(build_mesh(dimension, domain, cells))
        lam = max_generalized_eigenvalue(system)
        dense = sla.eigh(system.K.toarray(), system.M.toarray(),
                         eigvals_only=True)[-1]
        assert abs(lam - dense) <= 1e-12 * dense
        assert lam >= dense * (1.0 - 1e-14)

    def test_matches_dense_eigenvalue(self):
        import scipy.linalg as sla

        system = assemble(build_mesh(1, (0.0, 1.0), 24))
        lam = max_generalized_eigenvalue(system)
        dense = sla.eigh(system.K.toarray(), system.M.toarray(),
                         eigvals_only=True)[-1]
        assert lam == pytest.approx(dense, rel=1e-8)
