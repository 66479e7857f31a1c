"""P1 finite element meshes, assembly, projections, and norms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fem_reference import h1_seminorm_error_against, l2_error_against, l2_norm
from fracwave import fem
from fracwave.fem import (
    ScalarField,
    _spd_solver,
    assemble,
    build_mesh,
    interpolate,
    inverse_constant,
    load_vector,
    max_generalized_eigenvalue,
    ritz_projection,
)
from fracwave.fraccalc import FracParams
from fracwave.solver import SimConfig, run


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
        assert len(mesh.interior) == 3
        assert mesh.h == pytest.approx(0.25)

    def test_square_counts(self):
        mesh = build_mesh(2, ((-1.0, 1.0), (-1.0, 1.0)), 4)
        assert len(mesh.nodes) == 25
        assert len(mesh.interior) == 9
        assert len(mesh.elements) == 32

    def test_element_measures_sum_to_domain(self):
        mesh = build_mesh(2, ((-1.0, 1.0), (-1.0, 1.0)), 6)
        assert mesh.measures.sum() == pytest.approx(4.0, rel=1e-12)
        assert np.all(mesh.measures > 0.0)
        mesh1 = build_mesh(1, (0.0, 1.0), 7)
        assert mesh1.measures.sum() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("domain", [UNIT_INTERVAL, UNIT_SQUARE], ids=["1d", "2d"])
    def test_geometry_is_read_only(self, domain):
        mesh = build_mesh(*domain, 4)
        for array in (mesh.measures, mesh.gradients):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    @pytest.mark.parametrize("domain, field", [
        (UNIT_INTERVAL, sin_field), (UNIT_SQUARE, sin_sin_field)],
        ids=["1d", "2d"])
    def test_geometry_is_computed_once_per_mesh(self, monkeypatch, domain, field):
        mesh = build_mesh(*domain, 8)
        calls = []
        for name in ("det", "inv"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, f=original, **k: calls.append(1) or f(*a, **k))
        system = assemble(mesh)
        x = ritz_projection(system, field())
        load_vector(system, field().value)
        l2_error_against(system, x, field())
        h1_seminorm_error_against(system, x, field())
        assert calls == []

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

    @pytest.mark.parametrize("dimension, domain, cells, nodes, elements, interior, h", [
        (1, (0.0, 1.0), 3, [[0.0], [1 / 3], [2 / 3], [1.0]],
         [[0, 1], [1, 2], [2, 3]], [1, 2], 1 / 3),
        (2, ((0.0, 1.0), (0.0, 1.0)), 2,
         [[x, y] for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)],
         [[0, 3, 4], [0, 4, 1], [1, 4, 5], [1, 5, 2],
          [3, 6, 7], [3, 7, 4], [4, 7, 8], [4, 8, 5]], [4], 0.5),
        (2, ((0.0, 2.0), (0.0, 1.0)), 4,
         [[x, y] for x in (0.0, 0.5, 1.0, 1.5, 2.0) for y in (0.0, 0.25, 0.5, 0.75, 1.0)],
         [[0, 5, 6], [0, 6, 1], [1, 6, 7], [1, 7, 2],
          [2, 7, 8], [2, 8, 3], [3, 8, 9], [3, 9, 4],
          [5, 10, 11], [5, 11, 6], [6, 11, 12], [6, 12, 7],
          [7, 12, 13], [7, 13, 8], [8, 13, 14], [8, 14, 9],
          [10, 15, 16], [10, 16, 11], [11, 16, 17], [11, 17, 12],
          [12, 17, 18], [12, 18, 13], [13, 18, 19], [13, 19, 14],
          [15, 20, 21], [15, 21, 16], [16, 21, 22], [16, 22, 17],
          [17, 22, 23], [17, 23, 18], [18, 23, 24], [18, 24, 19]],
         [6, 7, 8, 11, 12, 13, 16, 17, 18], 0.5),
    ], ids=["interval", "square", "rectangle"])
    def test_explicit_meshes(self, dimension, domain, cells, nodes, elements, interior, h):
        mesh = build_mesh(dimension, domain, cells)
        np.testing.assert_allclose(mesh.nodes, nodes, rtol=0.0, atol=1e-15)
        assert mesh.elements.tolist() == elements
        assert mesh.interior.tolist() == interior
        expected_index = -np.ones(len(nodes), dtype=int)
        expected_index[interior] = np.arange(len(interior))
        np.testing.assert_array_equal(mesh.interior_index, expected_index)
        assert mesh.h == h

    def test_dimension_three_rejected(self):
        with pytest.raises(ValueError, match="dimension must be 1 or 2, got 3"):
            build_mesh(3, ((0.0, 1.0),) * 3, 2)

    def test_degenerate_domains_rejected(self):
        with pytest.raises(ValueError):
            build_mesh(1, (1.0, 1.0), 4)
        with pytest.raises(ValueError):
            build_mesh(2, ((0.0, 1.0), (1.0, 1.0)), 4)
        with pytest.raises(ValueError):
            build_mesh(1, (0.0, 1.0), 1)


@pytest.mark.parametrize("build", [build_mesh, lambda *args: assemble(build_mesh(*args))],
                         ids=["mesh", "system"])
def test_meshes_and_systems_compare_by_identity(build):
    # equal fields would compare their arrays, whose truth is ambiguous,
    # and their sparse matrices, which warn
    one, rebuilt = build(*UNIT_SQUARE, 4), build(*UNIT_SQUARE, 4)
    assert one == one and not one != one
    assert one != rebuilt and not one == rebuilt
    assert hash(one) == hash(one) != hash(rebuilt)
    assert len({one, rebuilt, one}) == 2


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

    def test_cubic_load_vs_adaptive_quadrature(self):
        # the 3-point Gauss rule is exact for a cubic times a hat
        n = 8
        system = assemble(build_mesh(1, (0.0, 1.0), n))
        lv = load_vector(system, lambda x: x[:, 0] ** 2 * (1.0 - x[:, 0]))
        h = 1.0 / n
        for dof, i in enumerate(range(1, n)):
            xi = i * h

            def hat(s):
                return max(0.0, 1.0 - abs(s - xi) / h)

            ref = quad(lambda s: s**2 * (1.0 - s) * hat(s),
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
            x = ritz_projection(system, field())
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
            x = ritz_projection(system, field())
            errs.append(h1_seminorm_error_against(system, x, field()))
        order = float(-np.polyfit(range(3), np.log2(errs), 1)[0])
        assert order == pytest.approx(1.0, abs=0.1)

    def test_ritz_galerkin_residual(self):
        system = assemble(build_mesh(1, (0.0, 1.0), 16))
        from fracwave.fem import _gradient_load

        g = _gradient_load(system, sin_field())
        x = ritz_projection(system, sin_field())
        residual = np.max(np.abs(system.K @ x - g))
        assert residual <= 1e-10 * np.max(np.abs(g))

    def test_ritz_projection_keeps_nothing_beyond_its_result(self, traced):
        # the 2D stiffness factor (band 32, 254 KB) is built for the
        # projection and dropped; a first projection on another system
        # fills the quadrature rule caches
        ritz_projection(assemble(build_mesh(*UNIT_SQUARE, 32)), sin_sin_field())
        system = assemble(build_mesh(*UNIT_SQUARE, 32))
        with traced() as window:
            x = ritz_projection(system, sin_sin_field())
        assert window.current <= 1.1 * x.nbytes

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
        (2, ((0.0, 1.0), (0.0, 1.0)), 2), (1, (0.0, 1.0), 3),
    ])
    def test_mass_and_stiffness_residuals(self, dimension, domain, cells):
        # normwise backward error |A x - b| / (|A| |x|), max norms, of one
        # and of several right-hand sides
        system = assemble(build_mesh(dimension, domain, cells))
        rng = np.random.default_rng(cells)
        for A, solve in ((system.M, system.solve_mass), (system.K, _spd_solver(system.K))):
            norm = abs(A).sum(axis=1).max()
            for b in (rng.standard_normal(system.ndof),
                      rng.standard_normal((system.ndof, 3))):
                x = solve(b)
                assert x.shape == b.shape
                assert np.max(np.abs(A @ x - b)) <= 1e-14 * norm * np.max(np.abs(x))

    @pytest.mark.parametrize("dimension,domain,cells", [
        (1, (0.0, 1.0), 16), (2, ((0.0, 1.0), (0.0, 1.0)), 8),
    ])
    def test_indefinite_matrix_is_refused(self, dimension, domain, cells):
        # K - shift M is symmetric, banded and indefinite for a shift inside
        # the spectrum of (K, M)
        system = assemble(build_mesh(dimension, domain, cells))
        shifted = system.K - 0.5 * system.lambda_max * system.M
        with pytest.raises(ValueError, match="not positive definite"):
            _spd_solver(shifted)

    def test_one_mass_factor_per_system(self, monkeypatch):
        # the CFL guard's Lanczos and every step of two damped runs share
        # one factor of M; a Ritz projection factors K for its own solve
        system = assemble(build_mesh(*UNIT_SQUARE, 8))
        factored = {"M": 0, "K": 0}
        spd_solver = fem._spd_solver

        def counting(A):
            for name in factored:
                factored[name] += A is getattr(system, name)
            return spd_solver(A)

        monkeypatch.setattr(fem, "_spd_solver", counting)
        u0 = interpolate(system, sin_sin_field())
        for gamma in (-0.5, 0.5):
            config = SimConfig(fem=system, T=0.75, kappa=1.0 / 64,
                               frac=FracParams(gamma=gamma), u0=u0)
            run(config)
        assert factored == {"M": 1, "K": 0}
        ritz_projection(system, sin_sin_field())
        assert factored == {"M": 1, "K": 1}


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

    @staticmethod
    def interval_closed_form(cells):
        """lambda_max(K, M) on the unit interval: the mode of wavenumber
        (cells - 1) pi."""
        h = 1.0 / cells
        c = math.cos((cells - 1) * math.pi * h)
        return (6.0 / h**2) * (1.0 - c) / (2.0 + c)

    @pytest.mark.parametrize("cells", [2, 3])
    def test_smallest_meshes_closed_form(self, cells):
        system = assemble(build_mesh(1, (0.0, 1.0), cells))
        lam = self.interval_closed_form(cells)
        assert max_generalized_eigenvalue(system) == pytest.approx(lam, rel=1e-12)

    def test_fine_interval_closed_form(self):
        system = assemble(build_mesh(1, (0.0, 1.0), 2731))
        lam = self.interval_closed_form(2731)
        assert max_generalized_eigenvalue(system) == pytest.approx(lam, rel=1e-12)

    @staticmethod
    def square_system(cells=64):
        return assemble(build_mesh(2, ((-1.0, 1.0), (-1.0, 1.0)), cells))

    def test_square_against_full_tolerance_lanczos(self):
        # the reference is the one-phase guard: eigsh on M^-1 K to machine
        # precision
        import scipy.sparse.linalg as spla

        system = self.square_system()
        n = system.ndof
        m_inv = spla.LinearOperator((n, n), matvec=system.solve_mass, dtype=float)
        v0 = np.random.default_rng(1234).standard_normal(n)
        ref = spla.eigsh(system.K, k=1, M=system.M, Minv=m_inv, which="LA", v0=v0,
                         ncv=40, return_eigenvectors=False)[0]
        lam = max_generalized_eigenvalue(self.square_system())
        assert lam == pytest.approx(ref, rel=1e-12)

    def test_refused_shift_widens_the_margin(self, monkeypatch):
        import fracwave.fem as fem

        system = self.square_system(16)
        expected = max_generalized_eigenvalue(self.square_system(16))
        shifted = []

        def refuse_first_shift(A):
            if A is not system.M:
                shifted.append(A)
                if len(shifted) == 1:
                    raise ValueError("matrix is not positive definite: refused")
            return _spd_solver(A)

        monkeypatch.setattr(fem, "_spd_solver", refuse_first_shift)
        assert max_generalized_eigenvalue(system) == pytest.approx(expected, rel=1e-12)
        # sigma M - K at the first and at the widened margin
        assert len(shifted) == 2
        assert (shifted[1] - shifted[0]).count_nonzero() > 0

    def test_refined_value_below_the_estimate_is_refused(self, monkeypatch):
        import fracwave.fem as fem

        eigsh = fem.spla.eigsh

        def low_refinement(*args, **kwargs):
            if "sigma" in kwargs:
                return 0.5 * eigsh(*args, **kwargs)
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(fem.spla, "eigsh", low_refinement)
        with pytest.raises(RuntimeError, match="below the Ritz value"):
            max_generalized_eigenvalue(self.square_system(16))

    def test_mass_solves_at_3969_dofs(self):
        system = self.square_system()
        assert system.ndof == 3969
        solves = []
        solve = system.solve_mass
        system.solve_mass = lambda b: solves.append(1) or solve(b)
        max_generalized_eigenvalue(system)
        # the one-phase guard to full tolerance made 381
        assert 0 < len(solves) <= 120

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

    @pytest.mark.parametrize("dimension,domain,cells", [
        (1, (0.0, 1.0), range(3, 42)),
        (2, ((-1.0, 1.0), (-1.0, 1.0)), range(3, 8)),
        (2, ((0.0, 2.0), (0.0, 1.0)), range(3, 8)),
    ])
    def test_small_systems_skip_the_shift(self, monkeypatch, dimension, domain, cells):
        # up to LANCZOS_VECTORS dofs the estimate's Krylov space is the
        # whole space: its Ritz value is lambda_max, and no sigma M - K is
        # factored
        import scipy.linalg as sla

        import fracwave.fem as fem

        factored = []

        def count_factors(A):
            factored.append(A)
            return _spd_solver(A)

        monkeypatch.setattr(fem, "_spd_solver", count_factors)
        for n in cells:
            system = assemble(build_mesh(dimension, domain, n))
            assert 2 <= system.ndof <= fem.LANCZOS_VECTORS
            lam = max_generalized_eigenvalue(system)
            dense = sla.eigh(system.K.toarray(), system.M.toarray(),
                             eigvals_only=True)[-1]
            assert abs(lam - dense) <= 1e-13 * dense
            # the mass factor of the estimate's solves, and nothing else
            assert len(factored) == 1 and factored.pop() is system.M

    def test_matches_dense_eigenvalue(self):
        import scipy.linalg as sla

        system = assemble(build_mesh(1, (0.0, 1.0), 24))
        lam = max_generalized_eigenvalue(system)
        dense = sla.eigh(system.K.toarray(), system.M.toarray(),
                         eigvals_only=True)[-1]
        assert lam == pytest.approx(dense, rel=1e-8)
