"""Fully discrete leapfrog + CQ time stepping."""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from fracwave.cq import CQHistory, CQScheme, mixed_operator
from fracwave.fem import ScalarField, assemble, build_mesh, l2_norm, load_vector
from fracwave.fraccalc import FracParams
from fracwave.solver import (
    CHECK_STEPS,
    ENERGY_ABORT_FACTOR,
    SeparableSource,
    SimConfig,
    SimState,
    SolverDivergence,
    discrete_energy,
    initial_data,
    run,
    scalar_run,
    step,
)


def sin_field():
    return ScalarField(
        value=lambda x: np.sin(np.pi * x[:, 0]),
        gradient=lambda x: (np.pi * np.cos(np.pi * x[:, 0]))[:, None],
    )


def interval_system(n):
    return assemble(build_mesh(1, (0.0, 1.0), n))


class TestInitialData:
    def test_zero_data_gives_zero_vectors(self):
        config = SimConfig(fem=interval_system(8), T=1.0, kappa=0.01)
        u0, u1, v0 = initial_data(config)
        assert np.all(u0 == 0.0) and np.all(u1 == 0.0) and np.all(v0 == 0.0)

    def test_first_step_identity(self):
        system = interval_system(16)
        config = SimConfig(fem=system, T=1.0, kappa=0.01,
                           u0=sin_field(), v0=sin_field())
        u0, u1, v0 = initial_data(config)
        rhs = -(system.K @ u0)
        w = system.solve_mass(rhs)
        expected = u0 + config.kappa * v0 + 0.5 * config.kappa**2 * w
        assert u1 == pytest.approx(expected, abs=1e-14)

    def test_initial_acceleration_approximates_laplacian(self):
        errs = []
        for n in (16, 32):
            system = assemble(build_mesh(1, (0.0, 1.0), n))
            config = SimConfig(fem=system, T=1.0, kappa=1e-3, u0=sin_field())
            u0, u1, _ = initial_data(config)
            w = (u1 - u0) / (0.5 * config.kappa**2)
            nodes = system.mesh.nodes[system.mesh.interior][:, 0]
            exact = -math.pi**2 * np.sin(math.pi * nodes)
            errs.append(l2_norm(system, w - exact))
        assert errs[1] < errs[0] / 3.0  # about O(h^2)

    @pytest.mark.parametrize("name, shape", [("u0", (17,)), ("v0", (15, 1))])
    def test_nodal_data_of_the_wrong_shape_is_named(self, name, shape):
        # 16 cells have 17 nodes and 15 interior dofs
        config = SimConfig(fem=interval_system(16), T=1.0, kappa=0.01,
                           **{name: np.ones(shape)})
        expected = re.escape(f"{name} has shape {shape}") + ".*" + re.escape("(15,)")
        with pytest.raises(ValueError, match=expected):
            initial_data(config)


class TestRun:
    def test_zero_data_invariance(self):
        system = interval_system(16)
        for gamma, corrected in ((None, False), (0.5, False), (-0.5, True)):
            frac = None if gamma is None else FracParams(gamma=gamma)
            config = SimConfig(fem=system, T=0.5, kappa=1.0 / 128,
                               frac=frac, corrected=corrected)
            traj = run(config)
            assert np.all(traj.us == 0.0)

    def test_trajectory_length(self):
        system = interval_system(16)
        config = SimConfig(fem=system, T=0.5, kappa=1.0 / 128, u0=sin_field())
        traj = run(config)
        assert traj.us.shape[0] == config.n_steps + 1 == 65

    def test_energy_conservation_undamped(self):
        system = interval_system(64)
        config = SimConfig(fem=system, T=1.0, kappa=1.0 / 1000, u0=sin_field())
        traj = run(config)
        drift = np.max(np.abs(traj.energy - traj.energy[0])) / traj.energy[0]
        assert drift <= 1e-10

    @pytest.mark.parametrize("gamma", [-0.25, -0.75])
    def test_energy_dissipation_negative_order(self, gamma):
        system = interval_system(64)
        config = SimConfig(fem=system, T=1.0, kappa=1.0 / 256,
                           frac=FracParams(gamma=gamma), corrected=False,
                           u0=sin_field())
        traj = run(config)
        assert np.max(traj.energy) <= traj.energy[0] * (1.0 + 1e-8)
        assert traj.energy[-1] < traj.energy[0]

    def test_standard_wave_second_order(self):
        # undamped exact solution sin(pi x) cos(pi t)
        errs = []
        for N in (64, 128, 256):
            kappa = 1.0 / N
            n = round(1.0 / (6.0 * kappa))
            system = assemble(build_mesh(1, (0.0, 1.0), n))
            config = SimConfig(fem=system, T=1.0, kappa=kappa, u0=sin_field())
            traj = run(config)
            s = np.sin(np.pi * system.mesh.nodes[system.mesh.interior][:, 0])
            worst = 0.0
            for m in range(1, traj.us.shape[0]):
                th = (m - 0.5) * kappa
                dv = (traj.us[m] - traj.us[m - 1]) / kappa \
                    - (-math.pi * math.sin(math.pi * th)) * s
                av = 0.5 * (traj.us[m] + traj.us[m - 1]) \
                    - math.cos(math.pi * th) * s
                worst = max(worst, l2_norm(system, dv) + l2_norm(system, av))
            errs.append(worst)
        order = float(-np.polyfit(range(3), np.log2(errs), 1)[0])
        assert order == pytest.approx(2.0, abs=0.15)

    def test_cfl_guard_rejects_large_step(self):
        system = interval_system(16)
        with pytest.raises(ValueError, match="CFL"):
            SimConfig(fem=system, T=1.0, kappa=0.2, u0=sin_field())

    def test_step_must_divide_the_end_time(self):
        system = interval_system(16)
        with pytest.raises(ValueError, match=r"T=1\.0 .* kappa=0\.007: T/kappa=142\.857"):
            SimConfig(fem=system, T=1.0, kappa=0.007, u0=sin_field())
        # T/kappa = 2.9999999999999996 in floating point
        assert SimConfig(fem=system, T=0.03, kappa=0.01).n_steps == 3

    @pytest.mark.parametrize("cells", [171, 341, 683])
    def test_default_cfl_guard_is_exact_at_hundreds_of_dofs(self, cells):
        system = interval_system(cells)
        h = system.mesh.h
        config = SimConfig(fem=system, T=1.0, kappa=h / 6.0, u0=sin_field())
        c = math.cos((cells - 1) * math.pi * h)
        closed = h * math.sqrt((6.0 / h**2) * (1.0 - c) / (2.0 + c))
        assert config.c_inv == pytest.approx(closed, rel=1e-10)

    def test_cfl_constant_is_computed_once_per_system(self, monkeypatch):
        import fracwave.fem as fem

        system = interval_system(64)
        first = SimConfig(fem=system, T=1.0, kappa=1.0 / 512).c_inv
        calls = []
        eigsh = fem.spla.eigsh
        monkeypatch.setattr(fem.spla, "eigsh",
                            lambda *a, **k: calls.append(1) or eigsh(*a, **k))
        second = SimConfig(fem=system, T=0.5, kappa=1.0 / 256,
                           frac=FracParams(gamma=0.5)).c_inv
        assert calls == []
        assert second == first
        # a new system computes its own
        SimConfig(fem=interval_system(64), T=1.0, kappa=1.0 / 512)
        assert calls == [1]

    def test_cfl_violation_diverges(self, monkeypatch):
        import fracwave.solver as solver

        # a guard that underestimates C_inv lets the violating step through
        monkeypatch.setattr(solver, "inverse_constant", lambda system: 1e-3)
        system = interval_system(32)
        kappa = 1.5 * math.sqrt(2.0) * system.mesh.h / math.sqrt(12.0)
        config = SimConfig(fem=system, T=200.0 * kappa, kappa=kappa,
                           u0=sin_field())
        with pytest.raises(SolverDivergence):
            run(config)

    def test_divergence_names_the_first_offending_step(self, monkeypatch):
        import fracwave.solver as solver

        monkeypatch.setattr(solver, "inverse_constant", lambda system: 1e-3)
        system = interval_system(32)
        kappa = 1.5 * math.sqrt(2.0) * system.mesh.h / math.sqrt(12.0)
        # the top mode is seeded, not grown from the round-off of the mass
        # solve, so the first offending step falls inside a check block
        x = system.mesh.nodes[system.mesh.interior][:, 0]
        u0 = np.sin(np.pi * x) + 1e-3 * np.sin(31.0 * np.pi * x)
        config = SimConfig(fem=system, T=200.0 * kappa, kappa=kappa, u0=u0)
        # reference: the energy of every step, checked as it is made
        u0, u1, v0 = initial_data(config)
        state = SimState(n=1, u_prev=u0, u_cur=u1, history=np.zeros((200, system.ndof)),
                         cq=None, source=None, load=None)
        e1 = discrete_energy(system, u1, u0, system.K @ u0, kappa)
        first = None
        while first is None and state.n < config.n_steps:
            new = step(config, state)
            e = discrete_energy(system, new.u_cur, state.u_cur, system.K @ state.u_cur, kappa)
            if e > ENERGY_ABORT_FACTOR * e1:
                first = new.n
            state = new
        assert first is not None and first % CHECK_STEPS != 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SolverDivergence, match=f"at step {first};"):
                run(config)
        assert caught == []


class CountingCSR(sp.csr_matrix):
    """A CSR matrix that counts the products taken with it by @."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


class TestTimeLoop:
    CASES = {
        "undamped": dict(),
        "-0.5U": dict(frac=FracParams(gamma=-0.5), corrected=False),
        "0.5C": dict(frac=FracParams(gamma=0.5), corrected=True),
        "source": dict(frac=FracParams(gamma=-0.5), corrected=True, v0=sin_field(),
                       f=SeparableSource(spatial=sin_field(),
                                         temporal=lambda t: np.cos(3.0 * t))),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("N", [1, 2, 31, 32, 33, 65])
    def test_energy_log_is_the_energy_of_every_step_pair(self, N, case):
        system = interval_system(16)
        kappa = 1.0 / 128
        config = SimConfig(fem=system, T=N * kappa, kappa=kappa, u0=sin_field(),
                           **self.CASES[case])
        traj = run(config)
        assert len(traj.energy) == N
        us = traj.us
        for i in range(N):
            want = discrete_energy(system, us[i + 1], us[i], system.K @ us[i], kappa)
            assert traj.energy[i] == pytest.approx(want, rel=1e-13)

    def test_step_leaves_its_input_state_unchanged(self):
        system = interval_system(16)
        kappa = 1.0 / 128
        config = SimConfig(fem=system, T=0.5, kappa=kappa, frac=FracParams(gamma=0.5),
                           corrected=True, u0=sin_field(), v0=sin_field())
        u0, u1, v0 = initial_data(config)
        history = np.zeros((config.n_steps, system.ndof))
        history[0] = v0
        state = SimState(n=1, u_prev=u0, u_cur=u1, history=history,
                         cq=CQHistory(CQScheme.build(0.5, kappa, config.n_steps),
                                      history, True),
                         source=None, load=None)
        new = step(config, state)
        assert state.n == 1 and new.n == 2
        np.testing.assert_array_equal(state.u_prev, u0)
        np.testing.assert_array_equal(state.u_cur, u1)
        assert new.u_prev is state.u_cur

    def test_a_step_takes_one_stiffness_product_and_no_mass_product(self):
        system = interval_system(16)
        N = 100
        config = SimConfig(fem=system, T=N / 128, kappa=1.0 / 128,
                           frac=FracParams(gamma=0.5), u0=sin_field(),
                           f=SeparableSource(spatial=sin_field(),
                                             temporal=lambda t: np.sin(t)))
        system.M, system.K = CountingCSR(system.M), CountingCSR(system.K)
        run(config)
        blocks = math.ceil(N / CHECK_STEPS)
        assert system.K.products <= N + blocks + 1
        assert system.M.products <= blocks + 1


class TestModeStructure:
    def test_mode_consistency(self):
        # solution stays in the span of the discrete eigenvector nearest
        # the interpolated mode
        k = 2
        system = interval_system(32)
        x = system.mesh.nodes[system.mesh.interior][:, 0]
        mode = np.sin(k * np.pi * x)
        vals, vecs = sla.eigh(system.K.toarray(), system.M.toarray())
        overlaps = np.abs(vecs.T @ (system.M @ mode))
        eigvec = vecs[:, int(np.argmax(overlaps))]
        config = SimConfig(fem=system, T=1.0, kappa=1.0 / 256,
                           frac=FracParams(gamma=-0.5), corrected=False,
                           u0=mode.copy())
        traj = run(config)
        for u in traj.us[:: 32]:
            coeff = eigvec @ (system.M @ u)
            ortho = u - coeff * eigvec
            scale = l2_norm(system, u)
            if scale > 1e-14:
                assert l2_norm(system, ortho) <= 1e-8 * l2_norm(system, traj.us[0])

    @pytest.mark.parametrize("gamma,corrected", [(0.5, True), (-0.5, False)])
    def test_scalar_recurrence_equivalence(self, gamma, corrected):
        N = 128
        kappa = 1.0 / N
        n = round(1.0 / (6.0 * kappa))
        system = assemble(build_mesh(1, (0.0, 1.0), n))
        x = system.mesh.nodes[system.mesh.interior][:, 0]
        mode = np.sin(3.0 * np.pi * x)
        h = system.mesh.h
        c = math.cos(3.0 * math.pi * h)
        lam_h = (6.0 / h**2) * (1.0 - c) / (2.0 + c)
        frac = FracParams(gamma=gamma)
        config = SimConfig(fem=system, T=1.0, kappa=kappa, frac=frac,
                           corrected=corrected, u0=mode.copy())
        traj = run(config)
        probe = int(np.argmax(np.abs(mode)))
        d = scalar_run(gamma, frac.a_gamma, lam_h, kappa, N, d0=1.0,
                       d1=1.0 - 0.5 * kappa**2 * lam_h, dtd0=0.0,
                       corrected=corrected)
        assert np.max(np.abs(traj.us[:, probe] / mode[probe] - d)) <= 1e-12


    @pytest.mark.parametrize("gamma,corrected", [(-0.5, False), (0.5, True)])
    def test_long_run_modes_and_history(self, gamma, corrected):
        # N = 4096 steps: far-field FFT blocks up to 2048 steps long
        N, kappa, cells = 4096, 1.0 / 1024, 64
        system = interval_system(cells)
        x = system.mesh.nodes[system.mesh.interior][:, 0]
        amplitudes = {1: 1.0, 8: -0.75}
        modes = {k: np.sin(k * np.pi * x) for k in amplitudes}
        frac = FracParams(gamma=gamma)
        config = SimConfig(fem=system, T=N * kappa, kappa=kappa, frac=frac,
                           corrected=corrected,
                           u0=sum(a * modes[k] for k, a in amplitudes.items()),
                           v0=np.zeros_like(x))
        traj = run(config)
        assert config.n_steps == N
        h = system.mesh.h
        for k, a in amplitudes.items():
            c = math.cos(k * math.pi * h)
            lam_h = (6.0 / h**2) * (1.0 - c) / (2.0 + c)
            d = scalar_run(gamma, frac.a_gamma, lam_h, kappa, N, d0=1.0,
                           d1=1.0 - 0.5 * kappa**2 * lam_h, dtd0=0.0,
                           corrected=corrected)
            coef = traj.us @ modes[k] / (modes[k] @ modes[k])
            assert np.max(np.abs(coef - a * d)) <= 1e-9
        # every history row is a central difference: no pending sum is left
        np.testing.assert_array_equal(traj.history[0], 0.0)
        np.testing.assert_array_equal(traj.history[1:],
                                      (traj.us[2:] - traj.us[:-2]) / (2.0 * kappa))


class TestDampingTerm:
    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("gamma", [-0.5, 0.5])
    def test_steps_solve_the_scheme_with_the_mixed_operator(self, gamma, corrected):
        # every step of run() satisfies the fully discrete equation whose
        # damping term is the CQ operator graded by acceptance criteria 1-2
        system = interval_system(16)
        kappa = 1.0 / 64
        frac = FracParams(gamma=gamma)
        source = SeparableSource(spatial=sin_field(),
                                 temporal=lambda t: np.sin(2.0 * t))
        config = SimConfig(fem=system, T=1.0, kappa=kappa, frac=frac,
                           corrected=corrected, f=source, u0=sin_field(),
                           v0=sin_field().scaled(-1.0))
        traj = run(config)
        _, _, v0_h = initial_data(config)
        scheme = CQScheme.build(gamma, kappa, config.n_steps)
        load = load_vector(system, sin_field().value)
        us = traj.us
        for n in range(1, config.n_steps):
            inertia = system.M @ (us[n + 1] - 2.0 * us[n] + us[n - 1]) / kappa**2
            damping = frac.a_gamma * (
                system.M @ mixed_operator(scheme, traj.us, n, v0_h, corrected))
            forcing = math.sin(2.0 * n * kappa) * load
            residual = inertia + system.K @ us[n] + damping - forcing
            # round-off scale: the terms of the second difference before cancelling
            scale = np.max(np.abs(system.M @ us[n])) / kappa**2
            assert np.max(np.abs(residual)) <= 1e-13 * scale


class TestSources:
    def test_separable_source_drives_motion(self):
        system = interval_system(32)
        source = SeparableSource(spatial=sin_field(),
                                 temporal=lambda t: np.sin(2.0 * t))
        config = SimConfig(fem=system, T=0.5, kappa=1.0 / 128, f=source)
        traj = run(config)
        assert l2_norm(system, traj.us[-1]) > 0.0

    def test_temporal_factor_is_evaluated_once_on_the_grid(self):
        system = interval_system(32)
        calls = []

        def temporal(t):
            calls.append(np.array(t, copy=True))
            return np.cos(2.0 * t)

        kappa = 1.0 / 128
        config = SimConfig(fem=system, T=0.5, kappa=kappa, frac=FracParams(gamma=0.5),
                           f=SeparableSource(spatial=sin_field(), temporal=temporal))
        traj = run(config)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], kappa * np.arange(config.n_steps + 1))
        # initial_data on its own evaluates G(0) alone and gives the run's u1
        calls.clear()
        _, u1, _ = initial_data(config)
        np.testing.assert_array_equal(u1, traj.us[1])
        assert len(calls) == 1 and calls[0].shape == (1,)

    def test_bare_callable_source_rejected(self):
        with pytest.raises(TypeError, match="SeparableSource"):
            SimConfig(fem=interval_system(8), T=1.0, kappa=0.01,
                      f=lambda x, t: np.sin(t) + 0.0 * x[:, 0])

    def test_scalar_temporal_factor_rejected(self):
        source = SeparableSource(spatial=sin_field(), temporal=lambda t: 1.0)
        config = SimConfig(fem=interval_system(8), T=0.1, kappa=0.01, f=source)
        with pytest.raises(ValueError, match="array of times"):
            run(config)


def test_discrete_energy_formula():
    system = interval_system(8)
    rng = np.random.default_rng(5)
    u1 = rng.standard_normal(system.ndof)
    u0 = rng.standard_normal(system.ndof)
    kappa = 0.01
    d = (u1 - u0) / kappa
    expected = 0.5 * d @ (system.M @ d) + 0.5 * u1 @ (system.K @ u0)
    assert discrete_energy(system, u1, u0, system.K @ u0, kappa) == pytest.approx(expected)
