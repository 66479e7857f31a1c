"""Fully discrete leapfrog + CQ time stepping."""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from fem_reference import l2_norm
from fracwave.cq import RING_ROWS, CQHistory, CQScheme, mixed_operator
from fracwave.fem import ScalarField, assemble, build_mesh, load_vector
from fracwave.fraccalc import FracParams
from fracwave import solver
from fracwave.solver import (
    CHECK_STEPS,
    ENERGY_ABORT_FACTOR,
    KeptRows,
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


def sin_field(scale=1.0):
    return ScalarField(
        value=lambda x: scale * np.sin(np.pi * x[:, 0]),
        gradient=lambda x: (scale * np.pi * np.cos(np.pi * x[:, 0]))[:, None],
    )


def interval_system(n):
    return assemble(build_mesh(1, (0.0, 1.0), n))


def kept_run(config):
    """run(config) with a KeptRows observer: the Trajectory and the rows
    u_0..u_N."""
    kept = KeptRows()
    traj = run(config, observe=kept)
    return traj, kept.us


class TestInitialData:
    def test_zero_data_gives_zero_vectors(self):
        config = SimConfig(fem=interval_system(8), T=1.0, kappa=0.01)
        u0, u1, v0 = initial_data(config, None)
        assert np.all(u0 == 0.0) and np.all(u1 == 0.0) and np.all(v0 == 0.0)

    def test_first_step_identity(self):
        system = interval_system(16)
        config = SimConfig(fem=system, T=1.0, kappa=0.01,
                           u0=sin_field(), v0=sin_field())
        f0 = load_vector(system, sin_field(3.0).value)
        u0, u1, v0 = initial_data(config, f0)
        rhs = f0 - system.K @ u0
        w = system.solve_mass(rhs)
        expected = u0 + config.kappa * v0 + 0.5 * config.kappa**2 * w
        assert u1 == pytest.approx(expected, abs=1e-14)

    def test_initial_acceleration_approximates_laplacian(self):
        errs = []
        for n in (16, 32):
            system = assemble(build_mesh(1, (0.0, 1.0), n))
            config = SimConfig(fem=system, T=1.0, kappa=1e-3, u0=sin_field())
            u0, u1, _ = initial_data(config, None)
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
            initial_data(config, None)


class TestRun:
    def test_zero_data_invariance(self):
        system = interval_system(16)
        for gamma, corrected in ((None, False), (0.5, False), (-0.5, True)):
            frac = None if gamma is None else FracParams(gamma=gamma)
            config = SimConfig(fem=system, T=0.5, kappa=1.0 / 128,
                               frac=frac, corrected=corrected)
            _, us = kept_run(config)
            assert np.all(us == 0.0)

    def test_trajectory_length(self):
        system = interval_system(16)
        config = SimConfig(fem=system, T=0.5, kappa=1.0 / 128, u0=sin_field())
        traj, us = kept_run(config)
        assert us.shape[0] == config.n_steps + 1 == 65
        assert traj.us.shape == (1, system.ndof)
        np.testing.assert_array_equal(traj.us[0], us[-1])
        np.testing.assert_array_equal(run(config).us, traj.us)

    def test_trajectories_compare_by_identity(self):
        # equal fields would compare their arrays, whose truth is ambiguous
        config = SimConfig(fem=interval_system(16), T=0.5, kappa=1.0 / 128,
                           u0=sin_field())
        traj, rerun = run(config), run(config)
        assert traj == traj and not traj != traj
        assert traj != rerun and not traj == rerun
        assert hash(traj) == hash(traj) != hash(rerun)
        assert len({traj, rerun, traj}) == 2

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
            _, us = kept_run(config)
            s = np.sin(np.pi * system.mesh.nodes[system.mesh.interior][:, 0])
            worst = 0.0
            for m in range(1, us.shape[0]):
                th = (m - 0.5) * kappa
                dv = (us[m] - us[m - 1]) / kappa \
                    - (-math.pi * math.sin(math.pi * th)) * s
                av = 0.5 * (us[m] + us[m - 1]) \
                    - math.cos(math.pi * th) * s
                worst = max(worst, l2_norm(system, dv) + l2_norm(system, av))
            errs.append(worst)
        order = float(-np.polyfit(range(3), np.log2(errs), 1)[0])
        assert order == pytest.approx(2.0, abs=0.15)

    def test_cfl_guard_rejects_large_step(self):
        system = interval_system(16)
        with pytest.raises(ValueError, match="CFL"):
            SimConfig(fem=system, T=1.0, kappa=0.2, u0=sin_field())

    @pytest.mark.parametrize("T, kappa", [
        (math.inf, 1.0 / 64), (math.nan, 1.0 / 64), (1.0, math.inf), (1.0, math.nan)])
    def test_end_time_and_step_must_be_finite(self, T, kappa):
        system = interval_system(16)
        with pytest.raises(ValueError, match="T and kappa must be positive and finite"):
            SimConfig(fem=system, T=T, kappa=kappa, u0=sin_field())

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
        eigenvalue = fem.max_generalized_eigenvalue
        monkeypatch.setattr(fem, "max_generalized_eigenvalue",
                            lambda system: calls.append(1) or eigenvalue(system))
        second = SimConfig(fem=system, T=0.5, kappa=1.0 / 256,
                           frac=FracParams(gamma=0.5)).c_inv
        assert calls == []
        assert second == first
        # a new system computes its own
        SimConfig(fem=interval_system(64), T=1.0, kappa=1.0 / 512)
        assert calls == [1]

    @staticmethod
    def first_offending_step(config):
        """Reference: the energy and its kinetic part 1/2 |d|_M^2 of every
        step, checked as it is made; None if no step exceeds the limit."""
        system, kappa = config.fem, config.kappa
        load = source = f0 = None
        if config.f is not None:
            load = load_vector(system, config.f.spatial.value)
            source = config.f.temporal(kappa * np.arange(config.n_steps + 1))
            f0 = source[0] * load
        u0, u1, v0 = initial_data(config, f0)
        state = SimState(n=1, u_prev=u0, u_cur=u1, cq=None, source=source, load=load,
                         combine=solver._combine_rows(config, None))
        while state.n < config.n_steps:
            u_next = step(config, state)
            e = discrete_energy(system, u_next, state.u_cur, system.K @ state.u_cur, kappa)
            d = (u_next - state.u_cur) / kappa
            if 0.5 * d @ (system.M @ d) > ENERGY_ABORT_FACTOR * max(e, 0.0):
                return state.n + 1
            state.n, state.u_prev, state.u_cur = state.n + 1, state.u_cur, u_next
        return None

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
        first = self.first_offending_step(config)
        assert first is not None and first % CHECK_STEPS != 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SolverDivergence, match=f"at step {first};"):
                run(config)
        assert caught == []

    def test_divergence_is_caught_while_the_energy_stays_put(self, monkeypatch):
        import fracwave.solver as solver

        # the seeded top mode grows by 2 per step; leapfrog conserves the
        # energy, so only its kinetic part shows the growth
        monkeypatch.setattr(solver, "inverse_constant", lambda system: 1e-3)
        system = interval_system(32)
        kappa = 1.5 * math.sqrt(2.0) * system.mesh.h / math.sqrt(12.0)
        x = system.mesh.nodes[system.mesh.interior][:, 0]
        u0 = np.sin(np.pi * x) + 1e-3 * np.sin(31.0 * np.pi * x)
        config = SimConfig(fem=system, T=40.0 * kappa, kappa=kappa, u0=u0)
        assert self.first_offending_step(config) == 18
        with pytest.raises(SolverDivergence, match="at step 18;"):
            run(config)

    @pytest.mark.parametrize("kappa", [1.0 / 1024, 1.0 / 2048])
    def test_stable_forced_run_from_rest_finishes(self, kappa):
        # E_1 = kappa^2/8 |M^-1 F(0)|_M^2 is tiny from rest, and the forced
        # energy soon passes any fixed multiple of it
        system = interval_system(32)
        config = SimConfig(fem=system, T=1.0, kappa=kappa,
                           f=SeparableSource(spatial=sin_field(),
                                             temporal=lambda t: np.ones_like(t)))
        assert self.first_offending_step(config) is None
        traj = run(config)
        assert np.max(np.abs(traj.us[-1])) > 0.1

    def test_divergence_is_caught_when_the_first_energy_vanishes(self, monkeypatch):
        import fracwave.solver as solver

        # from rest with G(0) = 0, u_1 = u_0 = 0 and E_1 = 0
        monkeypatch.setattr(solver, "inverse_constant", lambda system: 1e-3)
        system = interval_system(32)
        kappa = 1.5 * math.sqrt(2.0) * system.mesh.h / math.sqrt(12.0)
        config = SimConfig(fem=system, T=200.0 * kappa, kappa=kappa,
                           f=SeparableSource(spatial=sin_field(),
                                             temporal=lambda t: np.sin(3.0 * t)))
        first = self.first_offending_step(config)
        assert first is not None
        with pytest.raises(SolverDivergence, match=f"at step {first};"):
            run(config)


class CountingCSR(sp.csr_matrix):
    """A CSR matrix that counts the products taken with it by @."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


def reference_step(config, state):
    """The step as it was before it became one product: solves
    coef u_{n+1} = v - M^-1 (K u_n - G(t_n) load), where v and coef hold
    the leapfrog and CQ terms."""
    system = config.fem
    kappa = config.kappa
    n = state.n
    v = (2.0 * state.u_cur - state.u_prev) / kappa**2
    coef = 1.0 / kappa**2
    if state.cq is not None:
        a = config.a_gamma
        shift = a * state.cq.scheme.self_weight(n, config.corrected) / (2.0 * kappa)
        v = v - a * state.cq.known_sum(n) + shift * state.u_prev
        coef += shift
    rhs = system.K @ state.u_cur
    if state.load is not None:
        rhs = rhs - state.source[n] * state.load
    u_next = (v - system.solve_mass(rhs)) / coef
    if state.cq is not None:
        state.cq.record((u_next - state.u_prev) / (2.0 * kappa))
    return u_next


def assert_ring_holds_central_differences(traj, us, config):
    """A damped run's history is a ring of min(N, RING_ROWS) slots, and
    every slot holds the central difference (u_{j+1} - u_{j-1}) / (2 kappa)
    of the last row j it took, so no pending sum is left; an undamped run
    keeps no history.  us holds the run's rows u_0..u_N."""
    N = len(us) - 1
    if config.frac is None:
        assert traj.history.shape == (0, config.fem.ndof)
        return
    assert len(traj.history) == min(N, RING_ROWS)
    rows = np.arange(N - len(traj.history), N)
    assert rows[0] >= 1
    np.testing.assert_array_equal(
        traj.history[rows % len(traj.history)],
        (us[rows + 1] - us[rows - 1]) / (2.0 * config.kappa))


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
        traj, us = kept_run(config)
        assert len(traj.energy) == N
        for i in range(N):
            want = discrete_energy(system, us[i + 1], us[i], system.K @ us[i], kappa)
            assert traj.energy[i] == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("dimension,domain,cells", [
        (1, (0.0, 1.0), 32), (2, ((0.0, 1.0), (0.0, 1.0)), 16),
    ])
    def test_step_agrees_with_the_reference_step(self, dimension, domain, cells,
                                                 case, monkeypatch):
        system = assemble(build_mesh(dimension, domain, cells))
        N, kappa = 300, 1.0 / 512
        config = SimConfig(fem=system, T=N * kappa, kappa=kappa, u0=sin_field(),
                           **self.CASES[case])
        traj, us = kept_run(config)
        monkeypatch.setattr(solver, "step", reference_step)
        _, want = kept_run(config)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(us - want)) <= 1e-11 * scale
        assert_ring_holds_central_differences(traj, us, config)

    def test_step_leaves_its_input_state_unchanged(self):
        system = interval_system(16)
        kappa = 1.0 / 128
        config = SimConfig(fem=system, T=0.5, kappa=kappa, frac=FracParams(gamma=0.5),
                           corrected=True, u0=sin_field(), v0=sin_field())
        u0, u1, v0 = initial_data(config, None)
        cq = CQHistory(CQScheme.build(0.5, kappa, config.n_steps), v0, True)
        state = SimState(n=1, u_prev=u0, u_cur=u1, cq=cq, source=None, load=None,
                         combine=solver._combine_rows(config, cq))
        copies = u0.copy(), u1.copy()
        u2 = step(config, state)
        # step returns u_2 alone; run, not step, advances the state
        assert isinstance(u2, np.ndarray) and u2.shape == u1.shape
        assert state.n == 1 and state.u_prev is u0 and state.u_cur is u1
        np.testing.assert_array_equal(state.u_prev, copies[0])
        np.testing.assert_array_equal(state.u_cur, copies[1])

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


class TestObservedRun:
    """run(config, observe) passes each block of checked rows to observe
    instead of keeping the trajectory."""

    @staticmethod
    def observed(config):
        blocks = []
        traj = run(config, observe=lambda lo, rows: blocks.append((lo, rows.copy())))
        return traj, blocks

    @staticmethod
    def assert_blocks_cover(blocks, us, size):
        """Blocks of size steps start at 0, 1 size, 2 size, ...; each starts
        at the last row of the one before, and joined they are us."""
        N = us.shape[0] - 1
        starts = [lo for lo, _ in blocks]
        assert starts == list(range(0, N, size))
        for (lo, rows), hi in zip(blocks, starts[1:] + [N]):
            assert rows.shape == (hi - lo + 1, us.shape[1])
        for (_, rows), (_, after) in zip(blocks, blocks[1:]):
            np.testing.assert_array_equal(rows[-1], after[0])
        joined = np.concatenate([blocks[0][1]] + [rows[1:] for _, rows in blocks[1:]])
        np.testing.assert_array_equal(joined, us)

    @staticmethod
    def assert_same_run(traj, want):
        assert traj.us.shape == want.us.shape == (1, want.us.shape[1])
        np.testing.assert_array_equal(traj.us, want.us)
        np.testing.assert_array_equal(traj.times, want.times)
        np.testing.assert_array_equal(traj.energy, want.energy)
        np.testing.assert_array_equal(traj.history, want.history)

    @pytest.mark.parametrize("case", list(TestTimeLoop.CASES))
    @pytest.mark.parametrize("N,dimension", [
        *((N, 1) for N in (1, 2, 31, 32, 33, 65)),
        (300, 2),                  # 961 dofs: 9 blocks of 32 steps and one of 12
    ], ids=["1", "2", "31", "32", "33", "65", "300-2d"])
    def test_blocks_of_check_steps(self, N, dimension, case):
        if dimension == 1:
            system, kappa = interval_system(16), 1.0 / 128
        else:
            system = assemble(build_mesh(2, ((-1.0, 1.0), (-1.0, 1.0)), 32))
            kappa = 1.0 / 160
        config = SimConfig(fem=system, T=N * kappa, kappa=kappa, u0=sin_field(),
                           **TestTimeLoop.CASES[case])
        want, us = kept_run(config)
        traj, blocks = self.observed(config)
        assert len(blocks) == math.ceil(N / CHECK_STEPS)
        self.assert_blocks_cover(blocks, us, CHECK_STEPS)
        np.testing.assert_array_equal(want.us[0], us[-1])
        self.assert_same_run(traj, want)
        self.assert_same_run(run(config), want)

    def test_observed_run_keeps_no_trajectory(self, traced):
        system = interval_system(16)
        kappa = 1.0 / 128
        config = SimConfig(fem=system, T=4096 * kappa, kappa=kappa, u0=sin_field())
        peaks = []
        for observe in (KeptRows(), lambda lo, rows: None, None):
            with traced() as window:
                traj = run(config, observe=observe)
            peaks.append(window.peak)
            assert traj.us.nbytes == 8 * system.ndof
        us_bytes = 8 * (config.n_steps + 1) * system.ndof
        # KeptRows copies each block into its us once, and nothing more
        assert 0.9 * us_bytes <= peaks[0] - peaks[1] <= 1.05 * us_bytes
        # a run without an observer keeps no more than an observed one
        assert peaks[2] <= peaks[1] + 0.05 * us_bytes

    @pytest.mark.parametrize("column", [3, slice(2, 5)])
    def test_kept_columns_are_columns_of_the_kept_rows(self, column):
        config = SimConfig(fem=interval_system(16), T=65 / 128, kappa=1.0 / 128,
                           u0=sin_field(), **TestTimeLoop.CASES["0.5C"])
        _, us = kept_run(config)
        kept = KeptRows(column=column)
        run(config, observe=kept)
        np.testing.assert_array_equal(kept.us, us[:, column])

    def test_kept_rows_start_over_on_a_second_run(self):
        system, kappa = interval_system(16), 1.0 / 128
        configs = [SimConfig(fem=system, T=N * kappa, kappa=kappa, u0=sin_field(),
                             **TestTimeLoop.CASES["0.5C"]) for N in (33, 65)]
        kept = KeptRows()
        for config in configs:
            run(config, observe=kept)
        _, want = kept_run(configs[1])
        assert kept.us.shape == (66, system.ndof)
        np.testing.assert_array_equal(kept.us, want)

    def test_a_kept_column_of_one_step_holds_two_values(self):
        config = SimConfig(fem=interval_system(16), T=1.0 / 128, kappa=1.0 / 128,
                           u0=sin_field(), **TestTimeLoop.CASES["0.5C"])
        _, us = kept_run(config)
        kept = KeptRows(column=3)
        run(config, observe=kept)
        assert kept.us.shape == (2,)
        np.testing.assert_array_equal(kept.us, us[:, 3])

    @pytest.mark.parametrize("gamma,corrected", [(-0.5, False), (0.5, True)])
    def test_a_run_keeps_u_n_alone(self, gamma, corrected, traced):
        # the perfbench decay1d runs: 127 dofs and N = 8192 steps, whose
        # rows u_0..u_N would take 8.3 MB
        system = interval_system(128)
        config = SimConfig(fem=system, T=4.0, kappa=1.0 / 2048,
                           frac=FracParams(gamma=gamma), corrected=corrected,
                           u0=sin_field(), v0=np.zeros(system.ndof))
        assert config.n_steps == 8192
        with traced() as window:
            traj = run(config)
        assert traj.us.shape == (1, system.ndof)
        assert window.current <= 0.5e6
        assert window.peak <= 2e6

    def test_memory_does_not_grow_with_the_step_count(self, traced):
        # a damped 127-dof run keeps a ring of RING_ROWS history rows, so
        # 8x the steps adds only the O(N) weight tables and energy log
        system = interval_system(128)
        kappa = 1.0 / 2048
        peaks, growth = [], []
        for N in (16384, 2048):
            config = SimConfig(fem=system, T=N * kappa, kappa=kappa,
                               frac=FracParams(gamma=-0.5), u0=sin_field())
            with traced() as window:
                traj = run(config, observe=lambda lo, rows: None)
            peaks.append(window.peak)
            growth.append(np.max(traj.energy) / traj.energy[0] - 1.0)
        assert peaks[0] - peaks[1] <= 2e6
        # criterion 8's bound on the damped energy
        assert max(growth) <= 1e-8

    @pytest.mark.parametrize("amplitude,seen", [
        (1e-12, 1),    # diverges in the second block: the first one is observed
        (1e-3, 0),     # diverges in the first block: nothing is observed
    ], ids=["after-a-block", "in-the-first-block"])
    def test_divergence_reaches_no_observer(self, amplitude, seen, monkeypatch):
        monkeypatch.setattr(solver, "inverse_constant", lambda system: 1e-3)
        system = interval_system(32)
        kappa = 1.5 * math.sqrt(2.0) * system.mesh.h / math.sqrt(12.0)
        x = system.mesh.nodes[system.mesh.interior][:, 0]
        u0 = np.sin(np.pi * x) + amplitude * np.sin(31.0 * np.pi * x)
        config = SimConfig(fem=system, T=200.0 * kappa, kappa=kappa, u0=u0)
        first = TestRun.first_offending_step(config)
        assert first is not None and (first - 1) // CHECK_STEPS == seen
        with pytest.raises(SolverDivergence) as kept:
            run(config)
        blocks = []
        with pytest.raises(SolverDivergence, match=f"at step {first};") as observed:
            run(config, observe=lambda lo, rows: blocks.append((lo, rows.shape[0])))
        assert str(observed.value) == str(kept.value)
        failed_block = (first - 1) // CHECK_STEPS * CHECK_STEPS
        assert blocks == [(lo, CHECK_STEPS + 1)
                          for lo in range(0, failed_block, CHECK_STEPS)]


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
        _, us = kept_run(config)
        for u in us[:: 32]:
            coeff = eigvec @ (system.M @ u)
            ortho = u - coeff * eigvec
            scale = l2_norm(system, u)
            if scale > 1e-14:
                assert l2_norm(system, ortho) <= 1e-8 * l2_norm(system, us[0])

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
        _, us = kept_run(config)
        probe = int(np.argmax(np.abs(mode)))
        d = scalar_run(gamma, frac.a_gamma, lam_h, kappa, N, d0=1.0,
                       d1=1.0 - 0.5 * kappa**2 * lam_h, dtd0=0.0,
                       corrected=corrected)
        assert np.max(np.abs(us[:, probe] / mode[probe] - d)) <= 1e-12


    @pytest.mark.parametrize("N", [0, -1])
    def test_scalar_run_needs_a_step(self, N):
        with pytest.raises(ValueError, match=f"N={N}"):
            scalar_run(0.5, 1.0, 4.0, 0.1, N, d0=1.0, d1=1.0, dtd0=0.0)

    @pytest.mark.parametrize("gamma,corrected", [(-0.5, False), (0.5, True)])
    def test_long_run_modes_and_history(self, gamma, corrected):
        # N = 4096 steps: far-field Toeplitz blocks of up to 64 steps, and the
        # exponential tail beyond lag 127
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
        traj, us = kept_run(config)
        assert config.n_steps == N
        h = system.mesh.h
        for k, a in amplitudes.items():
            c = math.cos(k * math.pi * h)
            lam_h = (6.0 / h**2) * (1.0 - c) / (2.0 + c)
            d = scalar_run(gamma, frac.a_gamma, lam_h, kappa, N, d0=1.0,
                           d1=1.0 - 0.5 * kappa**2 * lam_h, dtd0=0.0,
                           corrected=corrected)
            coef = us @ modes[k] / (modes[k] @ modes[k])
            assert np.max(np.abs(coef - a * d)) <= 1e-9
        assert_ring_holds_central_differences(traj, us, config)


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
                           v0=sin_field(-1.0))
        _, us = kept_run(config)
        _, _, v0_h = initial_data(config, None)     # G(0) = 0
        scheme = CQScheme.build(gamma, kappa, config.n_steps)
        load = load_vector(system, sin_field().value)
        for n in range(1, config.n_steps):
            inertia = system.M @ (us[n + 1] - 2.0 * us[n] + us[n - 1]) / kappa**2
            damping = frac.a_gamma * (
                system.M @ mixed_operator(scheme, us, n, v0_h, corrected))
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
        run(config)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], kappa * np.arange(config.n_steps + 1))

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
    energy = discrete_energy(system, u1, u0, system.K @ u0, kappa)
    assert isinstance(energy, float) and energy == pytest.approx(expected)
