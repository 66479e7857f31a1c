"""Manufactured cases, error norms, and the experiment drivers."""

import math

import numpy as np
import pytest

from fracwave import harness
from fracwave.fem import assemble, build_mesh, l2_norm
from fracwave.fraccalc import (
    FracParams,
    caputo_quadrature,
    caputo_series,
    constants_table,
)
from fracwave.harness import (
    _NORM_BLOCK_FLOATS,
    build_case,
    error_norm_energy,
    error_norm_l2max,
    fit_rate,
    run_convergence,
    run_damping_demo,
    run_level,
    singular_exponent_of_source,
    solve_case,
    time_errors,
    verify_case,
)
from fracwave.solver import Trajectory


class TestBuildCase:
    def test_smooth1d_point_values(self):
        case = build_case("smooth1d", FracParams(gamma=0.5))
        pts = np.array([[0.5]])
        assert case.spatial.value(pts)[0] * case.exact(0.0) == pytest.approx(1.0)
        assert case.lap_coef == pytest.approx(math.pi**2)

    def test_smooth2d_point_values(self):
        case = build_case("smooth2d", FracParams(gamma=0.7))
        pts = np.array([[0.5, 0.5]])
        assert case.spatial.value(pts)[0] * case.exact(0.0) == pytest.approx(1.0)
        assert case.lap_coef == pytest.approx(2.0 * math.pi**2)

    def test_nonsmooth_temporal_initial_values(self):
        case = build_case("nonsmooth1d", FracParams(gamma=0.5))
        assert case.exact(0.0) == pytest.approx(1.0)
        assert case.exact_d1(0.0) == pytest.approx(1.0)
        assert case.alpha == pytest.approx(0.5)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_case("mystery", FracParams(gamma=0.5))

    @pytest.mark.parametrize("name,gamma", [
        ("smooth1d", -0.25), ("smooth1d", 0.75),
        ("nonsmooth1d", 0.25), ("nonsmooth1d", -0.75),
        ("smooth2d", 0.7),
    ])
    def test_rhs_consistency(self, name, gamma):
        case = build_case(name, FracParams(gamma=gamma))
        assert verify_case(case) <= 1e-7

    def test_rhs_check_covers_the_horizon(self):
        # a source wrong only after t = 1 passes the check up to T = 1
        # and is caught once the horizon reaches past it
        case = build_case("smooth1d", FracParams(gamma=0.5))
        exact = case.source_temporal
        case.source_temporal = lambda t: exact(t) * (1.0 + 1e-5 * (np.asarray(t) > 1.0))
        assert verify_case(case, T=1.0) <= 1e-7
        with pytest.raises(RuntimeError, match="source inconsistency"):
            verify_case(case, T=2.0)

    @pytest.mark.parametrize("gamma", [0.25, 0.75, -0.25, -0.75])
    def test_source_singular_exponent(self, gamma):
        case = build_case("nonsmooth1d", FracParams(gamma=gamma))
        exponent = singular_exponent_of_source(case)
        # the t^(-gamma) singularities cancel; the survivor is t^(1-gamma)
        assert exponent == pytest.approx(1.0 - gamma, abs=0.05)
        if gamma < 0.0:
            assert exponent > -gamma + 0.4

    def test_nonsmooth_source_calls_caputo_series(self, monkeypatch):
        # the source looks caputo_series up in harness at every call, which
        # is where a tracer wraps it; an inlined sum would bypass the wrapper
        calls = []

        def counting(*args):
            calls.append(args)
            return caputo_series(*args)

        case = build_case("nonsmooth1d", FracParams(gamma=0.25))
        grid = np.arange(65) / 64
        want = case.source_temporal(grid)
        monkeypatch.setattr(harness, "caputo_series", counting)
        np.testing.assert_array_equal(case.source_temporal(grid), want)
        assert len(calls) == 1

    @pytest.mark.parametrize("gamma", [-0.75, -0.25, 0.25, 0.7, 0.75])
    def test_trig_fractional_derivative_against_quadrature(self, gamma):
        # D^(gamma+1) of sin 24t + cos 12t at every t_n of the kappa = 1/512
        # grid, against adaptive quadrature of the defining integral
        case = build_case("smooth1d", FracParams(gamma=gamma))
        t = np.arange(1, 513) / 512
        got = case.temporal.frac(t)
        if gamma > 0.0:
            ref = [caputo_quadrature(gamma + 1.0, x, d2f=case.temporal.d2) for x in t]
        else:
            ref = [caputo_quadrature(gamma + 1.0, x, df=case.temporal.d1) for x in t]
        ref = np.array(ref)
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))
        assert case.temporal.frac(0.0) == 0.0

    @pytest.mark.parametrize("name,gamma", [
        ("smooth1d", -0.25), ("smooth1d", 0.75), ("smooth2d", 0.7),
        ("nonsmooth1d", 0.25), ("nonsmooth1d", -0.75),
    ])
    def test_source_on_grid_equals_single_times(self, name, gamma):
        case = build_case(name, FracParams(gamma=gamma))
        t = np.arange(513) / 512
        grid = case.source_temporal(t)
        single = np.array([case.source_temporal(float(x)) for x in t])
        assert grid.shape == t.shape
        # the same arithmetic; numpy's array sin and power may round
        # differently from their scalar forms in the last bit
        np.testing.assert_allclose(grid, single, rtol=0.0,
                                   atol=1e-14 * np.max(np.abs(grid)))

    def test_trig_source_rejects_times_beyond_its_range(self):
        case = build_case("smooth1d", FracParams(gamma=0.5))
        case.source_temporal(np.linspace(0.0, 4.0, 9))
        with pytest.raises(ValueError):
            case.source_temporal(np.linspace(0.0, 4.5, 9))

    def test_singular_exponent_needs_nonsmooth_case(self):
        case = build_case("smooth1d", FracParams(gamma=0.5))
        with pytest.raises(ValueError):
            singular_exponent_of_source(case)


class TestErrorNorms:
    def test_zero_solution_zero_error(self):
        case = build_case("smooth1d", FracParams(gamma=0.5))
        case.temporal.value = lambda t: 0.0 * t
        case.temporal.d1 = lambda t: 0.0 * t
        kappa = 1.0 / 16
        system = assemble(build_mesh(1, (0.0, 1.0), 8))
        us = np.zeros((17, system.ndof))
        traj = Trajectory(times=kappa * np.arange(17), us=us,
                          energy=np.zeros(16), history=us[:16])
        assert error_norm_energy(traj, case, system, kappa) == 0.0
        assert error_norm_l2max(traj, case, system, kappa) == 0.0

    def test_interpolant_trajectory_residual_is_small(self):
        case = build_case("smooth1d", FracParams(gamma=0.5))
        kappa = 1.0 / 512
        n = 86
        system = assemble(build_mesh(1, (0.0, 1.0), n))
        s = case.spatial.value(system.mesh.nodes[system.mesh.interior])
        steps = 513
        us = np.stack([case.exact(m * kappa) * s for m in range(steps)])
        traj = Trajectory(times=kappa * np.arange(steps), us=us,
                          energy=np.zeros(steps - 1), history=us[:-1])
        # pure time-offset residual of the half-step norm: O(kappa^2)
        # with the solution's large frequencies (24, 12)
        err = error_norm_energy(traj, case, system, kappa)
        assert err < 0.05
        assert error_norm_l2max(traj, case, system, kappa) < 1e-12


def _random_trajectory(system, kappa, steps, seed):
    # growing, so that the largest norms sit in the last, partial block
    us = np.random.default_rng(seed).standard_normal((steps, system.ndof))
    us *= np.linspace(1.0, 3.0, steps)[:, None]
    return Trajectory(times=kappa * np.arange(steps), us=us,
                      energy=np.zeros(steps - 1), history=us[:-1])


class TestBlockedNorms:
    """The batched M-norms against a loop of one l2_norm per step."""

    @pytest.mark.parametrize("dimension,cells,steps", [
        (1, 8, 17),          # one block
        (1, 256, 600),       # 255 dofs: three blocks, the last one partial
        (2, 16, 700),        # 225 dofs: three blocks, the last one partial
    ])
    def test_norms_equal_per_step_loop(self, dimension, cells, steps):
        domain = (0.0, 1.0) if dimension == 1 else ((-1.0, 1.0), (-1.0, 1.0))
        name = "smooth1d" if dimension == 1 else "smooth2d"
        case = build_case(name, FracParams(gamma=0.5))
        system = assemble(build_mesh(dimension, domain, cells))
        block = _NORM_BLOCK_FLOATS // system.ndof
        if cells > 8:
            assert steps > 2 * block and steps % block != 0
        kappa = 1.0 / (steps - 1)
        traj = _random_trajectory(system, kappa, steps, seed=cells)
        us = traj.us
        s = case.spatial.value(system.mesh.nodes[system.mesh.interior])
        energy_ref = max(
            l2_norm(system, (us[n] - us[n - 1]) / kappa
                    - case.exact_d1((n - 0.5) * kappa) * s)
            + l2_norm(system, 0.5 * (us[n] + us[n - 1])
                      - case.exact((n - 0.5) * kappa) * s)
            for n in range(1, steps))
        l2_ref = max(l2_norm(system, us[n] - case.exact(n * kappa) * s)
                     for n in range(steps))
        assert error_norm_energy(traj, case, system, kappa) == pytest.approx(
            energy_ref, rel=1e-14)
        assert error_norm_l2max(traj, case, system, kappa) == pytest.approx(
            l2_ref, rel=1e-14)

    def test_time_errors_equal_per_step_loop(self):
        case = build_case("smooth1d", FracParams(gamma=-0.25))
        system = assemble(build_mesh(1, (0.0, 1.0), 8))
        got = time_errors(case, 8, corrected=True, kappa0=1.0 / 32, levels=2)
        runs = [solve_case(case, system, kappa, True).us
                for kappa in (1.0 / 32, 1.0 / 64, 1.0 / 128)]
        want = [max(l2_norm(system, fine[2 * n] - coarse[n])
                    for n in range(coarse.shape[0]))
                for coarse, fine in zip(runs, runs[1:])]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


class TestConvergence:
    def test_corrected_smooth_case_rate(self):
        case = build_case("smooth1d", FracParams(gamma=-0.75))
        report = run_convergence(case, corrected=True, levels=3,
                                 check_rhs=False)
        assert report.rate_energy == pytest.approx(2.0, abs=0.15)
        assert len(report.levels) == 3
        hs = [row[0] for row in report.levels]
        assert hs[0] > hs[1] > hs[2]

    def test_corrected_not_worse_than_uncorrected(self):
        case = build_case("smooth1d", FracParams(gamma=0.75))
        plain = run_convergence(case, corrected=False, levels=3, check_rhs=False)
        fixed = run_convergence(case, corrected=True, levels=3, check_rhs=False)
        assert fixed.rate_energy >= plain.rate_energy - 0.1

    def test_report_csv(self, tmp_path, capsys):
        # the report's table is written by `fracwave convergence --outdir`
        from fracwave.cli import main

        case = build_case("smooth1d", FracParams(gamma=-0.25))
        report = run_convergence(case, corrected=True, levels=3, check_rhs=False)
        assert main(["convergence", "--case", "smooth1d", "--gamma", "-0.25",
                     "--corrected", "--levels", "3", "--outdir", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = (tmp_path / "convergence_smooth1d.csv").read_text().strip().splitlines()
        assert rows[0] == "level,h,kappa,error_energy,error_l2max"
        assert len(rows) == 4
        for level, (line, expected) in enumerate(zip(rows[1:], report.levels)):
            fields = line.split(",")
            assert int(fields[0]) == level
            assert [float(v) for v in fields[1:]] == list(expected)

    def test_level_floor(self):
        case = build_case("smooth1d", FracParams(gamma=0.5))
        with pytest.raises(ValueError):
            run_convergence(case, corrected=True, levels=2)

    def test_pre_asymptotic_flag(self):
        from fracwave.harness import ConvergenceReport

        rows = [(0.1, 0.1, 1.0, 1.0), (0.05, 0.05, 0.5, 0.5),
                (0.025, 0.025, 0.4999, 0.4999)]
        report = ConvergenceReport(case="x", gamma=0.5, alpha0=1.0,
                                   corrected=False, coupling=6.0, levels=rows)
        report.fit()
        assert report.pre_asymptotic_energy and report.pre_asymptotic_l2

    def test_pre_asymptotic_flag_per_norm(self):
        # only the max-L2 column flattens; the flag sits by its rate alone
        from fracwave.harness import ConvergenceReport

        rows = [(0.1, 0.1, 1.0, 1.0), (0.05, 0.05, 0.25, 0.5),
                (0.025, 0.025, 0.0625, 0.4999)]
        report = ConvergenceReport(case="x", gamma=0.5, alpha0=1.0,
                                   corrected=False, coupling=6.0, levels=rows)
        report.fit()
        assert not report.pre_asymptotic_energy
        assert report.pre_asymptotic_l2
        line = report.summary()
        assert "rate_energy=2.000 rate_l2=" in line
        assert line.endswith(" (pre-asymptotic)")
        assert line.count("(pre-asymptotic)") == 1

    def test_run_level_respects_coupling(self):
        case = build_case("smooth1d", FracParams(gamma=-0.5))
        h, _, _ = run_level(case, 1.0 / 64, corrected=True)
        assert h == pytest.approx(6.0 / 64, rel=0.1)

    def test_fit_rate_on_exact_powers(self):
        rate, pre = fit_rate([2.0 ** (-1.5 * lev) for lev in range(4)])
        assert rate == pytest.approx(1.5, abs=1e-12)
        assert not pre


class TestMeshSystem:
    def test_equal_keys_share_one_system(self, fresh_systems):
        first = harness.mesh_system(1, (0.0, 1.0), 16)
        assert harness.mesh_system(1, (0.0, 1.0), 16) is first
        assert harness.mesh_system(1, (0.0, 1.0), 17) is not first
        assert harness.mesh_system(1, (0.0, 2.0), 16) is not first
        assert harness.mesh_system(2, ((0.0, 1.0), (0.0, 1.0)), 16) is not first

    def test_time_errors_and_run_level_share_the_mesh(self, monkeypatch, fresh_systems):
        assembled = []
        assemble = harness.assemble
        monkeypatch.setattr(harness, "assemble",
                            lambda mesh: assembled.append(mesh.h) or assemble(mesh))
        case = build_case("smooth1d", FracParams(gamma=-0.75))
        cells = harness.level_cells(case, 1.0 / 64)
        time_errors(case, cells, corrected=True, kappa0=1.0 / 64, levels=1)
        h, _, _ = run_level(case, 1.0 / 64, corrected=False)
        run_level(case, 1.0 / 64, corrected=True)
        assert assembled == [h] == [1.0 / cells]


class TestTimeErrors:
    def test_corrected_time_rate_is_two(self):
        case = build_case("smooth1d", FracParams(gamma=-0.75))
        errors = time_errors(case, 8, corrected=True, kappa0=1.0 / 64, levels=3)
        assert len(errors) == 3
        rate, pre = fit_rate(errors)
        assert rate == pytest.approx(2.0, abs=0.1)
        assert not pre

    def test_spatial_error_cancels(self):
        # halving h changes the P1 error fourfold but the time error hardly
        case = build_case("smooth1d", FracParams(gamma=-0.75))
        coarse = time_errors(case, 8, corrected=False, kappa0=1.0 / 64, levels=3)
        fine = time_errors(case, 16, corrected=False, kappa0=1.0 / 64, levels=3)
        np.testing.assert_allclose(coarse, fine, rtol=0.02)


class TestDemos:
    def test_damping_demo_orderings(self):
        times, traces, energies = run_damping_demo(
            gammas=(0.25, 0.75), n_per_side=16, T=2.0)
        undamped = energies["none"]
        drift = np.max(np.abs(undamped - undamped[0])) / undamped[0]
        assert drift <= 1e-10
        half = len(times) // 2
        late_025 = np.max(np.abs(traces["0.25"][half:]))
        late_075 = np.max(np.abs(traces["0.75"][half:]))
        assert late_025 < late_075
        assert len(times) == len(traces["none"]) == len(undamped) + 1

    def test_damping_demo_negative_order_energy_bound(self):
        _, _, energies = run_damping_demo(gammas=(-0.25,), n_per_side=16, T=1.0)
        e = energies["-0.25"]
        assert np.max(e) <= e[0] * (1.0 + 1e-6)

    def test_demo_requires_center_node(self):
        with pytest.raises(ValueError):
            run_damping_demo(n_per_side=15)

    def test_constants_figure(self):
        table = constants_table(99)
        assert table.shape == (99, 3)
        assert np.all(table[:, 2] >= table[:, 1])
