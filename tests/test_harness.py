"""Manufactured cases, error norms, and the experiment drivers."""

import math

import numpy as np
import pytest

from fracwave.fem import assemble, build_mesh
from fracwave.fraccalc import FracParams
from fracwave.harness import (
    build_case,
    error_norm_energy,
    error_norm_l2max,
    fit_rate,
    run_constants_figure,
    run_convergence,
    run_damping_demo,
    run_level,
    singular_exponent_of_source,
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

    @pytest.mark.parametrize("gamma", [0.25, 0.75, -0.25, -0.75])
    def test_source_singular_exponent(self, gamma):
        case = build_case("nonsmooth1d", FracParams(gamma=gamma))
        exponent = singular_exponent_of_source(case)
        # the t^(-gamma) singularities cancel; the survivor is t^(1-gamma)
        assert exponent == pytest.approx(1.0 - gamma, abs=0.05)
        if gamma < 0.0:
            assert exponent > -gamma + 0.4

    def test_singular_exponent_needs_nonsmooth_case(self):
        case = build_case("smooth1d", FracParams(gamma=0.5))
        with pytest.raises(ValueError):
            singular_exponent_of_source(case)


class TestErrorNorms:
    def test_zero_solution_zero_error(self):
        case = build_case("smooth1d", FracParams(gamma=0.5))
        case.temporal.value = lambda t: 0.0
        case.temporal.d1 = lambda t: 0.0
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
        assert report.pre_asymptotic

    def test_run_level_respects_coupling(self):
        case = build_case("smooth1d", FracParams(gamma=-0.5))
        h, _, _ = run_level(case, 1.0 / 64, corrected=True)
        assert h == pytest.approx(6.0 / 64, rel=0.1)

    def test_fit_rate_on_exact_powers(self):
        rate, pre = fit_rate([2.0 ** (-1.5 * lev) for lev in range(4)])
        assert rate == pytest.approx(1.5, abs=1e-12)
        assert not pre


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
        table = run_constants_figure(99)
        assert table.shape == (99, 3)
        assert np.all(table[:, 2] >= table[:, 1])
