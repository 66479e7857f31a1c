"""Manufactured cases, error norms, and the experiment drivers."""

import math

import numpy as np
import pytest

from fem_reference import l2_norm
from fracwave import harness
from fracwave.fem import assemble, build_mesh
from fracwave.fraccalc import (
    FracParams,
    caputo_quadrature,
    caputo_series,
    constants_table,
)
from fracwave.harness import (
    ManufacturedCase,
    build_case,
    error_norm_energy,
    error_norm_l2max,
    fit_rate,
    level_cells,
    run_convergence,
    run_damping_demo,
    run_level,
    solve_case,
    time_errors,
    verify_case,
)
from fracwave.solver import CHECK_STEPS, KeptRows


# Times near t = 0 at which the source's singular exponent is fitted.
_SINGULAR_FIT_TIMES = np.geomspace(1e-9, 1e-7, 12)


def per_time_deviation(case):
    """verify_case's worst deviation at T = 1, one sample time at a time
    with scalar calls of the source: the reference for its one-pass form."""
    devs = []
    for t in np.random.default_rng(harness._VERIFY_SEED).uniform(
            0.05, 1.0, size=harness._VERIFY_SAMPLES):
        t = float(t)
        fr = caputo_quadrature(case.frac.gamma + 1.0, t, df=case.temporal.d1,
                               d2f=case.temporal.d2)
        ref = (case.temporal.d2(t) + case.lap_coef * case.temporal.value(t)
               + case.frac.a_gamma * fr)
        devs.append(abs(case.source_temporal(t) - ref) / max(1.0, abs(ref)))
    return max(devs)


def kept_rows(case, system, kappa, corrected):
    """The rows u_0..u_N of solve_case's run at T = 1, kept by KeptRows."""
    kept = KeptRows()
    solve_case(case, system, kappa, corrected, observe=kept)
    return kept.us


def singular_exponent_of_source(case: ManufacturedCase) -> float:
    """Fitted exponent of the non-polynomial part of G near t = 0.

    Only defined for the startup-singularity case, whose smooth part is
    exactly the quadratic 2 + lap_coef*(1 + t + t^2): every other
    contribution to G carries a non-integer power of t.  Subtracting the
    quadratic in closed form exposes the leading singular power.
    """
    if case.alpha is None:
        raise ValueError("singular exponent only defined for nonsmooth cases")
    ts = _SINGULAR_FIT_TIMES
    smooth = 2.0 + case.lap_coef * (1.0 + ts + ts * ts)
    resid = np.abs(case.source_temporal(ts) - smooth)
    if np.any(resid == 0.0):
        raise RuntimeError("vanishing singular residual; exponent undefined")
    return float(np.polyfit(np.log(ts), np.log(resid), 1)[0])


class TestBuildCase:
    def test_smooth1d_point_values(self):
        case = build_case("smooth1d", FracParams(gamma=0.5))
        pts = np.array([[0.5]])
        assert case.spatial.value(pts)[0] * case.temporal.value(0.0) == pytest.approx(1.0)
        assert case.lap_coef == pytest.approx(math.pi**2)

    def test_smooth2d_point_values(self):
        case = build_case("smooth2d", FracParams(gamma=0.7))
        pts = np.array([[0.5, 0.5]])
        assert case.spatial.value(pts)[0] * case.temporal.value(0.0) == pytest.approx(1.0)
        assert case.lap_coef == pytest.approx(2.0 * math.pi**2)

    def test_nonsmooth_temporal_initial_values(self):
        case = build_case("nonsmooth1d", FracParams(gamma=0.5))
        assert case.temporal.value(0.0) == pytest.approx(1.0)
        assert case.temporal.d1(0.0) == pytest.approx(1.0)
        assert case.alpha == pytest.approx(0.5)

    @pytest.mark.parametrize("name", list(harness.CASES))
    def test_spatial_gradient_and_laplacian(self, name):
        # central differences of the value give the gradient, and second
        # differences give -lap(spatial) = lap_coef * spatial
        case = build_case(name, FracParams(gamma=0.5))
        value = case.spatial.value
        x = np.random.default_rng(11).uniform(-1.0, 1.0, size=(50, case.dimension))
        steps = np.eye(case.dimension)
        d = 1e-5
        slopes = [(value(x + d * e) - value(x - d * e)) / (2.0 * d) for e in steps]
        np.testing.assert_allclose(case.spatial.gradient(x), np.column_stack(slopes),
                                   rtol=0.0, atol=1e-8)
        d = 1e-4
        lap = sum((value(x + d * e) - 2.0 * value(x) + value(x - d * e)) / d**2
                  for e in steps)
        np.testing.assert_allclose(-lap, case.lap_coef * value(x), rtol=0.0, atol=1e-6)

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
        # one array call of the source may round apart from scalar calls
        # (numpy's power against Python's pow) by a few eps of the deviation
        assert verify_case(case) == pytest.approx(per_time_deviation(case),
                                                  rel=0, abs=4 * np.finfo(float).eps)

    def test_rhs_check_covers_the_horizon(self):
        # a source wrong only after t = 1 passes the check up to T = 1
        # and is caught once the horizon reaches past it
        case = build_case("smooth1d", FracParams(gamma=0.5))
        exact = case.source_temporal
        case.source_temporal = lambda t: exact(t) * (1.0 + 1e-5 * (np.asarray(t) > 1.0))
        assert verify_case(case, T=1.0) <= 1e-7
        with pytest.raises(RuntimeError, match="source inconsistency"):
            verify_case(case, T=2.0)

    @pytest.mark.parametrize("nan_from", [0.0, 0.5], ids=["everywhere", "past-0.5"])
    def test_rhs_check_fails_on_nan_source(self, nan_from):
        # a NaN deviation is not below the tolerance, so it fails the check
        case = build_case("smooth1d", FracParams(gamma=0.5))
        exact = case.source_temporal
        case.source_temporal = lambda t: np.where(np.asarray(t) >= nan_from, np.nan, exact(t))
        with pytest.raises(RuntimeError, match="source inconsistency nan"):
            verify_case(case)

    def test_rhs_check_evaluates_the_source_once(self, monkeypatch):
        # the sample times reach source_temporal as one array, not one call
        # per time
        calls = []
        source_temporal = ManufacturedCase.source_temporal
        monkeypatch.setattr(ManufacturedCase, "source_temporal",
                            lambda case, t: calls.append(np.shape(t)) or source_temporal(case, t))
        assert verify_case(build_case("smooth2d", FracParams(gamma=0.7))) <= 1e-7
        assert calls == [(harness._VERIFY_SAMPLES,)]

    def test_rhs_check_on_a_horizon_below_the_old_floor(self):
        # the check times are drawn from (0.05 T, T), so T < 0.05 works
        case = build_case("smooth1d", FracParams(gamma=0.5))
        assert verify_case(case, T=1.0 / 32) <= 1e-7

    @pytest.mark.parametrize("T", [0.0, math.inf, math.nan])
    def test_rhs_check_rejects_a_bad_horizon(self, T):
        case = build_case("smooth1d", FracParams(gamma=0.5))
        with pytest.raises(ValueError, match="T must be positive and finite"):
            verify_case(case, T=T)

    @pytest.mark.parametrize("kappa", [0.0, math.inf, math.nan])
    def test_level_cells_rejects_a_bad_step(self, kappa):
        case = build_case("smooth1d", FracParams(gamma=0.5))
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            level_cells(case, kappa)

    @pytest.mark.parametrize("name, kappa", [("smooth1d", 0.5), ("smooth2d", 1.0)])
    def test_level_cells_rejects_a_mesh_under_two_cells(self, name, kappa):
        # smooth1d: h = 6 * 0.5 on (0, 1); smooth2d: h = 10 * 1 on (-1, 1)^2
        case = build_case(name, FracParams(gamma=0.5))
        with pytest.raises(ValueError, match=rf"kappa = {kappa} and coupling ="
                           rf" {case.coupling} give .* fewer than 2 cells on"):
            level_cells(case, kappa)

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
        # grid, against tanh-sinh quadrature of the defining integral
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

    @pytest.mark.parametrize("name", ["smooth1d", "smooth2d", "nonsmooth1d"])
    @pytest.mark.parametrize("gamma", [-0.95, -0.75, -0.25, 0.05, 0.25, 0.7, 0.75, 0.95])
    def test_oracle_against_quadpack(self, name, gamma):
        # the tanh-sinh oracle on every integrand verify_case gives it, at
        # the seeded verify times and t = 1, against QUADPACK's adaptive
        # Gauss-Kronrod after t - tau = t s^(1/beta) removes the singularity
        from scipy.integrate import quad

        case = build_case(name, FracParams(gamma=gamma))
        f, beta = (case.temporal.d2, 1.0 - gamma) if gamma > 0.0 else (case.temporal.d1, -gamma)
        rng = np.random.default_rng(harness._VERIFY_SEED)
        times = [*rng.uniform(0.05, 1.0, size=harness._VERIFY_SAMPLES), 1.0]
        for t in map(float, times):
            got = caputo_quadrature(gamma + 1.0, t, df=case.temporal.d1, d2f=case.temporal.d2)
            out = quad(lambda s: f(t - t * s ** (1.0 / beta)), 0.0, 1.0,
                       epsabs=1e-13, epsrel=1e-13, limit=200, full_output=1)
            ref = t**beta / (beta * math.gamma(beta)) * out[0]
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

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
        assert error_norm_energy(us, case, system, kappa) == 0.0
        assert error_norm_l2max(us, case, system, kappa) == 0.0

    def test_blocks_count_every_row_once(self):
        # the largest error sits in u_0, the first block's own row, or in
        # a boundary row, which the next block shares
        case = build_case("smooth1d", FracParams(gamma=0.5))
        case.temporal.value = lambda t: 0.0 * t
        case.temporal.d1 = lambda t: 0.0 * t
        kappa = 1.0 / 16
        system = assemble(build_mesh(1, (0.0, 1.0), 8))
        ones = np.ones(system.ndof)
        for row in (0, 5, 16):
            us = np.zeros((17, system.ndof))
            us[row] = ones
            norms = harness.ErrorNorms(case, system, kappa)
            for lo, hi in ((0, 5), (5, 11), (11, 16)):
                norms(lo, us[lo:hi + 1])
            assert norms.l2 == pytest.approx(l2_norm(system, ones), rel=1e-15)
            assert norms.energy == pytest.approx(
                l2_norm(system, ones / kappa) + l2_norm(system, 0.5 * ones), rel=1e-15)

    def test_interpolant_trajectory_residual_is_small(self):
        case = build_case("smooth1d", FracParams(gamma=0.5))
        kappa = 1.0 / 512
        n = 86
        system = assemble(build_mesh(1, (0.0, 1.0), n))
        s = case.spatial.value(system.mesh.nodes[system.mesh.interior])
        steps = 513
        us = np.stack([case.temporal.value(m * kappa) * s for m in range(steps)])
        # pure time-offset residual of the half-step norm: O(kappa^2)
        # with the solution's large frequencies (24, 12)
        err = error_norm_energy(us, case, system, kappa)
        assert err < 0.05
        assert error_norm_l2max(us, case, system, kappa) < 1e-12


def _random_trajectory(system, steps, seed):
    # growing, so that the largest norms sit in the last, partial block
    us = np.random.default_rng(seed).standard_normal((steps, system.ndof))
    us *= np.linspace(1.0, 3.0, steps)[:, None]
    return us


class TestBlockedNorms:
    """The blocked M-norms against a loop of one l2_norm per step, and
    against the same trajectory fed in other blocks."""

    @pytest.mark.parametrize("dimension,cells,steps", [
        (1, 8, 17),          # one block
        (1, 256, 600),       # 255 dofs: 18 blocks of 32 steps and one of 23
        (2, 16, 700),        # 225 dofs: 21 blocks of 32 steps and one of 27
    ])
    def test_norms_equal_per_step_loop(self, dimension, cells, steps):
        domain = (0.0, 1.0) if dimension == 1 else ((-1.0, 1.0), (-1.0, 1.0))
        name = "smooth1d" if dimension == 1 else "smooth2d"
        case = build_case(name, FracParams(gamma=0.5))
        system = assemble(build_mesh(dimension, domain, cells))
        N = steps - 1
        if cells > 8:
            assert N > 2 * CHECK_STEPS and N % CHECK_STEPS != 0
        kappa = 1.0 / N
        us = _random_trajectory(system, steps, seed=cells)
        s = case.spatial.value(system.mesh.nodes[system.mesh.interior])
        energy_ref = max(
            l2_norm(system, (us[n] - us[n - 1]) / kappa
                    - case.temporal.d1((n - 0.5) * kappa) * s)
            + l2_norm(system, 0.5 * (us[n] + us[n - 1])
                      - case.temporal.value((n - 0.5) * kappa) * s)
            for n in range(1, steps))
        l2_ref = max(l2_norm(system, us[n] - case.temporal.value(n * kappa) * s)
                     for n in range(steps))
        kept = (error_norm_energy(us, case, system, kappa),
                error_norm_l2max(us, case, system, kappa))
        assert kept == pytest.approx((energy_ref, l2_ref), rel=1e-14)
        # whole, in run's blocks of CHECK_STEPS steps, step by step
        for size in (N, CHECK_STEPS, 1):
            norms = harness.ErrorNorms(case, system, kappa)
            for lo in range(0, N, size):
                norms(lo, us[lo:lo + size + 1])
            assert (norms.energy, norms.l2) == pytest.approx(kept, rel=1e-15, abs=0.0)

    def test_time_errors_equal_per_step_loop(self):
        case = build_case("smooth1d", FracParams(gamma=-0.25))
        system = assemble(build_mesh(1, (0.0, 1.0), 8))
        got = time_errors(case, 8, corrected=True, kappa0=1.0 / 32, levels=2)
        runs = [kept_rows(case, system, kappa, True)
                for kappa in (1.0 / 32, 1.0 / 64, 1.0 / 128)]
        want = [max(l2_norm(system, fine[2 * n] - coarse[n])
                    for n in range(coarse.shape[0]))
                for coarse, fine in zip(runs, runs[1:])]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        # the same arithmetic on the kept rows: equal bit for bit
        assert got == [float(np.max(harness._m_norms(system, fine[::2] - coarse)))
                       for coarse, fine in zip(runs, runs[1:])]


class TestStreamedNorms:
    """run_level's norms, accumulated block by block as the run steps,
    against the norms of the kept trajectory."""

    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("name,kappa", [
        ("smooth1d", 1.0 / 128),      # 20 dofs, 4 blocks of 32 steps
        ("nonsmooth1d", 1.0 / 96),    # 15 dofs, 3 blocks of 32 steps
        ("smooth2d", 1.0 / 160),      # 961 dofs, 5 blocks of 32 steps
    ])
    def test_run_level_equals_the_kept_trajectory(self, name, kappa, corrected):
        case = build_case(name, FracParams(gamma=0.5))
        system = harness.mesh_system(case.dimension, case.domain, level_cells(case, kappa))
        assert round(1.0 / kappa) > 2 * CHECK_STEPS
        norms, traj = run_level(case, kappa, corrected)
        assert traj.us.shape == (1, system.ndof)
        us = kept_rows(case, system, kappa, corrected)
        assert us.shape[0] == round(1.0 / kappa) + 1
        assert norms.system is system
        # the kept trajectory is fed as one block: a row's norms do not
        # depend on the block it is reduced in
        assert norms.energy == error_norm_energy(us, case, system, kappa)
        assert norms.l2 == error_norm_l2max(us, case, system, kappa)

    def test_norms_refuse_an_observed_trajectory(self):
        case = build_case("smooth1d", FracParams(gamma=0.5))
        kappa = 1.0 / 64
        system = harness.mesh_system(1, case.domain, level_cells(case, kappa))
        traj = solve_case(case, system, kappa, False)
        for norm in (error_norm_energy, error_norm_l2max):
            with pytest.raises(ValueError, match=r"u_0\.\.u_N that KeptRows keeps, got"
                                                 r" shape \(1, 10\)"):
                norm(traj.us, case, system, kappa)


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
        norms, _ = run_level(case, 1.0 / 64, corrected=True)
        assert norms.system.mesh.h == pytest.approx(6.0 / 64, rel=0.1)

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
        norms, _ = run_level(case, 1.0 / 64, corrected=False)
        run_level(case, 1.0 / 64, corrected=True)
        assert assembled == [norms.system.mesh.h] == [1.0 / cells]


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

    @pytest.mark.parametrize("n", [2, 4, 16, 32])
    def test_damping_demo_traces_the_origin(self, monkeypatch, n):
        # every trace and energy log equals the origin's column and the
        # energy of a run that kept every row
        configs = []
        run = harness.run

        def recording_run(config, observe=None):
            configs.append(config)
            return run(config, observe)

        monkeypatch.setattr(harness, "run", recording_run)
        _, traces, energies = run_damping_demo(gammas=(0.5, -0.5), n_per_side=n,
                                               T=2.0 / n)
        mesh = configs[0].fem.mesh
        origin = np.flatnonzero(np.all(np.abs(mesh.nodes[mesh.interior]) < 1e-12, axis=1))
        assert len(origin) == 1
        assert list(traces) == list(energies) == ["none", "0.5", "-0.5"]
        for label, config in zip(traces, configs):
            kept = KeptRows()
            traj = run(config, observe=kept)
            np.testing.assert_array_equal(traces[label], kept.us[:, origin[0]])
            np.testing.assert_array_equal(energies[label], traj.energy)

    def test_damping_demo_assembles_once_per_mesh(self, monkeypatch, fresh_systems):
        assembled = []
        assemble = harness.assemble
        monkeypatch.setattr(harness, "assemble",
                            lambda mesh: assembled.append(mesh.h) or assemble(mesh))
        for _ in range(2):
            run_damping_demo(gammas=(0.5,), n_per_side=8, T=0.25)
        assert assembled == [0.25]

    def test_damping_demo_refuses_repeated_orders(self, monkeypatch):
        # 0.25 and 0.250 would share the label "0.25", and one trace would
        # replace the other
        monkeypatch.setattr(harness, "run",
                            lambda *args, **kwargs: pytest.fail("a run started"))
        with pytest.raises(ValueError, match="^repeated damping orders: 0.25, 0.5$"):
            run_damping_demo(gammas=(0.25, 0.5, 0.75, 0.250, 0.5), n_per_side=8, T=0.25)

    def test_demo_requires_center_node(self):
        with pytest.raises(ValueError):
            run_damping_demo(n_per_side=15)

    def test_constants_figure(self):
        table = constants_table(99)
        assert table.shape == (99, 3)
        assert np.all(table[:, 2] >= table[:, 1])
