"""Scalar Volterra reference solver and asymptotic checks."""

import math

import numpy as np
import pytest

from fracwave.fraccalc import FracParams
from fracwave.oracle import (
    VolterraProblem,
    asymptotic_check,
    solve_volterra,
)


class TestSolveVolterra:
    def test_pure_forcing_is_exact(self):
        # lam = 0, a = 0, f = 1: v = 1 and u = t^2/2 (piecewise-linear
        # product integration is exact on linear v)
        problem = VolterraProblem(gamma=0.5, a_gamma=0.0, lam=0.0,
                                  u0=0.0, v0=0.0, f=lambda t: 1.0)
        sol = solve_volterra(problem, 1.0, 32)
        assert sol.v == pytest.approx(np.ones(33), abs=1e-12)
        assert sol.u == pytest.approx(sol.times**2 / 2.0, abs=1e-12)

    def test_harmonic_oscillator_second_order(self):
        problem = VolterraProblem(gamma=0.5, a_gamma=0.0, lam=1.0,
                                  u0=1.0, v0=0.0)
        errs = []
        for M in (64, 128, 256):
            sol = solve_volterra(problem, 1.0, M)
            errs.append(np.max(np.abs(sol.u - np.cos(sol.times))))
        order = float(-np.polyfit(range(3), np.log2(errs), 1)[0])
        assert order == pytest.approx(2.0, abs=0.2)

    def test_v_at_zero_from_equation_limit(self):
        problem = VolterraProblem(gamma=0.5, a_gamma=1.0, lam=4.0,
                                  u0=2.0, v0=0.0, f=lambda t: math.cos(t))
        sol = solve_volterra(problem, 1.0, 16)
        assert sol.v[0] == pytest.approx(1.0 - 8.0)

    def test_tail_self_convergence(self):
        # change on common grid points away from startup decays at
        # order >= 2 - max(gamma, 0), and in any case above 1.2
        for gamma in (0.75, -0.75):
            problem = VolterraProblem(
                gamma=gamma, a_gamma=FracParams(gamma=gamma).a_gamma,
                lam=4.0, u0=1.0, v0=0.0, f=lambda t: math.cos(3.0 * t))
            diffs = []
            for M in (256, 512, 1024):
                coarse = solve_volterra(problem, 1.0, M)
                fine = solve_volterra(problem, 1.0, 2 * M)
                lo = M // 4
                diffs.append(np.max(np.abs(coarse.v[lo:] - fine.v[2 * lo:: 2])))
            order = float(-np.polyfit(range(3), np.log2(diffs), 1)[0])
            assert order > 1.2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            VolterraProblem(gamma=0.0, a_gamma=1.0, lam=1.0, u0=0.0, v0=0.0)
        problem = VolterraProblem(gamma=0.5, a_gamma=1.0, lam=1.0, u0=0.0, v0=0.0)
        with pytest.raises(ValueError):
            solve_volterra(problem, 1.0, 1)
        with pytest.raises(ValueError):
            solve_volterra(problem, -1.0, 32)


class TestAsymptotics:
    def test_positive_order_startup_exponent(self):
        problem = VolterraProblem(
            gamma=0.5, a_gamma=FracParams(0.5, 0.25).a_gamma, lam=4.0,
            u0=1.0, v0=0.0, f=lambda t: math.cos(3.0 * t))
        exponent = asymptotic_check(problem, 1.0, 2048)
        assert exponent == pytest.approx(0.5, abs=0.05)

    def test_negative_order_velocity_driven_exponent(self):
        problem = VolterraProblem(
            gamma=-0.5, a_gamma=FracParams(-0.5, 2.0).a_gamma, lam=4.0,
            u0=1.0, v0=1.0, f=lambda t: math.cos(3.0 * t))
        exponent = asymptotic_check(problem, 1.0, 2048)
        assert exponent == pytest.approx(0.5, abs=0.05)

    def test_vanishing_leading_term_gives_higher_order(self):
        # g(0) = 0: residual of order beyond t^(1-gamma)
        gamma = 0.5
        problem = VolterraProblem(
            gamma=gamma, a_gamma=FracParams(gamma, 0.25).a_gamma, lam=4.0,
            u0=0.0, v0=0.0, f=lambda t: math.sin(3.0 * t))
        exponent = asymptotic_check(problem, 1.0, 2048)
        assert exponent > (1.0 - gamma) + 0.3

    def test_absent_forcing_is_zero_forcing(self):
        params = dict(gamma=0.5, a_gamma=FracParams(0.5, 0.25).a_gamma, lam=4.0,
                      u0=1.0, v0=0.0)
        unforced = asymptotic_check(VolterraProblem(**params), 1.0, 2048)
        zero = asymptotic_check(VolterraProblem(**params, f=lambda t: 0.0), 1.0, 2048)
        assert unforced == zero

    def test_window_exceeding_grid_rejected(self):
        problem = VolterraProblem(gamma=0.5, a_gamma=1.0, lam=1.0,
                                  u0=1.0, v0=0.0)
        with pytest.raises(ValueError):
            asymptotic_check(problem, 1.0, 32)
