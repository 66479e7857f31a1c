"""Closed-form fractional calculus against independent oracles."""

import math

import numpy as np
import pytest

from fracwave.fraccalc import (
    FracParams,
    MonomialFrac,
    SeriesTruncationError,
    a_gamma,
    caputo_monomial,
    caputo_quadrature,
    caputo_series,
    constants_table,
    cos_monomials,
    merge_series,
    positivity_constants,
    rl_integral_gauss_jacobi,
    rl_integral_monomial,
    rl_integral_quadrature,
    sin_monomials,
)

# Independent Gamma via the classic 9-term Lanczos approximation (g = 7),
# with the reflection formula below 0.5; used only as a cross-check.
_LANCZOS = [
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
]


def lanczos_gamma(z: float) -> float:
    if z < 0.5:
        return math.pi / (math.sin(math.pi * z) * lanczos_gamma(1.0 - z))
    z -= 1.0
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc += c / (z + i)
    t = z + 7.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


def a_gamma_independent(gamma: float, alpha0: float) -> float:
    return (
        -alpha0
        * (4.0 / math.pi)
        * lanczos_gamma(-gamma - 1.0)
        * lanczos_gamma(gamma + 2.0)
        * math.cos((gamma + 1.0) * math.pi / 2.0)
    )


class TestAGamma:
    def test_cross_check_against_lanczos(self):
        for gamma in (-0.9, -0.75, -0.25, 0.25, 0.5, 0.7, 0.75, 0.9):
            for alpha0 in (1.0, 20.0):
                ours = a_gamma(gamma, alpha0)
                ref = a_gamma_independent(gamma, alpha0)
                assert ours == pytest.approx(ref, rel=1e-12)

    def test_positive_on_dense_grid(self):
        grid = np.concatenate([np.linspace(-0.999, -0.001, 200),
                               np.linspace(0.001, 0.999, 200)])
        for gamma in grid:
            assert a_gamma(float(gamma), 1.0) > 0.0

    def test_diverges_toward_endpoints(self):
        values = [a_gamma(g, 1.0) for g in (0.9, 0.99, 0.999)]
        assert values[0] < values[1] < values[2]
        assert values[2] > 1e2
        values = [a_gamma(g, 1.0) for g in (-0.9, -0.99, -0.999)]
        assert values[0] < values[1] < values[2]

    def test_linear_in_alpha0(self):
        assert a_gamma(0.5, 2.0) == pytest.approx(2.0 * a_gamma(0.5, 1.0), rel=1e-15)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -1.0, 1.5])
    def test_rejects_bad_order(self, gamma):
        with pytest.raises(ValueError):
            a_gamma(gamma, 1.0)

    def test_rejects_bad_alpha0(self):
        with pytest.raises(ValueError):
            a_gamma(0.5, 0.0)

    def test_frac_params_derives_coefficient(self):
        frac = FracParams(gamma=0.5, alpha0=2.0)
        assert frac.a_gamma == pytest.approx(a_gamma(0.5, 2.0))


class TestRlIntegralMonomial:
    def test_integral_of_one(self):
        assert rl_integral_monomial(1.0, 0.0, 3.0) == pytest.approx(3.0)

    def test_double_integral_of_t(self):
        assert rl_integral_monomial(2.0, 1.0, 1.0) == pytest.approx(1.0 / 6.0)

    def test_fractional_vs_quadrature(self):
        ours = rl_integral_monomial(0.5, 0.5, 1.0)
        ref = rl_integral_quadrature(lambda s: np.sqrt(s), 0.5, 1.0)
        assert ours == pytest.approx(ref, abs=1e-10)

    def test_semigroup_composition(self):
        # I^a I^b t^mu = I^(a+b) t^mu
        for a, b, mu in ((0.5, 0.75, 1.0), (0.3, 1.2, 0.5), (1.0, 0.25, 2.0)):
            inner_mu = b + mu
            scale = math.gamma(mu + 1.0) / math.gamma(inner_mu + 1.0)
            composed = scale * rl_integral_monomial(a, inner_mu, 1.3)
            direct = rl_integral_monomial(a + b, mu, 1.3)
            assert composed == pytest.approx(direct, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rl_integral_monomial(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            rl_integral_monomial(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            rl_integral_monomial(1.0, 1.0, -1.0)


class TestCaputoMonomial:
    def test_zero_branch(self):
        assert caputo_monomial(0.5, 0.0, 1.0) == 0.0

    def test_linear_vs_quadrature(self):
        ours = caputo_monomial(0.5, 1.0, 1.0)
        assert ours == pytest.approx(math.gamma(2.0) / math.gamma(1.5), rel=1e-14)
        ref = caputo_quadrature(0.5, 1.0, df=lambda s: 1.0)
        assert ours == pytest.approx(ref, abs=1e-10)

    def test_negative_order_delegates_to_integral(self):
        assert caputo_monomial(-0.5, 0.0, 4.0) == pytest.approx(
            rl_integral_monomial(0.5, 0.0, 4.0), rel=1e-15)

    def test_derivative_integral_identity(self):
        # D^g t^mu = mu * I^(1-g) t^(mu-1) for g in (0,1), mu >= 1
        for gamma, mu in ((0.25, 1.0), (0.5, 2.5), (0.75, 3.0)):
            lhs = caputo_monomial(gamma, mu, 1.7)
            rhs = mu * rl_integral_monomial(1.0 - gamma, mu - 1.0, 1.7)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_order_between_one_and_two(self):
        # D^1.5 t^2 = 2 t^0.5 / Gamma(1.5)
        assert caputo_monomial(1.5, 2.0, 1.0) == pytest.approx(
            2.0 / math.gamma(1.5), rel=1e-13)
        ref = caputo_quadrature(1.5, 1.0, d2f=lambda s: 2.0 + 0.0 * s)
        assert caputo_monomial(1.5, 2.0, 1.0) == pytest.approx(ref, abs=1e-10)


class TestCaputoSeries:
    def test_integer_order_recovers_cosine(self):
        series = sin_monomials(1.0)
        for t in (0.3, 1.0, 2.0):
            assert caputo_series(series, 1.0, t) == pytest.approx(
                math.cos(t), abs=1e-12)

    def test_fast_trig_vs_quadrature(self):
        series = sin_monomials(24.0)
        value = caputo_series(series, 0.5, 0.1)
        ref = caputo_quadrature(0.5, 0.1, df=lambda s: 24.0 * np.cos(24.0 * s))
        assert value == pytest.approx(ref, abs=1e-8)

    def test_constant_series_is_annihilated(self):
        constant = [MonomialFrac(mu=0.0, coefficient=3.0)]
        assert caputo_series(constant, 0.5, 1.0) == 0.0

    def test_merged_two_frequency_series(self):
        series = merge_series(sin_monomials(24.0), cos_monomials(12.0))
        t = 0.4
        ref = caputo_quadrature(
            0.5, t, df=lambda s: 24.0 * np.cos(24.0 * s) - 12.0 * np.sin(12.0 * s))
        assert caputo_series(series, 0.5, t) == pytest.approx(ref, abs=1e-8)

    def test_truncation_failure_raises(self):
        divergent = [MonomialFrac(mu=float(k), coefficient=1.0) for k in range(60)]
        with pytest.raises(SeriesTruncationError):
            caputo_series(divergent, 0.5, 2.0, max_terms=60)


class TestGaussJacobi:
    @pytest.mark.parametrize("gamma", [-0.75, -0.25, 0.25, 0.7, 0.75])
    @pytest.mark.parametrize("mu", [2, 3, 5, 8])
    def test_caputo_of_monomials(self, gamma, mu):
        # D^(gamma+1) t^mu as the integral of order 1-gamma of mu(mu-1)t^(mu-2)
        # (gamma > 0) or of order -gamma of mu t^(mu-1) (gamma < 0)
        t = np.array([0.01, 0.3, 1.0, 2.5])
        if gamma > 0.0:
            g, beta = (lambda s: mu * (mu - 1) * s ** (mu - 2)), 1.0 - gamma
        else:
            g, beta = (lambda s: mu * s ** (mu - 1)), -gamma
        got = rl_integral_gauss_jacobi(g, beta, t)
        want = np.array([caputo_monomial(gamma + 1.0, mu, x) for x in t])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0, 1.7])
    def test_integral_of_monomials(self, beta):
        t = np.linspace(0.0, 2.0, 9)
        for mu in (0, 1, 4):
            got = rl_integral_gauss_jacobi(lambda s: s**mu + 0.0 * s, beta, t)
            want = [rl_integral_monomial(beta, mu, x) for x in t]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_scalar_time(self):
        got = rl_integral_gauss_jacobi(np.cos, 0.5, 0.7)
        assert np.ndim(got) == 0
        assert got == pytest.approx(rl_integral_quadrature(math.cos, 0.5, 0.7),
                                    rel=1e-13)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            rl_integral_gauss_jacobi(np.cos, 0.0, 1.0)


class TestPositivityConstants:
    def test_c2_limit_near_one(self):
        _, c2 = positivity_constants(0.99, 1.0)
        assert c2 == pytest.approx(0.5 ** (-0.01) / math.gamma(0.99), rel=1e-13)

    def test_c2_dominates_on_sweep(self):
        for i in range(1, 100):
            c1, c2 = positivity_constants(i / 100.0, 1.0)
            assert c2 > c1

    def test_shared_horizon_scaling(self):
        c1a, c2a = positivity_constants(0.5, 1.0)
        c1b, c2b = positivity_constants(0.5, 2.0)
        factor = 2.0 ** (0.5 - 1.0)
        assert c1b == pytest.approx(factor * c1a, rel=1e-13)
        assert c2b == pytest.approx(factor * c2a, rel=1e-13)

    def test_table_shape_and_grid(self):
        table = constants_table(99)
        assert table.shape == (99, 3)
        assert table[0, 0] == pytest.approx(0.01)
        assert table[-1, 0] == pytest.approx(0.99)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            positivity_constants(-0.5, 1.0)
        with pytest.raises(ValueError):
            positivity_constants(0.5, 0.0)
