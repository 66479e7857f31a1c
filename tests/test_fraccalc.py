"""Closed-form fractional calculus against independent oracles."""

import math

import numpy as np
import pytest
from scipy.special import gamma as sp_gamma

from fracwave.cq import CQScheme, _kahan_cumsum
from fracwave.fraccalc import (
    GAUSS_JACOBI_BLOCK,
    FracParams,
    _gamma_ratio,
    a_gamma,
    caputo_monomial,
    caputo_quadrature,
    caputo_series,
    constants_table,
    gauss_jacobi,
    positivity_constants,
    rl_integral_gauss_jacobi,
    rl_integral_monomial,
    rl_integral_quadrature,
)
from fracwave.harness import build_case

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

    @pytest.mark.parametrize("alpha0", [math.nan, math.inf])
    def test_rejects_non_finite_alpha0(self, alpha0):
        with pytest.raises(ValueError, match="alpha0 must be positive and finite"):
            a_gamma(0.5, alpha0)

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


class TestRlIntegralQuadrature:
    @pytest.mark.parametrize("beta", [0.05, 0.25, 0.5, 0.95, 1.3, 1.75])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 1.25, 2.0])
    def test_against_monomials(self, beta, mu):
        for t in (0.3, 1.0, 1.7):
            got = rl_integral_quadrature(lambda s: s**mu, beta, t)
            want = rl_integral_monomial(beta, mu, t)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("f, reason", [
        (lambda s: math.sin(1e4 * s), "did not converge in 9 halvings"),
        (lambda s: float(s > 0.3), "did not converge in 9 halvings"),
        (lambda s: abs(s - 0.5), "did not converge in 9 halvings"),
        (lambda s: math.nan, "gave a non-finite sum"),
    ], ids=["oscillation", "step", "kink", "nan"])
    def test_fails_loudly(self, f, reason):
        with pytest.raises(RuntimeError,
                           match=f"beta = 0.5 at t = 1 {reason}; last two estimates"):
            rl_integral_quadrature(f, 0.5, 1.0)


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

    @pytest.mark.parametrize("gamma", [1.5, 1.25])
    @pytest.mark.parametrize("t", [0.3, 2.0])
    def test_pole_of_gamma_gives_zero(self, gamma, t):
        # mu = gamma - 1 puts Gamma(mu + 1 - gamma) at its pole 0, where
        # 1/Gamma vanishes
        assert caputo_monomial(gamma, gamma - 1.0, t) == 0.0

    def test_order_between_one_and_two(self):
        # D^1.5 t^2 = 2 t^0.5 / Gamma(1.5)
        assert caputo_monomial(1.5, 2.0, 1.0) == pytest.approx(
            2.0 / math.gamma(1.5), rel=1e-13)
        ref = caputo_quadrature(1.5, 1.0, d2f=lambda s: 2.0 + 0.0 * s)
        assert caputo_monomial(1.5, 2.0, 1.0) == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 1.0, 2.0])
    def test_quadrature_rejects_unsupported_orders(self, gamma):
        with pytest.raises(ValueError, match=f"unsupported order {gamma}"):
            caputo_quadrature(gamma, 1.0, df=lambda s: 1.0, d2f=lambda s: 0.0 * s)


class TestCaputoSeries:
    @pytest.mark.parametrize("gamma", [-0.5, 0.5, 1.5])
    def test_termwise_against_monomials(self, gamma):
        terms = ((0.0, 1.0), (1.0, -2.0), (2.5, 0.7), (3.0, 4.0))
        t = np.linspace(0.0, 2.0, 9)
        got = caputo_series(terms, gamma, t)
        want = [sum(c * caputo_monomial(gamma, mu, x) for mu, c in terms)
                for x in t[1:]]
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], want, rtol=1e-14, atol=1e-14)
        scalar = caputo_series(terms, gamma, float(t[3]))
        assert scalar == pytest.approx(got[3], rel=1e-14)

    def test_constant_series_is_annihilated(self):
        assert caputo_series(((0.0, 3.0),), 0.5, 1.0) == 0.0


class TestGaussJacobi:
    @pytest.mark.parametrize("n", [3, 12, 16, 48])
    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (-0.75, 0.0), (0.5, 0.0),
                                      (0.0, 0.7), (0.0, -0.7), (0.3, -0.6)])
    def test_moments(self, a, b, n):
        # int (1-x)^a (1+x)^(b+k) dx over [-1, 1], a Beta integral
        x, w = gauss_jacobi(n, a, b)
        k = np.arange(2 * n)
        want = (2.0 ** (a + b + k + 1.0) * sp_gamma(a + 1.0) * sp_gamma(b + k + 1.0)
                / sp_gamma(a + b + k + 2.0))
        got = (1.0 + x) ** k[:, None] @ w
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_legendre_matches_leggauss(self):
        x, w = gauss_jacobi(12, 0.0, 0.0)
        want_x, want_w = np.polynomial.legendre.leggauss(12)
        np.testing.assert_allclose(x, want_x, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(w, want_w, rtol=0.0, atol=1e-14)

    def test_rule_is_read_only(self):
        for arr in gauss_jacobi(5, 0.5, -0.25):
            with pytest.raises(ValueError):
                arr[0] = 0.0

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

    @pytest.mark.parametrize("gamma", [-0.25, 0.75])
    def test_a_time_does_not_depend_on_its_grid(self, gamma):
        # the smooth1d source's integral on the 16385 step times of
        # kappa = 1/16384, against slices of the grid evaluated alone (some
        # across a block boundary), a 2D array of times and scalar times
        temporal = build_case("smooth1d", FracParams(gamma)).temporal
        g, beta = (temporal.d2, 1.0 - gamma) if gamma > 0.0 else (temporal.d1, -gamma)
        t = np.arange(16385) / 16384
        grid = rl_integral_gauss_jacobi(g, beta, t)
        b = GAUSS_JACOBI_BLOCK
        for lo, hi in [(0, 1), (3, 10), (b - 5, b + 7), (b, 2 * b), (5 * b - 1, 7 * b + 3),
                       (16380, 16385), (1, 16385)]:
            np.testing.assert_array_equal(rl_integral_gauss_jacobi(g, beta, t[lo:hi]),
                                          grid[lo:hi])
        np.testing.assert_array_equal(rl_integral_gauss_jacobi(g, beta, t[6:12].reshape(2, 3)),
                                      grid[6:12].reshape(2, 3))
        for i in [0, 1, b - 1, b, b + 1, 8191, 16383, 16384]:
            assert rl_integral_gauss_jacobi(g, beta, float(t[i])) == grid[i]

    def test_holds_one_block_of_times(self, traced):
        # the 16385 step times of kappa = 1/16384: one (times x nodes) grid
        # would peak at 25.4 MB; blocks of 256 times read 0.66-0.68 MB, the
        # result's 0.13 MB included
        source = build_case("smooth1d", FracParams(0.75)).source_temporal
        t = np.arange(16385) / 16384
        with traced() as window:
            values = source(t)
        assert values.nbytes <= window.peak <= 1.5e6


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

    @pytest.mark.parametrize("grid", [-3, 0])
    def test_table_refuses_an_empty_grid(self, grid):
        with pytest.raises(ValueError, match=f"grid_points must be at least 1, got {grid}"):
            constants_table(grid)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            positivity_constants(-0.5, 1.0)
        with pytest.raises(ValueError):
            positivity_constants(0.5, 0.0)

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_non_finite_horizon_rejected(self, T):
        with pytest.raises(ValueError, match="T must be positive and finite"):
            positivity_constants(0.5, T)


# Orders on a grid of (-1, 1) excluding 0.
_ORDERS = [g / 20.0 for g in range(-19, 20) if g != 0]


class TestAgainstScipyGamma:
    """The closed forms built on math.gamma, against the same formulas
    with scipy's Gamma: equal to round-off."""

    def test_gamma_on_random_arguments(self):
        x = np.random.default_rng(0).uniform(-2.0, 5.0, 2000)
        ours = np.array([math.gamma(v) for v in x])
        np.testing.assert_allclose(ours, sp_gamma(x), rtol=1.1e-15, atol=0.0)

    @pytest.mark.parametrize("gamma", _ORDERS)
    def test_scalar_constants(self, gamma):
        beta = abs(gamma)
        pairs = [
            (a_gamma(gamma, 0.7), -0.7 * (4.0 / math.pi) * sp_gamma(-gamma - 1.0)
             * sp_gamma(gamma + 2.0) * math.cos((gamma + 1.0) * math.pi / 2.0)),
            (rl_integral_monomial(beta, 1.5, 1.7),
             sp_gamma(2.5) / sp_gamma(2.5 + beta) * 1.7 ** (beta + 1.5)),
            (rl_integral_monomial(beta, 0.0, 0.3),
             sp_gamma(1.0) / sp_gamma(1.0 + beta) * 0.3**beta),
            (_gamma_ratio(1.5, 1.5 - gamma), sp_gamma(1.5) / sp_gamma(1.5 - gamma)),
        ]
        if gamma != 0.5:  # 0.5 - gamma = 0 is the pole, pinned above
            pairs.append((_gamma_ratio(1.5, 0.5 - gamma),
                          sp_gamma(1.5) / sp_gamma(0.5 - gamma)))
        if gamma > 0.0:
            pairs.append((positivity_constants(gamma, 1.3)[1],
                          0.65 ** (gamma - 1.0) / sp_gamma(gamma)))
        for ours, ref in pairs:
            assert ours == pytest.approx(ref, rel=4e-15, abs=0.0)

    @pytest.mark.parametrize("gamma", _ORDERS)
    def test_startup_weights(self, gamma):
        # the startup weights are small differences of the Gamma term g0
        # and sums of CQ weights, so they are compared relative to g0
        kappa, N = 1.0 / 64.0, 128
        scheme = CQScheme.build(gamma, kappa, N)
        t = kappa * np.arange(N + 1)
        s0 = _kahan_cumsum(scheme.omega)
        w1 = np.zeros(N + 1)
        if gamma < 0.0:
            g0 = t ** (-gamma) / sp_gamma(1.0 - gamma)
            w0 = g0 - s0
            w0[0] = -s0[0]
        else:
            g0 = t ** (1.0 - gamma) / (kappa * sp_gamma(2.0 - gamma))
            s1 = _kahan_cumsum(t * scheme.omega)
            w1[1:] = g0[1:] - (t[1:] * s0[1:] - s1[1:]) / kappa
            w0 = -s0 - w1
        for ours, ref in zip(scheme.startup[True].T, (w0, w1)):
            assert np.all(np.abs(ours - ref) <= 4e-15 * g0)
