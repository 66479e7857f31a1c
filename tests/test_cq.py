"""BDF2 convolution quadrature weights and operators."""

import math

import numpy as np
import pytest

from fracwave.cq import (
    CQHistory,
    CQScheme,
    Sequence,
    apply_cq,
    apply_cq_corrected,
    bdf2_weights,
    central_diff,
    mixed_operator,
)
from fracwave.fraccalc import caputo_monomial


def fitted_order(errors):
    levels = np.arange(len(errors))
    return float(-np.polyfit(levels, np.log2(errors), 1)[0])


class TestBdf2Weights:
    def test_integer_order_is_delta_polynomial(self):
        w = bdf2_weights(1.0, 1.0, 4)
        assert w == pytest.approx([1.5, -2.0, 0.5, 0.0, 0.0], abs=1e-14)

    def test_leading_weight(self):
        for gamma in (0.25, -0.6, 0.9):
            for kappa in (1.0, 0.01):
                w = bdf2_weights(gamma, kappa, 0)
                assert w[0] == pytest.approx((3.0 / (2.0 * kappa)) ** gamma, rel=1e-14)

    def test_reciprocal_series_via_recurrence(self):
        # delta(z) S(z) = 1 solved independently:
        # 3/2 s_n - 2 s_{n-1} + 1/2 s_{n-2} = 0 for n >= 1
        N = 32
        s = np.empty(N + 1)
        s[0] = 2.0 / 3.0
        s[1] = 2.0 * s[0] / 1.5
        for n in range(2, N + 1):
            s[n] = (2.0 * s[n - 1] - 0.5 * s[n - 2]) / 1.5
        w = bdf2_weights(-1.0, 1.0, N)
        assert w == pytest.approx(s, rel=1e-13)
        assert w[0] == pytest.approx(2.0 / 3.0)
        assert w[1] == pytest.approx(8.0 / 9.0)

    def test_generating_function_consistency(self):
        for gamma in (0.25, 0.75, 0.5):
            a = bdf2_weights(gamma, 1.0, 512)
            b = bdf2_weights(-gamma, 1.0, 512)
            conv = np.convolve(a, b)[:513]
            expected = np.zeros(513)
            expected[0] = 1.0
            assert np.max(np.abs(conv - expected)) < 1e-12

    def test_weight_decay_envelope(self):
        # |omega_n| <= C kappa t_n^(-gamma-1) with a moderate fitted C
        kappa = 1.0 / 256
        for gamma in (0.5, -0.5):
            w = bdf2_weights(gamma, kappa, 256)
            n = np.arange(1, 257)
            t = n * kappa
            ratio = np.abs(w[1:]) / (kappa * t ** (-gamma - 1.0))
            assert ratio.max() < 10.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bdf2_weights(0.5, 0.0, 4)
        with pytest.raises(ValueError):
            bdf2_weights(0.5, 1.0, -1)


class TestSchemeTables:
    def test_negative_order_corrections(self):
        scheme = CQScheme.build(-0.5, 0.1, 16)
        assert scheme.chi == 0
        assert np.all(scheme.w1 == 0.0)
        t = scheme.times
        partial = np.cumsum(scheme.omega)
        expected = t[1:] ** 0.5 / math.gamma(1.5) - partial[1:]
        assert scheme.w0[1:] == pytest.approx(expected, abs=1e-12)

    def test_positive_order_corrections(self):
        scheme = CQScheme.build(0.5, 0.1, 16)
        assert scheme.chi == 1
        t = scheme.times
        partial = np.cumsum(scheme.omega)
        lin = np.cumsum(t * scheme.omega)
        w1 = (t[1:] ** 0.5 / math.gamma(1.5) - (t[1:] * partial[1:] - lin[1:])) / 0.1
        assert scheme.w1[1:] == pytest.approx(w1, abs=1e-10)
        assert scheme.w0 == pytest.approx(-partial - scheme.w1, abs=1e-10)

    def test_rejects_out_of_domain_order(self):
        for gamma in (0.0, 1.0, -1.0):
            with pytest.raises(ValueError):
                CQScheme.build(gamma, 0.1, 8)

    def test_weights_are_read_only(self):
        scheme = CQScheme.build(0.5, 0.1, 8)
        with pytest.raises(ValueError):
            scheme.omega[0] = 0.0


class TestCQHistory:
    @pytest.mark.parametrize("ndof", [1, 7])
    @pytest.mark.parametrize("N", [1, 2, 31, 32, 33, 64, 1000, 3000])
    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("gamma", [-0.5, 0.5])
    def test_matches_direct_sum_at_every_step(self, gamma, corrected, N, ndof):
        # the blocked-FFT sum against CQScheme.known_sum, the direct sum;
        # ndof = 1 runs on a 1-D (scalar) sequence
        scheme = CQScheme.build(gamma, 1.0 / 64, N)
        rng = np.random.default_rng(N + ndof)
        shape = (N + 1,) if ndof == 1 else (N + 1, ndof)
        values = rng.standard_normal(shape)
        rows = np.zeros(shape)
        rows[0] = values[0]
        history = CQHistory(scheme, rows)
        for n in range(1, N + 1):
            got = history.known_sum(n, corrected)
            want = scheme.known_sum(values, n, corrected)
            assert np.shape(got) == np.shape(want)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
            rows[n] = values[n]

    def test_sums_go_in_step_order(self):
        scheme = CQScheme.build(0.5, 0.1, 8)
        history = CQHistory(scheme, np.zeros(9))
        history.known_sum(1, corrected=True)
        with pytest.raises(ValueError):
            history.known_sum(3, corrected=True)
        with pytest.raises(ValueError):
            CQHistory(scheme, np.zeros(10))


class TestApplyCq:
    def test_constant_annihilated_for_positive_order(self):
        scheme = CQScheme.build(0.5, 0.1, 16)
        g = Sequence(values=np.full(17, 3.7))
        for n in (0, 5, 16):
            assert apply_cq(scheme, g, n) == pytest.approx(0.0, abs=1e-14)

    def test_constant_first_order_for_negative_order(self):
        errors = []
        for N in (16, 32, 64, 128):
            kappa = 1.0 / N
            scheme = CQScheme.build(-0.5, kappa, N)
            g = Sequence(values=np.ones(N + 1))
            ref = 1.0 / math.gamma(1.5)
            errors.append(abs(apply_cq(scheme, g, N) - ref))
        assert fitted_order(errors) == pytest.approx(1.0, abs=0.1)

    def test_quadratic_second_order_for_positive_order(self):
        errors = []
        for N in (16, 32, 64, 128):
            kappa = 1.0 / N
            scheme = CQScheme.build(0.5, kappa, N)
            t = kappa * np.arange(N + 1)
            g = Sequence(values=t**2)
            ref = caputo_monomial(0.5, 2.0, 1.0)
            errors.append(abs(apply_cq(scheme, g, N) - ref))
        assert fitted_order(errors) == pytest.approx(2.0, abs=0.1)

    def test_vector_valued_sequences(self):
        scheme = CQScheme.build(-0.5, 0.1, 8)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((9, 3))
        g = Sequence(values=vals)
        out = apply_cq(scheme, g, 8)
        ref = np.array([apply_cq(scheme, Sequence(values=vals[:, k]), 8)
                        for k in range(3)])
        assert out == pytest.approx(ref)

    def test_history_index_error(self):
        scheme = CQScheme.build(0.5, 0.1, 8)
        g = Sequence(values=np.ones(5))
        with pytest.raises(IndexError):
            apply_cq(scheme, g, 6)


class TestApplyCqCorrected:
    def test_exact_on_constants_negative_order(self):
        N = 64
        scheme = CQScheme.build(-0.5, 1.0 / N, N)
        g = Sequence(values=np.ones(N + 1))
        for n in range(1, N + 1):
            ref = (n / N) ** 0.5 / math.gamma(1.5)
            assert apply_cq_corrected(scheme, g, n) == pytest.approx(ref, rel=1e-12)

    def test_exact_on_linears_positive_order(self):
        N = 64
        kappa = 1.0 / N
        scheme = CQScheme.build(0.5, kappa, N)
        t = kappa * np.arange(N + 1)
        g = Sequence(values=t)
        for n in range(1, N + 1):
            ref = t[n] ** 0.5 / math.gamma(1.5)
            assert apply_cq_corrected(scheme, g, n) == pytest.approx(ref, rel=1e-11)

    def test_cubic_second_order(self):
        errors = []
        for N in (16, 32, 64, 128):
            kappa = 1.0 / N
            scheme = CQScheme.build(0.5, kappa, N)
            t = kappa * np.arange(N + 1)
            g = Sequence(values=t**3)
            ref = caputo_monomial(0.5, 3.0, 1.0)
            errors.append(abs(apply_cq_corrected(scheme, g, N) - ref))
        assert fitted_order(errors) == pytest.approx(2.0, abs=0.1)

    def test_needs_second_sample_for_positive_order(self):
        scheme = CQScheme.build(0.5, 0.1, 8)
        g = Sequence(values=np.ones(9))
        with pytest.raises(IndexError):
            apply_cq_corrected(scheme, g, 0)


class TestCentralDiff:
    def test_exact_on_quadratics(self):
        kappa = 0.125
        t = kappa * np.arange(10)
        g = Sequence(values=t**2)
        for n in range(1, 9):
            assert central_diff(g, kappa, n) == pytest.approx(2.0 * t[n], rel=1e-13)

    def test_cubic_truncation_term(self):
        kappa = 0.125
        t = kappa * np.arange(10)
        g = Sequence(values=t**3)
        for n in range(1, 9):
            assert central_diff(g, kappa, n) == pytest.approx(
                3.0 * t[n] ** 2 + kappa**2, rel=1e-12)

    def test_uses_supplied_slope_at_zero(self):
        g = Sequence(values=np.zeros(4), t0_derivative=2.5)
        assert central_diff(g, 0.1, 0) == pytest.approx(2.5)

    def test_missing_slope_raises(self):
        g = Sequence(values=np.zeros(4))
        with pytest.raises(ValueError):
            central_diff(g, 0.1, 0)

    def test_end_of_history_raises(self):
        g = Sequence(values=np.zeros(4))
        with pytest.raises(IndexError):
            central_diff(g, 0.1, 3)


class TestMixedOperator:
    def test_linear_exact_uncorrected_positive_order(self):
        N = 32
        kappa = 1.0 / N
        scheme = CQScheme.build(0.5, kappa, N)
        t = kappa * np.arange(N + 2)
        g = Sequence(values=t, t0_derivative=1.0)
        ref = caputo_monomial(1.5, 1.0, 1.0)
        assert mixed_operator(scheme, g, N) == pytest.approx(ref, abs=1e-13)

    def test_quadratic_exact_corrected_positive_order(self):
        N = 32
        kappa = 1.0 / N
        scheme = CQScheme.build(0.5, kappa, N)
        t = kappa * np.arange(N + 2)
        g = Sequence(values=t**2, t0_derivative=0.0)
        ref = caputo_monomial(1.5, 2.0, 1.0)
        assert mixed_operator(scheme, g, N, corrected=True) == pytest.approx(
            ref, abs=1e-12)

    def test_cubic_second_order_corrected_negative_order(self):
        errors = []
        for N in (16, 32, 64, 128):
            kappa = 1.0 / N
            scheme = CQScheme.build(-0.5, kappa, N)
            t = kappa * np.arange(N + 2)
            g = Sequence(values=t**3, t0_derivative=0.0)
            ref = caputo_monomial(0.5, 3.0, 1.0)
            errors.append(abs(mixed_operator(scheme, g, N, corrected=True) - ref))
        assert fitted_order(errors) == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("gamma", [0.5, -0.5])
    def test_nonsmooth_prototype_rate(self, gamma):
        # g = t^(2 + ceil(gamma) - gamma): corrected order min(2, 1+alpha)
        alpha = math.ceil(gamma) - gamma
        beta = 2.0 + alpha
        errors = []
        for N in (32, 64, 128, 256):
            kappa = 1.0 / N
            scheme = CQScheme.build(gamma, kappa, N)
            t = kappa * np.arange(N + 2)
            g = Sequence(values=t**beta, t0_derivative=0.0)
            ref = caputo_monomial(gamma + 1.0, beta, 1.0)
            errors.append(abs(mixed_operator(scheme, g, N, corrected=True) - ref))
        assert fitted_order(errors) >= min(2.0, 1.0 + alpha) - 0.15


class TestPositivityForm:
    def test_quadratic_form_nonnegative_for_negative_orders(self):
        N, dim = 128, 3
        for gamma in (-0.25, -0.75):
            omega = CQScheme.build(gamma, 1.0 / N, N).omega
            for seed in range(20):
                rng = np.random.default_rng(seed)
                v = rng.standard_normal((N + 1, dim))
                v[0] = 0.0
                total = sum(
                    float(np.convolve(omega, v[:, k])[: N + 1] @ v[:, k])
                    for k in range(dim)
                )
                assert total >= -1e-10 * float(np.sum(v * v))
