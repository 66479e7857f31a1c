"""BDF2 convolution quadrature weights and operators."""

import math

import numpy as np
import pytest

from fracwave import cq
from fracwave.cq import (
    FAR_STEPS,
    RING_ROWS,
    CQHistory,
    CQScheme,
    _kahan_cumsum,
    apply_cq,
    apply_cq_corrected,
    bdf2_weights,
    central_diff_sequence,
    mixed_operator,
    tail_weights,
)
from fracwave.fraccalc import caputo_monomial


def fitted_order(errors):
    levels = np.arange(len(errors))
    return float(-np.polyfit(levels, np.log2(errors), 1)[0])


def convolution_weights(gamma, kappa, N):
    """The weights from delta(zeta) = (3/2)(1 - zeta)(1 - zeta/3): two
    binomial series c_j = c_{j-1} (j-1-gamma)/j, one discrete convolution
    and the scale (3/(2 kappa))^gamma; O(N^2) work."""
    c = np.empty(N + 1)
    c[0] = 1.0
    for j in range(1, N + 1):
        c[j] = c[j - 1] * (j - 1 - gamma) / j
    d = c * (1.0 / 3.0) ** np.arange(N + 1)
    return np.convolve(c, d)[: N + 1] * (3.0 / (2.0 * kappa)) ** gamma


class TestBdf2Weights:
    @pytest.mark.parametrize("gamma", [-0.95, -0.5, 0.05, 0.5, 0.95])
    @pytest.mark.parametrize("N", [0, 1, 2, 33, 16384])
    def test_recurrence_matches_the_convolution(self, gamma, N):
        kappa = 1.0 / 2048
        np.testing.assert_allclose(bdf2_weights(gamma, kappa, N),
                                   convolution_weights(gamma, kappa, N),
                                   rtol=2e-12, atol=0.0)

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

    def test_weights_are_written_in_place(self, traced):
        # no list of Python floats (32 B a weight) beside the result
        with traced() as window:
            omega = bdf2_weights(0.5, 1.0 / 64, 65536)
        assert window.peak <= 2 * omega.nbytes

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bdf2_weights(0.5, 0.0, 4)
        with pytest.raises(ValueError):
            bdf2_weights(0.5, 1.0, -1)

    @pytest.mark.parametrize("gamma, kappa", [
        (math.nan, 0.1), (math.inf, 0.1), (0.5, math.nan), (0.5, math.inf)])
    def test_non_finite_order_or_step_rejected(self, gamma, kappa):
        with pytest.raises(ValueError, match="must be (positive and )?finite"):
            bdf2_weights(gamma, kappa, 4)


class TestSchemeTables:
    def test_negative_order_corrections(self):
        scheme = CQScheme.build(-0.5, 0.1, 16)
        uncorrected, corrected = scheme.startup
        # no Caputo shift (chi = 0), and w1 = 0
        assert np.all(uncorrected == 0.0)
        assert np.all(corrected[:, 1] == 0.0)
        t = 0.1 * np.arange(17)
        partial = np.cumsum(scheme.omega)
        expected = t[1:] ** 0.5 / math.gamma(1.5) - partial[1:]
        assert corrected[1:, 0] == pytest.approx(expected, abs=1e-12)

    def test_positive_order_corrections(self):
        scheme = CQScheme.build(0.5, 0.1, 16)
        uncorrected, corrected = scheme.startup
        t = 0.1 * np.arange(17)
        partial = np.cumsum(scheme.omega)
        # the Caputo shift (chi = 1)
        assert uncorrected[:, 0] == pytest.approx(-partial, abs=1e-10)
        assert np.all(uncorrected[:, 1] == 0.0)
        lin = np.cumsum(t * scheme.omega)
        w1 = (t[1:] ** 0.5 / math.gamma(1.5) - (t[1:] * partial[1:] - lin[1:])) / 0.1
        assert corrected[1:, 1] == pytest.approx(w1, abs=1e-10)
        assert corrected[:, 0] == pytest.approx(-partial - corrected[:, 1], abs=1e-10)

    def test_rejects_out_of_domain_order(self):
        for gamma in (0.0, 1.0, -1.0):
            with pytest.raises(ValueError):
                CQScheme.build(gamma, 0.1, 8)

    def test_weights_are_read_only(self):
        scheme = CQScheme.build(0.5, 0.1, 8)
        with pytest.raises(ValueError):
            scheme.omega[0] = 0.0

    def test_schemes_compare_by_identity(self):
        # equal fields would compare their arrays, whose truth is ambiguous
        scheme = CQScheme.build(0.5, 0.1, 8)
        rebuilt = CQScheme.build(0.5, 0.1, 8)
        assert scheme == scheme and not scheme != scheme
        assert scheme != rebuilt and not scheme == rebuilt
        assert hash(scheme) == hash(scheme) != hash(rebuilt)
        assert len({scheme, rebuilt, scheme}) == 2


def reference_startup(scheme, values, n, corrected):
    """known_sum and self_weight at step n with the startup rule written
    out per choice from its formulas, independent of CQScheme.startup:
    w0[n] g_0 + w1[n] g_1 (the n = 1 term in the self weight) when
    corrected, the Caputo shift -s0[n] g_0 for positive orders when not,
    s0 the compensated partial sums of omega.  The weights take build's
    arithmetic, so the sums agree bitwise."""
    gamma, kappa, omega = scheme.gamma, scheme.kappa, scheme.omega
    t = kappa * np.arange(scheme.N + 1)
    s0 = _kahan_cumsum(omega)
    if gamma < 0.0:
        w0, w1 = t ** -gamma / math.gamma(1.0 - gamma) - s0, np.zeros(scheme.N + 1)
    else:
        w1 = (t ** (1.0 - gamma) / math.gamma(2.0 - gamma)
              - (t * s0 - _kahan_cumsum(t * omega))) / kappa
        w0 = -s0 - w1
    out = omega[n:0:-1] @ values[:n]
    weight = omega[0]
    if corrected:
        out = out + w0[n] * values[0]
        if n >= 2 and w1[n] != 0.0:
            out = out + w1[n] * values[1]
        if n == 1:
            weight += w1[1]
    elif gamma > 0.0:
        out = out - s0[n] * values[0]
    return out, weight


class TestStartupTable:
    @pytest.mark.parametrize("ndof", [1, 3])
    @pytest.mark.parametrize("N", [0, 1, 2, 33])
    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("gamma", [-0.75, -0.25, 0.25, 0.75])
    def test_direct_sum_equals_the_written_out_rule(self, gamma, corrected, N, ndof):
        scheme = CQScheme.build(gamma, 1.0 / 64, N)
        rng = np.random.default_rng(N + ndof)
        values = rng.standard_normal((N + 1,) if ndof == 1 else (N + 1, ndof))
        for n in range(N + 1):
            want, weight = reference_startup(scheme, values, n, corrected)
            assert np.all(scheme.known_sum(values, n, corrected) == want)
            assert scheme.self_weight(n, corrected) == weight

    @pytest.mark.parametrize("corrected", [False, True])
    def test_table_is_read_only(self, corrected):
        table = CQScheme.build(0.5, 0.1, 8).startup[corrected]
        assert table.shape == (9, 2)
        with pytest.raises(ValueError):
            table[:] = 0.0


class TestTailWeights:
    @pytest.mark.parametrize("N", [129, 256, 1000, 3000, 8192, 16384, 65536, 131072])
    @pytest.mark.parametrize("gamma", [-0.95, -0.75, -0.5, -0.05, 0.05, 0.5, 0.7, 0.75, 0.95])
    def test_exponential_sum_matches_weights_past_far_steps(self, gamma, N):
        kappa = 4.0 / N
        weights, log_rates = tail_weights(gamma, kappa, N)
        want = bdf2_weights(gamma, kappa, N)
        worst = 0.0
        # 4096 lags at a time: no N x Q array
        for lo in range(FAR_STEPS + 1, N + 1, 4096):
            lags = np.arange(lo, min(lo + 4096, N + 1))
            got = np.exp(np.outer(lags, log_rates)) @ weights
            worst = max(worst, np.max(np.abs(got / want[lags] - 1.0)))
        assert worst <= 1e-11

    def test_node_count(self):
        # 16 Gauss-Jacobi nodes and seven 12-point panels up to z = 0.45
        assert len(tail_weights(0.5, 1.0 / 2048, 8192)[0]) == 100

    @pytest.mark.parametrize("N", [4, FAR_STEPS])
    def test_rejects_lengths_without_a_tail(self, N):
        with pytest.raises(ValueError, match=f"N = {N}"):
            tail_weights(0.5, 1.0 / N, N)


def check_against_direct_sum(gamma, corrected, N, ndof):
    """The blocked sum against CQScheme.known_sum, the direct sum, at
    every step of a run of N steps, with rows fed as the time loop feeds
    them."""
    scheme = CQScheme.build(gamma, 1.0 / 64, N)
    values = np.random.default_rng(N + ndof).standard_normal((N, ndof))
    history = CQHistory(scheme, values[0], corrected)
    for n in range(1, N):
        got = history.known_sum(n)
        want = scheme.known_sum(values, n, corrected)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        history.record(values[n])


def known_sums_by_fft(omega, startup, values):
    """CQScheme.known_sum at every step n < N of the N rows of values at
    once: sum omega_{n-j} values_j over j < n by one FFT convolution of
    omega, without omega_0, with each column, plus c0[n] values_0 and, from
    n = 2, c1[n] values_1.  Row 0 is the empty sum.  Given |omega|,
    |startup| and |values|, the same sums are the terms by magnitude."""
    N = len(values)
    lagged = np.concatenate([[0.0], omega[1:N]])
    size = 2 * N
    sums = np.fft.irfft(np.fft.rfft(lagged, size)[:, None] * np.fft.rfft(values, size, axis=0),
                        size, axis=0)[:N]
    c0, c1 = startup[:N].T
    sums += c0[:, None] * values[0]
    sums[2:] += c1[2:, None] * values[1]
    return sums


def check_ring_against_full_history(gamma, corrected, N, ndof, monkeypatch):
    """The ring of RING_ROWS rows at every step of a run of N steps: equal
    to a history whose ring holds all N rows (the same products, on rows
    at new addresses) and to 1e-10 of the direct sum's terms by
    magnitude, which a sum that cancels does not show; no sum at step N.
    The direct sums and their terms come from known_sums_by_fft."""
    scheme = CQScheme.build(gamma, 1.0 / 64, N)
    startup = scheme.startup[corrected]
    values = np.random.default_rng(N + ndof).standard_normal((N, ndof))
    ring = CQHistory(scheme, values[0], corrected)
    monkeypatch.setattr(cq, "RING_ROWS", N)
    history = CQHistory(scheme, values[0], corrected)
    assert (len(ring.values), len(history.values)) == (RING_ROWS, N)
    got, full = np.zeros((N, ndof)), np.zeros((N, ndof))
    for n in range(1, N):
        got[n], full[n] = ring.known_sum(n), history.known_sum(n)
        ring.record(values[n])
        history.record(values[n])
    np.testing.assert_array_equal(got, full)
    want = known_sums_by_fft(scheme.omega, startup, values)
    terms = known_sums_by_fft(np.abs(scheme.omega), np.abs(startup), np.abs(values))
    excess = np.max(np.abs(got - want), axis=1) - 1e-10 * np.max(terms, axis=1)
    assert np.all(excess[1:] <= 0.0), f"steps {np.flatnonzero(excess[1:] > 0.0)[:5] + 1}"
    with pytest.raises(ValueError, match=f"step {N}: the last is step {N - 1}"):
        ring.known_sum(N)


class TestCQHistory:
    @pytest.mark.parametrize("ndof", [1, 7])
    @pytest.mark.parametrize("N", [1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 192, 257,
                                   300, 1000, 3000])
    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("gamma", [-0.5, 0.5])
    def test_matches_direct_sum_at_every_step(self, gamma, corrected, N, ndof):
        # N = 129 reaches the tail at its last row only; N = 65 ends in a
        # Toeplitz block whose omega[:128] runs past omega_N
        check_against_direct_sum(gamma, corrected, N, ndof)

    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("gamma", [-0.5, 0.5])
    def test_matches_direct_sum_at_decay_length(self, gamma, corrected):
        check_against_direct_sum(gamma, corrected, 8192, 7)

    @pytest.mark.parametrize("ndof", [1, 7])
    @pytest.mark.parametrize("N", [65, 128, 129, 192, 193, 257, 300, 1000, 3000, 8192])
    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("gamma", [-0.5, 0.5])
    def test_ring_matches_the_full_history(self, gamma, corrected, N, ndof, monkeypatch):
        # N = 65 wraps the 64-row ring, at N = 128 the last block's rows all
        # went over the first block's, and N = 129 reaches the tail
        check_ring_against_full_history(gamma, corrected, N, ndof, monkeypatch)

    @pytest.mark.parametrize("N", [129, 192, 257, 300, 1000, 3000, 8192])
    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("gamma", [-0.5, 0.5])
    def test_ring_in_panels_of_two_columns(self, gamma, corrected, N, monkeypatch):
        # a budget of 2 FAR_STEPS floats opens every block in panels of two
        # columns, of which the last of the 7 holds one; every N reaches
        # the tail, whose state each panel slices
        monkeypatch.setattr(cq, "BLOCK_FLOATS", 2 * FAR_STEPS)
        assert cq.budget_rows(FAR_STEPS) == 2
        check_ring_against_full_history(gamma, corrected, N, 7, monkeypatch)

    @pytest.mark.parametrize("N", [2, 65, 300])
    @pytest.mark.parametrize("corrected", [False, True])
    def test_fft_reference_is_the_direct_sum(self, corrected, N):
        # the ring test's reference, against CQScheme.known_sum at every step
        scheme = CQScheme.build(0.5, 1.0 / 64, N)
        startup = scheme.startup[corrected]
        values = np.random.default_rng(N).standard_normal((N, 3))
        want = known_sums_by_fft(scheme.omega, startup, values)
        terms = known_sums_by_fft(np.abs(scheme.omega), np.abs(startup), np.abs(values))
        for n in range(1, N):
            got = scheme.known_sum(values, n, corrected)
            assert np.max(np.abs(got - want[n])) <= 1e-14 * np.max(terms[n])

    @pytest.mark.parametrize("N", [1, 64, 128, 129, 300])
    def test_tail_only_past_two_far_blocks(self, N):
        # a ring of min(N, RING_ROWS) rows, summed up to step N - 1; the
        # tail starts at step 128
        history = CQHistory(CQScheme.build(0.5, 1.0 / 64, N), np.zeros(3), corrected=True)
        assert history.values.shape == (min(N, RING_ROWS), 3)
        assert (history.tail is not None) == (N - 1 >= 2 * FAR_STEPS)

    @pytest.mark.parametrize("N", [8, 200])
    def test_no_sum_past_the_last_row(self, N):
        # the time loop's rows 0..N-1; N = 200 wraps the ring
        history = CQHistory(CQScheme.build(0.5, 0.1, N), np.zeros(3), corrected=True)
        for n in range(1, N):
            history.known_sum(n)
            history.record(np.ones(3))
        with pytest.raises(ValueError, match=f"step {N}: the last is step {N - 1}"
                                             f" of a run of N = {N} steps"):
            history.known_sum(N)

    @pytest.mark.parametrize("corrected", [False, True])
    def test_keeps_nothing_of_the_run_length(self, corrected, traced):
        # the ring, the Toeplitz kernel and the Q x ndof tail state (Q
        # grows from 100 to 124 modes): no copy of the (N + 1) x 2 startup
        # table or of any other O(N) array
        kept = []
        for N in (8192, 65536):
            scheme = CQScheme.build(0.5, 4.0 / N, N)
            CQHistory(scheme, np.zeros(127), corrected)   # fills the Gauss rule caches
            with traced() as window:
                history = CQHistory(scheme, np.zeros(127), corrected)
            kept.append(window.current)
            assert history.values.shape == (64, 127)
        assert kept[1] - kept[0] <= 0.1e6

    def test_sums_go_in_step_order(self):
        history = CQHistory(CQScheme.build(0.5, 0.1, 8), np.zeros(3), corrected=True)
        history.known_sum(1)
        with pytest.raises(ValueError, match="expected 2, got 3"):
            history.known_sum(3)


class TestApplyCq:
    def test_constant_annihilated_for_positive_order(self):
        scheme = CQScheme.build(0.5, 0.1, 16)
        g = np.full(17, 3.7)
        for n in (0, 5, 16):
            assert apply_cq(scheme, g, n) == pytest.approx(0.0, abs=1e-14)

    def test_constant_first_order_for_negative_order(self):
        errors = []
        for N in (16, 32, 64, 128):
            kappa = 1.0 / N
            scheme = CQScheme.build(-0.5, kappa, N)
            g = np.ones(N + 1)
            ref = 1.0 / math.gamma(1.5)
            errors.append(abs(apply_cq(scheme, g, N) - ref))
        assert fitted_order(errors) == pytest.approx(1.0, abs=0.1)

    def test_quadratic_second_order_for_positive_order(self):
        errors = []
        for N in (16, 32, 64, 128):
            kappa = 1.0 / N
            scheme = CQScheme.build(0.5, kappa, N)
            t = kappa * np.arange(N + 1)
            g = t**2
            ref = caputo_monomial(0.5, 2.0, 1.0)
            errors.append(abs(apply_cq(scheme, g, N) - ref))
        assert fitted_order(errors) == pytest.approx(2.0, abs=0.1)

    def test_vector_valued_sequences(self):
        scheme = CQScheme.build(-0.5, 0.1, 8)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((9, 3))
        out = apply_cq(scheme, vals, 8)
        ref = np.array([apply_cq(scheme, vals[:, k], 8)
                        for k in range(3)])
        assert out == pytest.approx(ref)

    def test_history_index_error(self):
        scheme = CQScheme.build(0.5, 0.1, 8)
        g = np.ones(5)
        with pytest.raises(IndexError):
            apply_cq(scheme, g, 6)


class TestApplyCqCorrected:
    def test_exact_on_constants_negative_order(self):
        N = 64
        scheme = CQScheme.build(-0.5, 1.0 / N, N)
        g = np.ones(N + 1)
        for n in range(1, N + 1):
            ref = (n / N) ** 0.5 / math.gamma(1.5)
            assert apply_cq_corrected(scheme, g, n) == pytest.approx(ref, rel=1e-12)

    def test_exact_on_linears_positive_order(self):
        N = 64
        kappa = 1.0 / N
        scheme = CQScheme.build(0.5, kappa, N)
        t = kappa * np.arange(N + 1)
        g = t
        for n in range(1, N + 1):
            ref = t[n] ** 0.5 / math.gamma(1.5)
            assert apply_cq_corrected(scheme, g, n) == pytest.approx(ref, rel=1e-11)

    def test_cubic_second_order(self):
        errors = []
        for N in (16, 32, 64, 128):
            kappa = 1.0 / N
            scheme = CQScheme.build(0.5, kappa, N)
            t = kappa * np.arange(N + 1)
            g = t**3
            ref = caputo_monomial(0.5, 3.0, 1.0)
            errors.append(abs(apply_cq_corrected(scheme, g, N) - ref))
        assert fitted_order(errors) == pytest.approx(2.0, abs=0.1)

    def test_needs_second_sample_for_positive_order(self):
        scheme = CQScheme.build(0.5, 0.1, 8)
        g = np.ones(9)
        with pytest.raises(IndexError):
            apply_cq_corrected(scheme, g, 0)


class TestCentralDiff:
    def test_exact_on_quadratics(self):
        kappa = 0.125
        t = kappa * np.arange(10)
        d = central_diff_sequence(t**2, kappa, 8, 0.0)
        for n in range(1, 9):
            assert d[n] == pytest.approx(2.0 * t[n], rel=1e-13)

    def test_cubic_truncation_term(self):
        kappa = 0.125
        t = kappa * np.arange(10)
        d = central_diff_sequence(t**3, kappa, 8, 0.0)
        for n in range(1, 9):
            assert d[n] == pytest.approx(3.0 * t[n] ** 2 + kappa**2, rel=1e-12)

    def test_uses_supplied_slope_at_zero(self):
        assert central_diff_sequence(np.zeros(4), 0.1, 0, 2.5)[0] == pytest.approx(2.5)

    def test_end_of_history_raises(self):
        g = np.zeros(4)
        with pytest.raises(IndexError):
            central_diff_sequence(g, 0.1, 3, 0.0)


class TestMixedOperator:
    def test_linear_exact_uncorrected_positive_order(self):
        N = 32
        kappa = 1.0 / N
        scheme = CQScheme.build(0.5, kappa, N)
        t = kappa * np.arange(N + 2)
        ref = caputo_monomial(1.5, 1.0, 1.0)
        assert mixed_operator(scheme, t, N, 1.0) == pytest.approx(ref, abs=1e-13)

    def test_quadratic_exact_corrected_positive_order(self):
        N = 32
        kappa = 1.0 / N
        scheme = CQScheme.build(0.5, kappa, N)
        t = kappa * np.arange(N + 2)
        ref = caputo_monomial(1.5, 2.0, 1.0)
        assert mixed_operator(scheme, t**2, N, 0.0, corrected=True) == pytest.approx(
            ref, abs=1e-12)

    def test_cubic_second_order_corrected_negative_order(self):
        errors = []
        for N in (16, 32, 64, 128):
            kappa = 1.0 / N
            scheme = CQScheme.build(-0.5, kappa, N)
            t = kappa * np.arange(N + 2)
            ref = caputo_monomial(0.5, 3.0, 1.0)
            errors.append(abs(mixed_operator(scheme, t**3, N, 0.0, corrected=True) - ref))
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
            ref = caputo_monomial(gamma + 1.0, beta, 1.0)
            errors.append(abs(mixed_operator(scheme, t**beta, N, 0.0, corrected=True)
                              - ref))
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
