"""BDF2 convolution quadrature for fractional derivatives.

Weight generation from the generating function (delta(zeta)/kappa)^gamma
with delta(zeta) = 3/2 - 2 zeta + zeta^2/2, the Caputo shift for positive
orders, startup correction weights exact on constants (and linears for
positive orders), the CQ history sum (direct, and blocked for the time
loop: lags up to 127 exact by one 64 x 64 Toeplitz product per block of
64 steps, longer ones by a sum of exponentials, on a ring of 64 rows
that CQHistory owns), the central difference operator, and the mixed
operator approximating d_t^(gamma+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fracwave.fraccalc import check_order, gauss_jacobi


def bdf2_weights(gamma: float, kappa: float, N: int) -> np.ndarray:
    """First N+1 Taylor coefficients of (delta(zeta)/kappa)^gamma.

    With delta(zeta) = (3/2) p(zeta), p(zeta) = 1 - 4 zeta/3 + zeta^2/3,
    the coefficients f_n of p^gamma satisfy p f' = gamma p' f, that is
    f_0 = 1, f_1 = -4 gamma/3 and
    f_{n+1} = ((2n - 2 gamma) f_n - ((n-1)/2 - gamma) f_{n-1}) 2/(3(n+1)),
    scaled by (3/(2 kappa))^gamma.  O(N) work, written into the returned
    array as it goes; forward-stable, as the recurrence's parasitic root
    is 1/3 and its dominant one 1.
    """
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    omega = np.empty(N + 1)
    f_prev, f = 1.0, -4.0 * gamma / 3.0
    omega[:2] = (f_prev, f)[:N + 1]
    for n in range(1, N):
        f_prev, f = f, (((2.0 * n - 2.0 * gamma) * f - ((n - 1) / 2.0 - gamma) * f_prev)
                        * 2.0 / (3.0 * (n + 1)))
        omega[n + 1] = f
    omega *= (3.0 / (2.0 * kappa)) ** gamma
    return omega


def _kahan_cumsum(values: np.ndarray) -> np.ndarray:
    """Compensated running sums; the startup weights are cancellation-prone."""
    out = np.empty_like(values)
    total = 0.0
    comp = 0.0
    for i, v in enumerate(values):
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out[i] = total
    return out


def _correction_weights(gamma: float, kappa: float, omega: np.ndarray,
                        s0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The startup correction weights (w0, w1) at t_n = n kappa, from the
    partial sums s0 of omega: exact on constants, and for positive orders
    on linears (w1 = 0 for negative orders).  A function of its own, so
    that its temporaries are freed before CQScheme.build's second table."""
    t = kappa * np.arange(len(omega))
    if gamma < 0.0:
        return t ** -gamma / math.gamma(1.0 - gamma) - s0, np.zeros(len(omega))
    w1 = (t ** (1.0 - gamma) / math.gamma(2.0 - gamma)
          - (t * s0 - _kahan_cumsum(t * omega))) / kappa
    return -s0 - w1, w1


@dataclass(frozen=True, eq=False)
class CQScheme:
    """Immutable weight tables for a fixed (gamma, kappa, N); two schemes
    are equal only if they are the same object.

    omega are the convolution weights.  startup[corrected] is a read-only
    (N+1) x 2 table whose row n holds the startup weights (c0[n], c1[n])
    of the CQ sum at step n, sum omega_{n-j} g_j + c0[n] g_0 + c1[n] g_1:
    uncorrected (startup[False]) the Caputo shift (-chi sum omega_{0..n},
    0), chi = 1 for positive orders and 0 for negative ones; corrected
    (startup[True]) the correction weights (w0, w1).
    """

    gamma: float
    kappa: float
    N: int
    omega: np.ndarray
    startup: tuple[np.ndarray, np.ndarray] = field(repr=False)

    @classmethod
    def build(cls, gamma: float, kappa: float, N: int) -> "CQScheme":
        check_order(gamma)
        omega = bdf2_weights(gamma, kappa, N)
        s0 = _kahan_cumsum(omega)
        corrected = np.column_stack(_correction_weights(gamma, kappa, omega, s0))
        uncorrected = np.zeros((N + 1, 2))
        if gamma > 0.0:
            np.negative(s0, out=uncorrected[:, 0])
        for table in (omega, uncorrected, corrected):
            table.setflags(write=False)
        return cls(gamma=gamma, kappa=kappa, N=N, omega=omega,
                   startup=(uncorrected, corrected))

    def self_weight(self, n: int, corrected: bool) -> float:
        """Weight of values[n] in the CQ sum at step n: omega_0, plus c1[1]
        at n = 1, where values[1] is g_1."""
        weight = self.omega[0]
        if n == 1:
            weight += self.startup[corrected][1, 1]
        return weight

    def known_sum(self, values: np.ndarray, n: int, corrected: bool):
        """CQ sum at step n over values[0..n-1], without the values[n] term.

        That is sum omega_{n-j} g_j + c0[n] g_0 + c1[n] g_1 over j < n,
        with (c0[n], c1[n]) = startup[corrected][n]; at n = 1 the c1 term
        is part of self_weight.  Together with self_weight(n) * values[n]
        this is the whole sum; the solver keeps the two apart because
        values[n] holds its unknown.
        """
        c0, c1 = self.startup[corrected][n]
        out = self.omega[n:0:-1] @ values[:n] + c0 * values[0]
        if n >= 2:
            out = out + c1 * values[1]
        return out


FAR_STEPS = 64   # the block: exact lags below 2 * FAR_STEPS, older ones by the tail
RING_ROWS = FAR_STEPS   # block m overwrites the rows [m - FAR_STEPS, m) it reads
# The budget in floats (256 KB) of the time loop's per-block temporaries:
# CQHistory opens a block in panels of budget_rows(max(FAR_STEPS, Q))
# columns, and solver.run checks blocks of at most budget_rows(ndof) steps
BLOCK_FLOATS = 2**15


def budget_rows(width: int) -> int:
    """The rows of width floats that fit in BLOCK_FLOATS, at least one."""
    return max(1, BLOCK_FLOATS // width)


def tail_weights(gamma: float, kappa: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights W and log-rates log(lam) of the exponential sum
    omega_l ~ sum_q W_q lam_q**l for FAR_STEPS < l <= N.

    With y_l(z) the coefficients of 1/(delta(zeta) + z), for l >= 1
    omega_l = -kappa**-gamma (sin pi gamma / pi) int_0^inf z**gamma y_l(z) dz
    and y_l = (r+**(l+1) - r-**(l+1)) / sqrt(1 - 2z), where
    r+- = (2 +- sqrt(1 - 2z)) / (3 + 2z) are the reciprocal roots of
    delta + z.  For l > FAR_STEPS the r- share and the integral past
    z = 0.45 are below round-off of omega_l, so each node z_q gives one
    mode lam_q = r+(z_q).  The rule is 16-point Gauss-Jacobi (weight
    z**gamma) on [0, 4/N], then 12-point Gauss-Legendre on panels that
    grow by 3x up to z = 0.45, both from fraccalc.gauss_jacobi: Q = 100
    nodes at N = 8192, and omega_l to about 4e-13 relative for
    |gamma| <= 0.95 and N from 256 to 16384 (5.2e-12 at N = 131072,
    Q = 124).  N <= FAR_STEPS leaves no lag for the tail and raises
    ValueError.
    """
    if N <= FAR_STEPS:
        raise ValueError(f"no lag above FAR_STEPS = {FAR_STEPS} for N = {N}")
    # z = a (1 + x) / 2 on [0, a] takes the weight (1 + x)**gamma to z**gamma
    x, w = gauss_jacobi(16, 0.0, gamma)
    a = 4.0 / N
    nodes, weights = [a * (1.0 + x) / 2.0], [(a / 2.0) ** (gamma + 1.0) * w]
    # Gauss-Legendre on one panel [a, b] at a time
    x, w = gauss_jacobi(12, 0.0, 0.0)
    while a < 0.45:
        b = min(3.0 * a, 0.45)
        z = a + (b - a) * (1.0 + x) / 2.0
        nodes.append(z)
        weights.append((b - a) / 2.0 * w * z**gamma)
        a = b
    z, w = np.concatenate(nodes), np.concatenate(weights)
    s = np.sqrt(1.0 - 2.0 * z)
    # log r+ from r+ - 1 = -2z (2 + s) / ((1 + s)(3 + 2z)), exact near z = 0
    log_rates = np.log1p(-2.0 * z * (2.0 + s) / ((1.0 + s) * (3.0 + 2.0 * z)))
    scale = -kappa ** (-gamma) * math.sin(math.pi * gamma) / math.pi
    return scale * w * np.exp(log_rates) / s, log_rates


class _ExponentialTail:
    """The lags above FAR_STEPS of the CQ history sum, by the modes of
    tail_weights.  When block m (a multiple of FAR_STEPS) opens, the
    state holds s_q = sum lam_q**(m - j) values[j] over j < m - FAR_STEPS,
    and row m + r of the block gets sum_q W_q lam_q**r s_q."""

    def __init__(self, scheme: CQScheme, ncols: int) -> None:
        weights, log_rates = tail_weights(scheme.gamma, scheme.kappa, scheme.N)
        lags = np.arange(FAR_STEPS)
        self._decay = np.exp(FAR_STEPS * log_rates)[:, None]
        # row m - FAR_STEPS + c enters block m + FAR_STEPS's state by lam**(2 FAR_STEPS - c)
        self._fold = np.exp(np.outer(log_rates, 2 * FAR_STEPS - lags))
        self._expand = weights * np.exp(np.outer(lags, log_rates))
        self._state = np.zeros((len(weights), ncols))
        self.modes = len(weights)

    def advance(self, previous: np.ndarray, pending: np.ndarray, cols: slice) -> None:
        """Add the tail to the open block's pending rows, then move the
        state to the next block, folding in the rows `previous` before it;
        all three on the columns cols alone, which previous and pending
        already are."""
        state = self._state[:, cols]
        pending += self._expand[:len(pending)] @ state
        state *= self._decay
        state += self._fold @ previous


class CQHistory:
    """The CQ history sum of a time loop, O(N Q) work per column.

    Blocked convolution of Hairer, Lubich & Schlichte (SIAM J. Sci.
    Stat. Comput. 6, 1985), with its levels above FAR_STEPS steps
    replaced by a sum of exponentials, as in fast and oblivious CQ
    (Schaedle, Lopez-Fernandez & Lubich, SIAM J. Sci. Comput. 28, 2006).
    For a pair j < n with the step n in the block [m, m + FAR_STEPS):
    - j in the same block: the term omega_{n-j} values[j] is summed
      directly at step n;
    - j in [m - FAR_STEPS, m): at step m, one FAR_STEPS x FAR_STEPS
      Toeplitz product (lags 1 to 2 FAR_STEPS - 1, exact);
    - j < m - FAR_STEPS: at step m, the exponential tail of tail_weights
      (lags above FAR_STEPS, to about 1e-12 relative), which keeps one
      state row per mode: then the state decays by lam**FAR_STEPS and the
      rows [m - FAR_STEPS, m) fold in, each by one product.
    A run of at most 2 FAR_STEPS steps builds no tail, and its sum is
    exact up to round-off.

    The history has the rows 0..N-1 of a time loop of N = scheme.N
    steps: row 0 is slope0, and the caller calls known_sum(n), then
    record(row) with row n, for n = 1, ..., N - 1 in order.  corrected
    picks the startup table CQScheme.startup[corrected], read in place, for
    the whole loop; the caller weighs row n by CQScheme.self_weight.
    Its terms c0[n] values[0] + c1[n] values[1] join the pending rows of
    each block when it opens, so a step adds none of them itself, except
    step 1, which adds c0[1] values[0] (its c1 term is
    CQScheme.self_weight's).

    Oblivious: values is a ring of min(N, RING_ROWS) rows, RING_ROWS =
    FAR_STEPS, with row j in slot j % len(values), so no aligned block
    wraps.  Block m reads the rows [m - FAR_STEPS, m) when it opens, for
    its Toeplitz product and the tail's fold, and writes its pending sums
    over them; then its own rows, and rows 0 and 1, copied when the first
    block opens (n = 2).  The rows of the open block after row n are not
    recorded yet and hold their pending far-field sums.  The sum keeps
    nothing beyond values, one Toeplitz matrix, the Q x ndof tail state
    and the copy of rows 0 and 1.  A block opens in panels of at most
    budget_rows(max(FAR_STEPS, Q)) columns (512 up to Q = 64 modes), so
    that each of its products' temporaries, FAR_STEPS or Q rows by a
    panel, fits in BLOCK_FLOATS, whatever ndof.
    """

    def __init__(self, scheme: CQScheme, slope0: np.ndarray, corrected: bool) -> None:
        self.scheme = scheme
        self.values = np.zeros((min(scheme.N, RING_ROWS), len(slope0)))
        self.values[0] = slope0
        self._startup = scheme.startup[corrected]
        self._n = 0
        # omega_0..omega_{2 FAR_STEPS - 1}, zero-padded past omega_N, which
        # no row reaches
        omega = np.zeros(2 * FAR_STEPS)
        head = scheme.omega[:2 * FAR_STEPS]
        omega[:len(head)] = head
        # [omega_FAR_STEPS, ..., omega_1, 1]: its last r + 1 entries weigh
        # the rows n - r..n in known_sum
        self._near = np.append(omega[FAR_STEPS:0:-1], 1.0)
        # T[r, c] = omega[FAR_STEPS + r - c] takes row m - FAR_STEPS + c to row m + r
        lags = np.arange(FAR_STEPS)
        self._kernel = omega[FAR_STEPS + lags[:, None] - lags]
        self.tail = (_ExponentialTail(scheme, len(slope0))
                     if scheme.N > 2 * FAR_STEPS else None)

    def known_sum(self, n: int):
        """CQScheme.known_sum at step n of the rows 0..n-1 recorded so far,
        without its O(n) sum."""
        if n >= self.scheme.N:
            raise ValueError(f"no history sum at step {n}: the last is step"
                             f" {self.scheme.N - 1} of a run of N = {self.scheme.N} steps")
        if n != self._n + 1:
            raise ValueError(f"history sums go in step order: expected {self._n + 1}, got {n}")
        self._n = n
        start = n - n % FAR_STEPS
        if start == n or n == 2:
            self._open_block(n, start + FAR_STEPS)
        # the near field and the pending row n in one product
        slot = start % len(self.values)
        out = np.dot(self._near[start + FAR_STEPS - n:],
                     self.values[slot:slot + n - start + 1])
        if n == 1:
            return out + self._startup[1, 0] * self.values[0]
        return out

    def record(self, row: np.ndarray) -> None:
        """Write row n of the last known_sum(n) to its slot."""
        self.values[self._n % len(self.values)] = row

    def _rows_of(self, lo: int, hi: int) -> np.ndarray:
        """The slots of the rows [lo, hi), which no aligned block wraps."""
        slot = lo % len(self.values)
        return self.values[slot:slot + hi - lo]

    def _open_block(self, lo: int, hi: int) -> None:
        """Set the pending rows [lo, hi) up to the last row: at a block
        start lo, the previous block by one Toeplitz product and the older
        rows by the tail, written over the previous block once the tail has
        folded it in; then the startup terms c0[n] values[0] + c1[n]
        values[1], by one (rows x 2) x (2 x ndof) product.  Each runs on
        one panel of columns at a time."""
        if lo == 2:   # the ring overwrites rows 0 and 1 at steps RING_ROWS and RING_ROWS + 1
            self._first = self.values[:2].copy()
        hi = min(hi, self.scheme.N)
        pending = self._rows_of(lo, hi)   # at lo = 2 still the zeros of the new ring
        startup = self._startup[lo:hi]
        # the Toeplitz product has FAR_STEPS rows, the tail's fold Q
        width = budget_rows(FAR_STEPS if self.tail is None
                            else max(FAR_STEPS, self.tail.modes))
        for start in range(0, pending.shape[1], width):
            cols = slice(start, start + width)
            if lo % FAR_STEPS == 0:
                previous = self._rows_of(lo - FAR_STEPS, lo)[:, cols]
                sums = self._kernel[:hi - lo] @ previous
                if self.tail is not None:
                    self.tail.advance(previous, sums, cols)
                pending[:, cols] = sums
            pending[:, cols] += startup @ self._first[:, cols]


def _cq_sum(scheme: CQScheme, g: np.ndarray, n: int, corrected: bool):
    if n > scheme.N:
        raise IndexError(f"step {n} exceeds scheme length {scheme.N}")
    if n >= len(g):
        raise IndexError(f"step {n} exceeds available history {len(g)}")
    return scheme.known_sum(g, n, corrected) + scheme.self_weight(n, corrected) * g[n]


def apply_cq(scheme: CQScheme, g: np.ndarray, n: int):
    """Caputo-shifted CQ sum at step n: sum omega_{n-j} (g_j - chi g_0).

    g holds the samples g(t_j), with shape (steps,) or (steps, dim).
    """
    return _cq_sum(scheme, g, n, corrected=False)


def apply_cq_corrected(scheme: CQScheme, g: np.ndarray, n: int):
    """Corrected CQ sum at step n: sum omega_{n-j} g_j + w0[n] g_0 + w1[n] g_1."""
    if scheme.gamma > 0.0 and n < 1:
        raise IndexError("corrected CQ for positive order needs g(t_1)")
    return _cq_sum(scheme, g, n, corrected=True)


def central_diff_sequence(g: np.ndarray, kappa: float, n: int, slope0) -> np.ndarray:
    """Central differences (g_{j+1} - g_{j-1})/(2 kappa) for steps 0..n
    (needs g up to n+1), with the exact slope slope0 at step 0."""
    if n < 0:
        raise IndexError(f"negative step {n}")
    if n > 0 and n + 1 >= len(g):
        raise IndexError(f"central difference at {n} needs sample {n + 1}")
    out = np.empty((n + 1,) + g.shape[1:])
    out[0] = slope0
    out[1:] = (g[2:n + 2] - g[:n]) / (2.0 * kappa)
    return out


def mixed_operator(scheme: CQScheme, g: np.ndarray, n: int, slope0,
                   corrected: bool = False):
    """CQ of order gamma applied to central differences of g at step n.

    Approximates the derivative of order gamma+1; requires g known up to
    index n+1 and its slope slope0 at t=0.
    """
    h = central_diff_sequence(g, scheme.kappa, n, slope0)
    if corrected:
        return apply_cq_corrected(scheme, h, n)
    return apply_cq(scheme, h, n)
