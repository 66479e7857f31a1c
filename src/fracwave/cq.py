"""BDF2 convolution quadrature for fractional derivatives.

Weight generation from the generating function (delta(zeta)/kappa)^gamma
with delta(zeta) = 3/2 - 2 zeta + zeta^2/2, the Caputo shift for positive
orders, startup correction weights exact on constants (and linears for
positive orders), the CQ history sum (direct, and blocked for the time
loop: short blocks by dense Toeplitz product, long ones by FFT), the
central difference operator, and the mixed operator approximating
d_t^(gamma+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as gamma_fn

from fracwave.fraccalc import check_order


def bdf2_weights(gamma: float, kappa: float, N: int) -> np.ndarray:
    """First N+1 Taylor coefficients of (delta(zeta)/kappa)^gamma.

    Uses the factorization delta(zeta) = (3/2)(1 - zeta)(1 - zeta/3):
    two binomial series with the stable recurrence
    c_j = c_{j-1} (j-1-gamma)/j, one discrete convolution, and the scale
    (3/(2 kappa))^gamma.  O(N^2) work, no FFT aliasing.
    """
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    c = np.empty(N + 1)
    c[0] = 1.0
    for j in range(1, N + 1):
        c[j] = c[j - 1] * (j - 1 - gamma) / j
    d = c * (1.0 / 3.0) ** np.arange(N + 1)
    omega = np.convolve(c, d)[: N + 1]
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


@dataclass(frozen=True)
class CQScheme:
    """Immutable weight tables for a fixed (gamma, kappa, N).

    omega are the convolution weights, omega_cumsum their compensated
    partial sums, w0/w1 the startup correction weights evaluated at t_n,
    chi the Caputo shift indicator (1 for positive orders).
    """

    gamma: float
    kappa: float
    N: int
    omega: np.ndarray
    w0: np.ndarray
    w1: np.ndarray
    chi: int
    omega_cumsum: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, gamma: float, kappa: float, N: int) -> "CQScheme":
        check_order(gamma)
        omega = bdf2_weights(gamma, kappa, N)
        t = kappa * np.arange(N + 1)
        s0 = _kahan_cumsum(omega)
        w1 = np.zeros(N + 1)
        if gamma < 0.0:
            chi = 0
            w0 = np.empty(N + 1)
            w0[0] = -s0[0]
            w0[1:] = t[1:] ** (-gamma) / gamma_fn(1.0 - gamma) - s0[1:]
        else:
            chi = 1
            s1 = _kahan_cumsum(t * omega)
            w1[1:] = (
                t[1:] ** (1.0 - gamma) / gamma_fn(2.0 - gamma)
                - (t[1:] * s0[1:] - s1[1:])
            ) / kappa
            w0 = -s0 - w1
        for arr in (omega, w0, w1, s0):
            arr.setflags(write=False)
        return cls(gamma=gamma, kappa=kappa, N=N, omega=omega, w0=w0, w1=w1,
                   chi=chi, omega_cumsum=s0)

    def self_weight(self, n: int, corrected: bool) -> float:
        """Weight of values[n] in the CQ sum at step n."""
        weight = self.omega[0]
        if corrected and n == 1:
            weight += self.w1[1]
        return weight

    def known_sum(self, values: np.ndarray, n: int, corrected: bool):
        """CQ sum at step n over values[0..n-1], without the values[n] term.

        Uncorrected: sum omega_{n-j} (g_j - chi g_0); corrected: sum
        omega_{n-j} g_j + w0[n] g_0 + w1[n] g_1, where the constant shift
        for positive orders is contained in w0.  Together with
        self_weight(n) * values[n] this is the whole sum; the solver
        keeps the two apart because values[n] holds its unknown.
        """
        out = self.omega[n:0:-1] @ values[:n]
        return self.add_startup(out, values, n, corrected)

    def add_startup(self, out, values: np.ndarray, n: int, corrected: bool):
        """out plus the terms of known_sum beyond sum omega_{n-j} values[j]:
        w0[n] g_0 + w1[n] g_1 (corrected) or -chi sum(omega[:n+1]) g_0."""
        if corrected:
            out = out + self.w0[n] * values[0]
            if n >= 2 and self.w1[n] != 0.0:
                out = out + self.w1[n] * values[1]
        elif self.chi:
            out = out - self.omega_cumsum[n] * values[0]
        return out


NEAR_BITS = 5          # near field: aligned blocks of 2**5 = 32 steps
DIRECT_SIZE = 256      # far-field blocks up to this size by dense product, not FFT
FFT_WORKSPACE = 2**15  # float64 entries per column slice of one transform


class CQHistory:
    """The CQ history sum of a time loop, O(N log^2 N) work per column.

    Blocked convolution of Hairer, Lubich & Schlichte (SIAM J. Sci.
    Stat. Comput. 6, 1985), exact up to round-off.  For a pair j < n
    let k be the highest bit in which j and n differ.  If k < NEAR_BITS,
    j and n share an aligned block of 2**NEAR_BITS steps and
    omega_{n-j} values[j] is summed directly at step n.  Otherwise, with
    m = n with its k low bits cleared, j lies in [m - 2**k, m) and n in
    [m, m + 2**k): when step m is reached (k = ctz(m)), that block of
    values is convolved once with omega[:2**(k+1)], and the results are
    added to the rows [m, m + 2**k) of values.  Blocks of at most
    DIRECT_SIZE steps take a dense Toeplitz product, which is faster than
    the FFT at those sizes; longer ones take a real FFT, in column slices
    of at most FFT_WORKSPACE entries.  The rows [m, m + 2**k) are not
    written yet: row n holds its pending far-field sum until the caller
    overwrites it with values[n], so the history needs no memory beyond
    values and one Toeplitz matrix or spectrum per block size.

    values has one row per step (1-D for scalar sequences) and rows
    beyond the written ones must start at zero; known_sum is called for
    n = 1, 2, ... in order, after rows 0..n-1 are written and before row
    n is.  corrected chooses the startup terms of CQScheme.known_sum
    once for the whole loop.  Those terms, multiples of values[0] and
    values[1], join the pending rows of each aligned block of
    2**NEAR_BITS steps when the block opens (the first block at n = 2,
    once values[1] is written), so a step adds none of them itself.
    """

    def __init__(self, scheme: CQScheme, values: np.ndarray, corrected: bool) -> None:
        if len(values) > scheme.N + 1:
            raise ValueError(f"{len(values)} history rows exceed scheme length {scheme.N}")
        self.scheme = scheme
        self.values = values
        self.corrected = corrected
        self._columns = values if values.ndim == 2 else values[:, None]
        self._n = 0
        self._kernels: dict[int, np.ndarray] = {}   # per block size

    def self_weight(self, n: int) -> float:
        """CQScheme.self_weight(n, corrected)."""
        return self.scheme.self_weight(n, self.corrected)

    def known_sum(self, n: int):
        """CQScheme.known_sum(values, n, corrected), without its O(n) sum."""
        if n != self._n + 1:
            raise ValueError(f"history sums go in step order: expected {self._n + 1}, got {n}")
        self._n = n
        start = n >> NEAR_BITS << NEAR_BITS
        if start == n:
            self._far_field(n)
        if start == n or n == 2:
            self._add_startup(n, start + (1 << NEAR_BITS))
        near = self.scheme.omega[n - start:0:-1] @ self.values[start:n]
        if n == 1:
            return self.scheme.add_startup(self.values[1] + near, self.values, 1,
                                           self.corrected)
        return self.values[n] + near

    def _add_startup(self, lo: int, hi: int) -> None:
        """Add the startup terms of CQScheme.known_sum at the steps
        [lo, hi) to their pending rows, one block product per term."""
        s = self.scheme
        rows = slice(lo, min(hi, len(self.values)))
        cols = self._columns
        if self.corrected:
            cols[rows] += s.w0[rows, None] * cols[0]
            if s.chi:
                cols[rows] += s.w1[rows, None] * cols[1]
        elif s.chi:
            cols[rows] -= s.omega_cumsum[rows, None] * cols[0]

    def _far_field(self, m: int) -> None:
        """Add the block ending at step m to the pending rows after it."""
        size = m & -m
        count = min(size, len(self.values) - m)
        if size not in self._kernels:
            self._kernels[size] = self._kernel(size)
        kernel = self._kernels[size]
        cols = self._columns
        if size <= DIRECT_SIZE:
            cols[m:m + count] += kernel[:count] @ cols[m - size:m]
            return
        width = max(1, FFT_WORKSPACE // (2 * size))
        for c in range(0, cols.shape[1], width):
            block = np.fft.rfft(cols[m - size:m, c:c + width], 2 * size, axis=0)
            conv = np.fft.irfft(block * kernel, 2 * size, axis=0)
            cols[m:m + count, c:c + width] += conv[size:size + count]

    def _kernel(self, size: int) -> np.ndarray:
        """The Toeplitz matrix (size <= DIRECT_SIZE) or the spectrum of
        omega[:2 size] that _far_field applies to a block of that size."""
        # zero-padded past omega_N, which no row of values reaches
        omega = np.zeros(2 * size)
        head = self.scheme.omega[:2 * size]
        omega[:len(head)] = head
        if size <= DIRECT_SIZE:
            # T[r, c] = omega[size + r - c] takes row m - size + c to row m + r
            return omega[size + np.arange(size)[:, None] - np.arange(size)]
        return np.fft.rfft(omega)[:, None]


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
