"""BDF2 convolution quadrature for fractional derivatives.

Weight generation from the generating function (delta(zeta)/kappa)^gamma
with delta(zeta) = 3/2 - 2 zeta + zeta^2/2, the Caputo shift for positive
orders, startup correction weights exact on constants (and linears for
positive orders), the central difference operator, and the mixed
operator approximating d_t^(gamma+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as gamma_fn


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

    omega are the convolution weights, w0/w1 the startup correction
    weights evaluated at t_n, chi the Caputo shift indicator (1 for
    positive orders).
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
        if not (-1.0 < gamma < 1.0) or gamma == 0.0:
            raise ValueError(f"order must lie in (-1,1) excluding 0, got {gamma}")
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
        cumsum = np.cumsum(omega)
        for arr in (omega, w0, w1, cumsum):
            arr.setflags(write=False)
        return cls(gamma=gamma, kappa=kappa, N=N, omega=omega, w0=w0, w1=w1,
                   chi=chi, omega_cumsum=cumsum)

    @property
    def times(self) -> np.ndarray:
        return self.kappa * np.arange(self.N + 1)

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
        out = np.tensordot(self.omega[n:0:-1], values[:n], axes=(0, 0))
        if corrected:
            out = out + self.w0[n] * values[0]
            if n >= 2 and self.w1[n] != 0.0:
                out = out + self.w1[n] * values[1]
        elif self.chi:
            out = out - self.omega_cumsum[n] * values[0]
        return out


@dataclass
class Sequence:
    """Time-indexed samples, scalar- or vector-valued, with optional t=0 slope.

    values has shape (steps,) or (steps, dim); t0_derivative is needed by
    the central-difference extension at n = 0.
    """

    values: np.ndarray
    t0_derivative: np.ndarray | float | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)

    def __len__(self) -> int:
        return self.values.shape[0]


def _cq_sum(scheme: CQScheme, g: Sequence, n: int, corrected: bool):
    if n > scheme.N:
        raise IndexError(f"step {n} exceeds scheme length {scheme.N}")
    if n >= len(g):
        raise IndexError(f"step {n} exceeds available history {len(g)}")
    return (scheme.known_sum(g.values, n, corrected)
            + scheme.self_weight(n, corrected) * g.values[n])


def apply_cq(scheme: CQScheme, g: Sequence, n: int):
    """Caputo-shifted CQ sum at step n: sum omega_{n-j} (g_j - chi g_0)."""
    return _cq_sum(scheme, g, n, corrected=False)


def apply_cq_corrected(scheme: CQScheme, g: Sequence, n: int):
    """Corrected CQ sum at step n: sum omega_{n-j} g_j + w0[n] g_0 + w1[n] g_1."""
    if scheme.gamma > 0.0 and n < 1:
        raise IndexError("corrected CQ for positive order needs g(t_1)")
    return _cq_sum(scheme, g, n, corrected=True)


def central_diff(g: Sequence, kappa: float, n: int):
    """Symmetric difference (g_{n+1} - g_{n-1})/(2 kappa); exact slope at n=0."""
    if n < 0:
        raise IndexError(f"negative step {n}")
    if n == 0:
        if g.t0_derivative is None:
            raise ValueError("central difference at n=0 needs t0_derivative")
        return np.asarray(g.t0_derivative, dtype=float) + 0.0
    if n + 1 >= len(g):
        raise IndexError(f"central difference at {n} needs sample {n + 1}")
    return (g.values[n + 1] - g.values[n - 1]) / (2.0 * kappa)


def central_diff_sequence(g: Sequence, kappa: float, n: int) -> Sequence:
    """Sequence of central differences for steps 0..n (needs g up to n+1)."""
    vals = [central_diff(g, kappa, j) for j in range(n + 1)]
    return Sequence(values=np.stack([np.asarray(v, dtype=float) for v in vals]))


def mixed_operator(scheme: CQScheme, g: Sequence, n: int, corrected: bool = False):
    """CQ of order gamma applied to central differences of g at step n.

    Approximates the derivative of order gamma+1; requires g known up to
    index n+1 and a supplied slope at t=0.
    """
    h = central_diff_sequence(g, scheme.kappa, n)
    if corrected:
        return apply_cq_corrected(scheme, h, n)
    return apply_cq(scheme, h, n)
