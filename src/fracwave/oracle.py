"""Scalar reference solutions via a weakly singular Volterra equation.

For a single spatial mode the model reduces to an ODE whose second
derivative v = u'' solves a linear Volterra equation of the second kind
with kernel lam*(t-tau) + a_gamma*(t-tau)^(-gamma)/Gamma(1-gamma).  The
solver uses product integration: v is approximated piecewise linearly
and the kernel is integrated exactly against the linear basis, which
handles the non-integrable-by-Gauss singularity at tau = t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fracwave.fraccalc import check_order

# Grid indices (first, last) of the startup-exponent fit.
FIT_WINDOW = (4, 64)


@dataclass(frozen=True)
class VolterraProblem:
    """Mode ODE u'' + lam u + a_gamma * d_t^(gamma+1) u = f as a Volterra
    equation for v = u''.

    For gamma < 0 the fractional term applied to the linear part of u
    produces a t^(-gamma) forcing with coefficient -a_gamma*v0/Gamma(1-gamma),
    evaluated analytically (never sampled at t = 0).
    """

    gamma: float
    a_gamma: float
    lam: float
    u0: float
    v0: float
    f: Callable[[float], float] | None = None

    def __post_init__(self) -> None:
        check_order(self.gamma)
        for name in ("lam", "u0", "v0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    def forcing(self, t: float) -> float:
        """g(t) = f(t) - lam*(u0 + t v0) minus the singular gamma<0 term."""
        g = -self.lam * (self.u0 + t * self.v0)
        if self.f is not None:
            g += self.f(t)
        if self.gamma < 0.0 and self.v0 != 0.0 and t > 0.0:
            g -= (
                self.a_gamma
                * self.v0
                * t ** (-self.gamma)
                / math.gamma(1.0 - self.gamma)
            )
        return g

    def v_at_zero(self) -> float:
        """v(0) = f(0) - lam*u0, the limit fixed by the equation."""
        f0 = self.f(0.0) if self.f is not None else 0.0
        return f0 - self.lam * self.u0


class _ProductWeights:
    """Lag-indexed product-trapezoid weights for the kernel s^p.

    With v piecewise linear, the weight at lag l = n-i on v_i depends
    only on l for 1 <= i <= n-1, so the interior table is shared by all
    steps: interior[l-1] = mu0(l) - mu1(l)/delta + mu1(l+1)/delta.  The
    endpoint weights are w_n = mu1(1)/delta = w_last and w_0 = mu0(n) -
    mu1(n)/delta = first[n-1].
    """

    def __init__(self, p: float, delta: float, M: int) -> None:
        m = np.arange(1, M + 2, dtype=float)
        A = m * delta
        B = (m - 1.0) * delta
        i0 = (A ** (p + 1.0) - B ** (p + 1.0)) / (p + 1.0)
        i1 = A * i0 - (A ** (p + 2.0) - B ** (p + 2.0)) / (p + 2.0)
        self.first = i0[:-1] - i1[:-1] / delta
        self.interior = i0[:-1] - i1[:-1] / delta + i1[1:] / delta
        self.w_last = i1[0] / delta


@dataclass
class VolterraSolution:
    times: np.ndarray
    v: np.ndarray
    u: np.ndarray


def solve_volterra(problem: VolterraProblem, T: float, M: int) -> VolterraSolution:
    """Product-integration solution of the mode equation on M uniform steps.

    Each step solves the implicit scalar equation arising from the
    self-weight of the singular kernel; u is recovered from v with the
    p = 1 product weights of the same piecewise linear reconstruction.
    """
    if M < 2:
        raise ValueError(f"need at least 2 steps, got {M}")
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    delta = T / M
    gam = problem.gamma
    sing_coef = problem.a_gamma / math.gamma(1.0 - gam)
    lin = _ProductWeights(1.0, delta, M)
    sing = _ProductWeights(-gam, delta, M)
    lam = problem.lam
    # weights of v_0, of v_n and, in lag tables reversed once per solve,
    # of v_1..v_{n-1}: at step n these are the last n - 1 entries
    first = lam * lin.first + sing_coef * sing.first
    last = lam * lin.w_last + sing_coef * sing.w_last
    kernel = (lam * lin.interior + sing_coef * sing.interior)[::-1]
    linear = lin.interior[::-1]
    times = delta * np.arange(M + 1)
    v = np.empty(M + 1)
    v[0] = problem.v_at_zero()
    u = np.empty(M + 1)
    u[0] = problem.u0
    for n in range(1, M + 1):
        lags = slice(M - n + 1, M)
        known = first[n - 1] * v[0] + float(np.dot(kernel[lags], v[1:n]))
        v[n] = (problem.forcing(times[n]) - known) / (1.0 + last)
        u[n] = (problem.u0 + times[n] * problem.v0 + lin.first[n - 1] * v[0]
                + float(np.dot(linear[lags], v[1:n])) + lin.w_last * v[n])
    return VolterraSolution(times=times, v=v, u=u)


def asymptotic_check(problem: VolterraProblem, T: float, M: int) -> float:
    """Fitted singular exponent of v - (f - lam*u0) near t = 0, with f = 0
    when problem.f is None.

    The expansion of v has leading residual t^(1-gamma) for positive
    orders and t^(-gamma) (when v0 != 0) for negative ones; the exponent
    is fitted by least squares on log residuals over the grid indices
    FIT_WINDOW.
    """
    lo, hi = FIT_WINDOW
    if hi >= M:
        raise ValueError(f"fit window {FIT_WINDOW} exceeds grid length {M}")
    # the first hi steps of the M-step grid: v_n depends on v_0..v_{n-1}
    # alone, and hi is a power of two, so (hi * (T / M)) / hi is the step
    # T / M bit for bit and v[:hi + 1] is the full solve's
    sol = solve_volterra(problem, hi * (T / M), hi)
    idx = np.arange(lo, hi + 1)
    f = problem.f or (lambda t: 0.0)
    mags = np.abs([sol.v[i] - (f(sol.times[i]) - problem.lam * problem.u0) for i in idx])
    if np.any(mags == 0.0):
        raise RuntimeError("zero residual in fit window; exponent undefined")
    slope = np.polyfit(np.log(sol.times[idx]), np.log(mags), 1)[0]
    return float(slope)
