"""Closed-form fractional calculus of monomials and related constants.

Everything here is analytic: the damping coefficient of the model, the
Riemann-Liouville integral and Caputo derivative of t^mu and of a
finite sum of monomials (the time factor of the nonsmooth manufactured
solution), and the pair of positivity constants compared in the damping
analysis.  Riemann-Liouville integrals of smooth functions are evaluated
on whole time grids, in blocks of times, by Gauss-Jacobi quadrature;
tanh-sinh quadrature of the defining integral (Takahasi & Mori, Publ.
RIMS 9, 1974), written with math alone, is kept as the independent
cross-check for both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

# Nodes of the Gauss-Jacobi rule for Riemann-Liouville integrals of
# smooth functions; the rule is exact on polynomials of degree 95.
GAUSS_JACOBI_NODES = 48

# Times per block of rl_integral_gauss_jacobi, which holds one block's
# (times x nodes) grid at a time.  By tracemalloc, the smooth1d source on
# the 16385 step times of kappa = 1/16384 peaked 25.4 MB above entry as
# one grid, 0.66 MB in blocks of 256 (1.06 MB at 512, 1.86 MB at 1024),
# and took 15-24 ms against 33 ms.  A scalar t costs one block, 0.15 ms.
GAUSS_JACOBI_BLOCK = 256

# Tanh-sinh oracle: the agreement of two successive levels that ends the
# halving of the step, relative to the integral of the integrand's
# magnitude, and the fewest and the most halvings.
_TANH_SINH_TOL = 1e-14
_TANH_SINH_MIN_LEVEL = 3
_TANH_SINH_MAX_LEVEL = 9


def check_order(gamma: float) -> None:
    """Raise ValueError unless the order gamma lies in (-1,1) excluding 0."""
    if not (-1.0 < gamma < 1.0) or gamma == 0.0:
        raise ValueError(f"fractional order must lie in (-1,1) excluding 0, got {gamma}")


def a_gamma(gamma: float, alpha0: float) -> float:
    """Damping coefficient of the attenuation model.

    a_gamma = -alpha0 * (4/pi) * Gamma(-gamma-1) * Gamma(gamma+2)
              * cos((gamma+1) pi / 2),
    strictly positive on (-1,1) excluding 0 and divergent at the endpoints.
    The Gamma factor at the negative non-integer argument -gamma-1 is
    evaluated by math.gamma, which reflects negative arguments, avoiding
    the cancellation of a naive pole-adjacent evaluation.
    """
    check_order(gamma)
    if not 0.0 < alpha0 < math.inf:
        raise ValueError(f"alpha0 must be positive and finite, got {alpha0}")
    value = (
        -alpha0
        * (4.0 / math.pi)
        * math.gamma(-gamma - 1.0)
        * math.gamma(gamma + 2.0)
        * math.cos((gamma + 1.0) * math.pi / 2.0)
    )
    return value


@dataclass(frozen=True)
class FracParams:
    """Fractional configuration of the model: order, media constant, damping."""

    gamma: float
    alpha0: float = 1.0
    a_gamma: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_gamma", a_gamma(self.gamma, self.alpha0))


def _gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b), stable for large positive arguments.

    0 at b = 0, where 1/Gamma vanishes: caputo_monomial(gamma, gamma - 1, t)
    reaches that pole.
    """
    if a > 0.0 and b > 0.0:
        return math.exp(math.lgamma(a) - math.lgamma(b))
    if b == 0.0:
        return 0.0
    return math.gamma(a) / math.gamma(b)


def rl_integral_monomial(beta: float, mu: float, t: float) -> float:
    """Riemann-Liouville integral of order beta of t^mu.

    I^beta t^mu = Gamma(mu+1)/Gamma(mu+beta+1) * t^(beta+mu).
    """
    if beta <= 0.0:
        raise ValueError(f"integral order must be positive, got {beta}")
    if mu <= -1.0:
        raise ValueError(f"monomial exponent must exceed -1, got {mu}")
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return 0.0
    return _gamma_ratio(mu + 1.0, mu + beta + 1.0) * t ** (beta + mu)


def caputo_monomial(gamma: float, mu: float, t: float) -> float:
    """Caputo derivative of order gamma of t^mu.

    For gamma < 0 this is the Riemann-Liouville integral of order -gamma.
    For gamma > 0 the closed form is 0 when gamma > mu with mu a
    nonnegative integer, else Gamma(mu+1)/Gamma(mu+1-gamma) * t^(mu-gamma).
    Orders in (1,2) are admitted; they arise as gamma+1 in the model.
    """
    if gamma == 0.0:
        raise ValueError("order 0 is excluded")
    if gamma < 0.0:
        return rl_integral_monomial(-gamma, mu, t)
    if mu < 0.0:
        raise ValueError(f"mu must be nonnegative for positive order, got {mu}")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if gamma > mu and mu == round(mu):
        return 0.0
    return _gamma_ratio(mu + 1.0, mu + 1.0 - gamma) * t ** (mu - gamma)


def caputo_series(terms, gamma: float, t):
    """Caputo derivative of order gamma of a finite sum of monomials.

    terms is a sequence of (mu, c) pairs for the sum of c t^mu; t is a
    time or an array of times.  Returns the sum of
    c * caputo_monomial(gamma, mu, 1) * t^(mu-gamma), added in the given
    order.  Terms whose factor c * caputo_monomial(gamma, mu, 1) is 0 (a
    zero coefficient, or a monomial the derivative annihilates) are
    skipped, so no negative power of t is formed for them.
    """
    total = 0.0
    for mu, c in terms:
        k = c * caputo_monomial(gamma, mu, 1.0)
        if k != 0.0:
            total = total + k * t ** (mu - gamma)
    return total


def rl_integral_quadrature(f, beta: float, t: float) -> float:
    """Riemann-Liouville integral of a general function by tanh-sinh
    quadrature of the defining integral.

    The double-exponential rule of Takahasi & Mori (Publ. RIMS 9, 1974):
    with tau = t u and u = 1/(1 + exp(-pi sinh s)),
    I^beta f(t) = t^beta / Gamma(beta) * int pi cosh(s) u (1-u)^beta f(t u) ds
    over the real line, where the endpoint singularity (1-u)^(beta-1) is
    absorbed into (1-u)^beta and the integrand decays double-exponentially.
    The trapezoidal rule is truncated at |s| = asinh(40 / (pi min(beta, 1)))
    and its step halved from 1, each level adding only the odd nodes,
    until two successive levels agree to 1e-14 of the integral of the
    integrand's absolute value (after at least 3 halvings).  f is called
    on scalars.  It works on a different principle from the Gauss-Jacobi
    rule of rl_integral_gauss_jacobi, so it serves as the independent
    oracle for that rule and for the closed-form monomial results.

    Raises RuntimeError, naming beta, t and the last two estimates, when
    the sum is not finite or 9 halvings do not converge (a discontinuity
    or a kink in f, or oscillation the finest step does not resolve).
    """
    if beta <= 0.0:
        raise ValueError(f"integral order must be positive, got {beta}")
    if t == 0.0:
        return 0.0

    def pair(s: float) -> tuple[float, float]:
        # the integrand at s and at -s, and the sum of their magnitudes;
        # u and 1-u are 1/(1+e) and e/(1+e) at s, swapped at -s, all from
        # e = exp(-pi sinh s) without cancellation, and (1-u)^beta from
        # its logarithm, which does not underflow
        q = math.pi * math.sinh(s)
        e = math.exp(-q)
        log1pe = math.log1p(e)
        w = math.pi * math.cosh(s) / (1.0 + e)
        right = w * math.exp(-beta * (q + log1pe)) * f(t / (1.0 + e))
        left = w * e * math.exp(-beta * log1pe) * f(t * e / (1.0 + e))
        return right + left, abs(right) + abs(left)

    scale = t**beta / math.gamma(beta)
    s_max = math.asinh(40.0 / (math.pi * min(beta, 1.0)))
    value, magnitude = pair(0.0)
    total, size = 0.5 * value, 0.5 * magnitude      # s = 0 counted once
    estimate = math.nan
    for level in range(_TANH_SINH_MAX_LEVEL + 1):
        # step 1 takes every node; each halving adds the odd multiples of h
        h = 0.5**level
        for k in range(1, int(s_max / h) + 1, 2 if level else 1):
            value, magnitude = pair(k * h)
            total += value
            size += magnitude
        previous, estimate = estimate, h * total
        if not math.isfinite(estimate):
            break
        if level >= _TANH_SINH_MIN_LEVEL and abs(estimate - previous) <= _TANH_SINH_TOL * h * size:
            return float(scale * estimate)
    reason = ("gave a non-finite sum" if not math.isfinite(estimate)
              else f"did not converge in {_TANH_SINH_MAX_LEVEL} halvings")
    raise RuntimeError(
        f"tanh-sinh quadrature of order beta = {beta:g} at t = {t:g} {reason}; "
        f"last two estimates {scale * previous!r}, {scale * estimate!r}")


@functools.lru_cache(maxsize=32)
def gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x on [-1, 1] and weights of the n-point Gauss rule for the
    weight (1-x)^a (1+x)^b, a, b > -1; exact on polynomials of degree 2n-1.

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues
    of the Jacobi matrix of the Jacobi polynomials P^(a,b), and each
    weight is the squared first component of its unit eigenvector times
    the weight's mass 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2).
    (scipy's roots_jacobi recomputes the weights from polynomial values
    instead, which costs up to 1e-12 relative on the moments at a = -3/4.)
    Cached per (n, a, b), as read-only arrays.
    """
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + a + b
    diag = np.concatenate([[(b - a) / (a + b + 2.0)], (b * b - a * a) / (s * (s + 2.0))])
    off = 2.0 / s * np.sqrt(k * (k + a) * (k + b) * (k + a + b) / ((s + 1.0) * (s - 1.0)))
    x, vectors = eigh_tridiagonal(diag, off)
    mass = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0)
    w = mass / math.gamma(a + b + 2.0) * vectors[0] ** 2
    x.flags.writeable = w.flags.writeable = False
    return x, w


def rl_integral_gauss_jacobi(g, beta: float, t):
    """Riemann-Liouville integral of order beta of a smooth g at every t.

    I^beta g(t) = t^beta / Gamma(beta) * int_0^1 (1-u)^(beta-1) g(t u) du,
    by the GAUSS_JACOBI_NODES-point Gauss-Jacobi rule for the weight
    (1-u)^(beta-1).  g must accept arrays; t may be a scalar or an array
    of times.  One call covers a whole time grid, evaluated in blocks of
    GAUSS_JACOBI_BLOCK times, so no more than one block's (times x nodes)
    grid is held at once.  The last block is padded with t = 0, so every
    time is reduced by the same fixed-shape product: a time's value does
    not depend on the grid it comes in, and equals its value at a scalar
    t bit for bit.  Accurate to round-off while g is well resolved by
    polynomials of degree 2 * GAUSS_JACOBI_NODES - 1 on [0, max t]; the
    independent check is rl_integral_quadrature.
    """
    if beta <= 0.0:
        raise ValueError(f"integral order must be positive, got {beta}")
    x, w = gauss_jacobi(GAUSS_JACOBI_NODES, beta - 1.0, 0.0)
    # u = (1 + x) / 2, and (1-x)^(beta-1) dx = 2^beta (1-u)^(beta-1) du
    u, w = 0.5 * (1.0 + x), w * 2.0**-beta
    t = np.asarray(t, dtype=float)
    times = t.ravel()
    values = np.empty(times.size)
    block = np.empty(GAUSS_JACOBI_BLOCK)
    for lo in range(0, times.size, GAUSS_JACOBI_BLOCK):
        part = times[lo:lo + GAUSS_JACOBI_BLOCK]
        block[:part.size], block[part.size:] = part, 0.0
        integral = block**beta / math.gamma(beta) * (g(block[:, None] * u) @ w)
        values[lo:lo + part.size] = integral[:part.size]
    return values.reshape(t.shape)[()]     # a scalar for a scalar t


def caputo_quadrature(gamma: float, t: float, df=None, d2f=None) -> float:
    """Caputo derivative by quadrature of the defining integral.

    The classical derivative of the appropriate order must be supplied:
    df for orders in (0,1), d2f for orders in (1,2).
    """
    if 0.0 < gamma < 1.0:
        if df is None:
            raise ValueError("df required for order in (0,1)")
        return rl_integral_quadrature(df, 1.0 - gamma, t)
    if 1.0 < gamma < 2.0:
        if d2f is None:
            raise ValueError("d2f required for order in (1,2)")
        return rl_integral_quadrature(d2f, 2.0 - gamma, t)
    raise ValueError(f"unsupported order {gamma}")


def positivity_constants(gamma: float, T: float) -> tuple[float, float]:
    """The two positivity constants C1, C2 compared at matched (gamma, T).

    C1 = pi^(1-g) (1-g)^(1-g)/(2-g)^(2-g) sin(pi g/2) T^(g-1),
    C2 = (T/2)^(g-1)/Gamma(g).
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    c1 = (
        math.pi ** (1.0 - gamma)
        * (1.0 - gamma) ** (1.0 - gamma)
        / (2.0 - gamma) ** (2.0 - gamma)
        * math.sin(math.pi * gamma / 2.0)
        * T ** (gamma - 1.0)
    )
    c2 = (T / 2.0) ** (gamma - 1.0) / math.gamma(gamma)
    return c1, c2


def constants_table(grid_points: int) -> np.ndarray:
    """Tabulate (gamma, C1, C2) at T = 1 on an equispaced interior grid of (0,1)."""
    if grid_points < 1:
        raise ValueError(f"grid_points must be at least 1, got {grid_points}")
    gammas = np.arange(1, grid_points + 1) / (grid_points + 1)
    rows = np.empty((grid_points, 3))
    for i, g in enumerate(gammas):
        c1, c2 = positivity_constants(float(g), 1.0)
        rows[i] = (g, c1, c2)
    return rows
