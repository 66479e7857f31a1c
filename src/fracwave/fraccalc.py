"""Closed-form fractional calculus of monomials and related constants.

Everything here is analytic: the damping coefficient of the model, the
Riemann-Liouville integral and Caputo derivative of t^mu, termwise
fractional derivatives of monomial series, and the pair of positivity
constants compared in the damping analysis.  Riemann-Liouville integrals
of smooth functions are evaluated on whole time grids by Gauss-Jacobi
quadrature; adaptive quadrature of the defining integral is kept as the
independent cross-check for both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.special import gamma as gamma_fn
from scipy.special import gammaln

# Nodes of the Gauss-Jacobi rule for Riemann-Liouville integrals of
# smooth functions; the rule is exact on polynomials of degree 95.
GAUSS_JACOBI_NODES = 48


class SeriesTruncationError(RuntimeError):
    """Raised when the tail bound of a monomial series does not drop below tol."""


def _check_gamma_order(gamma: float) -> None:
    if not (-1.0 < gamma < 1.0) or gamma == 0.0:
        raise ValueError(f"fractional order must lie in (-1,1) excluding 0, got {gamma}")


def a_gamma(gamma: float, alpha0: float) -> float:
    """Damping coefficient of the attenuation model.

    a_gamma = -alpha0 * (4/pi) * Gamma(-gamma-1) * Gamma(gamma+2)
              * cos((gamma+1) pi / 2),
    strictly positive on (-1,1) excluding 0 and divergent at the endpoints.
    The Gamma factor at the negative non-integer argument -gamma-1 is
    evaluated by scipy's reflection-based implementation, which avoids the
    cancellation of a naive pole-adjacent evaluation.
    """
    _check_gamma_order(gamma)
    if alpha0 <= 0.0:
        raise ValueError(f"alpha0 must be positive, got {alpha0}")
    value = (
        -alpha0
        * (4.0 / math.pi)
        * gamma_fn(-gamma - 1.0)
        * gamma_fn(gamma + 2.0)
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


@dataclass(frozen=True)
class MonomialFrac:
    """One term coefficient * t^mu of a monomial series, mu > -1."""

    mu: float
    coefficient: float

    def __post_init__(self) -> None:
        if self.mu <= -1.0:
            raise ValueError(f"monomial exponent must exceed -1, got {self.mu}")


def _gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b), stable for large positive arguments."""
    if a > 0.0 and b > 0.0:
        return math.exp(gammaln(a) - gammaln(b))
    return gamma_fn(a) / gamma_fn(b)


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


def caputo_series(
    coeffs: list[MonomialFrac],
    gamma: float,
    t: float,
    tol: float = 1e-12,
    max_terms: int = 500,
) -> float:
    """Termwise Caputo derivative of a monomial series at time t.

    Terms are consumed in the given order (ascending exponent for a Taylor
    expansion).  Truncation requires a run of consecutive terms below tol,
    which guards against interleaved expansions (merged series of two
    frequencies) where one parity chain decays long before the other.
    Intended for absolutely convergent expansions such as the Taylor
    series of trigonometric time factors.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if t == 0.0:
        # Every surviving term carries a positive power of t for the
        # orders used by the model (gamma+1 applied to smooth factors).
        return 0.0
    total = 0.0
    small_run = 0
    last_mag = 0.0
    for term in coeffs[:max_terms]:
        if term.coefficient == 0.0:
            continue
        value = term.coefficient * caputo_monomial(gamma, term.mu, t)
        total += value
        mag = abs(value)
        last_mag = mag
        small_run = small_run + 1 if mag < tol else 0
        if small_run >= 4:
            return total
    # Zero-branch-only series (constants, low-degree polynomials) and
    # series whose final terms already sit below tol are converged.
    if last_mag < tol:
        return total
    raise SeriesTruncationError(
        f"tail bound did not fall below tol={tol} within {max_terms} terms"
    )


def sin_monomials(omega: float, n_terms: int = 200) -> list[MonomialFrac]:
    """Taylor expansion of sin(omega t) as monomial terms."""
    terms = []
    sign = 1.0
    for k in range(n_terms):
        mu = 2 * k + 1
        log_c = mu * math.log(abs(omega)) - gammaln(mu + 1.0)
        coeff = sign * math.copysign(1.0, omega) ** mu * math.exp(log_c)
        terms.append(MonomialFrac(mu=float(mu), coefficient=coeff))
        sign = -sign
    return terms


def cos_monomials(omega: float, n_terms: int = 200) -> list[MonomialFrac]:
    """Taylor expansion of cos(omega t) as monomial terms."""
    terms = []
    sign = 1.0
    for k in range(n_terms):
        mu = 2 * k
        log_c = mu * math.log(abs(omega)) - gammaln(mu + 1.0) if mu else 0.0
        terms.append(MonomialFrac(mu=float(mu), coefficient=sign * math.exp(log_c)))
        sign = -sign
    return terms


def merge_series(*series: list[MonomialFrac]) -> list[MonomialFrac]:
    """Merge monomial series, sorting by exponent and combining duplicates."""
    combined: dict[float, float] = {}
    for s in series:
        for term in s:
            combined[term.mu] = combined.get(term.mu, 0.0) + term.coefficient
    return [MonomialFrac(mu=mu, coefficient=c) for mu, c in sorted(combined.items())]


def rl_integral_quadrature(f, beta: float, t: float) -> float:
    """Riemann-Liouville integral of a general function by quadrature.

    The endpoint singularity of (t-tau)^(beta-1) is removed by the
    substitution t - tau = t s^(1/beta), after which adaptive
    Gauss-Kronrod converges at standard rates.  Serves as the independent
    oracle for the closed-form monomial results.
    """
    if beta <= 0.0:
        raise ValueError(f"integral order must be positive, got {beta}")
    if t == 0.0:
        return 0.0

    def integrand(s: float) -> float:
        return f(t - t * s ** (1.0 / beta))

    # full_output suppresses the benign roundoff warning near machine tolerance
    out = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200,
               full_output=1)
    return t**beta / (beta * gamma_fn(beta)) * out[0]


@functools.lru_cache(maxsize=16)
def _gauss_jacobi_rule(beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u and weights of the Gauss rule for int_0^1 (1-u)^(beta-1) g(u) du.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    the Jacobi polynomials P^(beta-1, 0), mapped from [-1, 1] to [0, 1],
    and each weight is the squared first component of its unit
    eigenvector times the weight's integral 1/beta.  (scipy's roots_jacobi
    recomputes the weights from polynomial values instead, which costs up
    to 1e-12 relative on the moments at beta = 1/4.)  Cached per beta, as
    read-only arrays.
    """
    a = beta - 1.0
    k = np.arange(1, GAUSS_JACOBI_NODES, dtype=float)
    s = 2.0 * k + a
    diag = np.concatenate([[-a / (a + 2.0)], -a * a / (s * (s + 2.0))])
    off = 2.0 * k * (k + a) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    u, vectors = eigh_tridiagonal(0.5 * (1.0 + diag), 0.5 * off)
    w = vectors[0] ** 2 / beta
    u.flags.writeable = w.flags.writeable = False
    return u, w


def rl_integral_gauss_jacobi(g, beta: float, t):
    """Riemann-Liouville integral of order beta of a smooth g at every t.

    I^beta g(t) = t^beta / Gamma(beta) * int_0^1 (1-u)^(beta-1) g(t u) du,
    by the GAUSS_JACOBI_NODES-point Gauss-Jacobi rule for the weight
    (1-u)^(beta-1).  g must accept arrays; t may be a scalar or an array
    of times, and one call covers a whole time grid.  Accurate to
    round-off while g is well resolved by polynomials of degree
    2 * GAUSS_JACOBI_NODES - 1 on [0, max t]; the independent check is
    rl_integral_quadrature.
    """
    if beta <= 0.0:
        raise ValueError(f"integral order must be positive, got {beta}")
    u, w = _gauss_jacobi_rule(beta)
    t = np.asarray(t, dtype=float)
    return t**beta / gamma_fn(beta) * (g(t[..., None] * u) @ w)


def caputo_quadrature(gamma: float, t: float, f=None, df=None, d2f=None) -> float:
    """Caputo derivative by quadrature of the defining integral.

    The classical derivative of the appropriate order must be supplied:
    df for orders in (0,1), d2f for orders in (1,2), f itself for
    negative orders (where the Caputo derivative is an integral).
    """
    if gamma < 0.0:
        if f is None:
            raise ValueError("f required for negative order")
        return rl_integral_quadrature(f, -gamma, t)
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
    if T <= 0.0:
        raise ValueError(f"T must be positive, got {T}")
    c1 = (
        math.pi ** (1.0 - gamma)
        * (1.0 - gamma) ** (1.0 - gamma)
        / (2.0 - gamma) ** (2.0 - gamma)
        * math.sin(math.pi * gamma / 2.0)
        * T ** (gamma - 1.0)
    )
    c2 = (T / 2.0) ** (gamma - 1.0) / gamma_fn(gamma)
    return c1, c2


def constants_table(grid_points: int, T: float = 1.0) -> np.ndarray:
    """Tabulate (gamma, C1, C2) on an equispaced interior grid of (0,1)."""
    gammas = np.arange(1, grid_points + 1) / (grid_points + 1)
    rows = np.empty((grid_points, 3))
    for i, g in enumerate(gammas):
        c1, c2 = positivity_constants(float(g), T)
        rows[i] = (g, c1, c2)
    return rows
