"""Generalized extreme value (GEV) distribution primitives.

Shape convention: positive ``gamma`` means a heavy right tail, negative
``gamma`` a finite right endpoint, ``gamma == 0`` the Gumbel case.  All
log-likelihood functions return ``-inf`` outside the support instead of
raising, so optimizers can treat infeasible points uniformly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below GAMMA_TINY all formulas switch to their Gumbel (gamma=0) limits;
# between GAMMA_TINY and SERIES_CUTOFF the gamma-derivative uses a series
# to avoid catastrophic cancellation.
GAMMA_TINY = 1e-8
SERIES_CUTOFF = 1e-3

EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class GevParams:
    """Shape/location/scale triple; scale must be positive."""

    gamma: float
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")

    def as_array(self) -> np.ndarray:
        return np.array([self.gamma, self.mu, self.sigma], dtype=float)

    @staticmethod
    def from_array(vec) -> "GevParams":
        g, m, s = (float(v) for v in vec)
        return GevParams(g, m, s)


@dataclass(frozen=True)
class SupportInterval:
    """Open interval where the standardized log-likelihood is finite."""

    lower: float
    upper: float


def support_interval(gamma: float) -> SupportInterval:
    """Support of the standardized GEV with shape ``gamma``."""
    if abs(gamma) < GAMMA_TINY:
        return SupportInterval(-math.inf, math.inf)
    if gamma > 0:
        return SupportInterval(-1.0 / gamma, math.inf)
    return SupportInterval(-math.inf, -1.0 / gamma)


def params_support(params: GevParams) -> SupportInterval:
    """Support in data units for the three-parameter family."""
    base = support_interval(params.gamma)
    return SupportInterval(
        params.mu + params.sigma * base.lower,
        params.mu + params.sigma * base.upper,
    )


def _split_result(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


def gev_cdf(gamma: float, x) -> float | np.ndarray:
    """CDF of the standardized GEV; total on the real line.

    Evaluates exp(-(1+gamma*x)^(-1/gamma)), extended by 0 below the
    support (gamma>0) and 1 above it (gamma<0).
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if abs(gamma) < GAMMA_TINY:
        with np.errstate(over="ignore"):
            out = np.exp(-np.exp(-x))
        return _split_result(out if not scalar else out[0], scalar)
    w = 1.0 + gamma * x
    inside = w > 0
    # exp(-w^(-1/gamma)) via log1p for stability near gamma ~ 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = np.where(inside, np.log1p(gamma * x), np.nan)
        out = np.exp(-np.exp(-t / gamma))
    out = np.where(inside, out, 0.0 if gamma > 0 else 1.0)
    return _split_result(out if not scalar else out[0], scalar)


def gev_quantile(gamma: float, u) -> float | np.ndarray:
    """Inverse CDF of the standardized GEV for u in (0,1)."""
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("quantile argument must lie strictly in (0, 1)")
    out = _from_gumbel(gamma, -np.log(-np.log(u)))
    return _split_result(out if not scalar else out[0], scalar)


def gev_upper_quantile(gamma: float, p) -> float | np.ndarray:
    """gev_quantile(gamma, 1 - p) for p in (0,1), without rounding 1 - p."""
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("upper-tail probability must lie strictly in (0, 1)")
    out = _from_gumbel(gamma, -np.log(-np.log1p(-p)))
    return _split_result(out if not scalar else out[0], scalar)


def _from_gumbel(gamma: float, w: np.ndarray) -> np.ndarray:
    """GEV quantile from the Gumbel quantile w: expm1(gamma*w)/gamma."""
    if abs(gamma) < GAMMA_TINY:
        return w
    with np.errstate(over="ignore"):
        return np.expm1(gamma * w) / gamma


def gev_sample(params: GevParams, n: int, seed) -> np.ndarray:
    """Draw ``n`` i.i.d. GEV variates via inverse-transform sampling.

    Deterministic for a given (seed, n, params); ``seed`` may be an int,
    a SeedSequence or a Generator.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    u[u == 0.0] = np.nextafter(0.0, 1.0)
    return params.mu + params.sigma * gev_quantile(params.gamma, u)


def gev_loglik(gamma: float, x) -> float | np.ndarray:
    """Log-density of the standardized GEV; -inf outside the support."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if abs(gamma) < GAMMA_TINY:
        with np.errstate(over="ignore"):
            e = np.exp(-x)
            out = np.where(np.isinf(e), -np.inf, -x - e)
        return _split_result(out if not scalar else out[0], scalar)
    w = 1.0 + gamma * x
    inside = w > 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = np.log1p(np.where(inside, gamma * x, 0.0))
        e = np.exp(-t / gamma)
        out = -(1.0 + 1.0 / gamma) * t - e
        out = np.where(np.isinf(e), -np.inf, out)
    out = np.where(inside, out, -np.inf)
    return _split_result(out if not scalar else out[0], scalar)


def gev_loglik3(params: GevParams, x) -> float | np.ndarray:
    """Three-parameter log-density: loglik((x-mu)/sigma) - log(sigma)."""
    z = (np.asarray(x, dtype=float) - params.mu) / params.sigma
    return gev_loglik(params.gamma, z) - math.log(params.sigma)


def _phi(u) -> np.ndarray:
    """(log1p(u) - u/(1+u)) / u^2, series-stabilized for small |u|."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < SERIES_CUTOFF
    us = np.where(small, u, 0.0)
    series = 1 / 2 - us * (2 / 3 - us * (3 / 4 - us * (4 / 5 - us * 5 / 6)))
    ub = np.where(small, 1.0, u)  # placeholder avoids 0/0 warnings
    direct = (np.log1p(ub) - ub / (1.0 + ub)) / (ub * ub)
    return np.where(small, series, direct)


def gev_loglik_gradient(params: GevParams, x) -> np.ndarray:
    """Analytic gradient of ``gev_loglik3`` in (gamma, mu, sigma).

    Returns shape (3,) for scalar ``x`` and (n, 3) for a vector.  Raises
    if any point sits on or outside the support boundary, where the
    likelihood is not differentiable.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    gamma, sigma = params.gamma, params.sigma
    z = (x - params.mu) / sigma

    if abs(gamma) < GAMMA_TINY:
        with np.errstate(over="ignore"):
            e = np.exp(-z)
        d_gamma = (1.0 - e) * z * z / 2.0 - z
        d_mu = (1.0 - e) / sigma
        d_sigma = (z * (1.0 - e) - 1.0) / sigma
    else:
        w = 1.0 + gamma * z
        if np.any(w <= 0):
            raise ValueError("gradient undefined on or outside the support boundary")
        e = np.exp(-np.log1p(gamma * z) / gamma)
        d_gamma = (1.0 - e) * z * z * _phi(gamma * z) - z / w
        d_mu = (1.0 + gamma - e) / (w * sigma)
        d_sigma = (z * (1.0 + gamma - e) / w - 1.0) / sigma

    out = np.stack([d_gamma, d_mu, d_sigma], axis=-1)
    return out[0] if scalar else out


def gev_loglik_x_derivative(gamma: float, x) -> float | np.ndarray:
    """Derivative of the standardized log-likelihood in x (interior only)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if abs(gamma) < GAMMA_TINY:
        out = np.exp(-x) - 1.0
    else:
        w = 1.0 + gamma * x
        if np.any(w <= 0):
            raise ValueError("derivative undefined outside the support")
        e = np.exp(-np.log1p(gamma * x) / gamma)
        out = (e - (1.0 + gamma)) / w
    return _split_result(out if not scalar else out[0], scalar)


def gev_mode(gamma: float) -> float:
    """Interior maximizer of the standardized log-likelihood (gamma > -1)."""
    if gamma <= -1.0:
        raise ValueError("no interior maximum for gamma <= -1")
    if abs(gamma) < GAMMA_TINY:
        return 0.0
    return math.expm1(-gamma * math.log1p(gamma)) / gamma


def gev_loglik_max(gamma: float) -> float:
    """Maximum value of the standardized log-likelihood (gamma > -1)."""
    if gamma <= -1.0:
        raise ValueError("log-likelihood is unbounded above or has no maximum for gamma <= -1")
    return (1.0 + gamma) * (math.log1p(gamma) - 1.0)
