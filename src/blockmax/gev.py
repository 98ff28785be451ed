"""Generalized extreme value (GEV) distribution primitives.

Shape convention: positive ``gamma`` means a heavy right tail, negative
``gamma`` a finite right endpoint, ``gamma == 0`` the Gumbel case.  All
log-likelihood functions return ``-inf`` outside the support instead of
raising, so optimizers can treat infeasible points uniformly.

The standardized log-density is written once, in ``_log_density``: the
log-likelihoods, the CDF, the derivatives, and the fit's row kernel and
feasibility margins all read it, for one shape or for one shape per row.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Below GAMMA_TINY all formulas switch to their Gumbel (gamma=0) limits,
# as ``_shape`` alone decides; below SERIES_CUTOFF in |gamma*z| the
# gamma-derivative uses a series to avoid catastrophic cancellation.
GAMMA_TINY = 1e-8
SERIES_CUTOFF = 1e-3

EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True, slots=True)
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


def _shape(gamma):
    """The shape every formula uses: 0.0 in the Gumbel limit, else ``gamma``;
    element by element for an array of shapes."""
    if isinstance(gamma, np.ndarray):
        return np.where(np.abs(gamma) < GAMMA_TINY, 0.0, gamma)
    return 0.0 if abs(gamma) < GAMMA_TINY else gamma


def support_interval(gamma: float) -> SupportInterval:
    """Support of the standardized GEV with shape ``gamma``."""
    g = _shape(gamma)
    if not g:
        return SupportInterval(-math.inf, math.inf)
    if g > 0:
        return SupportInterval(-1.0 / g, math.inf)
    return SupportInterval(-math.inf, -1.0 / g)


def params_support(params: GevParams) -> SupportInterval:
    """Support in data units for the three-parameter family."""
    base = support_interval(params.gamma)
    return SupportInterval(
        params.mu + params.sigma * base.lower,
        params.mu + params.sigma * base.upper,
    )


def _log_density(gamma, z):
    """The standardized GEV log-density at ``z`` and the pieces it is built from.

    ``gamma`` is one shape, or a column of shapes, one per row of ``z``
    (at least 1-d).  Returns ``(g, w, e, ll)``: the shape in use
    g = ``_shape(gamma)``, the support factor w = 1 + g*z (the support is
    w > 0), e = w^(-1/g), formed from log1p(g*z) so that it stays accurate
    near g*z = 0, and ll = -(1 + 1/g) log(w) - e.  Rows in the Gumbel limit
    read w = 1, e = exp(-z) and ll = -z - e.  ll is -inf where w <= 0 or e
    overflows; only a row whose smallest w or largest e says so is masked
    element by element, and a sum over such a row is -inf.  e is NaN where
    w < 0.
    """
    g = _shape(gamma)
    limit = np.asarray(g == 0.0)  # one flag, or one per row
    patch = limit.any()
    with np.errstate(all="ignore"):
        if patch and limit.all():
            w, e = np.ones_like(z), np.exp(-z)
            ll = -z - e
        else:
            g_or_1 = np.where(limit, 1.0, g) if patch else g
            gz = g * z
            w = 1.0 + gz
            log_w = np.log1p(gz)
            e = np.exp(log_w / -g_or_1)
            ll = -(1.0 + 1.0 / g_or_1) * log_w - e
            if patch:
                rows = np.flatnonzero(limit)
                w[rows] = 1.0
                e[rows] = np.exp(-z[rows])
                ll[rows] = -z[rows] - e[rows]
        if z.size:  # the row reductions need values; an empty z has nothing to mask
            bad = ~((w.min(axis=-1) > 0.0) & (e.max(axis=-1) < np.inf))  # NaN counts as bad
            if bad.any():
                ll[bad] = np.where((w[bad] > 0.0) & (e[bad] != np.inf), ll[bad], -np.inf)
    return g, w, e, ll


def _elementwise(func):
    """Let ``func(gamma, x)`` take a scalar or an array ``x``.

    The body sees a float array of at least one dimension; a scalar or
    0-d ``x`` gets a Python ``float`` back, an array an array of its shape.
    """
    @functools.wraps(func)
    def wrapper(gamma, x):
        x = np.asarray(x, dtype=float)
        if x.ndim:
            return func(gamma, x)
        return float(func(gamma, x.reshape(1))[0])
    return wrapper


@_elementwise
def gev_cdf(gamma: float, x) -> float | np.ndarray:
    """CDF of the standardized GEV; total on the real line.

    Evaluates exp(-(1+gamma*x)^(-1/gamma)), extended by 0 below the
    support (gamma>0) and 1 above it (gamma<0).
    """
    g, w, e, _ = _log_density(gamma, x)
    return np.where(w > 0.0, np.exp(-e), 0.0 if g > 0 else 1.0)


@_elementwise
def gev_quantile(gamma: float, u) -> float | np.ndarray:
    """Inverse CDF of the standardized GEV for u in (0,1)."""
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("quantile argument must lie strictly in (0, 1)")
    return _from_gumbel(gamma, -np.log(-np.log(u)))


@_elementwise
def gev_upper_quantile(gamma: float, p) -> float | np.ndarray:
    """gev_quantile(gamma, 1 - p) for p in (0,1), without rounding 1 - p."""
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("upper-tail probability must lie strictly in (0, 1)")
    return _from_gumbel(gamma, -np.log(-np.log1p(-p)))


def _from_gumbel(gamma: float, w: np.ndarray) -> np.ndarray:
    """GEV quantile from the Gumbel quantile w: expm1(gamma*w)/gamma."""
    g = _shape(gamma)
    if not g:
        return w
    with np.errstate(over="ignore"):
        return np.expm1(g * w) / g


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


@_elementwise
def gev_loglik(gamma: float, x) -> float | np.ndarray:
    """Log-density of the standardized GEV; -inf outside the support."""
    return _log_density(gamma, x)[3]


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


def _dphi(u, phi) -> np.ndarray:
    """Derivative of ``_phi``: (1/(1+u)^2 - 2*phi) / u with phi = _phi(u),
    series for small |u|."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < SERIES_CUTOFF
    us = np.where(small, u, 0.0)
    series = -2 / 3 + us * (3 / 2 - us * (12 / 5 - us * 10 / 3))
    ub = np.where(small, 1.0, u)
    direct = (1.0 / (1.0 + ub) ** 2 - 2.0 * phi) / ub
    return np.where(small, series, direct)


def _derivatives(params: GevParams, x: np.ndarray, hessian: bool) -> list:
    """Per-observation derivative columns of ``gev_loglik3`` at 1-d ``x``
    (see ``_derivative_columns``)."""
    sigma = params.sigma
    z = (x - params.mu) / sigma
    gamma, w, e, _ = _log_density(params.gamma, z)
    if np.any(w <= 0):
        raise ValueError("gradient undefined on or outside the support boundary")
    return _derivative_columns(gamma, sigma, sigma**2, z, w, e, hessian)


def _derivative_columns(gamma, sigma, sigma2, z, w, e, hessian: bool) -> list:
    """The gradient columns in (gamma, mu, sigma), then, if ``hessian``, the
    Hessian entries gg, gm, gs, mm, ms, ss, of ``gev_loglik3`` at every z.

    Built from the standardized log-density g(gamma, z) with
    z = (x-mu)/sigma, w = 1+gamma*z, e = w^(-1/gamma) and
    t = log(w)/gamma, whose gamma-derivatives are t_g = -z^2 phi(gamma z)
    and t_gg = -z^3 phi'(gamma z) (Prescott & Walden, Biometrika 1980).
    gamma is ``_shape(gamma)``: 0 in the limit.  The parameters are
    scalars, or columns that broadcast over rows of z; ``sigma2`` is
    ``sigma**2``.
    """
    phi = _phi(gamma * z)
    columns = [
        (1.0 - e) * z * z * phi - z / w,
        (1.0 + gamma - e) / (w * sigma),
        (z * (1.0 + gamma - e) / w - 1.0) / sigma,
    ]
    if not hessian:
        return columns
    t_g = -z * z * phi
    t_gg = -z * z * z * _dphi(gamma * z, phi)
    g_z = (e - 1.0 - gamma) / w
    g_zz = (1.0 + gamma) * (gamma - e) / (w * w)
    g_gz = (-e * t_g - 1.0 - z * g_z) / w
    g_gg = -e * t_g * t_g + (e - 1.0) * t_gg + (z / w) ** 2
    return columns + [
        g_gg,
        -g_gz / sigma,
        -z * g_gz / sigma,
        g_zz / sigma2,
        (z * g_zz + g_z) / sigma2,
        (1.0 + z * z * g_zz + 2.0 * z * g_z) / sigma2,
    ]


def _split_means(means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean gradient (..., 3) and mean Hessian (..., 3, 3) from the nine
    column means of ``_derivative_columns`` along the last axis."""
    hess = means[..., [3, 4, 5, 4, 6, 7, 5, 7, 8]]
    return means[..., :3], hess.reshape(hess.shape[:-1] + (3, 3))


def gev_loglik_gradient(params: GevParams, x) -> np.ndarray:
    """Analytic gradient of ``gev_loglik3`` in (gamma, mu, sigma).

    Returns shape (3,) for scalar ``x`` and (n, 3) for a vector.  Raises
    if any point sits on or outside the support boundary, where the
    likelihood is not differentiable.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    out = np.stack(_derivatives(params, np.atleast_1d(x), hessian=False), axis=-1)
    return out[0] if scalar else out


def gev_loglik_grad_hess(params: GevParams, x) -> tuple[np.ndarray, np.ndarray]:
    """Mean gradient (3,) and mean Hessian (3, 3) of ``gev_loglik3`` over ``x``.

    One pass shares z, w, e and phi between the two; the gradient equals
    the mean of ``gev_loglik_gradient``.  Raises where that does.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _split_means(np.stack(_derivatives(params, x, hessian=True), axis=-1).mean(axis=0))


@_elementwise
def gev_loglik_x_derivative(gamma: float, x) -> float | np.ndarray:
    """Derivative of the standardized log-likelihood in x (interior only)."""
    g, w, e, _ = _log_density(gamma, x)
    if np.any(w <= 0):
        raise ValueError("derivative undefined outside the support")
    return (e - (1.0 + g)) / w


def gev_mode(gamma: float) -> float:
    """Interior maximizer of the standardized log-likelihood (gamma > -1)."""
    if gamma <= -1.0:
        raise ValueError("no interior maximum for gamma <= -1")
    g = _shape(gamma)
    return math.expm1(-g * math.log1p(g)) / g if g else 0.0


def gev_loglik_max(gamma: float) -> float:
    """Maximum value of the standardized log-likelihood (gamma > -1)."""
    if gamma <= -1.0:
        raise ValueError("log-likelihood is unbounded above or has no maximum for gamma <= -1")
    return (1.0 + gamma) * (math.log1p(gamma) - 1.0)
