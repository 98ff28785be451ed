"""Generalized extreme value (GEV) distribution primitives.

Shape convention: positive ``gamma`` means a heavy right tail, negative
``gamma`` a finite right endpoint, ``gamma == 0`` the Gumbel case.  All
log-likelihood functions return ``-inf`` outside the support instead of
raising, so optimizers can treat infeasible points uniformly.

Each piece is formed once, for one shape or one shape per row: w and e
in ``_tail`` (the CDF and margins read them), the log-density in
``_log_density``, every mean gradient and Hessian in ``_derivative_means``.
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
_SIGMA_POWERS = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 2.0, 2.0, 2.0])

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


def _tail(gamma, z):
    """``(g, w, e, log_w, rows)`` at ``z``, one shape or a column of shapes, one
    per row of ``z``, under the caller's ``np.errstate``: g = ``_shape(gamma)``,
    the support factor w = 1 + g*z (the support is w > 0) and e = w^(-1/g),
    whose exp(-e) is the CDF, formed from log_w = log1p(g*z) so that it stays
    accurate near g*z = 0; e is NaN where w < 0.  Gumbel-limit rows read w = 1
    and e = exp(-z); log_w is None if all rows are, ``rows`` lists them if some are.
    """
    g = _shape(gamma)
    limit = np.asarray(g == 0.0)  # one flag, or one per row
    patch = limit.any()
    if patch and limit.all():
        return g, np.ones_like(z), np.exp(-z), None, None
    gz = g * z
    w = 1.0 + gz
    log_w = np.log1p(gz)
    e = np.exp(log_w / -(np.where(limit, 1.0, g) if patch else g))
    rows = np.flatnonzero(limit) if patch else None
    if patch:
        w[rows], e[rows] = 1.0, np.exp(-z[rows])
    return g, w, e, log_w, rows


def _log_density(gamma, z):
    """The standardized GEV log-density at ``z`` and the pieces it is built from.

    Takes what ``_tail`` takes and returns ``(g, w, e, ll)`` with
    ll = -(1 + 1/g) log(w) - e, or -z - e in the Gumbel limit.  ll is -inf
    where w <= 0 or e overflows; only a row whose smallest w or largest e
    says so is masked element by element, and a sum over such a row is -inf.
    """
    with np.errstate(all="ignore"):
        g, w, e, log_w, rows = _tail(gamma, z)
        ll = -z - e if log_w is None else -(1.0 + 1.0 / g) * log_w - e
        if rows is not None:  # Gumbel-limit rows among others: NaN so far
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
    with np.errstate(all="ignore"):
        g, w, e, _, _ = _tail(gamma, x)
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


def _direct_or_series(u, numerator, denominator, series) -> np.ndarray:
    """numerator / denominator, patched with ``series(u)`` where |u| < SERIES_CUTOFF."""
    small = np.abs(u) < SERIES_CUTOFF
    out = np.asarray(numerator)
    np.divide(out, denominator, out=out, where=~small)
    if np.count_nonzero(small):
        out[small] = series(u[small])
    return out


def _phi(u) -> np.ndarray:
    """(log1p(u) - u/(1+u)) / u^2, a series where |u| < SERIES_CUTOFF."""
    u = np.asarray(u, dtype=float)
    return _direct_or_series(u, np.log1p(u) - u / (1.0 + u), u * u, lambda us: (
        1 / 2 - us * (2 / 3 - us * (3 / 4 - us * (4 / 5 - us * 5 / 6)))))


def _dphi(u, phi) -> np.ndarray:
    """Derivative of ``_phi``: (1/(1+u)^2 - 2*phi) / u with phi = _phi(u),
    a series where |u| < SERIES_CUTOFF."""
    u = np.asarray(u, dtype=float)
    w = 1.0 + u
    return _direct_or_series(u, 1.0 / (w * w) - 2.0 * phi, u, lambda us: (
        -2 / 3 + us * (3 / 2 - us * (12 / 5 - us * 10 / 3))))


def _partials(gamma, z, w, e, hessian: bool) -> np.ndarray:
    """Partials g_gamma, g_z, z g_z, then, if ``hessian``, g_gg, g_gz, z g_gz,
    g_zz, z g_zz, z^2 g_zz of the standardized log-density at z (rows, n),
    as one array (rows, 3 or 9, n).  Prescott & Walden (Biometrika 1980):
    g_gamma = (1 - e) z^2 phi - z/w, g_z = (e - 1 - g)/w, g_zz = (1 + g)(g - e)/w^2,
    g_gz = (e z^2 phi - 1 - z g_z)/w, g_gg = (z/w)^2 - e (z^2 phi)^2 + (1 - e) z^3 phi',
    with phi = _phi(g z) and phi' = _dphi(g z, phi)."""
    parts = np.empty((len(z), 9 if hessian else 3, z.shape[1]))
    p = parts.transpose(1, 0, 2)
    u = gamma * z
    phi = _phi(u)
    zz = z * z
    s = zz * phi
    r = z / w
    em1 = e - 1.0
    np.subtract(-(em1 * s), r, out=p[0])
    np.divide(em1 - gamma, w, out=p[1])
    np.multiply(z, p[1], out=p[2])
    if hessian:
        es = e * s
        np.divide(es - 1.0 - p[2], w, out=p[4])
        np.multiply(z, p[4], out=p[5])
        np.divide((gamma - e) * (1.0 + gamma), w * w, out=p[6])
        np.multiply(z, p[6], out=p[7])
        np.multiply(z, p[7], out=p[8])
        np.subtract(r * r - es * s, zz * z * _dphi(u, phi) * em1, out=p[3])
    return parts


def _derivative_means(gamma, z, w, e, sigma, hessian: bool) -> np.ndarray:
    """Mean gradient of ``gev_loglik3`` over each row of ``z``, then, if ``hessian``,
    the mean Hessian entries gg, gm, gs, mm, ms, ss: (rows, 3 or 9).  The means
    S_j of ``_partials`` are row sums (numpy's pairwise sum) over n, and sigma
    (one, or a column) enters only then: gradient (S_0, -S_1/sigma, -(1 + S_2)/sigma),
    Hessian S_3, -S_4/sigma, -S_5/sigma, S_6/sigma^2, (S_1 + S_7)/sigma^2,
    (1 + 2 S_2 + S_8)/sigma^2: each mean over (-sigma)^_SIGMA_POWERS."""
    means = np.add.reduce(_partials(gamma, z, w, e, hessian), axis=-1) / z.shape[1]
    if hessian:  # S_1 + S_7 and (S_2 + S_8) + (1 + S_2)
        means[:, 7:] += means[:, 1:3]
        means[:, 8] += 1.0 + means[:, 2]
    means[:, 2] += 1.0
    return means / (-sigma) ** _SIGMA_POWERS[:means.shape[1]]


def _interior(params: GevParams, x: np.ndarray):
    """``(g, z, w, e)`` of ``_partials`` for 1-d ``x`` as one row; raises if a
    point sits on or outside the support boundary."""
    z = ((x - params.mu) / params.sigma)[None]
    with np.errstate(all="ignore"):
        g, w, e, _, _ = _tail(params.gamma, z)
    if np.any(w <= 0):
        raise ValueError("gradient undefined on or outside the support boundary")
    return g, z, w, e


def _split_means(means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean gradient (..., 3) and mean Hessian (..., 3, 3) from the nine
    means of ``_derivative_means`` along the last axis."""
    hess = means[..., [3, 4, 5, 4, 6, 7, 5, 7, 8]]
    return means[..., :3], hess.reshape(hess.shape[:-1] + (3, 3))


def gev_loglik_gradient(params: GevParams, x) -> np.ndarray:
    """Analytic gradient of ``gev_loglik3`` in (gamma, mu, sigma).

    Returns shape (3,) for scalar ``x`` and (n, 3) for a vector.  Raises
    if any point sits on or outside the support boundary, where the
    likelihood is not differentiable.
    """
    x = np.asarray(x, dtype=float)
    d_gamma, d_z, zd_z = _partials(*_interior(params, np.atleast_1d(x)), hessian=False)[0]
    out = np.stack([d_gamma, -d_z / params.sigma, -(1.0 + zd_z) / params.sigma], axis=-1)
    return out[0] if x.ndim == 0 else out


def gev_loglik_grad_hess(params: GevParams, x) -> tuple[np.ndarray, np.ndarray]:
    """Mean gradient (3,) and mean Hessian (3, 3) of ``gev_loglik3`` over ``x``.

    The one-row call of the fit's derivative kernel; its gradient is
    ``sample_loglik_gradient``.  Raises where ``gev_loglik_gradient`` does.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _split_means(_derivative_means(*_interior(params, x), params.sigma, True)[0])


@_elementwise
def gev_loglik_x_derivative(gamma: float, x) -> float | np.ndarray:
    """Derivative of the standardized log-likelihood in x (interior only)."""
    with np.errstate(all="ignore"):
        g, w, e, _, _ = _tail(gamma, x)
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
