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
import sys
from dataclasses import dataclass

import numpy as np

# One formula serves every shape: the Gumbel (gamma=0) form is its value at
# gamma == 0, and at a subnormal gamma, where gamma*z underflows.  Below
# SERIES_CUTOFF in |gamma*z| the gamma-derivative uses a series to avoid
# catastrophic cancellation.
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


def support_interval(gamma: float) -> SupportInterval:
    """Support of the standardized GEV with shape ``gamma``."""
    if gamma == 0:
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


def _tail(gamma, z):
    """``(w, log_w, log_e, e)`` at ``z``, one shape or a column of shapes, one
    per row of ``z``, under the caller's ``np.errstate``: the support factor
    w = 1 + u with u = gamma*z (the support is w > 0), log_w = log1p(u), and
    e = w^(-1/gamma), whose exp(-e) is the CDF, formed as exp(log_e) with
    log_e = -z*L(u), L(u) = log1p(u)/u.  log_e is log_w/-gamma where gamma is
    a normal float and -z where it is 0 or subnormal, where the two agree to
    rounding (for |z| < 1e292) and the quotient would read an underflowed u.
    e is NaN where w < 0.
    """
    u = gamma * z
    log_w = np.log1p(u)
    log_e = np.divide(log_w, -gamma, out=-z, where=np.abs(gamma) >= sys.float_info.min)
    return 1.0 + u, log_w, log_e, np.exp(log_e)


def _log_density(gamma, z):
    """The standardized GEV log-density at ``z`` and the pieces it is built from.

    Takes what ``_tail`` takes and returns ``(w, log_w, e, ll)`` with
    ll = -z*L(gamma*z) - log(w) - e, the Gumbel -z - e at gamma == 0.  ll is
    -inf where w <= 0 or e overflows (and where z is NaN); only a row whose
    smallest w or largest e says so is masked element by element, and a sum
    over such a row is -inf.
    """
    with np.errstate(all="ignore"):
        w, log_w, log_e, e = _tail(gamma, z)
        ll = log_e - log_w - e
        if z.size:  # the row reductions need values; an empty z has nothing to mask
            bad = ~((w.min(axis=-1) > 0.0) & (e.max(axis=-1) < np.inf))  # NaN counts as bad
            if bad.any():
                ll[bad] = np.where((w[bad] > 0.0) & (e[bad] != np.inf), ll[bad], -np.inf)
    return w, log_w, e, ll


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
        w, _, _, e = _tail(gamma, x)
    # outside only where w < 0: e is already inf or 0 at w = 0, and w is NaN
    # at gamma == 0, x = +-inf, where exp(-e) holds the limit
    return np.where(w < 0.0, 0.0 if gamma > 0 else 1.0, np.exp(-e))


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
    """GEV quantile from the Gumbel quantile w: expm1(gamma*w)/gamma, or w
    where gamma is 0 or subnormal, as in ``_tail``."""
    if abs(gamma) < sys.float_info.min:
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


def _phi(u, w, log_w) -> np.ndarray:
    """(log_w - u/w) / u^2 with w = 1 + u and log_w = log1p(u), as ``_tail``
    forms them; a series where |u| < SERIES_CUTOFF."""
    return _direct_or_series(u, log_w - u / w, u * u, lambda us: (
        1 / 2 - us * (2 / 3 - us * (3 / 4 - us * (4 / 5 - us * 5 / 6)))))


def _dphi(u, ww, phi) -> np.ndarray:
    """Derivative of ``_phi``: (1/ww - 2*phi) / u with ww = (1 + u)^2 and
    phi = _phi(u, ...), a series where |u| < SERIES_CUTOFF."""
    return _direct_or_series(u, 1.0 / ww - 2.0 * phi, u, lambda us: (
        -2 / 3 + us * (3 / 2 - us * (12 / 5 - us * 10 / 3))))


def _partials(gamma, z, w, log_w, e) -> np.ndarray:
    """Partials g_gamma, g_z, z g_z, g_gg, g_gz, z g_gz, g_zz, z g_zz, z^2 g_zz of
    the standardized log-density at z (rows, n), as one array (rows, 9, n).
    Prescott & Walden (Biometrika 1980):
    g_gamma = (1 - e) z^2 phi - z/w, g_z = (e - 1 - g)/w, g_zz = (1 + g)(g - e)/w^2,
    g_gz = (e z^2 phi - 1 - z g_z)/w, g_gg = (z/w)^2 - e (z^2 phi)^2 + (1 - e) z^3 phi',
    with phi = _phi(g z) and phi' = _dphi(g z, phi), from ``_tail``'s w and log_w."""
    parts = np.empty((len(z), 9, z.shape[1]))
    p = parts.transpose(1, 0, 2)
    u = gamma * z
    phi = _phi(u, w, log_w)
    zz = z * z
    s = zz * phi
    r = z / w
    em1 = e - 1.0
    np.subtract(-(em1 * s), r, out=p[0])
    np.divide(em1 - gamma, w, out=p[1])
    np.multiply(z, p[1], out=p[2])
    es = e * s
    ww = w * w
    np.divide(es - 1.0 - p[2], w, out=p[4])
    np.multiply(z, p[4], out=p[5])
    np.divide((gamma - e) * (1.0 + gamma), ww, out=p[6])
    np.multiply(z, p[6], out=p[7])
    np.multiply(z, p[7], out=p[8])
    np.subtract(r * r - es * s, zz * z * _dphi(u, ww, phi) * em1, out=p[3])
    return parts


def _derivative_means(gamma, z, w, log_w, e, sigma) -> np.ndarray:
    """Mean gradient of ``gev_loglik3`` over each row of ``z``, then the mean
    Hessian entries gg, gm, gs, mm, ms, ss: (rows, 9).  The means
    S_j of ``_partials`` are row sums (numpy's pairwise sum) over n, and sigma
    (one, or a column) enters only then: gradient (S_0, -S_1/sigma, -(1 + S_2)/sigma),
    Hessian S_3, -S_4/sigma, -S_5/sigma, S_6/sigma^2, (S_1 + S_7)/sigma^2,
    (1 + 2 S_2 + S_8)/sigma^2: each mean over (-sigma)^_SIGMA_POWERS."""
    means = np.add.reduce(_partials(gamma, z, w, log_w, e), axis=-1) / z.shape[1]
    means[:, 7:] += means[:, 1:3]  # S_1 + S_7 and (S_2 + S_8) + (1 + S_2)
    means[:, 8] += 1.0 + means[:, 2]
    means[:, 2] += 1.0
    return means / (-sigma) ** _SIGMA_POWERS


def check_finite(values: np.ndarray, where: str = "") -> None:
    """Refuse NaN and infinite values with a count of each; errors start with ``where``."""
    if not np.all(np.isfinite(values)):
        n_nan = int(np.count_nonzero(np.isnan(values)))
        n_inf = int(np.count_nonzero(np.isinf(values)))
        prefix = f"{where}: " if where else ""
        raise ValueError(
            f"{prefix}{n_nan} NaN and {n_inf} infinite values among {values.size} observations"
        )


def _series(values, name: str) -> np.ndarray:
    """``values`` as the one float series that function ``name`` takes: 1-d and
    not empty, with NaN refused by ``check_finite``; +-inf pass, to be scored
    -inf or refused by the caller."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} takes one series, got {x.ndim}-d input")
    if not x.size:
        raise ValueError("empty series")
    if np.isnan(x).any():
        check_finite(x)
    return x


def _interior(params: GevParams, x: np.ndarray):
    """``(gamma, z, w, log_w, e)`` of ``_partials`` for 1-d ``x`` as one row;
    raises if a point sits on or outside the support boundary."""
    z = ((x - params.mu) / params.sigma)[None]
    with np.errstate(all="ignore"):
        w, log_w, _, e = _tail(params.gamma, z)
    if np.any(w <= 0):
        raise ValueError("gradient undefined on or outside the support boundary")
    return params.gamma, z, w, log_w, e


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
    d_gamma, d_z, zd_z = _partials(*_interior(params, np.atleast_1d(x)))[0, :3]
    out = np.stack([d_gamma, -d_z / params.sigma, -(1.0 + zd_z) / params.sigma], axis=-1)
    return out[0] if x.ndim == 0 else out


def gev_loglik_grad_hess(params: GevParams, x) -> tuple[np.ndarray, np.ndarray]:
    """Mean gradient (3,) and mean Hessian (3, 3) of ``gev_loglik3`` over ``x``.

    The one-row call of the fit's derivative kernel; its gradient is
    ``sample_loglik_gradient``.  Raises where ``gev_loglik_gradient`` does.
    """
    x = _series(x, "gev_loglik_grad_hess")
    return _split_means(_derivative_means(*_interior(params, x), params.sigma)[0])


@_elementwise
def gev_loglik_x_derivative(gamma: float, x) -> float | np.ndarray:
    """Derivative of the standardized log-likelihood in x (interior only)."""
    with np.errstate(all="ignore"):
        w, _, _, e = _tail(gamma, x)
    if np.any(w <= 0):
        raise ValueError("derivative undefined outside the support")
    # w = 1 at gamma == 0, which 1 + 0*z misses at z = +-inf
    return (e - (1.0 + gamma)) / w if gamma else e - 1.0


def gev_mode(gamma: float) -> float:
    """Interior maximizer of the standardized log-likelihood (gamma > -1)."""
    if gamma <= -1.0:
        raise ValueError("no interior maximum for gamma <= -1")
    return math.expm1(-gamma * math.log1p(gamma)) / gamma if gamma else 0.0


def gev_loglik_max(gamma: float) -> float:
    """Maximum value of the standardized log-likelihood (gamma > -1)."""
    if gamma <= -1.0:
        raise ValueError("log-likelihood is unbounded above or has no maximum for gamma <= -1")
    return (1.0 + gamma) * (math.log1p(gamma) - 1.0)
