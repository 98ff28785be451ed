"""Local maximization of the GEV log-likelihood over the admissible region.

The sample log-likelihood generally has no global maximum, so "fit" here
means: find a local maximum inside the open region where every
observation is feasible, verify the first-order conditions with the
analytic gradient, and verify second-order conditions with a numeric
Hessian: one finite-difference stencil call (``numeric_hessian``) per
fit, while the search itself runs on the closed-form Hessian.  Shape
values at or below -1 are excluded from the search: the likelihood has
no local maximum there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blocks import BlockMaximaSeries, _mean_loglik, check_finite
from .gev import (
    EULER_GAMMA,
    GevParams,
    _shape,
    _support_factor,
    gev_loglik3,
    gev_loglik_grad_hess,
    gev_loglik_gradient,
    gev_quantile,
    gev_upper_quantile,
    params_support,
)

GAMMA_FLOOR = -1.0 + 1e-6
GAMMA_CAP = 10.0
INIT_GAMMA_LO = -0.95
INIT_GAMMA_HI = 5.0
GRAD_TOL = 1e-8   # bound on the data-unit gradient norm of a converged fit
MAX_ITERS = 500   # Newton steps before the ascent gives up
KL_STEP = 1.0 / 32.0  # step of kl_divergence's tanh-sinh rule in t
KL_T_MAX = 6.0        # the rule sums over t in [-KL_T_MAX, KL_T_MAX]: 385 nodes


@dataclass(frozen=True, slots=True)
class FitResult:
    """Outcome of a local-maximum search.

    ``converged`` means margin > 1e-6, shape not pinned at the lower bound,
    data-unit gradient norm <= ``GRAD_TOL`` and a negative definite numeric
    Hessian; ``diagnostic`` names each failed condition, nothing is hidden.
    """

    theta_hat: GevParams
    loglik: float
    grad_norm: float
    hessian_negdef: bool
    n_blocks: int
    converged: bool
    iterations: int
    diagnostic: str = ""

    def __post_init__(self):
        if not self.theta_hat.gamma > -1.0:
            raise ValueError(f"shape estimate must be > -1, got {self.theta_hat.gamma}")


def _as_values(series) -> np.ndarray:
    if isinstance(series, BlockMaximaSeries):
        return np.asarray(series.values, dtype=float)
    return np.asarray(series, dtype=float)


def sample_loglik(theta: GevParams, series) -> float:
    """Mean log-likelihood over the observations; -inf if any is infeasible."""
    return _mean_loglik(theta, _as_values(series))


def sample_loglik_gradient(theta: GevParams, series) -> np.ndarray:
    """Mean analytic gradient of the log-likelihood, shape (3,)."""
    x = _as_values(series)
    return np.atleast_2d(gev_loglik_gradient(theta, x)).mean(axis=0)


def feasibility_margin(theta: GevParams, series) -> float:
    """min_k (1 + gamma * z_k) with z = (x - mu) / sigma, the support factor
    ``gev_loglik3`` tests; must be > 0 for a finite fit.

    Each rounded step from x to 1 + gamma*z is monotone in x, so the
    minimum sits at the smallest or the largest observation, bit for bit.
    """
    x = _as_values(series)
    return min(_support_factor(theta.gamma, (float(v) - theta.mu) / theta.sigma)[1]
               for v in (x.min(), x.max()))


def is_feasible(theta: GevParams, series) -> bool:
    """True exactly where ``sample_loglik`` is finite."""
    return math.isfinite(sample_loglik(theta, series))


def _repair_feasibility(theta: GevParams, x: np.ndarray) -> GevParams:
    """Shrink gamma toward 0 and inflate sigma until the data fit inside."""
    gamma, mu, sigma = theta.gamma, theta.mu, theta.sigma
    for _ in range(200):
        cand = GevParams(gamma, mu, sigma)
        if is_feasible(cand, x):
            return cand
        gamma = _shape(gamma * 0.5)
        sigma *= 2.0
    raise ValueError("could not repair the starting point into the feasible region")


def pwm_init(series) -> GevParams:
    """Probability-weighted-moment starting point for the optimizer.

    Standard sample L-moments with the rational shape approximation; the
    shape is clamped into a conservative sub-range and the result is
    repaired into strict feasibility so the search starts finite.
    """
    x = np.sort(_as_values(series))
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 observations")
    if x[0] == x[-1]:
        raise ValueError("degenerate data: all observations equal")
    j = np.arange(1, n + 1, dtype=float)
    b0 = x.mean()
    b1 = np.sum((j - 1.0) * x) / (n * (n - 1.0))
    b2 = np.sum((j - 1.0) * (j - 2.0) * x) / (n * (n - 1.0) * (n - 2.0))
    l1 = b0
    l2 = 2.0 * b1 - b0
    l3 = 6.0 * b2 - 6.0 * b1 + b0
    t3 = l3 / l2
    c = 2.0 / (3.0 + t3) - math.log(2.0) / math.log(3.0)
    k = 7.8590 * c + 2.9554 * c * c
    # clamp the shape into (INIT_GAMMA_LO, INIT_GAMMA_HI]; k is minus the shape
    k = float(np.clip(k, -INIT_GAMMA_HI, -INIT_GAMMA_LO - 1e-9))
    if not _shape(k):  # the Gumbel limit
        sigma = l2 / math.log(2.0)
        mu = l1 - EULER_GAMMA * sigma
        gamma = 0.0
    else:
        try:
            g1 = math.gamma(1.0 + k)
        except ValueError:  # 1 + k on a pole (0, -1, ..., -4): use the fallback below
            g1 = math.nan
        sigma = l2 * k / ((1.0 - 2.0 ** (-k)) * g1)
        mu = l1 - sigma * (1.0 - g1) / k
        gamma = -k
    if not sigma > 0 or not math.isfinite(sigma) or not math.isfinite(mu):
        # moment estimate degenerate; fall back to a Gumbel-flavored start
        sigma = max(np.std(x), 1e-12 * max(1.0, abs(x[-1])))
        mu = float(np.median(x))
        gamma = 0.0
    return _repair_feasibility(GevParams(gamma, float(mu), float(sigma)), x)


def _newton_ascent(theta_vec, y, grad_weights):
    """Saddle-free Newton ascent on the mean log-likelihood of ``y`` with
    feasibility backtracking, for at most ``MAX_ITERS`` steps.

    ``grad_weights`` maps the gradient on ``y`` to data units, and the
    search stops once that norm is a tenth of ``GRAD_TOL``: a decade
    below the verdict's bound, because the verdict's gradient on x rounds
    differently.  Each accepted point gets one closed-form gradient and
    Hessian.  Returns (theta_vec, n_iterations, stall_reason)."""

    def value(vec):
        return sample_loglik(GevParams.from_array(vec), y)

    def derivatives(vec):
        return gev_loglik_grad_hess(GevParams.from_array(vec), y)

    current = value(theta_vec)
    g, hess = derivatives(theta_vec)
    for it in range(MAX_ITERS):
        g_norm = np.linalg.norm(g)
        if math.hypot(*(grad_weights * g)) <= 0.1 * GRAD_TOL:
            return theta_vec, it, ""
        # Newton step on |H| (eigenvalue magnitudes, floored), so it ascends
        # even away from a maximum; the gradient where H is not finite.
        try:
            lam, vecs = np.linalg.eigh(hess)
            mag = np.maximum(np.abs(lam), 1e-8 * np.max(np.abs(lam)))
            step = vecs @ ((vecs.T @ g) / mag)
        except np.linalg.LinAlgError:
            step = g
        if not np.all(np.isfinite(step)):
            step = g
        step = step / max(1.0, float(np.linalg.norm(step)))  # at most 1 in y units
        # Close to the optimum the attainable improvement drops below the
        # rounding noise of the mean, so a strict-ascent rule would stall
        # with the gradient still above tolerance.  Accept a step whose
        # value is within noise as long as it halves the gradient norm.
        noise = 1e-12 * (1.0 + abs(current))
        scale = 1.0
        for _ in range(40):
            cand = theta_vec + scale * step
            if (GAMMA_FLOOR < cand[0] <= GAMMA_CAP) and cand[2] > 0:
                cand_val = value(cand)
                if math.isfinite(cand_val):
                    if cand_val > current:
                        theta_vec, current = cand, cand_val
                        g, hess = derivatives(theta_vec)
                        break
                    if cand_val >= current - noise:
                        cand_g, cand_hess = derivatives(cand)
                        if np.linalg.norm(cand_g) < 0.5 * g_norm:
                            theta_vec, current = cand, max(cand_val, current)
                            g, hess = cand_g, cand_hess
                            break
            scale *= 0.5
        else:
            return theta_vec, it + 1, "plateau: no ascent step found"
    return theta_vec, MAX_ITERS, "Newton iteration limit reached"


def fit_mle(series, init: Optional[GevParams] = None) -> FitResult:
    """Find a local maximum of the mean GEV log-likelihood.

    Newton ascent on y = (x - median) / IQR from the moment start, or
    from ``init`` (repaired into feasibility) when given; the estimate is
    mapped back to data units, so it moves with shifts and rescalings of
    the data, and first- and second-order verification run on x.  Points
    outside the feasible region (or with shape outside (-1, 10]) score
    -inf and are never accepted.
    """
    x = _as_values(series)
    if x.size < 3:
        raise ValueError("need at least 3 observations to fit three parameters")
    check_finite(x)
    if np.min(x) == np.max(x):
        raise ValueError("degenerate data: all observations equal")

    q1, center, q3 = (float(q) for q in np.percentile(x, (25.0, 50.0, 75.0)))
    scale = q3 - q1 if q3 > q1 else float(np.max(x) - np.min(x))
    y = (x - center) / scale
    start = pwm_init(y) if init is None else _repair_feasibility(GevParams(
        init.gamma, (init.mu - center) / scale, init.sigma / scale), y)

    # d/dmu and d/dsigma in data units are 1/scale times those on y
    units = np.array([1.0, 1.0 / scale, 1.0 / scale])
    best, iterations, stall = _newton_ascent(start.as_array(), y, units)

    gamma, mu, sigma = (float(v) for v in best)
    theta_hat = GevParams(gamma, center + scale * mu, scale * sigma)
    margin = feasibility_margin(theta_hat, x)
    if not margin > 0.0:
        raise RuntimeError(f"fit ended outside the feasible region (margin {margin!r})")
    loglik = sample_loglik(theta_hat, x)
    grad_norm = math.hypot(*sample_loglik_gradient(theta_hat, x))

    hessian_negdef = False
    try:
        h = numeric_hessian(theta_hat, x)
        eigs = np.linalg.eigvalsh(h)
        hessian_negdef = bool(np.all(np.isfinite(eigs)) and np.max(eigs) < 0.0)
    except (ValueError, np.linalg.LinAlgError):
        pass

    failed = [message for fails, message in (
        (margin <= 1e-6, f"feasibility boundary: min block margin {margin:.3e}"),
        (theta_hat.gamma <= GAMMA_FLOOR + 1e-6, "shape pinned at the lower admissible bound"),
        (not grad_norm <= GRAD_TOL, f"gradient norm {grad_norm:.3e} above tolerance"),
        (not hessian_negdef, "numeric Hessian not negative definite"),
    ) if fails]

    return FitResult(
        theta_hat=theta_hat,
        loglik=loglik,
        grad_norm=grad_norm,
        hessian_negdef=hessian_negdef,
        n_blocks=int(x.size),
        converged=not failed,
        iterations=iterations,
        diagnostic="; ".join(([stall] if stall else []) + failed),
    )


def numeric_hessian(theta: GevParams, series) -> np.ndarray:
    """Central-difference Hessian of the mean log-likelihood, symmetrized.

    Step sizes are relative, 1e-4 * (1 + |component|), balancing
    truncation against round-off for a twice-differenced mean of logs.
    """
    x = _as_values(series)
    vec = theta.as_array()
    h = 1e-4 * (1.0 + np.abs(vec))

    def value(v):
        if not v[2] > 0:
            return -math.inf
        return sample_loglik(GevParams.from_array(v), x)

    f0 = value(vec)
    if not math.isfinite(f0):
        raise ValueError("Hessian requested at an infeasible parameter point")
    out = np.empty((3, 3))
    for i in range(3):
        ei = np.zeros(3)
        ei[i] = h[i]
        out[i, i] = (value(vec + ei) - 2.0 * f0 + value(vec - ei)) / h[i] / h[i]
    for i in range(3):
        for j in range(i + 1, 3):
            ei = np.zeros(3)
            ej = np.zeros(3)
            ei[i] = h[i]
            ej[j] = h[j]
            out[i, j] = out[j, i] = (
                value(vec + ei + ej) - value(vec + ei - ej)
                - value(vec - ei + ej) + value(vec - ei - ej)
            ) / (2.0 * h[i]) / (2.0 * h[j])
    return (out + out.T) / 2.0


def __getattr__(name):
    # ``fit.minimize`` is scipy's, resolved only when asked for, so that importing
    # blockmax loads no scipy: benchmarks/tracing.py still wraps this unused binding.
    # Delete this hook once TRACED drops fit.minimize (ROADMAP item 1, then 6b).
    if name == "minimize":
        try:
            from scipy.optimize import minimize
        except ImportError as exc:
            raise AttributeError(f"{__name__}.minimize needs scipy") from exc
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def kl_divergence(theta0: GevParams, theta: GevParams) -> float:
    """Kullback-Leibler divergence between two GEV laws, base measure theta0.

    +inf if theta0 puts mass outside the support of theta.  Otherwise the
    log-density gap at the theta0 quantile of u is summed over a fixed
    tanh-sinh rule on (0, 1) (Takahasi & Mori, Publ. RIMS 9, 1974): t in
    steps of KL_STEP on [-KL_T_MAX, KL_T_MAX], s = (pi/2) sinh t,
    u = 1/(1 + e^(-2s)), weight KL_STEP*pi*cosh t*u*(1 - u).  Nodes with
    t >= 0 take the upper quantile of 1 - u; a non-finite gap is dropped.
    """
    s0, s1 = params_support(theta0), params_support(theta)
    if s0.lower < s1.lower or s0.upper > s1.upper:
        return math.inf
    t = np.arange(-KL_T_MAX, KL_T_MAX + KL_STEP, KL_STEP)
    s = (math.pi / 2.0) * np.sinh(t)
    u = 1.0 / (1.0 + np.exp(-2.0 * s))
    v = 1.0 / (1.0 + np.exp(2.0 * s))  # 1 - u, without cancellation
    weights = (math.pi * KL_STEP) * np.cosh(t) * u * v
    z = np.concatenate((gev_quantile(theta0.gamma, u[t < 0]),
                        gev_upper_quantile(theta0.gamma, v[t >= 0])))
    with np.errstate(over="ignore", invalid="ignore"):  # far-tail points overflow to inf
        point = theta0.mu + theta0.sigma * z
        gap = gev_loglik3(theta0, point) - gev_loglik3(theta, point)
    keep = np.isfinite(gap)
    return max(float(np.dot(weights[keep], gap[keep])), 0.0)
