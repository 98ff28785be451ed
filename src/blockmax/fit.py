"""Local maximization of the GEV log-likelihood over the admissible region.

The sample log-likelihood generally has no global maximum, so "fit" here
means: find a local maximum inside the open region where every
observation is feasible, verify the first-order conditions with the
analytic gradient, and verify second-order conditions with a numeric
Hessian: one finite-difference stencil (``numeric_hessian``) per fit,
while the search itself runs on the closed-form Hessian.  Shape values
at or below -1 are excluded from the search: the likelihood has no local
maximum there.

``fit_mle`` fits a block of series at once, one per row of a matrix, and
a single series is the one-row block.  The moment start, its repair, the
Newton ascent and the verdict each run on all rows still in play with
one array pass per step, and a row leaves the ascent when it converges,
stalls or reaches ``MAX_ITERS``.  One kernel, ``_loglik_rows``, computes
every log-likelihood of the fit, and the gradient and Hessian at an
accepted point in the same pass, from ``gev._log_density`` and
``gev._derivative_means`` as the one-series functions do.  Rows
never mix: each row's sums run in the order they would on their own, so
every row's ``FitResult`` is bit for bit the one-series fit of that row.
No kernel array holds more than ``BLOCK_VALUES`` values (or one row,
where a row is longer).  The same constant sizes the blocks of a study:
``lab.run_consistency_study`` hands each worker ``BLOCK_VALUES // n``
replications, which it draws and fits in one call here.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .blocks import _mean_loglik
from .gev import (
    EULER_GAMMA,
    GevParams,
    _derivative_means,
    _interior,
    _log_density,
    _series,
    _split_means,
    _tail,
    check_finite,
    gev_loglik3,
    gev_loglik_gradient,  # not called here: benchmarks/tracing.py wraps this binding
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
BLOCK_VALUES = 65536  # most values in one kernel array, and in one study block of series
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


def sample_loglik(theta: GevParams, series) -> float:
    """Mean log-likelihood over the observations; -inf if any is infeasible."""
    return _mean_loglik(theta, _series(series, "sample_loglik"))


def sample_loglik_gradient(theta: GevParams, series) -> np.ndarray:
    """Mean analytic gradient of the log-likelihood, shape (3,); bit for bit
    the gradient ``fit_mle``'s verdict judges (one row of the same kernel)."""
    x = _series(series, "sample_loglik_gradient")
    return _derivative_means(*_interior(theta, x), theta.sigma)[0, :3]


def _loglik_rows(theta, X, rows=None, floor=None):
    """Mean log-likelihood of row ``rows[k]`` of ``X`` (row k without ``rows``)
    at ``theta[k]``, for each k.

    Bit for bit ``sample_loglik``, -inf where an observation is infeasible.
    With ``floor`` (a scalar or one per k), the same pass also returns the
    nine derivative means of ``gev._derivative_means`` for every k whose
    value is not below its floor; ``gev_loglik_grad_hess`` and
    ``sample_loglik_gradient`` are its one-row calls.  Other entries are
    NaN.  Rows go through in chunks of ``BLOCK_VALUES // (n * width)`` (at
    least one), where width is the number of values per observation (1, or
    9 with ``floor``), so no array holds more than ``BLOCK_VALUES`` values
    unless one row does.
    """
    n = X.shape[1]
    width = 1 if floor is None else 9
    values = np.empty(len(theta))
    means = None if floor is None else np.full((len(theta), 9), np.nan)
    chunk = max(1, BLOCK_VALUES // (n * width))
    with np.errstate(all="ignore"):
        for lo in range(0, len(theta), chunk):
            part = slice(lo, lo + chunk)
            gamma, mu, sigma = theta[part].T.copy()[:, :, None]  # contiguous columns
            # math.log row by row, as gev_loglik3 takes it (np.log may differ in the last bit)
            log_sigma = np.array([[math.log(s)] for s in sigma[:, 0].tolist()])
            z = ((X[part] if rows is None else X[rows[part]]) - mu) / sigma
            w, log_w, e, ll = _log_density(gamma, z)
            ll -= log_sigma  # gev_loglik3 on every row; a -inf carries through the sum
            values[part] = vals = ll.sum(axis=1) / n
            if means is None:
                continue
            want = vals >= (floor if np.ndim(floor) == 0 else floor[part])
            if not want.all():
                want = np.flatnonzero(want)
                if not want.size:
                    continue
                gamma, sigma, z, w, log_w, e = (v[want] for v in (gamma, sigma, z, w, log_w, e))
            means[part][want] = _derivative_means(gamma, z, w, log_w, e, sigma)
    return values, means


def _margins(theta, X):
    """``feasibility_margin`` of each row of ``X`` at the matching row of ``theta``."""
    ends = np.stack([X.min(axis=1), X.max(axis=1)], axis=1)
    with np.errstate(all="ignore"):
        w = _tail(theta[:, :1], (ends - theta[:, 1:2]) / theta[:, 2:3])[0]
    return np.where(w[:, 1] < w[:, 0], w[:, 1], w[:, 0])


def feasibility_margin(theta: GevParams, series) -> float:
    """min_k (1 + gamma * z_k) with z = (x - mu) / sigma, the support factor
    ``gev_loglik3`` tests; must be > 0 for a finite fit.

    Each rounded step from x to 1 + gamma*z is monotone in x, so the
    minimum sits at the smallest or the largest observation, bit for bit.
    """
    x = _series(series, "feasibility_margin")[None]
    return float(_margins(theta.as_array()[None], x)[0])


def is_feasible(theta: GevParams, series) -> bool:
    """True exactly where ``sample_loglik`` is finite."""
    return math.isfinite(_mean_loglik(theta, _series(series, "is_feasible")))


def _repair(theta, X):
    """Shrink gamma toward 0 and inflate sigma, row by row, until each row of
    ``X`` fits inside; returns the points and ``_loglik_rows`` at them, the
    derivative means included."""
    theta = theta.copy()
    values = np.empty(len(theta))
    means = np.empty((len(theta), 9))
    pending = np.arange(len(theta))
    for _ in range(200):
        vals, found = _loglik_rows(theta[pending], X, pending, -sys.float_info.max)
        done = np.isfinite(vals)
        values[pending[done]] = vals[done]
        means[pending[done]] = found[done]
        pending = pending[~done]
        if not pending.size:
            return theta, values, means
        theta[pending, 0] *= 0.5
        theta[pending, 2] *= 2.0
    where = f"row {pending[0]}: " if len(X) > 1 else ""
    raise ValueError(f"{where}could not repair the starting point into the feasible region")


def _moment_starts(xs):
    """Probability-weighted-moment points (gamma, mu, sigma), one per sorted row
    of ``xs``: sample L-moments with the rational shape approximation, the
    shape clamped into a conservative sub-range; not yet repaired."""
    n = xs.shape[1]
    j = np.arange(1, n + 1, dtype=float)
    b0 = xs.mean(axis=1)
    b1 = ((j - 1.0) * xs).sum(axis=1) / (n * (n - 1.0))
    b2 = ((j - 1.0) * (j - 2.0) * xs).sum(axis=1) / (n * (n - 1.0) * (n - 2.0))
    l1 = b0
    l2 = 2.0 * b1 - b0
    l3 = 6.0 * b2 - 6.0 * b1 + b0
    c = 2.0 / (3.0 + l3 / l2) - math.log(2.0) / math.log(3.0)
    # clamp the shape into (INIT_GAMMA_LO, INIT_GAMMA_HI]; k is minus the shape
    ks = np.clip(7.8590 * c + 2.9554 * c * c, -INIT_GAMMA_HI, -INIT_GAMMA_LO - 1e-9)
    out = np.empty((len(xs), 3))
    for i, k in enumerate(ks.tolist()):
        if not k:  # the Gumbel case
            sigma = l2[i] / math.log(2.0)
            mu = l1[i] - EULER_GAMMA * sigma
            gamma = 0.0
        else:
            try:
                g1 = math.gamma(1.0 + k)
            except ValueError:  # 1 + k on a pole (0, -1, ..., -4): use the fallback below
                g1 = math.nan
            sigma = l2[i] * k / ((1.0 - 2.0 ** (-k)) * g1)
            mu = l1[i] - sigma * (1.0 - g1) / k
            gamma = -k
        if not sigma > 0 or not math.isfinite(sigma) or not math.isfinite(mu):
            # moment estimate degenerate; fall back to a Gumbel-flavored start
            x = xs[i]
            sigma = max(np.std(x), 1e-12 * max(1.0, abs(x[-1])))
            mu = float(np.median(x))
            gamma = 0.0
        out[i] = gamma, mu, sigma
    return out


def pwm_init(series) -> GevParams:
    """Probability-weighted-moment starting point for the optimizer.

    Standard sample L-moments with the rational shape approximation; the
    shape is clamped into a conservative sub-range and the result is
    repaired into strict feasibility so the search starts finite.  The
    series passes the one-series check and ``fit_mle``'s input checks.
    ``fit_mle`` takes the same start on its standardized series, so the two
    agree up to rounding.
    """
    xs = np.sort(_checked_rows(_series(series, "pwm_init")), axis=1)
    theta, _, _ = _repair(_moment_starts(xs), xs)
    return GevParams.from_array(theta[0])


def _norms(v):
    """``np.linalg.norm`` of each row of ``v`` (n, 3), bit for bit: a stacked
    1x3 by 3x1 product takes the same dot product the one-row norm does."""
    with np.errstate(over="ignore"):
        return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _stacked(decompose, mats):
    """``decompose`` (``np.linalg.eigh`` or ``eigvalsh``) of a stack of matrices,
    as consecutive (rows, result) parts: one part for the whole stack, or,
    should LAPACK fail on a matrix, one part per matrix, with result None
    for each failing one."""
    try:
        return [(slice(0, len(mats)), decompose(mats))]
    except np.linalg.LinAlgError:
        parts = []
        for i in range(len(mats)):
            try:
                parts.append((slice(i, i + 1), decompose(mats[i:i + 1])))
            except np.linalg.LinAlgError:
                parts.append((slice(i, i + 1), None))
        return parts


def _ascent_steps(g, hess):
    """Saddle-free Newton steps on |H| (eigenvalue magnitudes, floored), so they
    ascend even away from a maximum; the gradient where H has no usable
    decomposition.  Each step is at most 1 long."""
    steps = g.copy()
    for part, found in _stacked(np.linalg.eigh, hess):
        if found is None:
            continue
        lam, vecs = found
        mag = np.maximum(np.abs(lam), 1e-8 * np.max(np.abs(lam), axis=1, keepdims=True))
        rot = (np.swapaxes(vecs, 1, 2) @ g[part, :, None])[:, :, 0]
        with np.errstate(all="ignore"):
            steps[part] = (vecs @ (rot / mag)[:, :, None])[:, :, 0]
    bad = ~np.isfinite(steps).all(axis=1)
    steps[bad] = g[bad]
    return steps / np.fmax(1.0, _norms(steps))[:, None]


def _newton_ascent(theta, current, means, Y, units):
    """Saddle-free Newton ascent on the mean log-likelihood of each row of ``Y``
    with feasibility backtracking, for at most ``MAX_ITERS`` steps.

    ``theta`` holds the starts, ``current`` their values and ``means`` the
    derivative means there.  ``units`` maps each row's gradient on ``Y``
    to data units, and a row stops once that norm is a tenth of
    ``GRAD_TOL``: a decade below the verdict's bound, because the verdict's
    gradient on x rounds differently.  All rows still in play take their
    k-th step together.  Returns (theta, iterations, stall reasons)."""
    theta, current = theta.copy(), current.copy()
    g, hess = _split_means(means)
    g = g.copy()
    iterations = np.full(len(theta), MAX_ITERS)
    stalls = ["Newton iteration limit reached"] * len(theta)
    active = np.arange(len(theta))
    for it in range(MAX_ITERS):
        near = np.array([math.hypot(*v) <= 0.1 * GRAD_TOL
                         for v in (units[active] * g[active]).tolist()], dtype=bool)
        for row in active[near]:
            iterations[row], stalls[row] = it, ""
        active = active[~near]
        if not active.size:
            break
        step = _ascent_steps(g[active], hess[active])
        # Close to the optimum the attainable improvement drops below the
        # rounding noise of the mean, so a strict-ascent rule would stall
        # with the gradient still above tolerance.  Accept a step whose
        # value is within noise as long as it halves the gradient norm.
        noise = 1e-12 * (1.0 + np.abs(current[active]))
        todo = np.arange(active.size)  # positions in ``active`` still backtracking
        scale = 1.0
        for _ in range(40):
            rows = active[todo]
            cand = theta[rows] + scale * step[todo]
            inside = (GAMMA_FLOOR < cand[:, 0]) & (cand[:, 0] <= GAMMA_CAP) & (cand[:, 2] > 0)
            rows, cand = rows[inside], cand[inside]
            floor = current[rows] - noise[todo[inside]]
            vals, found = _loglik_rows(cand, Y, rows, floor)
            finite = np.isfinite(vals)
            take = finite & (vals > current[rows])
            level = finite & ~take & (vals >= floor)
            if level.any():
                level[level] = _norms(found[level, :3]) < 0.5 * _norms(g[rows[level]])
                take |= level
            rows = rows[take]
            theta[rows] = cand[take]
            current[rows] = np.where(current[rows] > vals[take], current[rows], vals[take])
            g[rows], hess[rows] = _split_means(found[take])
            left = ~inside
            left[inside] = ~take
            todo = todo[left]
            if not todo.size:
                break
            scale *= 0.5
        else:
            for row in active[todo]:
                iterations[row], stalls[row] = it + 1, "plateau: no ascent step found"
            active = np.delete(active, todo)
    return theta, iterations, stalls


def _stencil_hessians(theta, X, rows, f0):
    """``numeric_hessian`` at each ``theta[k]`` on row ``rows[k]`` of ``X``, where
    ``f0[k]`` is the (finite) value there; all 18 other points in one pass."""
    h = 1e-4 * (1.0 + np.abs(theta))
    pairs = [(0, 1), (0, 2), (1, 2)]
    signs = np.zeros((18, 3))
    for i in range(3):  # +e_i, -e_i
        signs[2 * i, i], signs[2 * i + 1, i] = 1.0, -1.0
    for p, (i, j) in enumerate(pairs):  # ++, +-, -+, --
        signs[6 + 4 * p:10 + 4 * p, i] = (1.0, 1.0, -1.0, -1.0)
        signs[6 + 4 * p:10 + 4 * p, j] = (1.0, -1.0, 1.0, -1.0)
    points = (theta[:, None, :] + signs * h[:, None, :]).reshape(-1, 3)
    f = np.full(len(points), -np.inf)
    ok = points[:, 2] > 0
    f[ok], _ = _loglik_rows(points[ok], X, np.repeat(rows, 18)[ok])
    f = f.reshape(-1, 18)
    out = np.empty((len(theta), 3, 3))
    with np.errstate(all="ignore"):  # -inf points give inf or nan entries, quietly
        for i in range(3):
            out[:, i, i] = (f[:, 2 * i] - 2.0 * f0 + f[:, 2 * i + 1]) / h[:, i] / h[:, i]
        for p, (i, j) in enumerate(pairs):
            pp, pm, mp, mm = f[:, 6 + 4 * p:10 + 4 * p].T
            out[:, i, j] = out[:, j, i] = (pp - pm - mp + mm) / (2.0 * h[:, i]) / (2.0 * h[:, j])
        return (out + np.swapaxes(out, 1, 2)) / 2.0


def numeric_hessian(theta: GevParams, series) -> np.ndarray:
    """Central-difference Hessian of the mean log-likelihood, symmetrized.

    Step sizes are relative, 1e-4 * (1 + |component|), balancing
    truncation against round-off for a twice-differenced mean of logs.
    """
    x = _series(series, "numeric_hessian")[None]
    vec, rows = theta.as_array()[None], np.zeros(1, dtype=int)
    f0, _ = _loglik_rows(vec, x)
    if not math.isfinite(f0[0]):
        raise ValueError("Hessian requested at an infeasible parameter point")
    return _stencil_hessians(vec, x, rows, f0)[0]


def _checked_rows(x: np.ndarray) -> np.ndarray:
    """The series of ``x`` as rows of a matrix, one series being the one-row
    matrix; bad input is refused before any row is fitted, and a matrix's
    errors name the row."""
    if x.ndim > 2:
        raise ValueError(f"expected one series or a matrix of series, one per row; "
                         f"got {x.ndim}-d input")
    matrix = x.ndim == 2
    X = x if matrix else x.reshape(1, -1)
    if not len(X):
        raise ValueError("empty matrix: no series to fit")
    if X.shape[1] < 3:
        raise ValueError(f"need at least 3 observations per row to fit three parameters, "
                         f"got {X.shape[1]}" if matrix else
                         "need at least 3 observations to fit three parameters")
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        check_finite(X[row], f"row {row}" if matrix else "")
    flat = X.min(axis=1) == X.max(axis=1)
    if flat.any():
        where = f"row {int(np.argmax(flat))}: " if matrix else ""
        raise ValueError(f"{where}degenerate data: all observations equal")
    return np.ascontiguousarray(X)


def fit_mle(series):
    """Find a local maximum of the mean GEV log-likelihood.

    Newton ascent on y = (x - median) / IQR from the moment start of y,
    repaired into feasibility; the estimate is mapped back to data units,
    so it moves with shifts and rescalings of the data, and first- and
    second-order verification run on x.  Points outside the feasible
    region (or with shape outside (-1, 10]) score -inf and are never
    accepted.

    ``series`` is one series, which gives one ``FitResult``, or a matrix
    with one series per row, which gives a list with one ``FitResult`` per
    row, each bit for bit the result of fitting that row on its own.
    """
    x = np.asarray(series, dtype=float)
    X = _checked_rows(x)
    n = X.shape[1]

    q1, center, q3 = np.percentile(X, (25.0, 50.0, 75.0), axis=1)
    scale = np.where(q3 > q1, q3 - q1, X.max(axis=1) - X.min(axis=1))
    Y = (X - center[:, None]) / scale[:, None]
    # the repair's pass is the ascent's first: value, gradient and Hessian, finite values only
    start, current, means = _repair(_moment_starts(np.sort(Y, axis=1)), Y)

    # d/dmu and d/dsigma in data units are 1/scale times those on y
    units = np.stack([np.ones(len(X)), 1.0 / scale, 1.0 / scale], axis=1)
    best, iterations, stalls = _newton_ascent(start, current, means, Y, units)

    thetas = [GevParams(gamma, c + s * mu, s * sigma) for (gamma, mu, sigma), c, s
              in zip(best.tolist(), center.tolist(), scale.tolist())]
    theta_x = np.array([t.as_array() for t in thetas])
    margins = _margins(theta_x, X)
    if not np.all(margins > 0.0):
        row = int(np.argmin(margins > 0.0))
        where = f"row {row}: " if x.ndim == 2 else ""
        raise RuntimeError(f"{where}fit ended outside the feasible region "
                           f"(margin {float(margins[row])!r})")
    loglik, means = _loglik_rows(theta_x, X, floor=-np.inf)

    # the stencil needs a finite value at the estimate, as numeric_hessian does
    negdef = np.zeros(len(X), dtype=bool)
    judged = np.flatnonzero(np.isfinite(loglik))
    if judged.size:
        hessians = _stencil_hessians(theta_x[judged], X, judged, loglik[judged])
        for part, eigs in _stacked(np.linalg.eigvalsh, hessians):
            if eigs is not None:
                negdef[judged[part]] = np.isfinite(eigs).all(axis=1) & (eigs.max(axis=1) < 0.0)

    results = []
    for row, theta_hat in enumerate(thetas):
        margin = float(margins[row])
        grad_norm = math.hypot(*means[row, :3].tolist())
        failed = [message for fails, message in (
            (margin <= 1e-6, f"feasibility boundary: min block margin {margin:.3e}"),
            (theta_hat.gamma <= GAMMA_FLOOR + 1e-6, "shape pinned at the lower admissible bound"),
            (not grad_norm <= GRAD_TOL, f"gradient norm {grad_norm:.3e} above tolerance"),
            (not negdef[row], "numeric Hessian not negative definite"),
        ) if fails]
        results.append(FitResult(
            theta_hat=theta_hat,
            loglik=float(loglik[row]),
            grad_norm=grad_norm,
            hessian_negdef=bool(negdef[row]),
            n_blocks=n,
            converged=not failed,
            iterations=int(iterations[row]),
            diagnostic="; ".join(([stalls[row]] if stalls[row] else []) + failed),
        ))
    return results if x.ndim == 2 else results[0]


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
