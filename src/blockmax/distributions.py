"""Sampling distributions with known extreme value index and normalization.

Each member carries its quantile function, the tail quantile function
U(t) = quantile(1 - 1/t), and enough closed-form structure to evaluate
the textbook normalization choice a_m, b_m exactly.  The uniform
distribution (index -1) is deliberately absent: the maximum-likelihood
theory this package exercises requires an index above -1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .gev import GevParams, gev_cdf, gev_quantile, gev_upper_quantile, support_interval


@dataclass(frozen=True)
class NormalizingConstants:
    """Scale/location pair for block length m; scale must be positive."""

    a_m: float
    b_m: float
    m: int

    def __post_init__(self):
        if not self.a_m > 0:
            raise ValueError(f"a_m must be > 0, got {self.a_m}")


@dataclass(frozen=True)
class ReferenceDistribution:
    """A distribution F in the domain of attraction of the GEV with index gamma0.

    ``quantile`` is the generalized inverse of F on (0,1).
    ``upper_quantile(p)`` is quantile(1 - p) evaluated without forming
    1 - p; it is optional, but exact block-maximum draws need it.  ``cdf``
    is optional and only used by convergence diagnostics.  Members with
    gamma0 == 0 must supply ``gumbel_scale``, the scale function a(m) in
    closed form; other members derive a(m) from U(m).
    """

    name: str
    gamma0: float
    quantile: Callable[[np.ndarray], np.ndarray]
    right_endpoint: float
    left_endpoint: float
    cdf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    upper_quantile: Optional[Callable[[np.ndarray], np.ndarray]] = None
    gumbel_scale: Optional[Callable[[float], float]] = None
    spec: str = ""

    def tail_quantile(self, t) -> float | np.ndarray:
        """U(t) = quantile(1 - 1/t) for t > 1."""
        t = np.asarray(t, dtype=float)
        if np.any(t <= 1.0):
            raise ValueError("tail quantile requires t > 1")
        return self.quantile(1.0 - 1.0 / t)


def norm_constants(dist: ReferenceDistribution, m: int) -> NormalizingConstants:
    """Exact normalization (a_m, b_m) = (a(m), U(m)) for block length m.

    The scale function follows the usual three-way case split on the sign
    of the index: gamma0 * U(m) above 0, -gamma0 * (x* - U(m)) below 0,
    and the member's closed-form ``gumbel_scale`` at 0.
    """
    if m < 2:
        raise ValueError(f"block length m = {m} is below 2; exact constants need m >= 2")
    b_m = float(dist.tail_quantile(m))
    if not math.isfinite(b_m):
        raise ValueError(f"U({m}) is not finite for member '{dist.name}'")
    g = dist.gamma0
    if not g:
        if dist.gumbel_scale is None:
            raise ValueError(f"member '{dist.name}' has index 0 but no closed-form gumbel_scale")
        a_m = float(dist.gumbel_scale(m))
    elif g > 0:
        a_m = g * b_m
    else:
        if not math.isfinite(dist.right_endpoint):
            raise ValueError(
                f"member '{dist.name}' has gamma0 < 0 but no finite right endpoint"
            )
        a_m = -g * (dist.right_endpoint - b_m)
    if not a_m > 0:
        raise ValueError(
            f"scale constant a_m = {a_m} is not positive for '{dist.name}' at m={m}; "
            "the normalization formula is not usable at this block length"
        )
    return NormalizingConstants(a_m=a_m, b_m=b_m, m=int(m))


def _uniforms(dist: ReferenceDistribution, n: int, seed, m: int) -> np.ndarray:
    """The n uniforms behind ``sample_iid(dist, n, seed, m)``, with 0 moved
    to the smallest positive float; refuses what ``sample_iid`` refuses."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 1:
        raise ValueError("block length m must be >= 1")
    if m > 1 and dist.upper_quantile is None:
        raise ValueError(
            f"member '{dist.name}' has no upper_quantile; "
            f"block maxima of length {m} cannot be drawn exactly"
        )
    u = np.random.default_rng(seed).random(n)
    u[u == 0.0] = np.nextafter(0.0, 1.0)
    return u


def _block_max_quantile(dist: ReferenceDistribution, u: np.ndarray, m: int) -> np.ndarray:
    """quantile(u^(1/m)): the F^m quantile of each uniform in ``u``.

    V = u^(1/m) is formed through log V = log(u)/m, and where V >= 1/2
    the value is upper_quantile(1 - V) with 1 - V = -expm1(log V), so
    neither tail rounds 1 - V.  The map is non-decreasing in u.
    """
    if m == 1:
        return np.asarray(dist.quantile(u), dtype=float)
    log_v = np.log(u) / m
    v = np.exp(log_v)
    lower = v < 0.5
    out = np.empty(u.size)
    out[lower] = dist.quantile(v[lower])
    out[~lower] = dist.upper_quantile(-np.expm1(log_v[~lower]))
    return out


def sample_iid(dist: ReferenceDistribution, n: int, seed, m: int = 1) -> np.ndarray:
    """n i.i.d. draws of F^m by inverse transform; deterministic given seed.

    With m = 1 these are draws of F.  With m > 1 each value is the maximum
    of a block of m, drawn in one step as quantile(U^(1/m))
    (``_block_max_quantile``), not as the maximum of m draws.
    """
    return _block_max_quantile(dist, _uniforms(dist, n, seed, m), m)


def sample_min(dist: ReferenceDistribution, n: int, seed, m: int = 1) -> np.ndarray:
    """``np.min(sample_iid(dist, n, seed, m))`` as a one-value array, bit for bit.

    It draws the same n uniforms but transforms only the smallest: the
    F^m quantile map is non-decreasing, so the smallest uniform maps to
    the smallest draw (David & Nagaraja, *Order Statistics*, 2003, §1.1).
    """
    return _block_max_quantile(dist, _uniforms(dist, n, seed, m).min(keepdims=True), m)


# --- catalog members ----------------------------------------------------


def pareto(alpha: float = 1.0) -> ReferenceDistribution:
    """Pareto tail F(x) = 1 - x^(-alpha) on [1, inf); index 1/alpha."""
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return ReferenceDistribution(
        name=f"pareto(alpha={alpha:g})",
        gamma0=1.0 / alpha,
        quantile=lambda u: (1.0 - np.asarray(u, dtype=float)) ** (-1.0 / alpha),
        upper_quantile=lambda p: np.asarray(p, dtype=float) ** (-1.0 / alpha),
        cdf=lambda x: np.where(np.asarray(x, dtype=float) >= 1.0,
                               1.0 - np.asarray(x, dtype=float) ** (-alpha), 0.0),
        right_endpoint=math.inf,
        left_endpoint=1.0,
        spec=f"pareto:alpha={alpha:g}",
    )


def exponential() -> ReferenceDistribution:
    """Standard exponential; index 0, U(t) = log t, a(m) = U(m) - int_0^m U / m = 1."""
    return ReferenceDistribution(
        name="exponential",
        gamma0=0.0,
        quantile=lambda u: -np.log1p(-np.asarray(u, dtype=float)),
        upper_quantile=lambda p: -np.log(np.asarray(p, dtype=float)),
        cdf=lambda x: np.where(np.asarray(x, dtype=float) >= 0.0,
                               -np.expm1(-np.asarray(x, dtype=float)), 0.0),
        right_endpoint=math.inf,
        left_endpoint=0.0,
        gumbel_scale=lambda m: 1.0,
        spec="exponential",
    )


def beta_tail(beta: float = 2.0) -> ReferenceDistribution:
    """Bounded tail F(x) = 1 - (1-x)^beta on [0,1]; index -1/beta.

    Requires beta > 1 so the index stays above -1 (beta = 1 would be the
    uniform distribution, which is outside the admissible range).
    """
    if not beta > 1.0:
        raise ValueError(f"beta must be > 1, got {beta} (beta = 1 is the uniform case, index -1)")
    return ReferenceDistribution(
        name=f"beta-tail(beta={beta:g})",
        gamma0=-1.0 / beta,
        quantile=lambda u: 1.0 - (1.0 - np.asarray(u, dtype=float)) ** (1.0 / beta),
        upper_quantile=lambda p: 1.0 - np.asarray(p, dtype=float) ** (1.0 / beta),
        cdf=lambda x: np.clip(1.0 - (1.0 - np.clip(np.asarray(x, dtype=float), 0.0, 1.0)) ** beta, 0.0, 1.0),
        right_endpoint=1.0,
        left_endpoint=0.0,
        spec=f"beta-tail:beta={beta:g}",
    )


def _cauchy_quantile(u):
    # below 1/2, -1/tan(pi*u) keeps the precision that u - 1/2 would round away
    u = np.asarray(u, dtype=float)
    lower = -1.0 / np.tan(np.pi * np.minimum(u, 0.5))
    return np.where(u < 0.5, lower, np.tan(np.pi * (u - 0.5)))[()]


def cauchy() -> ReferenceDistribution:
    """Standard Cauchy; index 1 with left endpoint -inf."""
    return ReferenceDistribution(
        name="cauchy",
        gamma0=1.0,
        quantile=_cauchy_quantile,
        upper_quantile=lambda p: 1.0 / np.tan(np.pi * np.asarray(p, dtype=float)),
        cdf=lambda x: 0.5 + np.arctan(np.asarray(x, dtype=float)) / np.pi,
        right_endpoint=math.inf,
        left_endpoint=-math.inf,
        spec="cauchy",
    )


def gev_reference(gamma: float) -> ReferenceDistribution:
    """Exact standardized GEV member: block maxima stay exactly GEV.

    For gamma == 0 the scale function is the constant 1 (an admissible
    closed-form choice for the Gumbel; the integral formula does not
    apply because U is unbounded below near the origin).
    """
    span = support_interval(gamma)
    return ReferenceDistribution(
        name=f"gev(gamma={gamma:g})",
        gamma0=float(gamma),
        quantile=lambda u: gev_quantile(gamma, u),
        upper_quantile=lambda p: gev_upper_quantile(gamma, p),
        cdf=lambda x: gev_cdf(gamma, x),
        right_endpoint=span.upper,
        left_endpoint=span.lower,
        gumbel_scale=None if gamma else (lambda m: 1.0),
        spec=f"gev:gamma={gamma:g}",
    )


def gev_sample(params: GevParams, n: int, seed) -> np.ndarray:
    """n i.i.d. draws of the GEV law ``params``: ``sample_iid`` of the exact
    member ``gev_reference(params.gamma)``, shifted by mu and scaled by sigma.

    Deterministic for a given (seed, n, params); ``seed`` may be an int,
    a SeedSequence or a Generator.
    """
    return params.mu + params.sigma * sample_iid(gev_reference(params.gamma), n, seed)


def catalog() -> list[ReferenceDistribution]:
    """Built-in members spanning indices in {-1/2, 0, 1/2, 1}."""
    return [
        pareto(1.0),
        pareto(2.0),
        exponential(),
        beta_tail(2.0),
        cauchy(),
        gev_reference(0.5),
    ]


_FAMILIES = {
    "pareto": (pareto, {"alpha": float}),
    "exponential": (exponential, {}),
    "beta-tail": (beta_tail, {"beta": float}),
    "cauchy": (cauchy, {}),
    "gev": (gev_reference, {"gamma": float}),
}


def parse_key_values(parts, types: dict, where: str, into: Optional[dict] = None) -> dict:
    """Parse ``key=value`` parts into ``into`` (a new dict by default).

    Each non-blank part must name a key of ``types`` not seen before, and
    its value is converted by ``types[key]`` (a float must be finite).  Errors
    name ``where``.
    """
    out = {} if into is None else into
    for part in parts:
        if not part.strip():
            continue
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq or key not in types:
            raise ValueError(f"bad parameter '{part.strip()}' in {where}; "
                             f"known keys: {', '.join(types) or 'none'}")
        if key in out:
            raise ValueError(f"repeated key '{key}' in {where}")
        try:
            out[key] = types[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"bad value for '{key}' in {where}: {exc}") from exc
        if types[key] is float and not math.isfinite(out[key]):
            raise ValueError(f"'{key}' must be finite in {where}, got {value.strip()}")
    return out


def from_spec(spec: str) -> ReferenceDistribution:
    """Build a member from a spec string like ``pareto:alpha=2``.

    Recognized families: pareto, exponential, beta-tail, cauchy, gev.
    ``uniform`` is rejected explicitly: its index is -1, outside the
    admissible parameter range.
    """
    spec = spec.strip()
    name, _, argstr = spec.partition(":")
    name = name.strip().lower()
    if name == "uniform":
        raise ValueError(
            "the uniform distribution has extreme value index -1 and is excluded "
            "(no consistent MLE exists at or below index -1)"
        )
    if name not in _FAMILIES:
        raise ValueError(f"unknown distribution spec '{spec}'; "
                         f"known families: {', '.join(sorted(_FAMILIES))}, e.g. pareto:alpha=1")
    make_member, types = _FAMILIES[name]
    kwargs = parse_key_values(argstr.split(","), types, f"spec '{spec}'")
    try:
        return make_member(**kwargs)
    except TypeError as exc:
        raise ValueError(f"missing parameter in spec '{spec}'") from exc


def quantile_matched_constants(dist: ReferenceDistribution, m: int) -> tuple[float, float]:
    """Alternative admissible constants read off exact quantiles of F^m.

    Location matches the m-th power CDF at probability exp(-1) (the GEV
    value at 0); scale is the quantile spacing between the GEV values 0
    and 1.  Under the normalizing-sequence equivalence these converge to
    the exact constants: ratio -> 1, normalized gap -> 0.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    b_alt = float(dist.quantile(math.exp(-1.0 / m)))
    p_ref = float(gev_cdf(dist.gamma0, 1.0))
    if not 0.0 < p_ref < 1.0:
        raise ValueError(f"the reference point 1 is not interior to the limit support "
                         f"of gamma0 = {dist.gamma0!r}")
    return float(dist.quantile(p_ref ** (1.0 / m))) - b_alt, b_alt
