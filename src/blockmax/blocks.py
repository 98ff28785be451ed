"""Block maxima extraction, normalization and empirical-measure functionals."""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .distributions import NormalizingConstants
from .gev import GevParams, _series, check_finite, gev_cdf, gev_loglik3


def block_maxima(data, m: int) -> np.ndarray:
    """The maxima of the contiguous blocks of length m of one series, as floats.

    A trailing block shorter than m is dropped: its maximum would follow a
    different power of the base distribution and would contaminate
    everything downstream.
    """
    data = _series(data, "block_maxima")
    if m < 1:
        raise ValueError("block length m must be >= 1")
    check_finite(data)
    n_blocks = data.size // m
    if n_blocks == 0:
        raise ValueError(f"data length {data.size} is shorter than one block of length {m}")
    return data[: n_blocks * m].reshape(n_blocks, m).max(axis=1)


def normalize(maxima: np.ndarray, constants: NormalizingConstants) -> np.ndarray:
    """The maxima centered by b_m and rescaled by a_m.

    The maxima must be of block length ``constants.m``; nothing here can
    check that, since an array of maxima does not carry its block length.
    """
    return (maxima - constants.b_m) / constants.a_m


def ks_distance(values, gamma: float) -> float:
    """Exact sup-distance between the empirical CDF of ``values`` and the GEV CDF.

    The supremum of a step-versus-continuous difference is attained at a
    jump, so both one-sided gaps are evaluated at every order statistic.
    """
    x = np.sort(_series(values, "ks_distance"))
    n = x.size
    f = gev_cdf(gamma, x)
    steps_hi = np.arange(1, n + 1) / n
    steps_lo = np.arange(0, n) / n
    return float(max(np.max(steps_hi - f), np.max(f - steps_lo)))


def _mean_loglik(params: GevParams, x: np.ndarray) -> float:
    """Mean of ``gev_loglik3`` over the series ``x`` (one that passed ``_series``),
    behind ``empirical_mean_loglik`` and ``fit.sample_loglik``; -inf if any point
    scores -inf (an infinite point does) or the sum overflows."""
    ll = gev_loglik3(params, x)
    with np.errstate(over="ignore"):
        return float(ll.sum() / ll.size)  # np.mean's bits, without its call overhead


def empirical_mean_loglik(values, params: GevParams) -> float:
    """Mean log-likelihood over the empirical measure of ``values``; -inf if
    any point is outside the support of ``params``.  The sum runs in sorted
    order, so the result does not depend on the order of the points."""
    return _mean_loglik(params, np.sort(_series(values, "empirical_mean_loglik")))


def read_values(path) -> np.ndarray:
    """Read one finite float per line; '#' comments and blank lines are skipped."""
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                values.append(float(text))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: cannot parse '{text}' as a number") from exc
    values = np.asarray(values, dtype=float)
    check_finite(values, str(path))
    return values


def write_values(path, values, header_lines=()) -> None:
    """Write one value per line at full round-trip precision."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        for line in header_lines:
            handle.write(f"# {line}\n")
        for v in np.asarray(values, dtype=float):
            handle.write(f"{float(v)!r}\n")
