"""Block maxima extraction, normalization and empirical-measure functionals."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import NormalizingConstants
from .gev import GevParams, gev_cdf, gev_loglik3


@dataclass(frozen=True)
class BlockMaximaSeries:
    """Per-block maxima of a contiguous partition into blocks of fixed length.

    A trailing block shorter than ``block_length`` is dropped: its maximum
    would follow a different power of the base distribution and would
    contaminate everything downstream.
    """

    values: np.ndarray
    block_length: int
    source_length: int

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class NormalizedSeries:
    """Block maxima mapped through x -> (x - b_m) / a_m."""

    values: np.ndarray
    constants: NormalizingConstants


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Equal-weight point measure; points kept sorted."""

    points: np.ndarray

    @staticmethod
    def from_values(values) -> "EmpiricalMeasure":
        values = np.sort(np.asarray(values, dtype=float))
        if values.size == 0:
            raise ValueError("empirical measure needs at least one point")
        return EmpiricalMeasure(points=values)


def check_finite(values: np.ndarray, where: str = "") -> None:
    """Refuse NaN and infinite values with a count of each; errors start with ``where``."""
    if not np.all(np.isfinite(values)):
        n_nan = int(np.count_nonzero(np.isnan(values)))
        n_inf = int(np.count_nonzero(np.isinf(values)))
        prefix = f"{where}: " if where else ""
        raise ValueError(
            f"{prefix}{n_nan} NaN and {n_inf} infinite values among {values.size} observations"
        )


def block_maxima(data, m: int) -> BlockMaximaSeries:
    """Split ``data`` into blocks of length m and take each block's max."""
    data = np.asarray(data, dtype=float)
    if m < 1:
        raise ValueError("block length m must be >= 1")
    check_finite(data)
    n_blocks = data.size // m
    if n_blocks == 0:
        raise ValueError(f"data length {data.size} is shorter than one block of length {m}")
    maxima = data[: n_blocks * m].reshape(n_blocks, m).max(axis=1)
    return BlockMaximaSeries(values=maxima, block_length=int(m), source_length=int(data.size))


def normalize(series: BlockMaximaSeries, constants: NormalizingConstants) -> NormalizedSeries:
    """Center by b_m and rescale by a_m; block lengths must agree."""
    if constants.m != series.block_length:
        raise ValueError(
            f"constants are for block length {constants.m}, series has {series.block_length}"
        )
    return NormalizedSeries(
        values=(series.values - constants.b_m) / constants.a_m,
        constants=constants,
    )


def ks_distance(measure: EmpiricalMeasure, gamma: float) -> float:
    """Exact sup-distance between the empirical CDF and the GEV CDF.

    The supremum of a step-versus-continuous difference is attained at a
    jump, so both one-sided gaps are evaluated at every order statistic.
    """
    x = measure.points
    n = x.size
    f = np.atleast_1d(gev_cdf(gamma, x))
    steps_hi = np.arange(1, n + 1) / n
    steps_lo = np.arange(0, n) / n
    return float(max(np.max(steps_hi - f), np.max(f - steps_lo)))


def _mean_loglik(params: GevParams, x: np.ndarray) -> float:
    """Mean of ``gev_loglik3`` over ``x``, behind ``empirical_mean_loglik`` and
    ``fit.sample_loglik``; -inf if any point scores -inf or the sum overflows."""
    if x.size == 0:
        raise ValueError("empty series")
    ll = np.atleast_1d(gev_loglik3(params, x))
    if (ll == -np.inf).any():
        return float("-inf")
    with np.errstate(over="ignore"):
        return float(ll.sum() / ll.size)  # np.mean's bits, without its call overhead


def empirical_mean_loglik(measure: EmpiricalMeasure, params: GevParams) -> float:
    """Mean log-likelihood over the point measure; -inf if any point is
    outside the support of ``params``."""
    return _mean_loglik(params, measure.points)


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
