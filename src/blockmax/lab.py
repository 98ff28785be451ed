"""Monte Carlo experiments around block-maxima MLE consistency.

Almost-sure limits cannot be observed directly, so every experiment here
renders them as falsifiable finite-sample statements: medians of error
statistics over independent replications, tracked along a growing grid
of sample sizes.  All randomness flows from one root seed through
per-(cell, replication) spawn keys, so reports are byte-reproducible.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .blocks import (
    BlockMaximaSeries,
    EmpiricalMeasure,
    block_maxima,  # noqa: F401  unused here; benchmarks/tracing.py wraps this binding
    empirical_mean_loglik,
    ks_distance,
    normalize,
)
from .distributions import (NormalizingConstants, ReferenceDistribution, from_spec,
                            norm_constants, parse_key_values, sample_iid)
from .fit import fit_mle
from .gev import EULER_GAMMA, GevParams

CELL_BUDGET = 10_000_000  # max n*m per replication (observations the maxima stand for)


@dataclass(frozen=True)
class GrowthRule:
    """Block-length schedule m(n).

    kinds: ``poly_log`` m(n)=ceil(c*(log n)^a), ``power`` m(n)=ceil(n^a),
    ``fixed`` m(n)=c, ``slow`` m(n)=ceil(c*log(log n))+offset.  Only
    poly_log with a>1 and power with 0<a<1 grow faster than log n.
    ``PARAMS`` lists the parameters each kind reads, in spec order.
    """

    kind: str
    c: float = 1.0
    a: float = 2.0
    offset: int = 0

    PARAMS = {"poly_log": {"c": float, "a": float}, "power": {"a": float},
              "fixed": {"c": float}, "slow": {"c": float, "offset": int}}

    def __post_init__(self):
        if self.kind not in self.PARAMS:
            raise ValueError(f"unknown growth kind '{self.kind}'")
        for field in dataclasses.fields(self)[1:]:
            if field.name not in self.PARAMS[self.kind] and getattr(self, field.name) != field.default:
                raise ValueError(f"growth kind '{self.kind}' takes no parameter '{field.name}' "
                                 f"(it reads {', '.join(self.PARAMS[self.kind])})")

    def block_length(self, n: int) -> int:
        if n < 3:
            raise ValueError("growth rules are defined for n >= 3")
        try:
            if self.kind == "poly_log":
                m = math.ceil(self.c * math.log(n) ** self.a)
            elif self.kind == "power":
                m = math.ceil(n ** self.a)
            elif self.kind == "fixed":
                m = round(self.c)
            else:
                m = math.ceil(self.c * math.log(math.log(n))) + self.offset
        except (OverflowError, ValueError) as exc:  # an m that overflows, or is NaN
            raise ValueError(f"growth '{self.describe()}' has no finite block length "
                             f"at n={n}") from exc
        return max(int(m), 1)

    @property
    def satisfies_growth_condition(self) -> bool:
        """Whether m(n)/log(n) -> infinity along this rule."""
        if self.kind == "poly_log":
            return self.a > 1.0
        if self.kind == "power":
            return 0.0 < self.a < 1.0
        return False

    def describe(self) -> str:
        params = ",".join(f"{key}={getattr(self, key):g}" for key in self.PARAMS[self.kind])
        return f"{self.kind}:{params}"

    @staticmethod
    def from_spec(spec: str) -> "GrowthRule":
        kind, _, argstr = spec.strip().partition(":")
        kind = kind.strip().lower()
        if kind not in GrowthRule.PARAMS:
            raise ValueError(f"unknown growth kind '{kind}' in '{spec}'")
        params = parse_key_values(argstr.split(","), GrowthRule.PARAMS[kind],
                                  f"growth spec '{spec}'")
        return GrowthRule(kind, **params)


def poly_log_growth(c: float = 1.0, a: float = 2.0) -> GrowthRule:
    """Default schedule m(n) = ceil((log n)^2): fast enough, cheap in draws."""
    return GrowthRule("poly_log", c=c, a=a)


def slow_growth(c: float = 1.0, offset: int = 1) -> GrowthRule:
    """m(n) = ceil(log log n) + 1: grows, but slower than log n."""
    return GrowthRule("slow", c=c, offset=offset)


@dataclass(frozen=True)
class StudyRow:
    n: int
    m: int
    rep: int
    gamma_hat: float
    mu_err: float        # (mu_hat - b_m) / a_m
    sigma_ratio: float   # sigma_hat / a_m
    converged: bool
    ks: float
    mean_ll_truth: float


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got '{text}'")
    return text == "true"


_CSV_FORMAT = {"bool": lambda value: "true" if value else "false"}
_CSV_PARSE = {"int": int, "float": float, "bool": _parse_bool}


def csv_lines(row_type, rows) -> list[str]:
    """The field names of ``row_type`` as a header, then one line per row.

    Bools are written as true/false and every other value by repr, which
    round-trips ints and floats.
    """
    fields = dataclasses.fields(row_type)
    lines = [",".join(f.name for f in fields)]
    for row in rows:
        lines.append(",".join(_CSV_FORMAT.get(f.type, repr)(getattr(row, f.name))
                              for f in fields))
    return lines


def read_csv(path, row_type) -> tuple[dict[str, str], list]:
    """Inverse of ``csv_lines``; returns the '# key: value' metadata and the rows."""
    fields = dataclasses.fields(row_type)
    header = csv_lines(row_type, [])[0]
    meta: dict[str, str] = {}
    lines = []
    with open(path, "r", encoding="utf-8") as handle:
        for text in (line.strip() for line in handle):
            if text.startswith("#"):
                key, colon, value = text.lstrip("# ").partition(":")
                if colon:
                    meta[key.strip().lower()] = value.strip()
            elif text:
                lines.append(text)
    if lines[:1] != [header]:
        raise ValueError(f"{path}: unexpected CSV header {lines[:1]}; expected '{header}'")
    rows = []
    for text in lines[1:]:
        try:
            rows.append(row_type(*(_CSV_PARSE[f.type](cell) for f, cell
                                   in zip(fields, text.split(","), strict=True))))
        except ValueError as exc:
            raise ValueError(f"{path}: malformed row '{text}': {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no {row_type.__name__} rows found")
    return meta, rows


@dataclass(frozen=True)
class StudySummary:
    n: int
    m: int
    replications: int
    gamma_err_quartiles: tuple[float, float, float]
    mu_err_quartiles: tuple[float, float, float]
    sigma_err_quartiles: tuple[float, float, float]
    frac_converged: float
    median_ks: float


@dataclass(frozen=True)
class StudyReport:
    dist_spec: str
    gamma0: float
    growth: str
    seed: int
    rows: list[StudyRow]
    summary: list[StudySummary]

    def csv_lines(self) -> list[str]:
        return csv_lines(StudyRow, self.rows)


def _cells(
    dist: ReferenceDistribution,
    n_grid: Sequence[int],
    rule: GrowthRule,
    replications: int,
    seed: int,
    stream: int,
) -> Iterator[tuple[int, NormalizingConstants, Iterator]]:
    """The Monte Carlo cell loop of every check: ``(n, constants, reps)`` per grid point.

    ``constants`` are exact for m = rule(n); ``reps`` yields each replication's n
    block maxima of length m, raw and normalized, drawn directly from F^m (n draws,
    not n*m) on the stream ``SeedSequence(seed, spawn_key=(stream, cell, rep))``.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")

    def reps(n, constants, cell):
        m = constants.m
        for rep in range(replications):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, cell, rep)))
            series = BlockMaximaSeries(sample_iid(dist, n, rng, m), m, n * m)
            yield series, normalize(series, constants)

    for cell, n in enumerate(n_grid):
        constants = norm_constants(dist, rule.block_length(int(n)))
        yield int(n), constants, reps(int(n), constants, cell)


def _quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(q1), float(q2), float(q3)


def _study_errors(rows: Sequence[StudyRow], gamma0: float) -> np.ndarray:
    """The three error statistics of each row, shape (3, len(rows)):
    |gamma_hat - gamma0|, |mu_err| and |sigma_ratio - 1|."""
    return np.abs(np.array([(r.gamma_hat - gamma0, r.mu_err, r.sigma_ratio - 1.0)
                            for r in rows], dtype=float).T)


def run_consistency_study(
    dist: ReferenceDistribution,
    n_grid: Sequence[int],
    growth: GrowthRule,
    replications: int,
    seed: int,
) -> StudyReport:
    """Fit block maxima over an n-grid and record normalized errors.

    For each n: m = growth(n); each replication draws n block maxima
    from F^m, fits the MLE on them, and reports the three error
    coordinates of the consistency statement using the exact constants.
    Non-converged fits are recorded with their flag, never dropped.
    """
    if not dist.gamma0 > -1.0:
        raise ValueError("study requires an index above -1")
    rows: list[StudyRow] = []
    summaries: list[StudySummary] = []
    truth = GevParams(dist.gamma0, 0.0, 1.0)
    for n, constants, reps in _cells(dist, n_grid, growth, replications, seed, 0):
        cell_rows: list[StudyRow] = []
        for rep, (series, normalized) in enumerate(reps):
            result = fit_mle(series.values)
            measure = EmpiricalMeasure.from_values(normalized.values)
            cell_rows.append(StudyRow(
                n=n,
                m=constants.m,
                rep=rep,
                gamma_hat=result.theta_hat.gamma,
                mu_err=(result.theta_hat.mu - constants.b_m) / constants.a_m,
                sigma_ratio=result.theta_hat.sigma / constants.a_m,
                converged=result.converged,
                ks=ks_distance(measure, dist.gamma0),
                mean_ll_truth=empirical_mean_loglik(measure, truth),
            ))
        rows.extend(cell_rows)
        summaries.append(StudySummary(
            n, constants.m, replications,
            *(_quartiles(errors) for errors in _study_errors(cell_rows, dist.gamma0)),
            frac_converged=sum(r.converged for r in cell_rows) / replications,
            median_ks=float(np.median([r.ks for r in cell_rows])),
        ))
    return StudyReport(
        dist_spec=dist.spec or dist.name,
        gamma0=dist.gamma0,
        growth=growth.describe(),
        seed=int(seed),
        rows=rows,
        summary=summaries,
    )


def expected_loglik(gamma0: float) -> float:
    """Mean of the standardized log-likelihood under its own law.

    In closed form -(1 + gamma0) * euler_gamma - 1 (write the GEV variate
    through a unit exponential); this is the limiting value of the
    empirical mean log-likelihood at the true parameters.
    """
    if not gamma0 > -1.0:
        raise ValueError("defined for index > -1 only")
    return -(1.0 + gamma0) * EULER_GAMMA - 1.0


@dataclass(frozen=True)
class CrucialLemmaRow:
    n: int
    m: int
    median_gap: float
    n_infeasible: int    # replications whose normalized maxima left the support


def check_crucial_lemma(
    dist: ReferenceDistribution,
    n_grid: Sequence[int],
    growth: GrowthRule,
    replications: int,
    seed: int,
) -> list[CrucialLemmaRow]:
    """Gap between the empirical mean log-likelihood at the truth and its limit.

    Replications where some normalized maximum falls outside the limit
    support make the empirical mean -inf; they are counted separately and
    enter the median as infinite gaps.
    """
    if not dist.gamma0 > -1.0:
        raise ValueError("requires an index above -1")
    target = expected_loglik(dist.gamma0)
    truth = GevParams(dist.gamma0, 0.0, 1.0)
    out: list[CrucialLemmaRow] = []
    for n, constants, reps in _cells(dist, n_grid, growth, replications, seed, 1):
        values = [empirical_mean_loglik(EmpiricalMeasure.from_values(normalized.values), truth)
                  for _, normalized in reps]
        gaps = [abs(v - target) if math.isfinite(v) else math.inf for v in values]
        out.append(CrucialLemmaRow(
            n=n, m=constants.m, median_gap=float(np.median(gaps)),
            n_infeasible=sum(not math.isfinite(v) for v in values),
        ))
    return out


@dataclass(frozen=True)
class ObstructionRow:
    n: int
    m_slow: int
    median_min_slow: float
    m_fast: int
    median_min_fast: float


_OBSTRUCTION_NEEDS = "obstruction check needs gamma0 > 0 and left endpoint -inf"


def _obstruction_applies(dist: ReferenceDistribution) -> bool:
    return dist.gamma0 > 0.0 and dist.left_endpoint == -math.inf


def check_slow_growth_obstruction(
    dist: ReferenceDistribution,
    n_grid: Sequence[int],
    slow: GrowthRule,
    fast: GrowthRule,
    replications: int,
    seed: int,
) -> list[ObstructionRow]:
    """Track the smallest normalized block maximum under two schedules.

    For a heavy-tailed member with left endpoint -inf, a slowly growing
    block length lets the smallest normalized maximum run away to -inf,
    which destroys the feasible region around the truth; a fast schedule
    keeps it bounded.
    """
    if not _obstruction_applies(dist):
        raise ValueError(_OBSTRUCTION_NEEDS)
    columns = [[(constants.m,
                 float(np.median([float(np.min(normalized.values)) for _, normalized in reps])))
                for _, constants, reps in _cells(dist, n_grid, rule, replications, seed, stream)]
               for stream, rule in ((2, slow), (3, fast))]
    return [ObstructionRow(n=int(n), m_slow=m_slow, median_min_slow=slow_min,
                           m_fast=m_fast, median_min_fast=fast_min)
            for n, (m_slow, slow_min), (m_fast, fast_min) in zip(n_grid, *columns)]


@dataclass(frozen=True)
class EquivalenceRow:
    m: int
    ratio: float   # a'_m / a_m
    gap: float     # (b'_m - b_m) / a_m


def check_norm_equivalence(
    dist: ReferenceDistribution,
    alt_constants: Callable[[int], tuple[float, float]],
    m_grid: Sequence[int],
) -> list[EquivalenceRow]:
    """Compare an alternative admissible normalization to the exact one."""
    out = []
    for m in m_grid:
        exact = norm_constants(dist, int(m))
        a_alt, b_alt = alt_constants(int(m))
        out.append(EquivalenceRow(
            m=int(m),
            ratio=float(a_alt / exact.a_m),
            gap=float((b_alt - exact.b_m) / exact.a_m),
        ))
    return out


# --- study configuration files -------------------------------------------

KNOWN_CHECKS = ("consistency", "crucial_lemma", "obstruction")


@dataclass(frozen=True)
class StudyConfig:
    """Parsed key=value study configuration, as read by ``parse_study_config``.

    ``checks`` and ``slow_growth`` (used by the obstruction check) are optional.
    """

    dist_spec: str
    n_grid: tuple[int, ...]
    growth: GrowthRule
    replications: int
    seed: int
    checks: tuple[str, ...] = ("consistency",)
    slow_growth: Optional[GrowthRule] = None


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


_CONFIG_KEYS = {
    "dist": str,
    "n_grid": lambda text: tuple(int(tok) for tok in _comma_list(text)),
    "growth": GrowthRule.from_spec,
    "replications": int,
    "seed": int,
    "checks": _comma_list,
    "slow_growth": GrowthRule.from_spec,
}


def parse_study_config(path) -> StudyConfig:
    """Read a key=value config file ('#' comments and blank lines skipped).

    Every line sets one key of ``_CONFIG_KEYS`` once; errors name path:line.
    """
    raw: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            parse_key_values([line.split("#", 1)[0]], _CONFIG_KEYS, f"{path}:{lineno}", raw)
    missing = [k for k in ("dist", "n_grid", "growth", "replications", "seed") if k not in raw]
    if missing:
        raise ValueError(f"{path}: missing required keys: {', '.join(missing)}")
    return StudyConfig(dist_spec=raw.pop("dist"), **raw)


def validate_study_config(config: StudyConfig) -> ReferenceDistribution:
    """Check a config against all preconditions; returns the built member.

    Raises ValueError listing every violation (budget included) so a bad
    file is diagnosed in one pass.
    """
    problems = []
    dist = None
    try:
        dist = from_spec(config.dist_spec)
    except ValueError as exc:
        problems.append(str(exc))
    if dist is not None and not dist.gamma0 > -1.0:
        problems.append(f"member index {dist.gamma0} is not above -1")
    if config.replications < 1:
        problems.append("replications must be >= 1")
    for key, values in (("n_grid", config.n_grid), ("checks", config.checks)):
        if not values:
            problems.append(f"{key} is empty")
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            problems.append(f"{key} repeats {', '.join(map(str, repeated))}")
    if config.seed < 0:
        problems.append(f"seed must be >= 0, got {config.seed}")
    for check in config.checks:
        if check not in KNOWN_CHECKS:
            problems.append(f"unknown check '{check}' (known: {', '.join(KNOWN_CHECKS)})")
    rules = [config.growth] + ([config.slow_growth] if config.slow_growth else [])
    for n in config.n_grid:
        if n < 3:
            problems.append(f"n = {n} is too small")
            continue
        for rule in rules:
            try:
                m = rule.block_length(n)
            except ValueError as exc:
                problems.append(str(exc))
                continue
            if m < 2:
                problems.append(f"cell n={n}, m={m} under growth '{rule.describe()}': "
                                "exact constants need m >= 2")
            if n * m > CELL_BUDGET:
                problems.append(
                    f"cell n={n}, m={m} stands for {n * m} observations per replication, "
                    f"over the {CELL_BUDGET} budget"
                )
    if "crucial_lemma" in config.checks and not config.growth.satisfies_growth_condition:
        problems.append("crucial_lemma check requires a growth rule with m(n)/log(n) -> inf")
    if "obstruction" in config.checks:
        if config.slow_growth is None:
            problems.append("obstruction check requires a slow_growth rule")
        if dist is not None and not _obstruction_applies(dist):
            problems.append(_OBSTRUCTION_NEEDS)
    elif config.slow_growth is not None:
        problems.append("slow_growth is set but the obstruction check is not requested")
    if problems:
        raise ValueError("invalid study config:\n  - " + "\n  - ".join(problems))
    return dist
