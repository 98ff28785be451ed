"""Monte Carlo experiments around block-maxima MLE consistency.

Almost-sure limits cannot be observed directly, so every experiment here
renders them as falsifiable finite-sample statements: medians of error
statistics over independent replications, tracked along a growing grid
of sample sizes.  All randomness flows from one root seed through
per-(cell, replication) spawn keys, so reports are byte-reproducible.
The lab also owns the format of every study file: the CSV rows, the
``summary.txt`` text and the SVG box plot of a report.
"""
from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .blocks import (
    BlockMaximaSeries,
    block_maxima,  # noqa: F401  unused here; benchmarks/tracing.py wraps this binding
    empirical_mean_loglik,
    ks_distance,
    normalize,
)
from .distributions import (NormalizingConstants, ReferenceDistribution, from_spec,
                            norm_constants, parse_key_values, sample_iid)
from .fit import BLOCK_VALUES, fit_mle
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


def poly_log_growth() -> GrowthRule:
    """Default schedule m(n) = ceil((log n)^2): fast enough, cheap in draws."""
    return GrowthRule("poly_log", c=1.0, a=2.0)


def slow_growth() -> GrowthRule:
    """m(n) = ceil(log log n) + 1: grows, but slower than log n."""
    return GrowthRule("slow", c=1.0, offset=1)


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
    rows: list[StudyRow]
    summary: list[StudySummary]

    def csv_lines(self) -> list[str]:
        return csv_lines(StudyRow, self.rows)

    def summary_lines(self) -> list[str]:
        """The text of ``summary.txt``: per-n quartiles of the three error statistics."""
        lines = [
            f"study of {self.dist_spec} (gamma0 = {self.gamma0:g}), growth {self.growth}",
            "per-n quartiles (q1 / median / q3) of the three error statistics:",
        ]
        for s in self.summary:
            ge, me, se = s.gamma_err_quartiles, s.mu_err_quartiles, s.sigma_err_quartiles
            lines.append(
                f"n={s.n} m={s.m}: |gamma_err| {ge[0]:.4g}/{ge[1]:.4g}/{ge[2]:.4g}  "
                f"|mu_err| {me[0]:.4g}/{me[1]:.4g}/{me[2]:.4g}  "
                f"|sigma_err| {se[0]:.4g}/{se[1]:.4g}/{se[2]:.4g}  "
                f"converged {100 * s.frac_converged:.1f}%  median_ks {s.median_ks:.4g}"
            )
        return lines


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
            series = BlockMaximaSeries(sample_iid(dist, n, rng, m), m)
            yield series, normalize(series, constants)

    for cell, n in enumerate(n_grid):
        constants = norm_constants(dist, rule.block_length(int(n)))
        yield int(n), constants, reps(int(n), constants, cell)


def _error_boxes(rows: Sequence[StudyRow], gamma0: float) -> list[tuple[float, ...]]:
    """(min, q1, median, q3, max) over ``rows`` of each error statistic:
    |gamma_hat - gamma0|, |mu_err| and |sigma_ratio - 1|."""
    errors = np.abs(np.array([(r.gamma_hat - gamma0, r.mu_err, r.sigma_ratio - 1.0)
                              for r in rows], dtype=float).T)
    return [tuple(map(float, np.percentile(e, [0, 25, 50, 75, 100]))) for e in errors]


def _worker_count() -> int:
    """The CPUs this process may run on: the most fit workers a study forks."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fit_block(values):
    """One block's fits.  A module-level function, so a pool can send it by
    name; it calls this module's ``fit_mle`` binding where it runs."""
    return fit_mle(values)


def _ignore_sigint():
    """Pool initializer: Ctrl-C interrupts the study, not each worker."""
    import signal  # here, so that importing blockmax does not load it

    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _fitted_blocks(blocks, n_blocks):
    """``(item, fits)`` for each ``(item, values)`` of ``blocks``, in order.

    Each block's values are fitted by ``_fit_block`` in one of
    ``min(_worker_count(), n_blocks)`` forked workers, with at most two
    blocks per worker in flight; the caller keeps drawing the next blocks
    meanwhile.  Workers are forked, not spawned, so they import nothing
    and run this module's bindings as the caller has them, a wrapped
    ``fit_mle`` included.  A worker that dies raises ``BrokenProcessPool``
    here instead of leaving the study waiting.  With one worker, no
    ``fork`` start method or a daemonic caller (which may not have
    children), each block is fitted in this process as it is drawn.  The
    fits are the same either way.
    """
    workers = min(_worker_count(), n_blocks)
    pool = None
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_ignore_sigint)
    window = 1 if pool is None else 2 * workers
    with contextlib.nullcontext() if pool is None else pool:  # leaving a pool joins its workers
        pending = collections.deque()
        for item, values in blocks:
            pending.append((item, functools.partial(_fit_block, values) if pool is None
                            else pool.submit(_fit_block, values).result))
            if len(pending) == window:
                item, fits = pending.popleft()
                yield item, fits()
        for item, fits in pending:
            yield item, fits()


def run_consistency_study(
    dist: ReferenceDistribution,
    n_grid: Sequence[int],
    growth: GrowthRule,
    replications: int,
    seed: int,
) -> StudyReport:
    """Fit block maxima over an n-grid and record normalized errors.

    For each n: m = growth(n); each replication draws n block maxima
    from F^m, and the MLE is fitted on them; the row reports the three
    error coordinates of the consistency statement using the exact
    constants.  A cell's replications are drawn and fitted in blocks of
    ``BLOCK_VALUES // n`` of them (at least one): one ``fit_mle`` call
    per block, one series per row, which gives every replication the
    fit it would get on its own.  This process draws and scores every
    replication; the blocks are fitted on every available CPU
    (``_fitted_blocks``), and the rows do not depend on how many there
    are.  Non-converged fits are recorded with their flag, never dropped.
    """
    if not dist.gamma0 > -1.0:
        raise ValueError("study requires an index above -1")
    rows: list[StudyRow] = []
    summaries: list[StudySummary] = []
    truth = GevParams(dist.gamma0, 0.0, 1.0)

    def blocks():
        for n, constants, reps in _cells(dist, n_grid, growth, replications, seed, 0):
            while block := list(itertools.islice(reps, max(1, BLOCK_VALUES // n))):
                yield (n, constants, block), np.array([series.values for series, _ in block])

    n_blocks = sum(-(-replications // max(1, BLOCK_VALUES // int(n))) for n in n_grid)
    cell_rows: list[StudyRow] = []
    with contextlib.closing(_fitted_blocks(blocks(), n_blocks)) as fitted:
        for (n, constants, block), fits in fitted:
            for (_, normalized), result in zip(block, fits):
                cell_rows.append(StudyRow(
                    n=n,
                    m=constants.m,
                    rep=len(cell_rows),
                    gamma_hat=result.theta_hat.gamma,
                    mu_err=(result.theta_hat.mu - constants.b_m) / constants.a_m,
                    sigma_ratio=result.theta_hat.sigma / constants.a_m,
                    converged=result.converged,
                    ks=ks_distance(normalized, dist.gamma0),
                    mean_ll_truth=empirical_mean_loglik(normalized, truth),
                ))
            if len(cell_rows) < replications:
                continue
            rows.extend(cell_rows)
            summaries.append(StudySummary(
                n, constants.m, *(box[1:4] for box in _error_boxes(cell_rows, dist.gamma0)),
                frac_converged=sum(r.converged for r in cell_rows) / replications,
                median_ks=float(np.median([r.ks for r in cell_rows])),
            ))
            cell_rows = []
    return StudyReport(
        dist_spec=dist.spec or dist.name,
        gamma0=dist.gamma0,
        growth=growth.describe(),
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
        values = [empirical_mean_loglik(normalized, truth) for _, normalized in reps]
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
                 float(np.median([float(np.min(normalized)) for _, normalized in reps])))
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


# --- plotting ------------------------------------------------------------


def _svg_boxpanel(parts, x0, y0, width, height, title, n_values, stats):
    """Append one panel of boxes (one per n) to the SVG fragment list."""
    top = max(hi for *_, hi in stats)
    top = top * 1.1 if top > 0 else 1.0
    plot_h = height - 40
    plot_w = width - 44
    ax_x = x0 + 36

    def sy(v):
        return y0 + 10 + plot_h * (1.0 - v / top)

    parts.append(f'<text x="{x0 + width / 2:.1f}" y="{y0 + 8:.1f}" text-anchor="middle" '
                 f'font-size="12" font-weight="bold">{title}</text>')
    parts.append(f'<line x1="{ax_x:.1f}" y1="{sy(0):.1f}" x2="{ax_x + plot_w:.1f}" '
                 f'y2="{sy(0):.1f}" stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{ax_x:.1f}" y1="{sy(0):.1f}" x2="{ax_x:.1f}" '
                 f'y2="{y0 + 10:.1f}" stroke="black" stroke-width="1"/>')
    for frac in (0.0, 0.5, 1.0):
        v = top * frac
        parts.append(f'<text x="{ax_x - 4:.1f}" y="{sy(v) + 4:.1f}" text-anchor="end" '
                     f'font-size="9">{v:.3g}</text>')
    slot = plot_w / len(stats)
    box_w = slot * 0.4
    for i, ((lo, q1, q2, q3, hi), n) in enumerate(zip(stats, n_values)):
        cx = ax_x + slot * (i + 0.5)
        parts.append(f'<line x1="{cx:.1f}" y1="{sy(lo):.1f}" x2="{cx:.1f}" '
                     f'y2="{sy(hi):.1f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<rect x="{cx - box_w / 2:.1f}" y="{sy(q3):.1f}" width="{box_w:.1f}" '
                     f'height="{sy(q1) - sy(q3):.1f}" fill="#9ecae1" stroke="black"/>')
        parts.append(f'<line x1="{cx - box_w / 2:.1f}" y1="{sy(q2):.1f}" '
                     f'x2="{cx + box_w / 2:.1f}" y2="{sy(q2):.1f}" '
                     f'stroke="black" stroke-width="2"/>')
        parts.append(f'<text x="{cx:.1f}" y="{y0 + height - 12:.1f}" text-anchor="middle" '
                     f'font-size="10">n={n}</text>')


def render_study_svg(csv_path) -> str:
    """Three box-summary panels of the normalized estimation errors in a
    study's ``report.csv``, one box per n."""
    meta, rows = read_csv(csv_path, StudyRow)
    if "gamma0" not in meta:
        raise ValueError(f"{csv_path}: missing '# gamma0:' metadata needed for error statistics")
    try:
        gamma0 = float(meta["gamma0"])
    except ValueError:
        gamma0 = math.nan
    if not math.isfinite(gamma0):
        raise ValueError(f"{csv_path}: '# gamma0:' must be a finite number, got '{meta['gamma0']}'")
    for i, row in enumerate(rows, start=1):
        for column in ("gamma_hat", "mu_err", "sigma_ratio"):
            if not math.isfinite(getattr(row, column)):
                raise ValueError(f"{csv_path}: row {i} (n={row.n}, rep={row.rep}) has "
                                 f"non-finite {column} {getattr(row, column)!r}")
    n_values = sorted({r.n for r in rows})
    boxes = [_error_boxes([r for r in rows if r.n == n], gamma0) for n in n_values]
    titles = ("|gamma_hat - gamma0|", "|mu_err|", "|sigma_ratio - 1|")
    panel_w, panel_h, pad = 290, 280, 10
    width = 3 * panel_w + 4 * pad
    height = panel_h + 2 * pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for idx, (title, stats) in enumerate(zip(titles, zip(*boxes))):
        parts.append(f'<g class="panel" id="panel-{idx}">')
        _svg_boxpanel(parts, pad + idx * (panel_w + pad), pad, panel_w, panel_h,
                      title, n_values, stats)
        parts.append('</g>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
