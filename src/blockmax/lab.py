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

import contextlib
import dataclasses
import functools
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .blocks import (
    block_maxima,  # noqa: F401  unused here; benchmarks/tracing.py wraps this binding
    empirical_mean_loglik,
    ks_distance,
    normalize,
)
from .distributions import (NormalizingConstants, ReferenceDistribution, from_spec,
                            norm_constants, parse_key_values, sample_iid, sample_min)
from .fit import BLOCK_VALUES, fit_mle
from .gev import EULER_GAMMA, GevParams

CELL_BUDGET = 10_000_000  # max n*m per replication (observations the maxima stand for)


@dataclass(frozen=True)
class GrowthRule:
    """Block-length schedule m(n).

    kinds: ``poly_log`` m(n)=ceil(c*(log n)^a), ``power`` m(n)=ceil(n^a),
    ``fixed`` m(n)=c, ``slow`` m(n)=ceil(c*log(log n))+offset.  Only
    poly_log with a>1 and power with a>0 grow faster than log n.
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
            return self.a > 0.0
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


def _replications(dist, n, constants, seed, stream, cell, reps, draw=None):
    """Each replication in ``reps`` of one cell: its block maxima of length
    m = ``constants.m``, raw and normalized, as ``draw(dist, n, rng, m)``
    returns them on the stream ``SeedSequence(seed, spawn_key=(stream, cell, rep))``.
    ``draw`` defaults to this module's ``sample_iid`` binding, looked up at
    each call: n maxima drawn directly from F^m (n draws, not n*m)."""
    m = constants.m
    for rep in reps:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, cell, rep)))
        maxima = (draw or sample_iid)(dist, n, rng, m)
        yield maxima, normalize(maxima, constants)


def _cells(dist: ReferenceDistribution, n_grid: Sequence[int], rule: GrowthRule,
           replications: int) -> list[tuple[int, NormalizingConstants]]:
    """The Monte Carlo grid of every check: ``(n, constants)`` per grid point,
    with ``constants`` exact for m = rule(n); cell k's replications come from
    ``_replications`` with ``cell=k``."""
    if replications < 1:
        raise ValueError("replications must be >= 1")
    return [(int(n), norm_constants(dist, rule.block_length(int(n)))) for n in n_grid]


def _cell_scores(dist, n_grid, rule, replications, seed, stream, score, draw=None):
    """``(n, constants, scores)`` per cell of ``_cells``: ``score(normalized)`` of
    each replication on ``stream`` (``_replications``, with its ``draw``).
    The replication loop of the checks that fit nothing; serial, because an
    obstruction check pooled by cell on obstruction-cauchy's inputs was slower:
    a median 33.4 ms against 17.9 ms serial in 20 alternated runs on 2 CPUs."""
    return [(n, constants, [score(normalized) for _, normalized in _replications(
                dist, n, constants, seed, stream, cell, range(replications), draw)])
            for cell, (n, constants) in enumerate(_cells(dist, n_grid, rule, replications))]


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


_work = None  # what a pool worker runs each task through; set by _start_worker


def _start_worker(work):
    """Pool initializer.  ``work`` reaches a forked worker without being
    pickled, so it may hold what pickle refuses, a catalog member's lambdas
    among them.  Ctrl-C interrupts the study, not each worker."""
    import signal  # here, so that importing blockmax does not load it

    global _work
    _work = work
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run_task(task):
    """One task in a pool worker.  A module-level function, so the pool can
    send it by name; the task is a tuple of ints."""
    return _work(*task)


def _pooled(work, tasks):
    """``work(*task)`` for each of ``tasks``, in order.

    The tasks run in ``min(_worker_count(), len(tasks))`` forked workers
    through ``ProcessPoolExecutor.map``, which yields the results in order.
    Workers are forked, not spawned, so they import nothing, receive
    ``work`` through the pool's initializer and run this module's bindings
    as the caller has them, a wrapped ``fit_mle`` included.  A task that
    raises raises here, and a worker that dies raises ``BrokenProcessPool``
    here instead of leaving the caller waiting; either, or closing this
    generator, cancels the tasks that have not started.  With one worker,
    no ``fork`` start method or a daemonic caller (which may not have
    children), each task runs through the same ``work`` in this process.
    The results are the same either way.
    """
    workers = min(_worker_count(), len(tasks))
    pool = None
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_start_worker, initargs=(work,))
    if pool is None:
        for task in tasks:
            yield work(*task)
        return
    with pool:  # leaving a pool joins its workers
        yield from pool.map(_run_task, tasks)


def _study_block(dist, seed, cells, cell, first, count):
    """The rows of replications ``first`` .. ``first + count - 1`` of study
    cell ``cell``, whose ``(n, constants)`` is ``cells[cell]``.

    The replications are drawn on stream 0 and normalized
    (``_replications``), fitted in one ``fit_mle`` call with one series per
    row, which gives each the fit it would get on its own, and scored
    against the truth.
    """
    n, constants = cells[cell]
    reps = range(first, first + count)
    block = list(_replications(dist, n, constants, seed, 0, cell, reps))
    fits = fit_mle(np.array([maxima for maxima, _ in block]))
    truth = GevParams(dist.gamma0, 0.0, 1.0)
    return [StudyRow(
        n=n,
        m=constants.m,
        rep=rep,
        gamma_hat=result.theta_hat.gamma,
        mu_err=(result.theta_hat.mu - constants.b_m) / constants.a_m,
        sigma_ratio=result.theta_hat.sigma / constants.a_m,
        converged=result.converged,
        ks=ks_distance(normalized, dist.gamma0),
        mean_ll_truth=empirical_mean_loglik(normalized, truth),
    ) for rep, (_, normalized), result in zip(reps, block, fits)]


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
    constants.  A cell's replications go in blocks of ``BLOCK_VALUES // n``
    of them (at least one), and ``_study_block`` draws, fits and scores
    each block.  The blocks run on every available CPU (``_pooled``): this
    process hands out (cell, first replication, count) and only orders the
    returned rows and summarizes each cell, and the rows do not depend on
    how many workers there are.  Non-converged fits are recorded with
    their flag, never dropped.
    """
    if not dist.gamma0 > -1.0:
        raise ValueError("study requires an index above -1")
    cells = _cells(dist, n_grid, growth, replications)
    tasks = []
    for cell, (n, _) in enumerate(cells):
        size = max(1, BLOCK_VALUES // n)
        tasks += [(cell, first, min(size, replications - first))
                  for first in range(0, replications, size)]
    work = functools.partial(_study_block, dist, seed, cells)
    with contextlib.closing(_pooled(work, tasks)) as blocks:
        rows = [row for block_rows in blocks for row in block_rows]
    by_cell = [rows[k:k + replications] for k in range(0, len(rows), replications)]
    return StudyReport(
        dist_spec=dist.spec or dist.name,
        gamma0=dist.gamma0,
        growth=growth.describe(),
        rows=rows,
        summary=[StudySummary(
            cell[0].n, cell[0].m,
            *(box[1:4] for box in _error_boxes(cell, dist.gamma0)),
            frac_converged=sum(r.converged for r in cell) / replications,
            median_ks=float(np.median([r.ks for r in cell])),
        ) for cell in by_cell],
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
    return [CrucialLemmaRow(
        n=n, m=constants.m, median_gap=float(np.median(
            [abs(v - target) if math.isfinite(v) else math.inf for v in values])),
        n_infeasible=sum(not math.isfinite(v) for v in values),
    ) for n, constants, values in _cell_scores(dist, n_grid, growth, replications, seed, 1,
                                               lambda z: empirical_mean_loglik(z, truth))]


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


def _obstruction_rule_problems(slow: GrowthRule, fast: GrowthRule,
                               slow_name: str, fast_name: str) -> list[str]:
    """Why the two rules cannot be the obstruction check's slow and fast rules:
    the slow one must fail the growth condition m(n)/log(n) -> inf, the fast
    one must meet it."""
    problems = []
    if slow.satisfies_growth_condition:
        problems.append(f"obstruction check requires a {slow_name} rule without "
                        f"m(n)/log(n) -> inf, got '{slow.describe()}'")
    if not fast.satisfies_growth_condition:
        problems.append(f"obstruction check requires a {fast_name} rule with "
                        f"m(n)/log(n) -> inf, got '{fast.describe()}'")
    return problems


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
    keeps it bounded.  ``slow`` must fail the growth condition
    m(n)/log(n) -> inf and ``fast`` must meet it.  Replications draw
    through ``sample_min``: the smallest of the n maxima ``sample_iid``
    would draw, bit for bit.
    """
    if not _obstruction_applies(dist):
        raise ValueError(_OBSTRUCTION_NEEDS)
    problems = _obstruction_rule_problems(slow, fast, "slow", "fast")
    if problems:
        raise ValueError("; ".join(problems))
    slow_cells, fast_cells = (_cell_scores(dist, n_grid, rule, replications, seed, stream,
                                           lambda z: float(np.min(z)), sample_min)
                              for stream, rule in ((2, slow), (3, fast)))
    return [ObstructionRow(n=n, m_slow=slow_c.m, median_min_slow=float(np.median(slow_min)),
                           m_fast=fast_c.m, median_min_fast=float(np.median(fast_min)))
            for (n, slow_c, slow_min), (_, fast_c, fast_min) in zip(slow_cells, fast_cells)]


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
        else:
            problems.extend(_obstruction_rule_problems(config.slow_growth, config.growth,
                                                       "slow_growth", "growth"))
        if dist is not None and not _obstruction_applies(dist):
            problems.append(_OBSTRUCTION_NEEDS)
    elif config.slow_growth is not None:
        problems.append("slow_growth is set but the obstruction check is not requested")
    if problems:
        raise ValueError("invalid study config:\n  - " + "\n  - ".join(problems))
    return dist
