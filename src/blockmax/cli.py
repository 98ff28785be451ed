"""Command-line front end: simulate, blocks, fit, gof, study, plot.

Exit codes: 0 for success (including statistically poor but well-formed
outcomes such as a non-converged fit), 2 for usage, config or parse
errors.  Every output file starts with '#' metadata lines carrying the
tool version, the command line and the seed, so runs can be reproduced
exactly.
"""
from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .blocks import EmpiricalMeasure, block_maxima, ks_distance, read_values, write_values
from .distributions import from_spec, sample_iid
from .fit import fit_mle
from .gev import GevParams
from .lab import (
    CrucialLemmaRow,
    ObstructionRow,
    StudyReport,
    StudyRow,
    _study_errors,
    check_crucial_lemma,
    check_slow_growth_obstruction,
    csv_lines,
    parse_study_config,
    read_csv,
    run_consistency_study,
    validate_study_config,
)


def _meta_lines(command_line: str, extra: dict) -> list[str]:
    lines = [f"blockmax v{__version__}", f"command: {command_line}"]
    lines.extend(f"{key}: {value}" for key, value in extra.items())
    return lines


def _resolve_seed(seed) -> int:
    if seed is not None:
        return int(seed)
    return int(np.random.SeedSequence().entropy % (2 ** 63))


def cmd_simulate(args, command_line: str) -> int:
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    dist = from_spec(args.dist)
    seed = _resolve_seed(args.seed)
    values = sample_iid(dist, args.n, seed)
    write_values(args.out, values, _meta_lines(command_line, {
        "dist": dist.spec, "gamma0": repr(dist.gamma0), "n": args.n, "seed": seed,
    }))
    return 0


def cmd_blocks(args, command_line: str) -> int:
    data = read_values(args.input)
    series = block_maxima(data, args.block_size)
    write_values(args.out, series.values, _meta_lines(command_line, {
        "block_size": series.block_length,
        "n_blocks": len(series),
        "source_length": series.source_length,
    }))
    return 0


def cmd_fit(args, command_line: str) -> int:
    if args.block_size < 1:
        raise ValueError("block length m must be >= 1")
    data = read_values(args.input)
    if data.size == 0:
        raise ValueError(f"{args.input}: no data values found")
    if data.size // args.block_size < 3:
        raise ValueError(
            f"{args.input}: {data.size} values give {data.size // args.block_size} "
            f"blocks of length {args.block_size}; need at least 3"
        )
    maxima = block_maxima(data, args.block_size).values
    if maxima.min() == maxima.max():
        raise ValueError(f"{args.input}: all {maxima.size} block maxima of length "
                         f"{args.block_size} equal {float(maxima[0])!r}; "
                         "a GEV fit needs at least two distinct maxima")
    result = fit_mle(maxima)
    record = {
        "gamma_hat": repr(result.theta_hat.gamma),
        "mu_hat": repr(result.theta_hat.mu),
        "sigma_hat": repr(result.theta_hat.sigma),
        "loglik": repr(result.loglik),
        "grad_norm": repr(result.grad_norm),
        "hessian_negdef": "true" if result.hessian_negdef else "false",
        "converged": "true" if result.converged else "false",
        "iterations": result.iterations,
        "n_blocks": result.n_blocks,
        "diagnostic": result.diagnostic,
    }
    lines = [f"# {line}" for line in _meta_lines(command_line, {"block_size": args.block_size})]
    lines += [f"{key} = {value}" for key, value in record.items()]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_gof(args, command_line: str) -> int:
    for flag, value in (("--gamma", args.gamma), ("--mu", args.mu), ("--sigma", args.sigma)):
        if not np.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    data = read_values(args.input)
    if data.size == 0:
        raise ValueError(f"{args.input}: no data values found")
    params = GevParams(args.gamma, args.mu, args.sigma)
    standardized = (data - params.mu) / params.sigma
    distance = ks_distance(EmpiricalMeasure.from_values(standardized), params.gamma)
    sys.stdout.write(f"n = {data.size}\nks = {distance!r}\n")
    return 0


def cmd_study(args, command_line: str) -> int:
    config = parse_study_config(args.config)
    dist = validate_study_config(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = _meta_lines(command_line, {
        "dist": config.dist_spec,
        "gamma0": repr(dist.gamma0),
        "growth": config.growth.describe(),
        "n_grid": ",".join(str(n) for n in config.n_grid),
        "replications": config.replications,
        "seed": config.seed,
    })
    header = [f"# {line}" for line in meta]

    def write(name: str, lines: list[str]) -> None:
        (out_dir / name).write_text("\n".join(header + lines) + "\n", encoding="utf-8")

    if "consistency" in config.checks:
        report = run_consistency_study(
            dist, config.n_grid, config.growth, config.replications, config.seed,
        )
        write("report.csv", report.csv_lines())
        write("summary.txt", _summary_lines(report))
    if "crucial_lemma" in config.checks:
        write("crucial_lemma.csv", csv_lines(CrucialLemmaRow, check_crucial_lemma(
            dist, config.n_grid, config.growth, config.replications, config.seed,
        )))
    if "obstruction" in config.checks:
        write("obstruction.csv", csv_lines(ObstructionRow, check_slow_growth_obstruction(
            dist, config.n_grid, config.slow_growth, config.growth,
            config.replications, config.seed,
        )))
    return 0


def _summary_lines(report: StudyReport) -> list[str]:
    lines = [
        f"study of {report.dist_spec} (gamma0 = {report.gamma0:g}), growth {report.growth}",
        "per-n quartiles (q1 / median / q3) of the three error statistics:",
    ]
    for s in report.summary:
        ge, me, se = s.gamma_err_quartiles, s.mu_err_quartiles, s.sigma_err_quartiles
        lines.append(
            f"n={s.n} m={s.m}: |gamma_err| {ge[0]:.4g}/{ge[1]:.4g}/{ge[2]:.4g}  "
            f"|mu_err| {me[0]:.4g}/{me[1]:.4g}/{me[2]:.4g}  "
            f"|sigma_err| {se[0]:.4g}/{se[1]:.4g}/{se[2]:.4g}  "
            f"converged {100 * s.frac_converged:.1f}%  median_ks {s.median_ks:.4g}"
        )
    return lines


# --- plotting -------------------------------------------------------------


def _read_study_csv(path) -> tuple[float, list[StudyRow]]:
    """Parse a study report CSV; returns (gamma0, rows)."""
    meta, rows = read_csv(path, StudyRow)
    if "gamma0" not in meta:
        raise ValueError(f"{path}: missing '# gamma0:' metadata needed for error statistics")
    return float(meta["gamma0"]), rows


def _box_stats(values: np.ndarray) -> tuple[float, float, float, float, float]:
    lo, q1, q2, q3, hi = np.percentile(values, [0, 25, 50, 75, 100])
    return float(lo), float(q1), float(q2), float(q3), float(hi)


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
    """Three box-summary panels of the normalized estimation errors."""
    gamma0, rows = _read_study_csv(csv_path)
    row_n = np.array([r.n for r in rows])
    n_values = sorted({r.n for r in rows})
    titles = ("|gamma_hat - gamma0|", "|mu_err|", "|sigma_ratio - 1|")
    panel_w, panel_h, pad = 290, 280, 10
    width = 3 * panel_w + 4 * pad
    height = panel_h + 2 * pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for idx, (title, values) in enumerate(zip(titles, _study_errors(rows, gamma0))):
        stats = [_box_stats(values[row_n == n]) for n in n_values]
        parts.append(f'<g class="panel" id="panel-{idx}">')
        _svg_boxpanel(parts, pad + idx * (panel_w + pad), pad, panel_w, panel_h,
                      title, n_values, stats)
        parts.append('</g>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args, command_line: str) -> int:
    svg = render_study_svg(args.report)
    Path(args.out).write_text(svg, encoding="utf-8")
    return 0


# --- argument parsing ------------------------------------------------------


# A negative float literal as float() reads it: -1e5, -.5, -2.5e-1, -inf, -nan.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$",
                              re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockmax",
        description="GEV maximum-likelihood fitting for block maxima, "
                    "plus Monte Carlo consistency studies.",
    )
    parser.add_argument("--version", action="version", version=f"blockmax {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw i.i.d. samples from a catalog member")
    p.add_argument("--dist", required=True, help="member spec, e.g. pareto:alpha=1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("blocks", help="extract block maxima from a data file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--block-size", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("fit", help="fit a GEV to the block maxima of a data file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--block-size", type=int, required=True)
    p.add_argument("--out", default=None, help="write the result record here (default: stdout)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("gof", help="KS distance of a sample against a GEV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.set_defaults(func=cmd_gof)

    p = sub.add_parser("study", help="run a Monte Carlo consistency study from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("plot", help="render box summaries of a study CSV as SVG")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    # argparse takes only -<digits> and -<digits>.<digits> as negative numbers;
    # any other word that starts with '-', such as -1e5 or -inf, it reads as an
    # option, leaving the flag before it without a value.  No flag here looks
    # like a number, so every float literal can be a value.
    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command_line = " ".join(argv)
    try:
        return args.func(args, command_line)
    except (ValueError, OSError) as exc:
        print(f"blockmax: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
