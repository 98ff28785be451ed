"""One benchmark workload in one process: set up, time, check, report.

Started by ``run.py``, which pins the BLAS/OpenMP threads and passes the
wall-clock time it launched this process at, so ``setup_s`` covers the
interpreter start and the imports as well as the input generation.

    python3 benchmarks/workloads.py --workload fit-catalog --seed 1 \
        --seconds 30 --mode run --launched-at <time.time() at launch>

Modes: ``setup`` stops after the set-up and reports its time; ``run``
repeats passes of the timed section untraced until ``--seconds`` have
gone by; ``trace`` spends half of ``--seconds`` on untraced passes and
half on passes with ``tracing.Tracer`` installed.  A pass is one unit of
the workload (all fits, one study, one obstruction check), and every
pass of a run does the same work on the same inputs.  Correctness checks
run after the timed section.  The last line on stdout is a JSON object.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# numpy is imported inside the functions that need it: run.py imports this
# module for WORKLOADS and does not load numpy itself.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STUDY_CONFIG = "study_configs/pareto_study.cfg"
STUDY_OUT = ".bench_build/blockmax-bench/study"


def import_blockmax():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import blockmax
    import blockmax.cli

    if SRC.resolve() not in Path(blockmax.__file__).resolve().parents:
        raise SystemExit(f"blockmax imported from {blockmax.__file__}, not from {SRC}")
    return blockmax


class FitCatalog:
    """``fit_mle`` on block maxima of every catalog member at two sizes.

    The series are drawn during set-up with numpy, each member's quantile
    function and a reshape-max, not through ``sample_iid`` and
    ``block_maxima``: a later change to the draw path must not change the
    fitter's inputs.  100 blocks is overhead-bound, 1600 arithmetic-bound.
    """

    SIZES = (100, 1600)
    SERIES_PER_CELL = 20
    GRAD_TOL = 1e-8

    def __init__(self, bm, seed):
        import numpy as np

        self.bm = bm
        self.inputs = []  # (member name, n blocks, block maxima)
        for i, member in enumerate(bm.catalog()):
            for j, n in enumerate(self.SIZES):
                m = math.ceil(math.log(n) ** 2)
                for k in range(self.SERIES_PER_CELL):
                    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i, j, k)))
                    u = rng.random(n * m)
                    u[u == 0.0] = np.nextafter(0.0, 1.0)
                    x = np.asarray(member.quantile(u), dtype=float).reshape(n, m).max(axis=1)
                    self.inputs.append((member.name, n, x))

    def run_pass(self):
        fit_module = self.bm.fit
        clock = time.perf_counter
        out = []
        for _, _, x in self.inputs:
            start = clock()
            try:
                result = fit_module.fit_mle(x)
            except Exception as exc:  # a raising fit is a failed operation, counted below
                result = exc
            out.append((result, clock() - start))
        return out

    def _check_fit(self, result, x):
        """Problems with one fit; a fit claiming ``converged`` is re-verified."""
        import numpy as np

        if isinstance(result, Exception):
            return [f"raised {type(result).__name__}: {result}"]
        if not result.converged:
            return []
        theta = result.theta_hat
        problems = []
        if not all(math.isfinite(v) for v in (theta.gamma, theta.mu, theta.sigma)):
            problems.append(f"non-finite estimate {theta}")
            return problems
        if not theta.gamma > -1.0:
            problems.append(f"gamma_hat {theta.gamma} not above -1")
        if theta.gamma != 0.0:
            margin = float(np.min(1.0 + theta.gamma * (x - theta.mu) / theta.sigma))
            if not margin > 0.0:
                problems.append(f"estimate not strictly feasible, margin {margin}")
                return problems
        try:
            grad = float(np.linalg.norm(self.bm.sample_loglik_gradient(theta, x)))
            eigs = np.linalg.eigvalsh(self.bm.numeric_hessian(theta, x))
        except (ValueError, np.linalg.LinAlgError) as exc:
            return problems + [f"re-verification raised {exc!r}"]
        if not grad <= self.GRAD_TOL:
            problems.append(f"gradient norm {grad:.3e} above {self.GRAD_TOL}")
        if not (np.all(np.isfinite(eigs)) and np.max(eigs) < 0.0):
            problems.append(f"Hessian not negative definite, eigenvalues {eigs}")
        return problems

    def check(self, passes):
        first = passes[0]
        verdicts = [self._check_fit(res, x) for (res, _), (_, _, x) in zip(first, self.inputs)]
        failures = []
        for p, results in enumerate(passes):
            for idx, ((res, _), (name, n, _)) in enumerate(zip(results, self.inputs)):
                problems = verdicts[idx]
                if p > 0 and _fit_key(res) != _fit_key(first[idx][0]):
                    problems = problems + ["result differs from the first pass"]
                if problems:
                    failures.append(f"pass {p} fit {idx} ({name}, n={n}): {'; '.join(problems)}")
        fits = [res for results in passes for res, _ in results]
        converged = sum(1 for res in fits if not isinstance(res, Exception) and res.converged)
        summary = {"converged_frac": converged / len(fits), **self._latencies(passes)}
        return len(fits), failures, summary

    def _latencies(self, passes):
        timed = [(n, 1e3 * t) for results in passes
                 for (_, t), (_, n, _) in zip(results, self.inputs)]
        ms = [t for _, t in timed]
        out = {
            "fit_samples": len(ms),
            "fit_ms_p50": statistics.median(ms),
            "fit_ms_p95": statistics.quantiles(ms, n=20, method="inclusive")[-1],
        }
        for size in self.SIZES:
            out[f"fit_ms_p50_b{size}"] = statistics.median(t for n, t in timed if n == size)
        return out


def _fit_key(result):
    if isinstance(result, Exception):
        return repr(result)
    t = result.theta_hat
    return (t.gamma, t.mu, t.sigma, result.converged)


class StudyPareto:
    """``blockmax study`` through ``cli.main`` on the bundled Pareto config.

    The config fixes its own seed, so the workload seed does not change
    the inputs.  The output directory is a fixed path relative to the
    checkout, so the ``# command:`` line, and with it every output byte,
    is the same in every pass.
    """

    MIN_PASSES = 2  # outputs are compared across passes
    STATS = ("gamma", "mu", "sigma")

    def __init__(self, bm, seed):
        self.bm = bm
        if not (ROOT / STUDY_CONFIG).is_file():
            raise SystemExit(f"missing {STUDY_CONFIG}")
        self.out = ROOT / STUDY_OUT
        self.argv = ["study", "--config", STUDY_CONFIG, "--out", STUDY_OUT]
        shutil.rmtree(self.out, ignore_errors=True)

    def run_pass(self):
        shutil.rmtree(self.out, ignore_errors=True)
        try:
            code = self.bm.cli.main(self.argv)
        except Exception as exc:  # a raising study is a failed operation, counted below
            code = repr(exc)
        files = {p.name: p.read_bytes() for p in sorted(self.out.glob("*"))} if code == 0 else {}
        shutil.rmtree(self.out, ignore_errors=True)
        return code, files

    def check(self, passes):
        failures = []
        converged = []
        first_files = passes[0][1]
        for p, (code, files) in enumerate(passes):
            if code != 0:
                failures.append(f"pass {p}: exit code {code}")
                continue
            problems = []
            if "report.csv" not in files:
                problems.append("report.csv missing")
            else:
                medians, flags = _study_medians(files["report.csv"].decode("utf-8"))
                converged.extend(flags)
                for stat, chain in zip(self.STATS, medians):
                    if not all(a > b for a, b in zip(chain, chain[1:])):
                        problems.append(f"median {stat} errors {chain} not decreasing along n")
            if p > 0 and files != first_files:
                problems.append("outputs differ from the first pass")
            if problems:
                failures.append(f"pass {p}: {'; '.join(problems)}")
        summary = {"converged_frac": sum(converged) / len(converged)} if converged else {}
        return len(passes), failures, summary


def _study_medians(text):
    """Per-n medians of |gamma_hat - gamma0|, |mu_err|, |sigma_ratio - 1|
    from a study report, in increasing n, and every row's converged flag."""
    gamma0 = None
    by_n = {}
    flags = []
    header = None
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(":")
            if key == "gamma0":
                gamma0 = float(value)
            continue
        if header is None:
            header = line.split(",")
            continue
        row = dict(zip(header, line.split(",")))
        errs = (abs(float(row["gamma_hat"]) - gamma0), abs(float(row["mu_err"])),
                abs(float(row["sigma_ratio"]) - 1.0))
        by_n.setdefault(int(row["n"]), []).append(errs)
        flags.append(row["converged"] == "true")
    chains = [[statistics.median(e[i] for e in by_n[n]) for n in sorted(by_n)] for i in range(3)]
    return chains, flags


class ObstructionCauchy:
    """Criterion 7's protocol: the slow-growth obstruction check on Cauchy.

    All draws and blocking, no fit.  It calls the library directly
    because the CLI's draw budget rejects the n=1e5, m=133 cell.
    """

    GRID = (1_000, 10_000, 100_000)
    REPLICATIONS = 20

    def __init__(self, bm, seed):
        self.bm = bm
        self.seed = seed
        self.dist = bm.cauchy()
        self.slow = bm.slow_growth()
        self.fast = bm.poly_log_growth()

    def run_pass(self):
        try:
            return self.bm.lab.check_slow_growth_obstruction(
                self.dist, self.GRID, self.slow, self.fast, self.REPLICATIONS, self.seed)
        except Exception as exc:  # a raising check is a failed operation, counted below
            return exc

    def check(self, passes):
        failures = []
        first = passes[0]
        for p, rows in enumerate(passes):
            if isinstance(rows, Exception):
                failures.append(f"pass {p}: raised {rows!r}")
                continue
            problems = []
            if [r.n for r in rows] != list(self.GRID):
                problems.append(f"rows for n={[r.n for r in rows]}, expected {self.GRID}")
            for r in rows:
                # the default rules: ceil(log log n) + 1 and ceil((log n)^2)
                m_slow = math.ceil(math.log(math.log(r.n))) + 1
                m_fast = math.ceil(math.log(r.n) ** 2)
                if (r.m_slow, r.m_fast) != (m_slow, m_fast):
                    problems.append(f"n={r.n}: m=({r.m_slow}, {r.m_fast}), "
                                    f"expected ({m_slow}, {m_fast})")
                if not (math.isfinite(r.median_min_slow) and math.isfinite(r.median_min_fast)):
                    problems.append(f"n={r.n}: non-finite median")
            if p > 0 and rows != first:
                problems.append("rows differ from the first pass")
            if problems:
                failures.append(f"pass {p}: {'; '.join(problems)}")
        return len(passes), failures, {}


WORKLOADS = {
    "fit-catalog": FitCatalog,
    "study-pareto": StudyPareto,
    "obstruction-cauchy": ObstructionCauchy,
}


def timed_passes(workload, seconds, min_passes):
    """Repeat passes while the next one is expected to end within ``seconds``
    (but at least ``min_passes`` of them); returns (results, walls)."""
    results, walls = [], []
    begin = time.perf_counter()
    while len(results) < min_passes or (
            time.perf_counter() - begin + statistics.median(walls) <= seconds):
        start = time.perf_counter()
        results.append(workload.run_pass())
        walls.append(time.perf_counter() - start)
    return results, walls


def layer_metrics(tracer, traced_walls, untraced_walls):
    """Per-layer metrics of the traced passes, each per pass.

    Counts and busy times are means over the traced passes, and so are
    the wall-time shares; ``trace.wall_s`` and ``trace.overhead_s`` use
    medians of pass wall times, as ``wall_s`` does.

    A metric computed from a function with a missing binding is left out
    and reported on stderr, never given as zero.
    """
    import numpy as np

    stats = tracer.stats
    n_passes = len(traced_walls)
    mean_wall = sum(traced_walls) / n_passes
    fits = stats["fit.fit_mle"].calls
    metrics = {}

    def put(name, value, unit, *uses):
        gone = [key for key in uses if key in tracer.missing]
        if gone:
            print(f"{name}: missing binding for {', '.join(gone)}", file=sys.stderr)
        else:
            metrics[name] = {"value": value, "unit": unit}

    def calls(key):
        put(f"{key}.calls", stats[key].calls / n_passes, "count", key)

    def busy(key):
        put(f"{key}.busy_s", stats[key].busy / n_passes, "s", key)

    def units(key, name):
        put(f"{key}.{name}", stats[key].units / n_passes, "count", key)

    def per_fit(key):
        put(f"{key}.per_fit", stats[key].calls / fits if fits else 0.0, "count",
            key, "fit.fit_mle")

    def self_time(layer):
        keys = [key for key, s in stats.items() if s.layer == layer]
        put(f"{layer}.self_s", tracer.layer_self_time(layer) / n_passes, "s", *keys)

    calls("gev.gev_loglik3")
    busy("gev.gev_loglik3")
    units("gev.gev_loglik3", "points")
    calls("gev.gev_loglik_gradient")
    busy("gev.gev_loglik_gradient")

    calls("fit.fit_mle")
    busy("fit.fit_mle")
    fit_ms = 1e3 * np.asarray(stats["fit.fit_mle"].durations)
    put("fit.fit_mle.ms_p50", float(np.median(fit_ms)) if fits else 0.0, "ms", "fit.fit_mle")
    put("fit.fit_mle.ms_p95", float(np.percentile(fit_ms, 95)) if fits else 0.0, "ms",
        "fit.fit_mle")
    self_time("fit")
    per_fit("fit.sample_loglik")
    per_fit("fit.sample_loglik_gradient")
    per_fit("fit.numeric_hessian")
    busy("fit.numeric_hessian")
    busy("fit.minimize")
    busy("fit.pwm_init")

    calls("distributions.sample_iid")
    units("distributions.sample_iid", "draws")
    busy("distributions.sample_iid")
    busy("distributions.norm_constants")

    busy("blocks.block_maxima")
    units("blocks.block_maxima", "values_in")
    for name in ("normalize", "ks_distance", "empirical_mean_loglik"):
        busy(f"blocks.{name}")

    for name in ("run_consistency_study", "check_crucial_lemma",
                 "check_slow_growth_obstruction", "expected_loglik"):
        busy(f"lab.{name}")
    calls("lab.expected_loglik")
    self_time("lab")
    draws = stats["distributions.sample_iid"]
    put("lab.draws_per_rep", draws.units / draws.calls if draws.calls else 0.0, "count",
        "distributions.sample_iid")

    busy("cli.main")
    self_time("cli")

    put("fit.wall_share", stats["fit.fit_mle"].busy / n_passes / mean_wall, "frac",
        "fit.fit_mle")
    draw_busy = stats["distributions.sample_iid"].busy + stats["blocks.block_maxima"].busy
    put("draw.wall_share", draw_busy / n_passes / mean_wall, "frac",
        "distributions.sample_iid", "blocks.block_maxima")
    traced_wall = statistics.median(traced_walls)
    put("trace.wall_s", traced_wall, "s")
    put("trace.overhead_s", traced_wall - statistics.median(untraced_walls), "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--launched-at", type=float, required=True)
    args = parser.parse_args(argv)

    bm = import_blockmax()
    workload = WORKLOADS[args.workload](bm, args.seed)
    report = {"setup_s": time.time() - args.launched_at}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    min_passes = getattr(workload, "MIN_PASSES", 1)
    if args.mode == "run":
        passes, walls = timed_passes(workload, args.seconds, min_passes)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracing import Tracer

        plain, plain_walls = timed_passes(workload, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced, walls = timed_passes(workload, args.seconds / 2, 1)
        finally:
            tracer.uninstall()
        report["per_layer"] = layer_metrics(tracer, walls, plain_walls)
        # checked as one run: a tracer that changed any result shows as a failure
        passes = plain + traced

    attempted, failures, summary = workload.check(passes)
    report.update(summary)
    report.update({
        "wall_s": statistics.median(walls),
        "pass_walls": walls,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
