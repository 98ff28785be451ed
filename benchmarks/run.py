"""Benchmark launcher for blockmax.

    python3 benchmarks/run.py --workload fit-catalog --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, so nothing needs installing.  Every workload runs in
fresh processes (see ``workloads.py``) with BLAS and OpenMP pinned to one
thread, because ``peak_rss_mb`` is a process high-water mark and
``setup_s`` includes the scipy import.

``--trace 0`` runs the workload untraced once, then ``SETUP_PROBES`` more
processes that only set up; it reports ``setup_s`` (median over all of
those set-ups), ``wall_s`` (median wall time of one pass of the timed
section) and ``peak_rss_mb``.  ``--trace 1`` runs one process that times
half its passes untraced and half traced and reports the per-layer
metrics.  A human-readable summary comes first; the last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Without a result the exit code is not 0.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
BUDGET_S = 170  # every process this launcher starts has ended by then
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(args, mode, env, deadline):
    """Run one workload process and return its JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"no time left for the {mode} process")
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--launched-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchmarkError(f"{mode} process exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def summary_lines(args, report, setups):
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}  python {platform.python_version()}  cpus {os.cpu_count()}"]
    if setups:
        lines.append(f"setup_s          {statistics.median(setups):.4f} s   "
                     f"(median of {len(setups)} set-ups)")
        walls = ", ".join(f"{w:.3f}" for w in report["pass_walls"])
        lines.append(f"wall_s           {report['wall_s']:.4f} s   "
                     f"(median of {len(report['pass_walls'])} passes: {walls})")
        for name in ("fit_ms_p50", "fit_ms_p95", "fit_ms_p50_b100", "fit_ms_p50_b1600"):
            if name in report:
                lines.append(f"{name:<16} {report[name]:.3f} ms")
            else:
                lines.append(f"{name:<16} n/a   (no fits timed in this workload)")
        if "fit_samples" in report:
            lines.append(f"fits timed       {report['fit_samples']}")
        if "converged_frac" in report:
            lines.append(f"converged_frac   {report['converged_frac']:.4f}")
        else:
            lines.append("converged_frac   n/a   (no fits in this workload)")
        lines.append(f"peak_rss_mb      {report['peak_rss_mb']:.1f} MB")
    else:
        for name, metric in report["per_layer"].items():
            lines.append(f"{name:<42} {metric['value']:.6g} {metric['unit']}")
    lines.append(f"failed_frac      {report['failed'] / report['attempted']:.4f}   "
                 f"({report['failed']} of {report['attempted']} operations)")
    lines.extend(f"FAILED: {message}" for message in report["failures"])
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="blockmax benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "blockmax" / "__init__.py").is_file():
        print(f"benchmark: no blockmax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # On SIGTERM, exit through SystemExit so that subprocess.run kills and
    # reaps the running workload process before this one ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_env()
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            report = run_child(args, "trace", env, deadline)
            setups = []
            metrics = report["per_layer"]
        else:
            report = run_child(args, "run", env, deadline)
            setups = [report["setup_s"]]
            for _ in range(SETUP_PROBES):
                setups.append(run_child(args, "setup", env, deadline)["setup_s"])
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": report["wall_s"], "unit": "s"},
                "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            }
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    print("\n".join(summary_lines(args, report, setups)))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
