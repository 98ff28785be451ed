"""Call tracing for the traced benchmark run, installed from outside the package.

Each traced function is wrapped where its caller looks it up.  Modules
import with ``from .x import y``, which copies the function into the
caller's namespace, so wrapping ``blockmax.gev.gev_loglik3`` would miss
every call; the wrapper goes on ``blockmax.fit.gev_loglik3`` and
``blockmax.blocks.gev_loglik3`` instead.  The package itself is not
changed, and ``uninstall`` puts every original function back.

Every wrapped call is a span.  A span's self time is its duration minus
the durations of the wrapped calls made inside it, so the self times of
all spans partition the traced time by innermost layer.
"""
from __future__ import annotations

import functools
import importlib
import time

import numpy as np


def _size_of(arg_index):
    """Counter: number of values in positional argument ``arg_index``."""
    def count(args, kwargs):
        return int(np.size(args[arg_index])) if len(args) > arg_index else 0
    return count


def _int_arg(arg_index, keyword):
    """Counter: the integer passed as argument ``arg_index`` / ``keyword``."""
    def count(args, kwargs):
        return int(args[arg_index]) if len(args) > arg_index else int(kwargs[keyword])
    return count


# (layer, function, caller modules whose binding is wrapped, per-call counter).
# The callers are the modules whose copy of the name the workloads' code
# paths look up at call time, the benchmark's own calls included.
# parse_study_config and validate_study_config have no metric of their own;
# they are wrapped so that their time counts as lab time, not cli time.
TRACED = (
    ("gev", "gev_loglik3", ("blockmax.fit", "blockmax.blocks"), _size_of(1)),
    ("gev", "gev_loglik_gradient", ("blockmax.fit",), None),
    ("fit", "fit_mle", ("blockmax.fit", "blockmax.lab"), None),
    ("fit", "pwm_init", ("blockmax.fit",), None),
    ("fit", "minimize", ("blockmax.fit",), None),
    ("fit", "sample_loglik", ("blockmax.fit",), None),
    ("fit", "sample_loglik_gradient", ("blockmax.fit",), None),
    ("fit", "numeric_hessian", ("blockmax.fit",), None),
    ("distributions", "sample_iid", ("blockmax.lab",), _int_arg(1, "n")),
    ("distributions", "norm_constants", ("blockmax.lab",), None),
    ("blocks", "block_maxima", ("blockmax.lab",), _size_of(0)),
    ("blocks", "normalize", ("blockmax.lab",), None),
    ("blocks", "ks_distance", ("blockmax.lab",), None),
    ("blocks", "empirical_mean_loglik", ("blockmax.lab",), None),
    ("lab", "run_consistency_study", ("blockmax.cli",), None),
    ("lab", "check_crucial_lemma", ("blockmax.cli",), None),
    ("lab", "check_slow_growth_obstruction", ("blockmax.cli", "blockmax.lab"), None),
    ("lab", "expected_loglik", ("blockmax.lab",), None),
    ("lab", "parse_study_config", ("blockmax.cli",), None),
    ("lab", "validate_study_config", ("blockmax.cli",), None),
    ("cli", "main", ("blockmax.cli",), None),
)

# Functions whose individual call durations are kept for percentiles.
KEEP_DURATIONS = {"fit.fit_mle"}


class FunctionStats:
    __slots__ = ("layer", "calls", "busy", "self_time", "units", "durations")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.units = 0
        self.durations = []


class Tracer:
    """Span recorder over the bindings in ``TRACED``.

    ``install`` wraps every binding that exists and records the ones that
    do not in ``missing``; a function with a missing binding is reported
    as missing, never as zero calls.
    """

    def __init__(self):
        self.stats = {f"{layer}.{name}": FunctionStats(layer) for layer, name, _, _ in TRACED}
        self.missing = {}  # "layer.function" -> list of missing "module.name" bindings
        self._open_child_time = []
        self._installed = []

    def install(self):
        for layer, name, callers, counter in TRACED:
            key = f"{layer}.{name}"
            for caller in callers:
                module = importlib.import_module(caller)
                original = getattr(module, name, None)
                if original is None:
                    self.missing.setdefault(key, []).append(f"{caller}.{name}")
                    continue
                setattr(module, name, self._wrap(key, original, counter))
                self._installed.append((module, name, original))

    def uninstall(self):
        for module, name, original in reversed(self._installed):
            setattr(module, name, original)
        self._installed.clear()

    def _wrap(self, key, fn, counter):
        stat = self.stats[key]
        stack = self._open_child_time
        keep = key in KEEP_DURATIONS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                stat.units += counter(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.busy += elapsed
                stat.self_time += elapsed - child
                if keep:
                    stat.durations.append(elapsed)
                if stack:
                    stack[-1] += elapsed

        return traced

    def layer_self_time(self, layer):
        return sum(s.self_time for s in self.stats.values() if s.layer == layer)
