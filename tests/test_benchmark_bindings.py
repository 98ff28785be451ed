"""The traced benchmark wraps functions where their caller looks them up.

``benchmarks/tracing.py`` lists (layer, function, caller modules, counter)
in ``TRACED``; a binding that no longer resolves drops its per-layer
metrics from the traced run.  The list is read with ``ast``, so nothing
under ``benchmarks/`` is imported or written.
"""
import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _traced_bindings():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return [(caller, ast.literal_eval(entry.elts[1]))
                    for entry in node.value.elts
                    for caller in ast.literal_eval(entry.elts[2])]
    raise AssertionError(f"no TRACED assignment in {TRACING}")


BINDINGS = _traced_bindings()


def test_bindings_listed():
    assert len(BINDINGS) >= 20


@pytest.mark.parametrize("caller,name", BINDINGS, ids=[f"{c}.{n}" for c, n in BINDINGS])
def test_traced_binding_resolves(caller, name):
    assert callable(getattr(importlib.import_module(caller), name, None)), f"{caller}.{name}"


def test_every_loglik_evaluation_passes_a_traced_binding(monkeypatch):
    # gev.gev_loglik3.calls counts calls through fit.gev_loglik3 and
    # blocks.gev_loglik3.  Its scope is the one-series functions and the lab:
    # each gev_loglik call they make must pass one of those bindings, or the
    # count would read low.  The fit's row kernel, fit._loglik_rows, reads
    # gev._log_density without any traced binding, so the count leaves out
    # the fit's own evaluations.
    import blockmax
    from blockmax import blocks, fit, gev

    counts = {"gev_loglik": 0, "traced": 0}

    def counting(module, name, key):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(gev, "gev_loglik", "gev_loglik")
    counting(fit, "gev_loglik3", "traced")
    counting(blocks, "gev_loglik3", "traced")

    x = blockmax.gev_sample(blockmax.GevParams(0.2, 1.0, 2.0), 200, seed=3)
    blockmax.fit_mle(x)
    blockmax.run_consistency_study(blockmax.pareto(1.0), [50], blockmax.poly_log_growth(), 2, seed=4)
    assert counts["gev_loglik"] > 0
    assert counts["traced"] == counts["gev_loglik"]
