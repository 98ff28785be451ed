"""Every public name of ``blockmax`` has a user, and the command line
uses only public ones.

A name in ``blockmax.__all__`` stays only if the package itself uses it
outside its own definition, the README shows it, or an acceptance
criterion calls it.  The files are read as text (``ast`` finds the
definitions and the import statements to leave out), so nothing is
imported from outside the package.
"""
import ast
import inspect
import re
from pathlib import Path

import blockmax

SRC = Path(blockmax.__file__).resolve().parent
ROOT = SRC.parent.parent


def _package_lines():
    """(owner, line) for each line of the package's modules outside
    ``__init__.py`` and import statements; owner is the name of the
    top-level definition the line belongs to, or ""."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        owner = {}
        for node in ast.parse(source).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) or hasattr(node, "name"):
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                for lineno in range(first, node.end_lineno + 1):
                    owner[lineno] = getattr(node, "name", None)
        out += [(owner.get(lineno, ""), line)
                for lineno, line in enumerate(source.splitlines(), start=1)
                if owner.get(lineno, "") is not None]
    return out


def test_every_export_has_a_user():
    package = _package_lines()
    others = [(ROOT / "README.md").read_text(encoding="utf-8"),
              (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]
    unused = []
    for name in blockmax.__all__:
        if inspect.ismodule(getattr(blockmax, name)):
            continue
        texts = ["\n".join(line for owner, line in package if owner != name), *others]
        if not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts):
            unused.append(name)
    assert unused == [], "exported, but used by neither src/blockmax, README.md nor a criterion"


def test_cli_imports_no_private_package_name():
    """``cli.py`` is argument wiring over the package's public names."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "blockmax")
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


def test_one_series_rule_lives_in_one_gate():
    """What counts as one series is decided in ``gev._series`` alone: its two
    messages are spelled nowhere else in the package, docstrings included."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{path.stem}.{getattr(node, 'name', '')}"
            for sub in ast.walk(node):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    found += [(phrase, owner) for phrase in ("takes one series", "empty series")
                              if phrase in sub.value]
    assert sorted(found) == [("empty series", "gev._series"), ("takes one series", "gev._series")]


def test_derivative_means_have_one_caller():
    """Mean gradients and Hessians come from the fit's row kernel alone:
    ``gev._derivative_means`` is called only inside ``fit._loglik_rows``,
    and ``fit.py`` imports nothing from ``blocks``, so no second path
    computes a mean over a series for the fit's one-series functions."""
    callers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            callers += [f"{path.stem}.{getattr(node, 'name', '')}" for sub in ast.walk(node)
                        if isinstance(sub, ast.Call)
                        and getattr(sub.func, "id", getattr(sub.func, "attr", None))
                        == "_derivative_means"]
    assert callers == ["fit._loglik_rows"]
    imported = []
    for node in ast.walk(ast.parse((SRC / "fit.py").read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [f"{getattr(node, 'module', None) or ''}.{alias.name}".split(".")
                         for alias in node.names]
    assert [parts for parts in imported if "blocks" in parts] == []
