"""Every public name of ``blockmax`` has a user.

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
