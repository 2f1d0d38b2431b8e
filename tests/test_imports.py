"""Every name a module imports is used in it, and every private name the
package defines is read in the package.

No linter runs in the test suite, and deleting code tends to leave stale
imports and helpers behind.  The import check parses each package module (but
the package's __init__, which imports to re-export) and each test module; the
private-name check parses the whole package.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "couponprobe").glob("*.py"))
MODULES = sorted([p for p in PACKAGE if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_flags_an_unused_name() -> None:
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(np, d)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path) -> None:
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (one leading underscore) that one of the
    sources defines and none of them reads, as a name, an attribute or an
    imported name.  sources maps a module's name to its text."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            unread += [f"{module}: {name}" for name in defined
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return unread


def test_private_name_checker_flags_an_unread_name() -> None:
    sources = {
        "a": "import b\n_ONE = 1\n_two: int = 2\ndef _f():\n    return _ONE\nclass _C: pass\n"
             "def _g():\n    return b._h()\n__all__ = []\n",
        "b": "from a import _C\ndef _h(): pass\ndef _dead(): pass\n",
    }
    assert unread_private_names(sources) == ["a: _two", "a: _f", "a: _g", "b: _dead"]


def test_every_private_package_name_is_read() -> None:
    assert unread_private_names({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}) == []
