"""No module-level import in the package or its tests goes unread.

A stdlib ``ast`` scan stands in for a linter: each name bound by an
``import`` statement at the top level of a module must be read somewhere in
that module, or be listed in its ``__all__``.  Package ``__init__.py`` files
are exempt, since their imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = [p for d in ("src/resrings", "tests") for p in sorted((ROOT / d).glob("*.py"))
           if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports of ``source`` that are never read."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= {elt.value for elt in node.value.elts}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read | exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_unused_imports():
    source = "import os\nimport sys as system\nfrom math import comb, gcd\n__all__ = ['gcd']\nprint(os.sep)\n"
    assert unused_imports(source) == ["line 2: system", "line 3: comb"]
