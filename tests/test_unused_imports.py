"""Every module-level import of the package and of the tests is read.

``src/nonadd/__init__.py`` is left out: its imports are the public API it
re-exports.  A name counts as read when it appears as a name anywhere in the
module, annotations and decorators included.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "nonadd").glob("*.py") if p.name != "__init__.py") \
    + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(text: str) -> list[str]:
    """The names bound by the module-level imports of ``text`` (Python
    source) that the module never reads, in import order."""
    tree = ast.parse(text)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_finds_what_is_never_read():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport numpy as np\nfrom a import b, c as d\n"
              "def f(x: d) -> None:\n    return os.sep\n")
    assert unused_imports(source) == ["np", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
