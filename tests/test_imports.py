"""No module under ``src/sfb/`` imports a name it never uses, and no
private (``_name``, not dunder) function or class under ``src/sfb/`` goes
unread there.  The package ``__init__.py`` exists to re-export, so its
imports are not checked."""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parent.parent / "src" / "sfb").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """(line, name) for each name an import in `source` binds and
    nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def unread_private_definitions(sources: list) -> list:
    """(source index, line, name) for each private function or class
    that `sources` define and none of them reads, as a name or as an
    attribute."""
    trees = [ast.parse(source) for source in sources]
    read = set()
    defined = []
    for i, tree in enumerate(trees):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    defined.append((i, node.lineno, name))
    return [d for d in defined if d[2] not in read]


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom math import prod, sqrt\n"
    assert unused_imports(source + "print(prod, os.sep)\n") == [(3, "sqrt")]


def test_the_check_sees_an_unread_private_definition():
    lib = (
        "def _used(): pass\n"
        "def _unused(): pass\n"
        "class _Kept:\n"
        "    def _method(self): pass\n"
        "    def _dead(self): pass\n"
        "    def __init__(self): self._method()\n"
        "def public(): return _Kept()\n"
    )
    user = "from lib import _used\n_used()\n"
    assert unread_private_definitions([lib, user]) == [(0, 2, "_unused"), (0, 5, "_dead")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_unread_private_definitions():
    unread = unread_private_definitions([p.read_text() for p in PACKAGE])
    assert [(PACKAGE[i].name, line, name) for i, line, name in unread] == []
