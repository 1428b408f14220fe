"""No module under ``src/sfb/`` imports a name it never uses.  The
package ``__init__.py`` exists to re-export, so it is not checked."""

import ast
from pathlib import Path

import pytest

MODULES = sorted(
    p for p in (Path(__file__).parent.parent / "src" / "sfb").glob("*.py")
    if p.name != "__init__.py"
)


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


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom math import prod, sqrt\n"
    assert unused_imports(source + "print(prod, os.sep)\n") == [(3, "sqrt")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
