"""No module under ``src/sfb/`` imports a name it never uses, and no
function, class or method defined there goes unread.  A private one
(``_name``, not dunder) must be read in ``src/sfb/``; a public one must be
read there, exported by ``__all__`` or named in README's code, or else be
on ``ALLOWED`` with its reason.  A read inside a definition's own body
(recursion) does not count.  The package ``__init__.py`` exists to
re-export, so its imports are not checked."""

import ast
import re
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = sorted((ROOT / "src" / "sfb").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
SOURCES = {p.stem: p.read_text() for p in PACKAGE}

# public definitions that nothing in src/sfb/, __all__ or README reads,
# as qualified-name patterns, each with the reason it stays
ALLOWED = {
    "cli.cmd_*": "cli.main dispatches each subcommand by name, through globals()",
    "phi.PhiElement.x_gen": "the constructor of one X(n,V) generator, kept as library surface",
}


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


def _reads(node) -> list:
    """Each name read under `node`, as a name or as an attribute."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    ]


def _definitions(node, prefix: str):
    """(qualified name, node) for each function and class under `node`,
    methods and nested definitions included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            yield from _definitions(child, prefix + child.name + ".")
        else:
            yield from _definitions(child, prefix)


def unread_definitions(sources: dict) -> list:
    """(qualified name, line) for each non-dunder function or class that
    `sources`, a {module name: source} map, define and that none of them
    reads outside the definition's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = Counter(name for tree in trees.values() for name in _reads(tree))
    unread = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree, module + "."):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if read[name] == _reads(node).count(name):
                unread.append((qualname, node.lineno))
    return unread


def _is_private(qualname: str) -> bool:
    return qualname.rpartition(".")[2].startswith("_")


def unread_public_definitions(sources: dict, named: set, allowed=()) -> list:
    """The public entries of ``unread_definitions(sources)`` that are
    not in `named` and match no pattern in `allowed`."""
    return [
        (qualname, line)
        for qualname, line in unread_definitions(sources)
        if not _is_private(qualname)
        and qualname.rpartition(".")[2] not in named
        and not any(fnmatch(qualname, pattern) for pattern in allowed)
    ]


def exported_names(init_source: str) -> set:
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            return set(ast.literal_eval(node.value))
    return set()


def code_names(markdown: str) -> set:
    """The identifiers inside the code blocks and code spans of `markdown`."""
    code = re.findall(r"```.*?```|`[^`]+`", markdown, re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


NAMED = exported_names(SOURCES["__init__"]) | code_names((ROOT / "README.md").read_text())


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
    unread = unread_definitions({"lib": lib, "user": user})
    assert [d for d in unread if _is_private(d[0])] == [("lib._unused", 2), ("lib._Kept._dead", 5)]


def test_the_check_sees_an_unread_public_definition():
    lib = (
        "def main(): return globals()['cmd_' + 'x']()\n"
        "def cmd_x(): return helper()\n"
        "def helper(): pass\n"
        "def unread(): pass\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "def exported(): pass\n"
        "def documented(): pass\n"
        "class Element:\n"
        "    def method(self): pass\n"
        "    def dead(self): pass\n"
        "    def kept(self): pass\n"
        "main(); Element().method()\n"
    )
    named = exported_names("__all__ = ['exported']\n") | code_names(
        "Call `documented()`:\n\n```\nmain()\n```\n"
    )
    allowed = ("lib.cmd_*", "lib.Element.kept")
    assert unread_public_definitions({"lib": lib}, named, allowed) == [
        ("lib.unread", 4), ("lib.recursive", 5), ("lib.Element.dead", 10)
    ]
    # without the allowlist the dispatched command shows up too
    assert ("lib.cmd_x", 2) in unread_public_definitions({"lib": lib}, named)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_unread_private_definitions():
    assert [d for d in unread_definitions(SOURCES) if _is_private(d[0])] == []


def test_no_unread_public_definitions():
    assert unread_public_definitions(SOURCES, NAMED, ALLOWED) == []


@pytest.mark.parametrize("pattern", ALLOWED)
def test_every_allowlist_entry_is_needed(pattern):
    unread = unread_public_definitions(SOURCES, NAMED)
    assert any(fnmatch(qualname, pattern) for qualname, _ in unread)
