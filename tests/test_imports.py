"""Every import is used and every private name is read: ``ast`` scans in place of a linter.

A name counts as used where the module reads it, anywhere in the file, or
lists it in ``__all__``; ``from __future__ import annotations`` needs no use.
A module-level ``_name`` that a ``src/gathersim`` module defines (function,
class or assignment) must be read somewhere in ``src``, ``tests`` or
``demos``: as a name, as an attribute, or by a ``from`` import.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/gathersim/*.py"))
SOURCES = sorted([*MODULES, *ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                   for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from numbers import Real as R\n__all__ = ['R']\nos.path.join('a')\n")
    assert unused_imports(source) == ["line 2: math"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> dict[str, int]:
    """The module-level ``_name``s (not dunders) that ``source`` defines, with their lines."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in names
                       if name.startswith("_") and not name.startswith("__"))
    return defined


def names_read(source: str) -> set[str]:
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(source: str, others: list[str]) -> list[str]:
    read = set().union(*map(names_read, [source, *others]))
    return [f"line {line}: {name}" for name, line in private_definitions(source).items()
            if name not in read]


def test_scan_finds_an_unread_private_name():
    source = ("_kept = 1\n_dropped: int = 2\n__dunder__ = 3\ndef _called():\n    return 4\n"
              "def _dead():\n    _dead = _kept\nclass _Gone:\n    pass\n")
    other = "from mod import _called\nmod._dropped = 6\n"
    assert unread_private_names(source, [other]) == ["line 2: _dropped", "line 6: _dead",
                                                     "line 8: _Gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_private_name_is_read(path):
    others = [p.read_text() for p in SOURCES if p != path]
    assert unread_private_names(path.read_text(), others) == []
