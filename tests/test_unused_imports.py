"""No module of the library or of its tests imports a name it never uses.

No linter runs on the repository, so this scan stands in for one: every
name an ``import`` binds must be read somewhere in its module, be listed in
the module's ``__all__``, or be named in a string annotation.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "cbpv").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree):
    """``(name, line)`` of every name an import of the module binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def _referenced(tree) -> set:
    """The names the module reads: every ``Name``, every entry of
    ``__all__`` and every name inside a string annotation."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                names.update(ast.literal_eval(node.value))
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _referenced(ast.parse(node.value, mode="eval"))
    return names


def _unused(source: str) -> list:
    tree = ast.parse(source)
    used = _referenced(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert _unused(path.read_text()) == []


def test_the_scan_finds_an_unused_import_and_honours_all_and_string_annotations():
    source = (
        "import os, os.path as osp\n"
        "from typing import Optional, List\n"
        "from .syntax import Prog, Term, NumV as N\n"
        "__all__ = ['Term']\n"
        "def f(p: 'Optional[Prog]') -> 'List[int]':\n"
        "    return os.sep\n"
    )
    assert _unused(source) == [("osp", 1), ("N", 3)]
