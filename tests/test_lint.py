"""Stdlib lint of the package source: no unused import, no private module-level name left unread."""
import ast
from pathlib import Path

import pytest

import measureonly

SOURCES = sorted(Path(measureonly.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _read_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads: loaded identifiers, attribute names, and the strings of ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def _module_level_names(tree: ast.Module) -> set[str]:
    """The names a module's top-level statements bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.For)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_unused_import(name):
    tree = TREES[name]
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in imports if getattr(node, "module", None) != "__future__" for alias in node.names
    }
    assert imported - _read_names(tree) == set()


def test_no_unread_private_module_name():
    read = set().union(*map(_read_names, TREES.values()))
    unread = {
        f"{name}: {binding}"
        for name, tree in TREES.items() for binding in _module_level_names(tree)
        if binding.startswith("_") and not binding.startswith("__") and binding not in read
    }
    assert unread == set()
