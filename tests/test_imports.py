"""Every name a library module imports is used in that module, every
private helper of the package is used somewhere in it, and every name
in __all__ is bound on the package once.

No linter ships with the project, so this reads the source with ast.
The package's __init__ re-exports names on purpose and is left out of
the import check.
"""

import ast
from pathlib import Path

import pytest

import patcorr

SOURCE = Path(__file__).resolve().parent.parent / "src" / "patcorr"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def _private_definitions(tree):
    """Module-level private functions, classes and constants, and the private methods of its classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            names.update(
                item.name for item in node.body if isinstance(item, ast.FunctionDef)
            )
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _references(tree):
    """Every name read, attribute taken or name imported."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    return used


def test_no_dead_private_helpers():
    # a private helper that nothing in the package names is left over
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCE.glob("*.py")}
    used = set().union(*map(_references, trees.values()))
    dead = {name: sorted(_private_definitions(tree) - used) for name, tree in trees.items()}
    assert {name: found for name, found in dead.items() if found} == {}


def test_all_names_are_bound_once():
    names = patcorr.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(patcorr, name)] == []
