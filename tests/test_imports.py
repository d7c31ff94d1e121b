"""Every module of the package uses every name it imports.

A deleted function leaves its imports behind in the modules that called
it, and a deleted caller leaves the imports of what it called; this check
finds both by reading each module's syntax tree. A name listed in the
module's ``__all__`` counts as used, since the package root imports names
to re-export them, and ``from __future__`` imports are compiler
directives, not names.
"""

import ast
from pathlib import Path

import pytest

import factorcode

MODULES = sorted(Path(factorcode.__file__).parent.glob("*.py"))


def imported_names(tree):
    """The names bound by the import statements anywhere in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    """The names read anywhere in ``tree``, and those listed in
    ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def test_the_package_has_modules():
    assert {path.name for path in MODULES} >= {"__init__.py", "core.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert sorted(set(imported_names(tree)) - used_names(tree)) == []
