"""Every module of the package uses every name it imports, and every
function it defines is used.

A deleted function leaves its imports behind in the modules that called
it, and a deleted caller leaves the imports of what it called; this check
finds both by reading each module's syntax tree. A name listed in the
module's ``__all__`` counts as used, since the package root imports names
to re-export them, and ``from __future__`` imports are compiler
directives, not names. A deleted caller can also leave a function with
no caller at all: every module-level function is exported by the package
root or read by name somewhere in the package outside its own body.
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


# Public through the exported ``fixtures`` module rather than by name.
PUBLIC_BY_MODULE = {("fixtures.py", "load")}


def read_names(node):
    """The names read anywhere in ``node``, bare or as attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and \
                isinstance(sub.ctx, ast.Load):
            yield sub.attr


def test_every_module_level_function_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"),
                                  str(path)) for path in MODULES}
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or \
                    node.name in factorcode.__all__ or \
                    (name, node.name) in PUBLIC_BY_MODULE:
                continue
            if not any(node.name in read_names(stmt)
                       for other in trees.values() for stmt in other.body
                       if stmt is not node):
                unused.append("%s: %s" % (name, node.name))
    assert unused == []
