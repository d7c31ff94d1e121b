"""Every module of the package uses every name it imports, and every
function it defines is used.

A deleted function leaves its imports behind in the modules that called
it, and a deleted caller leaves the imports of what it called; this check
finds both by reading each module's syntax tree. A name listed in the
module's ``__all__`` counts as used, since the package root imports names
to re-export them, and ``from __future__`` imports are compiler
directives, not names. A deleted caller can also leave a function with
no caller at all: every module-level function is exported by the package
root or read somewhere in the package outside its own body, by a bare
name that no enclosing function binds or as an attribute of its module.
And no module imports itself through others, in a function body or not:
the package's imports form a chain without a cycle. No module holds an
``assert`` statement, which ``python -O`` strips: the package's
invariant checks raise AssertionError themselves. And only ``graphs``
constructs a plain ValueError: input the caller got wrong raises
``core.InputError``, and the command line reads any other ValueError as
an internal error.
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
PUBLIC_BY_MODULE = {("fixtures.py", "load"), ("fixtures.py", "names")}

# The nodes that open a scope of their own names.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
          ast.SetComp, ast.DictComp, ast.GeneratorExp)


def scope_nodes(node):
    """The nodes under ``node`` outside the scopes nested in it; a nested
    scope is listed, but not what lies in it."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        sub = stack.pop()
        yield sub
        if not isinstance(sub, SCOPES):
            stack.extend(ast.iter_child_nodes(sub))


def local_names(nodes):
    """The names that the nodes of one function, lambda or comprehension
    bind in it: parameters, assignment and loop targets, and the names of
    what it defines, imports or catches."""
    bound = set()
    for node in nodes:
        if isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and \
                not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.alias):
            bound.add(node.asname or node.name.partition(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return bound


def read_names(node, modules, shadowed=frozenset()):
    """The reads in ``node`` that may be of a module-level function: a
    bare name that no enclosing function, lambda or comprehension binds,
    and ``m.f``, read off a package module m, as that dotted name."""
    nodes = list(scope_nodes(node))
    if isinstance(node, SCOPES):
        shadowed = shadowed | local_names(nodes)
    for sub in nodes:
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) \
                and sub.id not in shadowed:
            yield sub.id
        elif isinstance(sub, ast.Attribute) and \
                isinstance(sub.ctx, ast.Load) and \
                isinstance(sub.value, ast.Name) and \
                sub.value.id in modules - shadowed:
            yield sub.value.id + "." + sub.attr
        elif isinstance(sub, SCOPES):
            yield from read_names(sub, modules, shadowed)


def test_every_module_level_function_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"),
                                  str(path)) for path in MODULES}
    modules = {path.stem for path in MODULES}
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or \
                    node.name in factorcode.__all__ or \
                    (name, node.name) in PUBLIC_BY_MODULE:
                continue
            uses = {node.name, name[:-3] + "." + node.name}
            if not any(uses.intersection(read_names(stmt, modules))
                       for other in trees.values() for stmt in other.body
                       if stmt is not node):
                unused.append("%s: %s" % (name, node.name))
    assert unused == []


def package_imports(path):
    """The package modules that the module at ``path`` imports, at module
    level or in a function body."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                   str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.partition(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def import_cycle(paths):
    """A cycle of the import graph of the modules at ``paths``, as the
    modules along it with the first repeated at the end, or [] when the
    graph has none."""
    graph = {path.stem: package_imports(path) for path in paths}
    done, trail = set(), []

    def visit(module):
        if module in trail:
            return trail[trail.index(module):] + [module]
        if module in done:
            return []
        trail.append(module)
        for other in sorted(graph.get(module, ())):
            cycle = visit(other)
            if cycle:
                return cycle
        trail.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return []


def test_the_package_imports_form_no_cycle():
    assert import_cycle(MODULES) == []


def walk_listing_callers(tree):
    """The module-level functions in ``tree`` that call ``graphs.walks``,
    as ``graphs.walks`` or by a name imported from ``graphs``, once per
    call; "<module>" for a call outside any function."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "graphs"
               for alias in node.names if alias.name == "walks"}
    for stmt in tree.body:
        name = stmt.name if isinstance(stmt, (ast.FunctionDef,
                                              ast.ClassDef)) else "<module>"
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "walks" and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id == "graphs" or \
                    isinstance(func, ast.Name) and func.id in aliases:
                yield name


def test_one_helper_lists_walks():
    """Every listing of walks goes through ``core._walks``, which holds
    the one walk budget and its one refusal: no other function of the
    package calls ``graphs.walks``."""
    callers = [(path.name, name) for path in MODULES
               for name in walk_listing_callers(
                   ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert callers == [("core.py", "_walks")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_holds_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)] == []


def test_only_graphs_constructs_a_value_error():
    """A plain ValueError is constructed, or raised by its bare name, only
    in ``graphs``, the bottom layer, for a broken invariant."""
    makers = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                       str(path))):
            made = node.func if isinstance(node, ast.Call) else \
                node.exc if isinstance(node, ast.Raise) else None
            if isinstance(made, ast.Name) and made.id == "ValueError":
                makers.append(path.name)
    assert set(makers) == {"graphs.py"}
