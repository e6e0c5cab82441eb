"""The package re-exports each module's public names, its docstring examples hold, its
modules import no name they leave unused, each private definition has a reader, and each
parameter is read."""

import ast
import doctest
import importlib
from pathlib import Path

import pytest

import riordan
import riordan.cli
from riordan import fixpoint, reversion, series, triangles

MODULES = (series, fixpoint, triangles, reversion)
SOURCES = sorted(Path(riordan.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_package_binds_every_public_name_of_a_module(module):
    for name in module.__all__:
        assert getattr(riordan, name) is getattr(module, name), name


def test_package_all_is_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == 29
    assert sorted(riordan.__all__) == sorted(set(names))
    assert len(riordan.__all__) == len(set(riordan.__all__))
    assert riordan.__version__ == "0.1.0"


@pytest.mark.parametrize("module", (riordan, *MODULES, riordan.cli), ids=lambda m: m.__name__)
def test_docstring_examples(module):
    assert doctest.testmod(module).failed == 0


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_top_level_import_is_read_or_exported(path):
    # no linter runs in tier-1 or in CI: a name imported at module level that the module
    # neither reads nor lists in __all__ is dead code, unless its line is marked
    # `# noqa: F401` (a binding kept for a caller that patches it in this module)
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    module = importlib.import_module("riordan" if path.stem == "__init__" else f"riordan.{path.stem}")
    kept = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)} | set(getattr(module, "__all__", ()))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in "\n".join(lines[node.lineno - 1: node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in kept:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def private_definitions(tree):
    """``(name, node)`` for each ``_``-prefixed top-level function, class or assigned name,
    and each ``_``-prefixed method, of a module's tree; dunder names are not private."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            found += [(target.id, node) for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.append((node.target.id, node))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [(item.name, item) for item in node.body if isinstance(item, ast.FunctionDef)]
    return [(name, node) for name, node in found
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]


def test_every_private_definition_is_read():
    # code that no caller needs is deleted: a private definition that no package module
    # reads, outside the definition itself, is dead code
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    reads = [(node.id if isinstance(node, ast.Name) else node.attr, node)
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    unread = []
    for path, tree in zip(SOURCES, trees):
        for name, definition in private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(read == name and id(node) not in inside for read, node in reads):
                unread.append(f"{path.name}:{definition.lineno} {name}")
    assert unread == []


def test_every_parameter_is_read_and_no_private_function_has_a_default():
    # a parameter that its function never reads, or a private function's default, serves
    # no caller: every caller of a private function passes what it means.  A method's
    # `self` and a lambda's parameters are fixed by the interface they fill, not read
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body if isinstance(item, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            params = [param for param in params if param is not None]
            if id(node) in methods:
                params = params[1:]  # self or cls
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{path.name}:{node.lineno} {node.name}({param.arg}) is never read"
                      for param in params if param.arg not in read]
            if node.name.startswith("_") and not node.name.startswith("__") and (
                    args.defaults or any(d is not None for d in args.kw_defaults)):
                found.append(f"{path.name}:{node.lineno} {node.name} has a default")
    assert found == []


def test_every_local_name_is_read():
    # a local name that its function assigns and never reads, as a leftover of a removed
    # path would be, is dead code; `_` names a value dropped on purpose.  A nested
    # function's reads count for the function around it, and `global` or `nonlocal`
    # names are not local
    found = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            inner = list(ast.walk(node))
            read = {n.id for n in inner if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            shared = {name for n in inner if isinstance(n, (ast.Global, ast.Nonlocal))
                      for name in n.names}
            found |= {f"{path.name}:{n.lineno} {n.id}" for n in inner
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                      and n.id not in read | shared | {"_"}}
    assert sorted(found) == []
