"""The package re-exports each module's public names, its docstring examples hold, and
its modules import no name they leave unused."""

import ast
import doctest
import importlib
from pathlib import Path

import pytest

import riordan
import riordan.cli
from riordan import fixpoint, reversion, series, triangles

MODULES = (series, fixpoint, triangles, reversion)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_package_binds_every_public_name_of_a_module(module):
    for name in module.__all__:
        assert getattr(riordan, name) is getattr(module, name), name


def test_package_all_is_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == 30
    assert sorted(riordan.__all__) == sorted(set(names))
    assert len(riordan.__all__) == len(set(riordan.__all__))
    assert riordan.__version__ == "0.1.0"


@pytest.mark.parametrize("module", (riordan, *MODULES, riordan.cli), ids=lambda m: m.__name__)
def test_docstring_examples(module):
    assert doctest.testmod(module).failed == 0


@pytest.mark.parametrize("path", sorted(Path(riordan.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
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

