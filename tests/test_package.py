"""The package re-exports each module's public names, and its docstring examples hold."""

import doctest

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
