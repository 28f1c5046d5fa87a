"""Each public name is declared once, in the ``__all__`` of the module that defines it, and
``ordmatch`` re-exports the union of those lists, each name as the same object."""

import ast
import importlib
import inspect

import pytest

import ordmatch

MODULES = ("core", "harness", "instance", "oracle", "reductions")


def module(name: str):
    return importlib.import_module(f"ordmatch.{name}")


def bound_at_top_level(mod) -> set:
    """The names a module's own top-level statements bind: its defs, classes and assignments."""
    names = set()
    for node in ast.parse(inspect.getsource(mod)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined_in_its_module(name):
    mod = module(name)
    assert set(mod.__all__) <= bound_at_top_level(mod)
    for attr in mod.__all__:
        obj = getattr(mod, attr)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == f"ordmatch.{name}", attr


def test_no_name_is_exported_by_two_modules():
    lists = [module(name).__all__ for name in MODULES]
    names = [attr for names in lists for attr in names]
    assert len(names) == len(set(names))


def test_the_package_exports_the_union_once():
    union = {attr for name in MODULES for attr in module(name).__all__}
    assert len(ordmatch.__all__) == len(set(ordmatch.__all__)) == 51
    assert set(ordmatch.__all__) == union


@pytest.mark.parametrize("name", MODULES)
def test_the_package_holds_each_name_as_its_module_does(name):
    mod = module(name)
    for attr in mod.__all__:
        assert getattr(ordmatch, attr) is getattr(mod, attr), attr
