"""Every ``__all__`` names what its module binds, and nothing stale."""

import importlib
import pkgutil
import types

import pytest

import sl2real

MODULES = ["sl2real"] + [
    f"sl2real.{info.name}" for info in pkgutil.iter_modules(sl2real.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})


def test_package_all_is_its_public_names():
    public = {
        name
        for name, value in vars(sl2real).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(sl2real.__all__) == sorted(public)
    assert len(sl2real.__all__) == len(set(sl2real.__all__))


LIBRARY = ["classify", "errors", "farey", "mat2", "oracle", "realness", "render"]


def test_package_all_is_its_modules_all():
    # each public name is declared once, in its own module
    names = [
        name for module in LIBRARY for name in importlib.import_module(f"sl2real.{module}").__all__
    ]
    assert sl2real.__all__ == names
    assert len(names) == len(set(names))


def test_errors_star_import_binds_only_exceptions():
    namespace = {}
    exec("from sl2real.errors import *", namespace)
    del namespace["__builtins__"]
    assert namespace and all(
        isinstance(value, type) and issubclass(value, Exception) for value in namespace.values()
    )
