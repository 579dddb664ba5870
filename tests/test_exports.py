"""Every ``__all__`` names what its module binds, and nothing stale."""

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
