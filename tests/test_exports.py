"""Every ``__all__`` names what its module binds, and nothing stale."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sl2real

MODULES = ["sl2real"] + [
    f"sl2real.{info.name}" for info in pkgutil.iter_modules(sl2real.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})


def test_package_all_is_its_public_names():
    # the oracle's and render's names are bound on first use, so load
    # every name first: the test holds in any order, and run alone
    for name in sl2real.__all__:
        getattr(sl2real, name)
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


# In a fresh interpreter, without site (whose .pth files may import more):
# what the cold path loads beyond the stdlib modules that argparse needs
# to build a parser, then what the lazy package binds.
_FRESH = """
import sys
import argparse, enum, io, math, os, re
argparse.ArgumentParser().add_argument("x")
before = set(sys.modules)
import sl2real, sl2real.cli
sl2real.cli.build_parser()
loaded = sorted(set(sys.modules) - before)
first_dir = dir(sl2real)
from sl2real import brute_force_factor, render_farey
import json
print(json.dumps({
    "loaded": loaded,
    "first_dir": first_dir,
    "dir": dir(sl2real),
    "all": sl2real.__all__,
    "vars": sorted(vars(sl2real)),
    "resolved": [brute_force_factor.__module__, render_farey.__module__],
}))
"""


def test_cold_start_imports_only_what_the_commands_run():
    env = dict(os.environ, PYTHONPATH=str(Path(sl2real.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-S", "-c", _FRESH], env=env, capture_output=True, text=True, check=True
    ).stdout
    fresh = json.loads(out)
    # besides the package, only the two modules its annotations import:
    # __future__ (for ``from __future__ import annotations``) and
    # collections.abc (cli's Callable, Iterator and Sequence); neither
    # imports anything more
    extra = {"__future__", "collections.abc"}
    assert {name for name in fresh["loaded"] if name.split(".")[0] != "sl2real"} <= extra
    cold = ("classify", "cli", "errors", "farey", "mat2", "realness")
    assert sorted(set(fresh["loaded"]) - extra) == ["sl2real"] + [f"sl2real.{m}" for m in cold]
    assert fresh["resolved"] == ["sl2real.oracle", "sl2real.render"]
    # the names are those of the eager package: __all__ in module order,
    # and dir() the same before the lazy modules load and after
    assert fresh["all"] == sl2real.__all__ == [
        name for module in LIBRARY for name in importlib.import_module(f"sl2real.{module}").__all__
    ]
    assert len(fresh["all"]) == 41
    assert fresh["first_dir"] == fresh["dir"] == fresh["vars"]
    public = [name for name in fresh["dir"] if not name.startswith("_")]
    assert public == sorted({*fresh["all"], *LIBRARY, "cli"})


def _unread_imports(path):
    """The names an import in path binds that the file never reads; a
    name listed in ``__all__`` is read by star imports of the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def test_every_imported_name_is_read():
    root = Path(__file__).parents[1]
    files = sorted((root / "src" / "sl2real").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    assert [hit for path in files for hit in _unread_imports(path)] == []
