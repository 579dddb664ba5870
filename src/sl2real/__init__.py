"""Real structures and conjugacy invariants for SL(2,Z).

A matrix in SL(2,Z) is called real when it factors as a product of two
linear real structures, which are the integer involutions of
determinant -1.  The package classifies matrices by trace, computes
the cutting period-cycle conjugacy invariant of hyperbolic elements
through an exact continued-fraction reduction, decides realness,
builds explicit verified factorizations, and renders the Farey
tessellation of the hyperbolic disk as SVG.

All arithmetic is exact: plain Python integers and quadratic surds
with integer data.  Floating point appears only in the final
coordinates of SVG output.

The package's public names are those of its library modules, each
declared once, in that module's ``__all__``.  Importing the package
imports the modules every command runs.  The ``oracle`` and ``render``
modules, and ``__all__`` itself, are loaded on first use (PEP 562): the
first lookup of a name the package does not hold yet, or ``dir()``,
imports every library module and binds all of their public names, as
star imports of each would.
"""

# each module's __all__ is the one list of its public names
from .classify import *
from .errors import *
from .farey import *
from .mat2 import *
from .realness import *

__version__ = "0.1.0"

# every library module, in the order of __all__
_MODULES = ("classify", "errors", "farey", "mat2", "oracle", "realness", "render")


def __getattr__(name: str) -> object:
    namespace = globals()
    if "__all__" not in namespace:
        from importlib import import_module

        names = []
        for module_name in _MODULES:
            module = import_module(f"{__name__}.{module_name}")
            namespace.update((public, getattr(module, public)) for public in module.__all__)
            names += module.__all__
        namespace["__all__"] = names
    try:
        return namespace[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    __getattr__("__all__")
    return sorted(globals())
