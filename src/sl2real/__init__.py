"""Real structures and conjugacy invariants for SL(2,Z).

A matrix in SL(2,Z) is called real when it factors as a product of two
linear real structures, which are the integer involutions of
determinant -1.  The package classifies matrices by trace, computes
the cutting period-cycle conjugacy invariant of hyperbolic elements
through an exact continued-fraction reduction, decides realness,
builds explicit verified factorizations, and renders the Farey
tessellation of the hyperbolic disk as SVG.

All arithmetic is exact: plain Python integers and quadratic surds
with integer data; only the oracle's linear algebra uses Fractions.
Floating point appears only in the final coordinates of SVG output.

The package's public names are those of its library modules, each
declared once, in that module's ``__all__``.
"""

# bound before the star imports, which rebind the name classify to the function
from . import classify as _classify, errors as _errors, farey as _farey
from . import mat2 as _mat2, oracle as _oracle, realness as _realness, render as _render

# each module's __all__ is the one list of its public names
from .classify import *
from .errors import *
from .farey import *
from .mat2 import *
from .oracle import *
from .realness import *
from .render import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (_classify, _errors, _farey, _mat2, _oracle, _realness, _render)
    for name in module.__all__
]
