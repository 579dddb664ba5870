"""Exception hierarchy.

Everything raised on mathematically invalid input derives from
:class:`Sl2RealError`, so callers (and the CLI) can distinguish domain
errors from argument-syntax errors in one ``except`` clause.
"""

from __future__ import annotations

__all__ = [
    "Sl2RealError",
    "NotUnimodular",
    "NotSL2",
    "NotHyperbolic",
    "NotARealStructure",
    "DepthTooLarge",
    "MatrixParseError",
]


class Sl2RealError(Exception):
    """Base class for all domain errors raised by this package."""


class NotUnimodular(Sl2RealError):
    """Matrix determinant is neither +1 nor -1."""


class NotSL2(Sl2RealError):
    """Matrix determinant is not +1."""


class NotHyperbolic(Sl2RealError):
    """Operation requires |trace| > 2."""


class NotARealStructure(Sl2RealError):
    """Matrix is not an orientation-reversing involution."""


class DepthTooLarge(Sl2RealError):
    """Requested tessellation depth is outside the supported range."""


class MatrixParseError(ValueError):
    """Malformed textual matrix input.

    Deliberately *not* an :class:`Sl2RealError`: bad syntax is a usage
    mistake (CLI exit 2), not a statement about a well-formed matrix
    (CLI exit 3).
    """
