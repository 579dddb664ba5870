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
"""

from .classify import (
    CENTRAL,
    ELLIPTIC,
    HYPERBOLIC,
    PARABOLIC,
    MatClass,
    classify,
)
from .errors import (
    CentralInput,
    DepthTooLarge,
    MatrixParseError,
    NotARealStructure,
    NotHyperbolic,
    NotReal,
    NotSL2,
    NotUnimodular,
    Sl2RealError,
)
from .farey import (
    Cycle,
    SeriesReport,
    Surd,
    attracting_fixed_point,
    cutting_cycle,
    series_crosscheck,
)
from .mat2 import (
    IDENTITY,
    NEG_IDENTITY,
    REFL_DIAG,
    REFL_SWAP,
    ROT_2PI3,
    ROT_PI,
    U,
    V,
    Mat2,
    RealStructureKind,
    is_real_structure,
    real_structure_kind,
    u_pow,
    v_pow,
)
from .oracle import (
    LatticeBasis,
    brute_force_conjugator,
    brute_force_factor,
    enumerate_involutions,
    integer_kernel,
)
from .realness import (
    Analysis,
    RealFactorization,
    WeaklyRealReport,
    analyze,
    central_factorization,
    conjugacy_test,
    factor_real,
    is_odd_bipalindromic,
    is_real,
    weakly_real,
)
from .render import (
    MAX_DEPTH,
    AxisOverlay,
    FareyFigure,
    farey_figure,
    render_farey,
    render_svg,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "AxisOverlay",
    "CENTRAL",
    "CentralInput",
    "Cycle",
    "DepthTooLarge",
    "ELLIPTIC",
    "FareyFigure",
    "HYPERBOLIC",
    "IDENTITY",
    "LatticeBasis",
    "MAX_DEPTH",
    "Mat2",
    "MatClass",
    "MatrixParseError",
    "NEG_IDENTITY",
    "NotARealStructure",
    "NotHyperbolic",
    "NotReal",
    "NotSL2",
    "NotUnimodular",
    "PARABOLIC",
    "REFL_DIAG",
    "REFL_SWAP",
    "ROT_2PI3",
    "ROT_PI",
    "RealFactorization",
    "RealStructureKind",
    "SeriesReport",
    "Sl2RealError",
    "Surd",
    "U",
    "V",
    "WeaklyRealReport",
    "analyze",
    "attracting_fixed_point",
    "brute_force_conjugator",
    "brute_force_factor",
    "central_factorization",
    "classify",
    "conjugacy_test",
    "cutting_cycle",
    "enumerate_involutions",
    "factor_real",
    "farey_figure",
    "integer_kernel",
    "is_odd_bipalindromic",
    "is_real",
    "is_real_structure",
    "real_structure_kind",
    "render_farey",
    "render_svg",
    "series_crosscheck",
    "u_pow",
    "v_pow",
    "weakly_real",
]
