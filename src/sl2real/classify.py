"""Trace trichotomy and canonical forms with explicit conjugators.

Every non-central element of SL(2,Z) is elliptic (|tr| < 2), parabolic
(|tr| = 2), or hyperbolic (|tr| > 2).  For the first two kinds this
module produces a canonical representative together with a GL(2,Z)
conjugator realizing it; hyperbolic invariants are delegated to
:func:`sl2real.farey.cutting_cycle`.  Canonical forms re-verify their
own reconstruction identity before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import NotElliptic, NotParabolic, NotSL2
from .farey import Cycle, cutting_cycle
from .mat2 import (
    IDENTITY,
    NEG_IDENTITY,
    REFL_DIAG,
    REFL_SWAP,
    ROT_2PI3,
    ROT_PI,
    Mat2,
    v_pow,
)

__all__ = [
    "CENTRAL",
    "ELLIPTIC",
    "PARABOLIC",
    "HYPERBOLIC",
    "MatClass",
    "CanonicalForm",
    "classify",
    "elliptic_canonicalize",
    "parabolic_canonicalize",
    "parabolic_signed_shift",
]

CENTRAL = "central"
ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class MatClass:
    """Trichotomy verdict with the per-kind GL(2,Z) conjugacy invariants.

    ``conjugator`` is the reduction's witness, not an invariant, so it is
    left out of equality, repr and JSON: the one from cutting_cycle for a
    hyperbolic m, and w with w @ (sign*m) @ w^-1 == (1 0; +-shift 1) for
    a parabolic m.
    """

    kind: str
    sign: int | None = None
    trace: int | None = None
    shift: int | None = None
    cycle: Cycle | None = None
    conjugator: Mat2 | None = field(default=None, compare=False, repr=False)

    def to_json_obj(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.sign is not None:
            out["sign"] = self.sign
        if self.trace is not None:
            out["trace"] = self.trace
        if self.shift is not None:
            out["shift"] = str(self.shift)
        if self.cycle is not None:
            out["cycle"] = self.cycle.to_json_obj()
        return out


@dataclass(frozen=True)
class CanonicalForm:
    """Certificate m == sign * conjugator @ representative @ conjugator^-1."""

    representative: Mat2
    conjugator: Mat2
    sign: int

    def reconstruct(self) -> Mat2:
        out = self.conjugator @ self.representative @ self.conjugator.inverse()
        return out if self.sign == 1 else -out


def _checked(m: Mat2, form: CanonicalForm) -> CanonicalForm:
    if form.reconstruct() != m:
        raise RuntimeError(f"canonical form verification failed for {m}")
    return form


def classify(m: Mat2) -> MatClass:
    if m.det != 1:
        raise NotSL2("det != 1")
    if m == IDENTITY:
        return MatClass(CENTRAL, sign=1)
    if m == NEG_IDENTITY:
        return MatClass(CENTRAL, sign=-1)
    t = m.trace
    if -2 < t < 2:
        return MatClass(ELLIPTIC, trace=t)
    if t == 2 or t == -2:
        sign, w, k = _parabolic_reduce(m)
        return MatClass(PARABOLIC, sign=sign, shift=abs(k), conjugator=w)
    cyc, sign, conj = cutting_cycle(m)
    return MatClass(HYPERBOLIC, sign=sign, cycle=cyc, conjugator=conj)


# Stabilizer elements of the corner points of the fundamental domain
# (i and the two sixth roots of unity on the unit circle), keyed by
# entries.  Value (rep, mover) satisfies key == mover @ rep @ mover^-1;
# each entry was checked by hand multiplication.
_NEG_ROT_2PI3 = -ROT_2PI3
_STABILIZER_TABLE: dict[tuple[int, int, int, int], tuple[Mat2, Mat2]] = {
    (0, 1, -1, 0): (ROT_PI, IDENTITY),
    (0, -1, 1, 0): (ROT_PI, REFL_DIAG),
    (0, 1, -1, 1): (ROT_2PI3, IDENTITY),
    (1, -1, 1, 0): (ROT_2PI3, REFL_SWAP),
    (0, -1, 1, 1): (ROT_2PI3, REFL_DIAG),
    (1, 1, -1, 0): (ROT_2PI3, Mat2(0, -1, 1, 0)),
    (0, -1, 1, -1): (_NEG_ROT_2PI3, IDENTITY),
    (-1, 1, -1, 0): (_NEG_ROT_2PI3, REFL_SWAP),
    (-1, -1, 1, 0): (_NEG_ROT_2PI3, ROT_PI),
    (0, 1, -1, -1): (_NEG_ROT_2PI3, REFL_DIAG),
}


def elliptic_canonicalize(m: Mat2) -> CanonicalForm:
    """Reduce an elliptic matrix to its trace-determined representative.

    The fixed point (x + y*i*sqrt(4 - t^2)) / q in the upper half plane
    is driven into the fundamental domain by the classical
    translate/invert loop while the applied moves accumulate in g; the
    reduced matrix then lies in the finite stabilizer table of a corner
    point.  All arithmetic is on the integer triple (x, y, q).
    """
    if m.det != 1:
        raise NotSL2("det != 1")
    t = m.trace
    if not -2 < t < 2:
        raise NotElliptic(f"trace {t} is not elliptic")
    dd = 4 - t * t
    # c == 0 would force |trace| = 2, so the fixed point is finite
    if m.c > 0:
        x, y, q = m.a - m.d, 1, 2 * m.c
    else:
        x, y, q = m.d - m.a, 1, -2 * m.c
    g = IDENTITY
    while True:
        n = (2 * x + q) // (2 * q)  # nearest integer to x/q, ties upward
        if n:
            x -= n * q
            g = Mat2(1, -n, 0, 1) @ g
        norm = x * x + y * y * dd  # |z|^2 * q^2
        if norm >= q * q:
            break
        # z -> -1/z, which strictly increases the imaginary part
        x, y, q = -x * q, y * q, norm
        shrink = gcd(x, y, q)
        x, y, q = x // shrink, y // shrink, q // shrink
        g = Mat2(0, -1, 1, 0) @ g

    reduced = g @ m @ g.inverse()
    try:
        rep, mover = _STABILIZER_TABLE[(reduced.a, reduced.b, reduced.c, reduced.d)]
    except KeyError:
        raise RuntimeError(f"elliptic reduction left the stabilizer table: {reduced}")
    return _checked(m, CanonicalForm(rep, g.inverse() @ mover, 1))


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with a*u + b*v = g; g > 0 whenever b > 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        step = old_r // r
        old_r, r = r, old_r - step * r
        old_u, u = u, old_u - step * u
        old_v, v = v, old_v - step * v
    return old_r, old_u, old_v


def _parabolic_reduce(m: Mat2) -> tuple[int, Mat2, int]:
    """(sign, w, k) with w @ (sign*m) @ w^-1 == (1 0; k 1), w in SL(2,Z)."""
    if m.det != 1:
        raise NotSL2("det != 1")
    t = m.trace
    if abs(t) != 2 or m.is_central():
        raise NotParabolic(f"{m} is not parabolic")
    sign = t // 2
    b = m if sign == 1 else -m
    if b.c == 0:
        # fixed point is infinity; rotate it onto 0
        w = Mat2(0, -1, 1, 0)
    else:
        num, den = b.a - b.d, 2 * b.c
        g = gcd(num, den)
        p, q = num // g, den // g  # fixed point p/q in lowest terms
        if q < 0:
            p, q = -p, -q
        gg, u, _ = _ext_gcd(p, q)
        assert gg == 1
        gamma = u % q  # minimal nonnegative Bezout coefficient
        delta = (1 - p * gamma) // q
        w = Mat2(q, -p, gamma, delta)
    shifted = w @ b @ w.inverse()
    if (shifted.a, shifted.b, shifted.d) != (1, 0, 1):
        raise RuntimeError(f"parabolic reduction failed for {m}")
    return sign, w, shifted.c


def parabolic_signed_shift(m: Mat2) -> tuple[int, int]:
    """(k, sign): the SL(2,Z)-level invariant pair of a parabolic matrix.

    k is the lower-left entry after conjugating sign*m to unipotent
    lower-triangular form; its absolute value is the GL-level shift,
    while its sign separates the two SL classes merged by det -1
    conjugation.
    """
    sign, _, k = _parabolic_reduce(m)
    return k, sign


def parabolic_canonicalize(m: Mat2) -> CanonicalForm:
    sign, w, k = _parabolic_reduce(m)
    conj = w.inverse()
    n = k
    if k < 0:
        conj = conj @ REFL_DIAG
        n = -k
    return _checked(m, CanonicalForm(v_pow(n), conj, sign))
