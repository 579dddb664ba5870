"""Trace trichotomy with explicit conjugators.

Every non-central element of SL(2,Z) is elliptic (|tr| < 2), parabolic
(|tr| = 2), or hyperbolic (|tr| > 2).  :func:`classify` reduces each
kind once, to a canonical representative fixed by its invariants, and
keeps the conjugator that realizes the reduction; hyperbolic reduction
is delegated to :func:`sl2real.farey.cutting_cycle`.  Every conjugator
is checked against its identity where it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import NotSL2
from .farey import Cycle, cutting_cycle
from .mat2 import (
    IDENTITY,
    REFL_DIAG,
    REFL_SWAP,
    ROT_2PI3,
    ROT_PI,
    Mat2,
    _unchecked_mat2,
)

__all__ = [
    "CENTRAL",
    "ELLIPTIC",
    "PARABOLIC",
    "HYPERBOLIC",
    "MatClass",
    "classify",
]

CENTRAL = "central"
ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class MatClass:
    """Trichotomy verdict with the per-kind GL(2,Z) conjugacy invariants.

    ``conjugator`` is the reduction's witness, not an invariant, so it is
    left out of equality, repr and JSON.  It is None for a central m;
    otherwise it is the c with c @ R @ c^-1 == m for the class
    representative R: the rotation of trace t (ROT_PI, ROT_2PI3,
    -ROT_2PI3), sign * (1 0; shift 1), or sign * P^j for the positive
    word P in U, V with exponents ``cycle.root``, starting with U, and
    j = ``cycle.j``.  A hyperbolic c is in SL(2,Z).  For elliptic and
    parabolic m no det -1 matrix commutes with R, so det c tells apart
    the two SL(2,Z) classes that make up the GL(2,Z) class.
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


def classify(m: Mat2) -> MatClass:
    """Kind, invariants and conjugator of m; NotSL2 if det m != 1.

    Each non-central kind is reduced once, and the identity its
    conjugator certifies (see MatClass) is checked where the conjugator
    is built: here for elliptic and parabolic m, in cutting_cycle for
    hyperbolic m.
    """
    if m.det != 1:
        raise NotSL2("det != 1")
    if m.is_central():
        return MatClass(CENTRAL, sign=m.a)
    t = m.trace
    if -2 < t < 2:
        return MatClass(ELLIPTIC, trace=t, conjugator=_elliptic_conjugator(m, t))
    if t == 2 or t == -2:
        sign, conj, shift = _parabolic_reduce(m)
        return MatClass(PARABOLIC, sign=sign, shift=shift, conjugator=conj)
    cyc, sign, conj = cutting_cycle(m)
    return MatClass(HYPERBOLIC, sign=sign, cycle=cyc, conjugator=conj)


# The elliptic representative of each trace, and the stabilizer elements
# of the corner points of the fundamental domain (i and the two sixth
# roots of unity on the unit circle), keyed by entries.  Each value
# mover satisfies key == mover @ rep @ mover^-1, rep the representative
# of the key's trace.
_ELLIPTIC_REPS: dict[int, Mat2] = {0: ROT_PI, 1: ROT_2PI3, -1: -ROT_2PI3}
_STABILIZER_TABLE: dict[tuple[int, int, int, int], Mat2] = {
    (0, 1, -1, 0): IDENTITY,
    (0, -1, 1, 0): REFL_DIAG,
    (0, 1, -1, 1): IDENTITY,
    (1, -1, 1, 0): REFL_SWAP,
    (0, -1, 1, 1): REFL_DIAG,
    (1, 1, -1, 0): Mat2(0, -1, 1, 0),
    (0, -1, 1, -1): IDENTITY,
    (-1, 1, -1, 0): REFL_SWAP,
    (-1, -1, 1, 0): ROT_PI,
    (0, 1, -1, -1): REFL_DIAG,
}


def _elliptic_conjugator(m: Mat2, t: int) -> Mat2:
    """c with c @ _ELLIPTIC_REPS[t] @ c^-1 == m, for m elliptic of trace t.

    The fixed point z of m in the upper half plane is driven into the
    fundamental domain by the classical translate/invert loop, run on the
    entries of m: z -> z - n is conjugation by U^-n, z -> -1/z by
    (0 -1; 1 0), and the moves accumulate in g.  For m = (a b; c d), with
    c != 0 as |t| < 2, Re z = (a - d)/2c and |z|^2 = -b/c (the product of
    the fixed points), so |z| >= 1 iff |b| >= |c|.  The reduced matrix
    g m g^-1 then lies in the finite stabilizer table of a corner point.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    ga, gb, gc, gd = 1, 0, 0, 1
    while True:
        n = (a - d + c) // (2 * c)  # nearest integer to Re z, ties upward
        if n:
            a, b, d = a - n * c, b + n * (a - d - n * c), d + n * c
            ga, gb = ga - n * gc, gb - n * gd
        if abs(b) >= abs(c):
            break
        # z -> -1/z, which strictly increases the imaginary part
        a, b, c, d = d, -c, -b, a
        ga, gb, gc, gd = -gc, -gd, ga, gb

    try:
        mover = _STABILIZER_TABLE[(a, b, c, d)]
    except KeyError:
        raise RuntimeError("elliptic reduction left the stabilizer table")
    conj = _unchecked_mat2(gd, -gb, -gc, ga) @ mover  # g^-1 @ mover, det g = 1
    if conj @ _ELLIPTIC_REPS[t] @ conj.inverse() != m:
        raise RuntimeError("elliptic reduction verification failed")
    return conj


def _parabolic_reduce(m: Mat2) -> tuple[int, Mat2, int]:
    """(sign, c, shift) with c @ (sign * (1 0; shift 1)) @ c^-1 == m and
    shift >= 1, for m in SL(2,Z) non-central of trace 2*sign.

    An SL(2,Z) w moving the fixed point of sign*m onto 0 gives
    w @ (sign*m) @ w^-1 == (1 0; k 1).  Then c is w^-1, times
    diag(1,-1) when k < 0, so det c is the sign of k.
    """
    sign = m.trace // 2
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
        gamma = pow(p, -1, q)  # least nonnegative inverse of p mod q
        delta = (1 - p * gamma) // q
        w = Mat2(q, -p, gamma, delta)
    k = (w @ b @ w.inverse()).c
    conj = w.inverse() if k > 0 else w.inverse() @ REFL_DIAG
    rep = _unchecked_mat2(sign, 0, sign * abs(k), sign)
    if conj @ rep @ conj.inverse() != m:
        raise RuntimeError("parabolic reduction verification failed")
    return sign, conj, abs(k)
