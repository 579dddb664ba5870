"""Trace trichotomy with explicit conjugators.

Every non-central element of SL(2,Z) is elliptic (|tr| < 2), parabolic
(|tr| = 2), or hyperbolic (|tr| > 2).  :func:`classify` reduces each
kind once, to a canonical representative fixed by its invariants, and
keeps the conjugator that realizes the reduction; hyperbolic reduction
is delegated to :func:`sl2real.farey.cutting_cycle`.  Every conjugator
is checked against its identity where it is built.
"""

from __future__ import annotations

from math import gcd

from .errors import NotSL2
from .farey import Cycle, cutting_cycle
from .mat2 import IDENTITY, REFL_DIAG, ROT_2PI3, ROT_PI, Mat2, _conjugated, _unchecked_mat2
from .mat2 import _Frozen

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


class MatClass(_Frozen):
    """Trichotomy verdict with the per-kind GL(2,Z) conjugacy invariants.

    ``conjugator`` is the reduction's witness, not an invariant, so it is
    left out of equality, repr and the CLI's records.  It is None for a
    central m; otherwise it is the c with c @ R @ c^-1 == m for the class
    representative R: the rotation of trace t (ROT_PI, ROT_2PI3,
    -ROT_2PI3), sign * (1 0; shift 1), or sign * P^j for the positive
    word P in U, V with exponents ``cycle.root``, starting with U, and
    j = ``cycle.j``.  A hyperbolic c is in SL(2,Z).  For elliptic and
    parabolic m no det -1 matrix commutes with R, so det c tells apart
    the two SL(2,Z) classes that make up the GL(2,Z) class.
    """

    _fields = ("kind", "sign", "trace", "shift", "cycle")

    def __init__(
        self,
        kind: str,
        sign: int | None = None,
        trace: int | None = None,
        shift: int | None = None,
        cycle: Cycle | None = None,
        conjugator: Mat2 | None = None,
    ) -> None:
        self.__dict__.update(
            kind=kind, sign=sign, trace=trace, shift=shift, cycle=cycle, conjugator=conjugator
        )


def classify(m: Mat2) -> MatClass:
    """Kind, invariants and conjugator of m; NotSL2 if det m != 1.

    With det m == 1 checked first, the trace t gives the kind.  At
    |t| == 2, ad == 1 and a + d == t force a == d == t/2 when b == c == 0,
    so m is central exactly then.  Each non-central kind is reduced once,
    and the identity its conjugator certifies (see MatClass) is checked
    where the conjugator is built, by one ``_conjugated`` comparison on
    plain ints: here for elliptic and parabolic m, in cutting_cycle for
    hyperbolic m.
    """
    if m.det != 1:
        raise NotSL2("det != 1")
    t = m.trace
    if -2 < t < 2:
        return MatClass(ELLIPTIC, trace=t, conjugator=_elliptic_conjugator(m, t))
    if t == 2 or t == -2:
        if m.b == 0 and m.c == 0:
            return MatClass(CENTRAL, sign=m.a)
        sign, conj, shift = _parabolic_reduce(m)
        return MatClass(PARABOLIC, sign=sign, shift=shift, conjugator=conj)
    cyc, sign, conj = cutting_cycle(m)
    return MatClass(HYPERBOLIC, sign=sign, cycle=cyc, conjugator=conj)


# The elliptic representative of each trace, and the six matrices the
# loop in _elliptic_conjugator can end on, keyed by entries: trace 0
# fixing i, trace 1 and -1 fixing rho = e^(2 pi i/3).  Each value mover
# satisfies key == mover @ rep @ mover^-1, rep the representative of the
# key's trace.
_ELLIPTIC_REPS: dict[int, Mat2] = {0: ROT_PI, 1: ROT_2PI3, -1: -ROT_2PI3}
_STABILIZER_TABLE: dict[tuple[int, int, int, int], Mat2] = {
    (0, 1, -1, 0): IDENTITY,
    (0, -1, 1, 0): REFL_DIAG,
    (0, -1, 1, 1): REFL_DIAG,
    (1, 1, -1, 0): Mat2(0, -1, 1, 0),
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
    the fixed points), so |z| >= 1 iff |b| >= |c|.

    The loop translates before it tests, so it ends with
    -1/2 <= Re z < 1/2 and |z| >= 1.  An elliptic fixed point lies in the
    orbit of i or of rho = e^(2 pi i/3), and that region holds just one
    point of each orbit: i and rho, never rho + 1.  So the reduced
    matrix g m g^-1, of trace t, is +-(0 -1; 1 0) fixing i, or one of the
    four elements of trace +-1 fixing rho: the six keys of
    _STABILIZER_TABLE.
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
    s, rep = mover.det, _ELLIPTIC_REPS[t]
    if _conjugated(conj, s * rep.a, s * rep.b, s * rep.c, s * rep.d) != (m.a, m.b, m.c, m.d):
        raise RuntimeError("elliptic reduction verification failed")
    return conj


def _parabolic_reduce(m: Mat2) -> tuple[int, Mat2, int]:
    """(sign, c, shift) with c @ (sign * (1 0; shift 1)) @ c^-1 == m and
    shift >= 1, for m in SL(2,Z) non-central of trace 2*sign.

    N = sign*m - I is nilpotent and not 0, so N = n (pq -p^2; q^2 -pq)
    for an integer n != 0 and the fixed point p/q of m in lowest terms,
    q >= 0, infinity being 1/0.  N.c = n q^2 has the sign of n, so p/q
    is N's first column (npq, nq^2) over n q, its gcd times that sign,
    and n = nq / q; when q = 0, n = -N.b.  With gamma = p^-1 mod q and
    q delta + p gamma = 1, the SL(2,Z) matrix (delta p; -gamma q), whose
    first column is (p, q), carries (1 0; n 1) to sign*m.  Conjugation
    by diag(1,-1) negates n, so c is that matrix times diag(1, e) for e
    the sign of n, and det c = e.
    """
    sign = m.trace // 2
    na, nc = sign * m.a - 1, sign * m.c
    if nc:
        nq = gcd(na, nc) if nc > 0 else -gcd(na, nc)
        p, q = na // nq, nc // nq
        n = nq // q
        gamma = pow(p, -1, q)  # least nonnegative inverse of p mod q
        delta = (1 - p * gamma) // q
    else:
        p, q, n, gamma, delta = 1, 0, -sign * m.b, 1, 0
    e = 1 if n > 0 else -1
    conj = _unchecked_mat2(delta, e * p, -gamma, e * q)
    # c @ R @ c^-1 is c @ (det c * R) @ adj(c), R = sign * (1 0; e*n 1)
    if _conjugated(conj, e * sign, 0, sign * n, e * sign) != (m.a, m.b, m.c, m.d):
        raise RuntimeError("parabolic reduction verification failed")
    return sign, conj, e * n
