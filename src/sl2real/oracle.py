"""Independent brute-force ground truth.

Bounded enumeration of orientation-reversing involutions, of two-factor
splittings, and of det -1 conjugators carrying a matrix to its inverse.
Nothing here shares code with the constructive factorizer, and no
constructive module imports this one; agreement between the two routes
is what the test suite certifies.  Negative answers are bounded
evidence only, never proofs.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import NotSL2
from .mat2 import Mat2, is_real_structure

__all__ = [
    "enumerate_involutions",
    "brute_force_factor",
    "brute_force_conjugator",
]


def enumerate_involutions(bound: int) -> Iterator[Mat2]:
    """All J with J @ J == I, det J == -1, and |entries| <= bound.

    These are exactly (x y; z -x) with x^2 + yz = 1, emitted in
    lexicographic (x, y, z) order so that reported first witnesses are
    reproducible.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    for x in range(-bound, bound + 1):
        k = 1 - x * x  # need yz = k
        for y in range(-bound, bound + 1):
            if y == 0:
                if k == 0:
                    for z in range(-bound, bound + 1):
                        yield Mat2(x, 0, z, -x)
            elif k % y == 0 and abs(k // y) <= bound:
                yield Mat2(x, y, k // y, -x)


def brute_force_factor(m: Mat2, bound: int) -> tuple[Mat2, Mat2] | None:
    """First splitting m == j1 @ j2 into two real structures, or None.

    j1 runs over enumerate_involutions(bound); j2 = j1 @ m is accepted
    when it is itself a real structure with entries at most
    bound * (max |m| + 1).  The pair is checked before it is returned.
    """
    if m.det != 1:
        raise NotSL2("det != 1")
    cap = bound * (m.max_abs_entry() + 1)
    for j1 in enumerate_involutions(bound):
        j2 = j1 @ m  # j1 is its own inverse
        if j2.max_abs_entry() <= cap and is_real_structure(j2):
            if j1 @ j2 != m or not is_real_structure(j1):
                raise RuntimeError("oracle factor witness failed verification")
            return j1, j2
    return None


def brute_force_conjugator(m: Mat2, bound: int) -> Mat2 | None:
    """First Q with |entries| <= bound, det Q = -1, Q m Q^-1 = m^-1.

    Every such Q is an involution, so Q runs over
    enumerate_involutions(bound) and the first one that reverses m is
    returned, or None when none within the bound does.  As
    m^-1 = tr(m) I - m, Q m = m^-1 Q says that Q anticommutes with the
    traceless N = 2m - tr(m) I.  For m other than +-I, N is nonzero and
    traceless, so no multiple of I, and Q N + N Q = tr(Q) N + tr(Q N) I
    vanishes only when tr Q = 0; a traceless Q has
    Q^2 = -det(Q) I = I (Cayley-Hamilton).  For m = +-I every det -1 Q
    reverses m, the involutions among them too, so the first involution
    in the bound answers the same question.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if m.det != 1:
        raise NotSL2("det != 1")
    inv = m.inverse()
    for q in enumerate_involutions(bound):
        if q.det == -1 and q @ m == inv @ q:
            return q
    return None
