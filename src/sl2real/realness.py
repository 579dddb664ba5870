"""Deciding and constructing factorizations into two real structures.

A matrix m in SL(2,Z) is called real here when m = c_plus @ c_minus for
two orientation-reversing linear involutions.  Central and |trace| <= 2
matrices are always real.  One involution J with J m J = m^-1 fixes the
pair, m = J (J m), so each non-central real m gets one mirror of its
class representative, carried to m by the conjugator that classify
finds.  A hyperbolic matrix is real exactly when its cutting cycle
splits into two palindromic blocks of odd length, W1 W2 with W1 ending
in U; writing D = diag(1,-1), the mirror is W1 D, an involution because
a palindrome's word is conjugated to its inverse by D.
:func:`factor_real` classifies and factors, verifying each result, and
answers None exactly when m is not real.  The atlas, whose necklaces
are their own cycles with conjugator I, asks only for the split of each
root (``_first_block``), the mirror W1 D (``_split_mirror``) and the
checked pair (``_certified``); it negates the mirror for -W, whose
split is the same.
"""

from __future__ import annotations

from .classify import _ELLIPTIC_REPS, CENTRAL, ELLIPTIC, HYPERBOLIC, MatClass, classify
from .errors import NotARealStructure
from .farey import Cycle, _spelled, _times_word
from .mat2 import REFL_DIAG, Mat2, _conjugated, _Frozen, _quote, _unchecked_mat2
from .mat2 import real_structure_kind

__all__ = [
    "RealFactorization",
    "is_odd_bipalindromic",
    "factor_real",
    "is_real",
    "conjugacy_test",
]


def is_odd_bipalindromic(cycle: Cycle) -> int | None:
    """Length of the first block of the least odd-bipalindromic split of
    the stored exponents, or None; decided on the cycle's root.

    Rotating first never helps.  Write c for the stored exponents,
    indexed mod their even length n.  Rotating by r and cutting after an
    odd f entries gives two palindromes iff c[i] == c[k - i] for all i,
    where k = 2r + f - 1 (the blocks reflect r+i to r+f-1-i and r+f+j
    to r+n-1-j).  This k is even, so k mod n lies in 0..n-2, and the
    same reflection cuts c itself after (k mod n) + 1 entries, an odd
    number.  So the splits at rotation 0 decide realness.

    The cut after f entries is a split iff c[i] == c[f - 1 - i] for all
    i, that is iff c rotated left by f equals c reversed.  So the splits
    are the odd places where c reversed occurs in c + c.  They are
    f0 + k p for the first one f0 < p and the least period p of c, which
    divides n: when f0 is even, the least odd one is f0 + p if p is odd,
    and there is none if p is even.  The root has length p or 2p (p
    doubled when odd), so the least odd split lies inside it, and the
    root, with the same p, gives the same answer as c = root * j.  It is
    found by one linear ``str.find`` on the root spelled one character
    per exponent (_spelled), which bounds the distinct exponents to
    1,114,112; a matrix under the input limit has a cycle of at most
    about 20,600 runs, because the trace of a word of n runs is at least
    the n-th Lucas number.
    """
    return _first_block(cycle.root)


def _first_block(root: tuple[int, ...]) -> int | None:
    """is_odd_bipalindromic on a root of positive int exponents."""
    word = _spelled(root)
    dbl = word + word
    first = dbl.find(word[::-1])
    if first < 0:
        return None
    if first % 2 == 0:
        period = dbl.find(word, 1)
        if period % 2 == 0:
            return None
        first += period
    return first


class RealFactorization(_Frozen):
    """Certified pair of real structures with c_plus @ c_minus = m.

    Each factor is checked once, here, and its kind kept, as
    ``kind_plus`` and ``kind_minus``.
    """

    _fields = ("c_plus", "c_minus")

    def __init__(self, c_plus: Mat2, c_minus: Mat2) -> None:
        self.__dict__.update(c_plus=c_plus, c_minus=c_minus)
        self.__post_init__()

    def __post_init__(self) -> None:
        # real_structure_kind raises NotARealStructure on a non-involution
        entries = self.__dict__
        entries["kind_plus"] = real_structure_kind(self.c_plus)
        entries["kind_minus"] = real_structure_kind(self.c_minus)


def _certified(c_plus: Mat2, c_minus: Mat2) -> RealFactorization:
    """RealFactorization(c_plus, c_minus) for a pair built to be one: a
    failed factor check is a fault here, so it raises RuntimeError."""
    try:
        return RealFactorization(c_plus, c_minus)
    except NotARealStructure as exc:
        raise RuntimeError("factorization verification failed") from exc


def _split_mirror(sign: int, root: tuple[int, ...], first: int) -> tuple[int, int, int, int]:
    """sign * W1 D on plain ints, for the first block W1 of the root's
    odd-bipalindromic split after ``first`` runs: the mirror of
    sign * root's word."""
    a, b, c, d = _times_word(sign, 0, 0, sign, root[:first])
    return a, -b, c, -d


# j = S R^-1, so j @ R is the swap S, for the elliptic representative R of each
# trace: the rows of R^-1 = (d -b; -c a) swapped
_ELLIPTIC_MIRRORS: dict[int, tuple[int, int, int, int]] = {
    t: (-r.c, r.a, r.d, -r.b) for t, r in _ELLIPTIC_REPS.items()
}


def _factorization(cls: MatClass, m: Mat2) -> RealFactorization | None:
    """The factorization of m from its class cls, whose conjugator c
    certifies m as c @ R @ c^-1 for the class representative R, or None
    exactly when m is not real.

    +-I splits degenerately as (m D) D.  Each non-central kind gives one
    mirror j of R with j @ R a real structure: the elliptic table (j @ R
    the swap); (1 0; s -1) for sign * (1 0; s 1) (sign * D); sign * W1 D
    for the split word sign * W1 W2 (D W2).  Then c_plus = c @ j @ c^-1,
    computed on plain ints as c @ (det c * j) @ adj(c), and
    c_minus = c_plus @ m = c @ j @ R @ c^-1.  Their product is not
    checked: RealFactorization finds tr c_plus = 0 and det c_plus = -1,
    so c_plus^2 = I by Cayley-Hamilton and c_plus @ c_minus = m.  A
    failed factor check raises RuntimeError.
    """
    if cls.kind == CENTRAL:
        return RealFactorization(m @ REFL_DIAG, REFL_DIAG)
    conj = cls.conjugator
    if cls.kind == HYPERBOLIC:  # conj is in SL(2,Z)
        first = is_odd_bipalindromic(cls.cycle)
        if first is None:
            return None
        a, b, c, d = _split_mirror(cls.sign, cls.cycle.root, first)
    else:
        a, b, c, d = _ELLIPTIC_MIRRORS[cls.trace] if cls.kind == ELLIPTIC else (1, 0, cls.shift, -1)
        if conj.det == -1:
            a, b, c, d = -a, -b, -c, -d
    c_plus = _unchecked_mat2(*_conjugated(conj, a, b, c, d))
    return _certified(c_plus, c_plus @ m)


def factor_real(m: Mat2) -> RealFactorization | None:
    """A verified factorization m = c_plus @ c_minus into two real
    structures, degenerate on +-I, or None exactly when m is not real;
    NotSL2 if det m != 1."""
    return _factorization(classify(m), m)


def is_real(m: Mat2) -> bool:
    """Does m factor as a product of two linear real structures?"""
    return factor_real(m) is not None


def conjugacy_test(x: Mat2, y: Mat2, group: str = "gl") -> bool:
    """Conjugacy of x and y in GL(2,Z) (group="gl") or SL(2,Z) ("sl").

    Equal MatClass verdicts are exactly GL conjugacy.  The SL refinement
    separates the classes merged only by det -1 conjugation: even-rotation
    equality of cycles (hyperbolic), and equality of the determinants of
    classify's conjugators (elliptic and parabolic; the GL centralizer of
    either representative has no det -1 element, so that determinant is
    well defined).  Central classes are single elements.
    """
    if group not in ("gl", "sl"):
        raise ValueError(f"group must be 'gl' or 'sl', got {_quote(group)}")
    cx, cy = classify(x), classify(y)
    if cx != cy:
        return False
    if group == "gl" or cx.kind == CENTRAL:
        return True
    if cx.kind == HYPERBOLIC:
        return cx.cycle.equal_up_to_even_rotation(cy.cycle)
    return cx.conjugator.det == cy.conjugator.det

