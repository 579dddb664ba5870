"""Exact 2x2 integer matrices and linear real structures.

All arithmetic is over Python ints, so nothing here ever rounds.  A
*linear real structure* is an involution of the integer lattice that
reverses orientation: J @ J == I and det J == -1.  By Cayley-Hamilton
this is equivalent to det J == -1 and tr J == 0, which is how the
two-parameter family (x y; z -x), x^2 + yz = 1, arises.
"""

from __future__ import annotations

import enum
import re
import sys
from operator import attrgetter

from .errors import MatrixParseError, NotARealStructure, NotUnimodular

__all__ = [
    "Mat2",
    "RealStructureKind",
    "IDENTITY",
    "NEG_IDENTITY",
    "U",
    "V",
    "ROT_PI",
    "ROT_2PI3",
    "REFL_DIAG",
    "REFL_SWAP",
    "u_pow",
    "v_pow",
    "is_real_structure",
    "real_structure_kind",
]


# one integer entry, in both input spellings: an optional minus sign and
# ASCII decimal digits, with whitespace around ("\d" would take every
# Unicode digit, and int() reads them)
_ENTRY = r"\s*(-?[0-9]+)\s*"
# one such integer alone: a string cell of the JSON form, or a CLI flag value
_INTEGER = re.compile(rf"\A{_ENTRY}\Z")


class _Frozen:
    """Base of the package's value classes, in place of a frozen dataclass.

    Each instance holds its fields in its ``__dict__``, set once by
    ``__init__`` (or by an ``_unchecked_*`` builder); assigning or
    deleting an attribute raises AttributeError.  The fields named in
    ``_fields`` give equality (same class only), the hash and the repr,
    as a frozen dataclass's compared fields would.  A class that checks
    its fields does so in ``__post_init__``, called at the end of
    ``__init__``: the hook that tests and perfbench's tracer wrap.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # a tuple of the fields' values, as every class has two or more
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Mat2(_Frozen):
    """Row-major 2x2 integer matrix (a b; c d)."""

    _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        self.__dict__.update(a=a, b=b, c=c, d=d)
        self.__post_init__()

    def __post_init__(self) -> None:
        for entry in (self.a, self.b, self.c, self.d):
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise TypeError(f"matrix entries must be int, got {_quote(entry)}")

    # -- algebra -------------------------------------------------------

    def __matmul__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        return _unchecked_mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Mat2":
        return _unchecked_mat2(-self.a, -self.b, -self.c, -self.d)

    def __pow__(self, n: int) -> "Mat2":
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return IDENTITY
        base = self if n > 0 else self.inverse()
        # the bits of |n| below the top one, from the left: one squaring
        # each, and one product by base for each that is set
        result = base
        for bit in bin(abs(n))[3:]:
            result = result @ result
            if bit == "1":
                result = result @ base
        return result

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> int:
        return self.a + self.d

    def inverse(self) -> "Mat2":
        # only unimodular matrices are invertible over Z: det times the adjugate
        det = self.det
        if det != 1 and det != -1:
            raise NotUnimodular("det is not invertible over the integers")
        return _unchecked_mat2(det * self.d, -det * self.b, -det * self.c, det * self.a)

    def max_abs_entry(self) -> int:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    # -- text / JSON ---------------------------------------------------

    _TEXT = re.compile(rf"\A{_ENTRY},{_ENTRY};{_ENTRY},{_ENTRY}\Z")

    @classmethod
    def from_text(cls, text: str) -> "Mat2":
        """Parse ``"a,b;c,d"`` with optional whitespace.  The grammar
        checks every entry, so the matrix is built unchecked."""
        match = cls._TEXT.match(text)
        if match is None:
            raise MatrixParseError(
                f"expected 'a,b;c,d' with integer entries, got {_quote(text)}"
            )
        try:
            return _unchecked_mat2(*(int(group) for group in match.groups()))
        except ValueError:
            # the interpreter's int/str conversion limit (4,300 digits by
            # default) is the input size cap
            raise MatrixParseError(
                f"matrix entries are limited to {sys.get_int_max_str_digits()} digits"
            ) from None

    def to_text(self) -> str:
        return f"{self.a},{self.b};{self.c},{self.d}"

    @classmethod
    def from_json_obj(cls, obj: object) -> "Mat2":
        """Parse rows [[a, b], [c, d]] of ints or decimal strings.  Each
        cell is checked here, so the matrix is built unchecked."""
        if not (
            isinstance(obj, list)
            and len(obj) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in obj)
        ):
            raise MatrixParseError(f"expected [[a, b], [c, d]], got {_quote(obj)}")
        entries = []
        for row in obj:
            for cell in row:
                if isinstance(cell, bool):
                    raise MatrixParseError(f"bad matrix entry {_quote(cell)}")
                if isinstance(cell, int):
                    entries.append(cell)
                elif isinstance(cell, str) and (match := _INTEGER.match(cell)):
                    try:
                        entries.append(int(match.group(1)))
                    except ValueError:  # the int/str limit
                        raise MatrixParseError(f"bad matrix entry {_quote(cell)}") from None
                else:
                    raise MatrixParseError(f"bad matrix entry {_quote(cell)}")
        return _unchecked_mat2(*entries)

    def __str__(self) -> str:
        return f"({self.a} {self.b}; {self.c} {self.d})"


def _quote(value: object) -> str:
    """repr of parser input for an error message; past 60 bytes of UTF-8
    inside the quotes (or of another value's repr), the longest head that
    fits and the length.  Escapes and wide characters count as printed."""
    try:
        text, show = (value, repr) if isinstance(value, str) else (repr(value), str)
    except ValueError:  # value holds an int past the int/str limit
        return f"a value with an int over {sys.get_int_max_str_digits()} digits"
    head = text[:60]
    while len(show(head).encode("utf-8", "surrogatepass")) > len(show("")) + 60:
        head = head[:-1]
    if head == text:
        return show(text)
    return f"{show(head)}... ({len(text)} characters)"


def _unchecked_mat2(a: int, b: int, c: int, d: int) -> Mat2:
    """Mat2 without the type checks, for ints computed from checked entries."""
    m = object.__new__(Mat2)
    entries = m.__dict__
    entries["a"], entries["b"], entries["c"], entries["d"] = a, b, c, d
    return m


def _conjugated(g: Mat2, a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """g @ (a b; c d) @ adj(g) on plain ints, where adj(g) = (gd -gb; -gc ga)
    is det g times g^-1; so g @ x @ g^-1 is this of det g * x."""
    ga, gb, gc, gd = g.a, g.b, g.c, g.d
    xa, xb = ga * a + gb * c, ga * b + gb * d  # the rows of g @ x
    xc, xd = gc * a + gd * c, gc * b + gd * d
    return xa * gd - xb * gc, xb * ga - xa * gb, xc * gd - xd * gc, xd * ga - xc * gb


IDENTITY = Mat2(1, 0, 0, 1)
NEG_IDENTITY = Mat2(-1, 0, 0, -1)

# standard unipotent generators of the positive monoid
U = Mat2(1, 1, 0, 1)
V = Mat2(1, 0, 1, 1)

# finite-order and reflection constants: the elliptic representatives
# of classify, and the two kinds of real structure
ROT_PI = Mat2(0, 1, -1, 0)
ROT_2PI3 = Mat2(0, 1, -1, 1)
REFL_DIAG = Mat2(1, 0, 0, -1)
REFL_SWAP = Mat2(0, 1, 1, 0)


def u_pow(n: int) -> Mat2:
    return Mat2(1, n, 0, 1)


def v_pow(n: int) -> Mat2:
    return Mat2(1, 0, n, 1)


def is_real_structure(j: Mat2) -> bool:
    """True iff j is an orientation-reversing linear involution."""
    return j.a + j.d == 0 and j.det == -1  # Cayley-Hamilton, see the module docstring


class RealStructureKind(enum.Enum):
    """GL(2,Z)-conjugacy class of a linear real structure.

    There are exactly two: conjugate to diag(1,-1) or to (0 1; 1 0).
    They are separated by reduction mod 2, since diag(1,-1) is the
    identity mod 2 while the swap is not, and conjugation preserves
    the mod-2 class.
    """

    DIAGONAL = "diagonal"
    EXCHANGE = "exchange"


def real_structure_kind(j: Mat2) -> RealStructureKind:
    if not is_real_structure(j):
        raise NotARealStructure("matrix is not a linear real structure")
    if j.a % 2 == 1 and j.d % 2 == 1 and j.b % 2 == 0 and j.c % 2 == 0:
        return RealStructureKind.DIAGONAL
    return RealStructureKind.EXCHANGE
