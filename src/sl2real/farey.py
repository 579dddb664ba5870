"""Quadratic surds, continued fractions, and cutting cycles.

A hyperbolic element of SL(2,Z) acts on the hyperbolic plane with two
irrational fixed points on the boundary.  Expanding the attracting one
as a continued fraction is eventually periodic, and the period, read as
run lengths of the two unipotent generators U = (1 1; 0 1) and
V = (1 0; 1 1), is a conjugacy invariant of the matrix: its cutting
cycle.  Everything in this module is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import NotHyperbolic, NotSL2
from .mat2 import Mat2, _conjugated, _quote, _unchecked_mat2

__all__ = [
    "Surd",
    "Word",
    "Cycle",
    "SeriesReport",
    "attracting_fixed_point",
    "cutting_cycle",
    "series_crosscheck",
]


@dataclass(frozen=True, eq=False)
class Surd:
    """The real quadratic irrational (p + sqrt(d)) / q, held exactly.

    Invariants: q != 0, d > 0 and not a perfect square, and q divides
    d - p^2.  The divisibility is what keeps the Gauss-map recurrence
    inside the integers.  Equality and hashing are by real value, not
    representation.
    """

    p: int
    d: int
    q: int

    def __post_init__(self) -> None:
        for entry in (self.p, self.d, self.q):
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise TypeError(f"surd components must be int, got {_quote(entry)}")
        if self.q == 0:
            raise ValueError("zero denominator")
        if self.d <= 0 or isqrt(self.d) ** 2 == self.d:
            raise ValueError(f"{_quote(self.d)} is not a positive non-square")
        if (self.d - self.p * self.p) % self.q != 0:
            raise ValueError("q must divide d - p^2")

    # value identity: x is a root of q^2 t^2 - 2pq t + (p^2 - d), and the
    # sign of q selects which of the two roots
    def _key(self) -> tuple[int, int, int, int]:
        aa, bb, cc = self.q * self.q, -2 * self.p * self.q, self.p * self.p - self.d
        g = gcd(aa, bb, cc)
        return (aa // g, bb // g, cc // g, 1 if self.q > 0 else -1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Surd):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def conjugate(self) -> "Surd":
        """The Galois conjugate (p - sqrt(d)) / q."""
        return Surd(-self.p, self.d, -self.q)

    def compare_rational(self, num: int, den: int) -> int:
        """Sign of self - num/den for den > 0; never 0 (self is irrational)."""
        if den <= 0:
            raise ValueError("den must be positive")
        k = den * self.p - num * self.q
        if k >= 0:
            s = 1
        else:
            s = 1 if den * den * self.d > k * k else -1
        return s if self.q > 0 else -s

    def __str__(self) -> str:
        return f"({self.p}+sqrt({self.d}))/{self.q}"


def attracting_fixed_point(m: Mat2) -> Surd:
    """Boundary fixed point of m with eigenvalue of modulus > 1."""
    if m.det != 1:
        raise NotSL2("det != 1")
    t = m.trace
    if t * t <= 4:
        raise NotHyperbolic(f"trace {t} is not hyperbolic")
    disc = t * t - 4
    # z = (lambda - d)/c for the dominant eigenvalue lambda = (t + e sqrt(disc))/2
    e = 1 if t > 0 else -1  # the sign of t
    return Surd(e * (m.a - m.d), disc, 2 * e * m.c)


@dataclass(frozen=True)
class Word:
    """Nonempty alternating positive word in U and V, run-length encoded.

    ``Word((1, 2), "U")`` is U^1 V^2; ``Word((3,), "V")`` is V^3.
    """

    exponents: tuple[int, ...]
    starts_with: str = "U"

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if not self.exponents:
            raise ValueError("empty word")
        for e in self.exponents:
            if not isinstance(e, int) or isinstance(e, bool) or e < 1:
                raise ValueError(f"exponents must be positive ints, got {_quote(e)}")
        if self.starts_with not in ("U", "V"):
            raise ValueError(f"starts_with must be 'U' or 'V', got {_quote(self.starts_with)}")

    def runs(self) -> tuple[tuple[str, int], ...]:
        letter = self.starts_with
        out = []
        for e in self.exponents:
            out.append((letter, e))
            letter = "V" if letter == "U" else "U"
        return tuple(out)

    def matrix(self) -> Mat2:
        return _unchecked_mat2(*_times_word(1, 0, 0, 1, self.exponents, self.starts_with == "U"))

    def __str__(self) -> str:
        return "".join(f"{letter}^{e}" for letter, e in self.runs())


def _times_word(a: int, b: int, c: int, d: int, exponents, u_first: bool = True) -> tuple:
    """(a b; c d) times the alternating word of these runs (any int
    exponents), on plain ints."""
    for e in exponents:
        if u_first:
            b, d = a * e + b, c * e + d  # times U^e = (1 e; 0 1)
        else:
            a, c = a + b * e, c + d * e  # times V^e = (1 0; e 1)
        u_first = not u_first
    return a, b, c, d


@dataclass(frozen=True, eq=False)
class Cycle:
    """Cyclic word U^{e1} V^{e2} ... V^{e_2n}, stored at a concrete rotation.

    Equality and hashing quotient by all rotations (the GL-conjugacy
    level).  Even rotations preserve which letter carries which
    exponent; :meth:`equal_up_to_even_rotation` tests that finer,
    SL-level relation on the stored tuples.
    """

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(self.exponents))
        n = len(self.exponents)
        if n < 2 or n % 2:
            raise ValueError(f"cycle length must be even and >= 2, got {n}")
        for e in self.exponents:
            if not isinstance(e, int) or isinstance(e, bool) or e < 1:
                raise ValueError(f"exponents must be positive ints, got {_quote(e)}")

    def __len__(self) -> int:
        return len(self.exponents)

    @property
    def canonical(self) -> tuple[int, ...]:
        """Lexicographically least rotation, found on first use and kept."""
        least = self.__dict__.get("_canonical")
        if least is None:
            least = self.__dict__["_canonical"] = _least_rotation(self.exponents)
        return least

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cycle):
            return NotImplemented
        return self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash(self.canonical)

    def reversed_cycle(self) -> "Cycle":
        return Cycle(tuple(reversed(self.exponents)))

    def equal_up_to_even_rotation(self, other: "Cycle") -> bool:
        if len(other.exponents) != len(self.exponents):
            return False
        return _least_rotation(self.exponents, 2) == _least_rotation(other.exponents, 2)

    def to_json_obj(self) -> list[str]:
        return [str(e) for e in self.canonical]

    def __str__(self) -> str:
        return "[" + ",".join(str(e) for e in self.exponents) + "]"


def _unchecked_cycle(exponents: tuple[int, ...]) -> Cycle:
    """Cycle without the checks, for exponents read off a checked period."""
    cyc = object.__new__(Cycle)
    cyc.__dict__["exponents"] = exponents
    return cyc


def _necklace_cycle(necklace: tuple[int, ...]) -> Cycle:
    """Unchecked Cycle of a necklace of positive ints and even length,
    which is its own least rotation and so kept as its canonical form."""
    cyc = _unchecked_cycle(necklace)
    cyc.__dict__["_canonical"] = necklace
    return cyc


def _least_start(seq, step: int = 1) -> int:
    """Least r, a multiple of step, at which seq[r:] + seq[:r] is the
    least of the rotations by multiples of step; len(seq) must be a
    multiple of step.

    This is the two-pointer minimum-expression scan on the blocks of
    ``step`` entries, O(len(seq)) comparisons.  Candidates i and j are
    compared entry by entry; at the first mismatch, k entries in, the
    rotations at i + t and j + t compare the same way for every whole
    block t up to the mismatch, so the larger side loses all of those
    starts at once.  Every start that is passed over is strictly larger
    than some other, so the least start of the least rotation survives.
    """
    n = len(seq)
    dbl = seq + seq
    i, j, k = 0, step, 0
    while i < n and j < n and k < n:
        a, b = dbl[i + k], dbl[j + k]
        if a == b:
            k += 1
            continue
        skip = k - k % step + step
        if a > b:
            i += skip
        else:
            j += skip
        if i == j:
            j += step
        k = 0
    return min(i, j)


def _least_rotation(exponents: tuple[int, ...], step: int = 1) -> tuple[int, ...]:
    """Least rotation by a multiple of step (see _least_start)."""
    r = _least_start(exponents, step)
    return exponents[r:] + exponents[:r]


def _gauss_orbit(x: Surd) -> tuple[list[int], int]:
    """CF digits of x through one full period: digits[entry:] is the period.

    The walk holds each state x_i = (p + sqrt(d)) / q as plain ints
    (p, q, q_prev) with q * q_prev == d - p^2, where q_prev is the
    previous state's denominator (one division finds x's own).  With
    a = floor(x_i) the next state is 1 / (x_i - a) = (p1 + sqrt(d)) / q1
    for p1 = a q - p and q1 = (d - p1^2) / q.  Since
    d - p1^2 = (d - p^2) + (p - p1)(p + p1) and p + p1 = a q, the
    quotient is q1 = q_prev + a (p - p1).  So a step multiplies by the
    digit a and never divides d - p1^2, which is twice as long as q.
    The floor a = (p + s) // q uses s = isqrt(d), computed once, and
    divides numbers of about the same length, so a step costs linear
    big-int work unless the digit itself is large.

    (p, q) fixes the state's value, because sqrt(d) is irrational.  By
    Galois's theorem a quadratic irrational has a purely periodic
    expansion iff it is reduced: x > 1 and -1 < x' < 0, with
    x' = (p - sqrt(d)) / q.  In integers that reads 0 < p <= s and
    s - p < q <= s + p (x + x' > 0 forces p > 0, and x > x' forces
    q > 0).  So the period enters at the first reduced state, which is
    the first state the walk meets twice, and the walk stops when that
    state comes back; no pre-period state is kept.  The invariant is
    re-checked exactly on the closing state, whose entries are below
    2 sqrt(d).

    By Lagrange's theorem the expansion is eventually periodic, so the
    walk ends after the pre-period plus one period, and both are bounded
    by the input's size.  Let x be a fixed point of a hyperbolic m with
    lower-left entry c, so that |x - x'| = sqrt(tr(m)^2 - 4) / |c|.  A
    state is reduced once its conjugate has been pushed into (-1, 0),
    which happens when the convergent denominator q_n satisfies
    q_n^2 |x - x'| > 2 or so; as q_n grows at least like the Fibonacci
    numbers, the pre-period is at most about log_phi(2 |c|) steps.  The
    period's digit matrices (a 1; 1 0), all digits >= 1, multiply to a
    matrix M whose trace is at least a Fibonacci number of the period's
    length, and m is conjugate to +-M^j for some j >= 1, so the period
    is at most about log_phi |tr m| steps.  Measured: the digit count
    is at most log_phi(2 |c|) + log_phi |tr m| + 3 for both fixed
    points of all 7,832 hyperbolics with entries in [-30, 30] and of
    3,000 random conjugates, powers included.  Entries under the
    4,300-digit input limit thus give at most about 41,000 steps.
    """
    d = x.d
    s = isqrt(d)
    p, q = x.p, x.q
    q_prev = (d - p * p) // q  # exact by the Surd invariant
    digits: list[int] = []
    entry = None
    while True:
        if entry is None:
            if 0 < p <= s and s - p < q <= s + p:
                entry, p_entry, q_entry = len(digits), p, q
        elif p == p_entry and q == q_entry:
            if q * q_prev != d - p * p:
                raise RuntimeError("Gauss orbit invariant q * q_prev == d - p^2 failed")
            return digits, entry
        # s < sqrt(d) < s + 1 strictly, so these integer quotients are exact
        a = (p + s) // q if q > 0 else (p + s + 1) // q
        p1 = a * q - p
        p, q, q_prev = p1, q_prev + a * (p - p1), q
        digits.append(a)


def cutting_cycle(m: Mat2) -> tuple[Cycle, int, Mat2]:
    """Cutting cycle of a hyperbolic matrix.

    Returns (cycle, sign, conjugator) with the exact identity

        m == sign * conjugator @ W @ conjugator.inverse()

    where W is the alternating U-first word whose run lengths are the
    stored ``cycle.exponents``.  The conjugator is in SL(2,Z): the CF
    pre-period is forced even (each digit matrix has det -1), and the
    later rotation of the word is by an even number of runs.  The
    identity is re-verified before returning, with W = P^j (see below).

    The digit matrices pair up as (a 1; 1 0)(b 1; 1 0) = U^a V^b, so the
    even pre-period c multiplies out as a word.  Then c^-1 m c fixes
    the reduced state x_entry, which by Galois's theorem is purely
    periodic; its stabilizer in SL(2,Z) is generated by -I and the word
    P of the period read from the even entry, doubled when the period
    is odd.  So sign * c^-1 m c is P^j for the one j >= 1 with
    tr(P^j) = |tr m|: U-first, of even length, and its runs never
    merge.  The traces t_k = tr(P^k) follow t_0 = 2, t_1 = tr P and
    t_{k+1} = tr P * t_k - t_{k-1}, and grow strictly since tr P > 2.
    The cycle is P at its least even rotation, repeated j times.  The
    check needs P^j, which Cayley-Hamilton (P^2 = tr P * P - I) reads
    off the last two traces: P^k = s_k P - s_{k-1} I, where s_0 = 0,
    s_1 = 1 and s_{k+1} = tr P * s_k - s_{k-1}.  Taking traces gives
    t_k = tr P * s_k - 2 s_{k-1}, and the eigenvalues give
    t_{k+1} - t_{k-1} = ((tr P)^2 - 4) s_k, so s_j and s_{j-1} come from
    t_j and t_{j-1} by two exact divisions.  The identity is then
    checked on plain ints.
    """
    digits, entry = _gauss_orbit(attracting_fixed_point(m))  # checks det and trace
    return _cycle_of_orbit(m, digits, entry)


def _cycle_of_orbit(m: Mat2, digits: list[int], entry: int) -> tuple[Cycle, int, Mat2]:
    """cutting_cycle of m from the Gauss orbit of its attracting point."""
    t = m.trace
    sign = 1 if t > 0 else -1
    t = abs(t)

    period = digits[entry:]
    if entry % 2:
        entry += 1
        period = period[1:] + period[:1]
    if len(period) % 2:
        period += period
    best = _least_start(period, 2)
    ca, cb, cc, cd = _times_word(1, 0, 0, 1, digits[:entry] + period[:best])
    period = period[best:] + period[:best]

    pa, pb, pc, pd = _times_word(1, 0, 0, 1, period)  # the period's word P
    tr = pa + pd
    t_prev, t_k, j = 2, tr, 1
    while t_k < t:
        t_prev, t_k, j = t_k, tr * t_k - t_prev, j + 1
    if j > 1:  # P^j == s_j P - s_{j-1} I
        s = (tr * t_k - 2 * t_prev) // (tr * tr - 4)
        s_prev = (tr * s - t_k) // 2
        pa, pb, pc, pd = s * pa - s_prev, s * pb, s * pc, s * pd - s_prev
    if sign < 0:
        pa, pb, pc, pd = -pa, -pb, -pc, -pd

    conj = _unchecked_mat2(ca, cb, cc, cd)  # a U/V word has det 1
    if _conjugated(conj, pa, pb, pc, pd) != (m.a, m.b, m.c, m.d):
        raise RuntimeError("cutting-cycle verification failed")
    return _unchecked_cycle(tuple(period) * j), sign, conj


@dataclass(frozen=True)
class SeriesReport:
    """Cutting cycle beside the attracting point's CF period, whose
    copies in the cycle ``repetition`` counts; 0 unless ``consistent``,
    that is unless the repelling point's period tiles the reversed cycle."""

    cf_period: tuple[int, ...]
    cycle: Cycle
    sign: int
    repetition: int
    consistent: bool

    def to_json_obj(self) -> dict:
        return {
            "cf_period": [str(a) for a in self.cf_period],
            "cycle": self.cycle.to_json_obj(),
            "sign": self.sign,
            "repetition": self.repetition,
            "consistent": self.consistent,
        }


def series_crosscheck(m: Mat2) -> SeriesReport:
    """Does the repelling point's CF period reverse the cutting cycle?

    The cycle is read off the attracting point's period and verified by
    multiplication.  The check walks the repelling point x' on its own:
    by Galois's theorem -1/x' has the reversed period of a reduced x,
    so the repelling period, doubled when its length is odd (a cycle
    always has even length), tiles the reversed cycle up to rotation.
    """
    att = attracting_fixed_point(m)  # checks det and trace
    digits, entry = _gauss_orbit(att)
    cyc, sign, _ = _cycle_of_orbit(m, digits, entry)
    period = tuple(digits[entry:])
    rep_digits, rep_entry = _gauss_orbit(att.conjugate())
    tile = tuple(rep_digits[rep_entry:])
    if len(tile) % 2:
        tile += tile
    n = len(cyc)
    consistent = n % len(tile) == 0 and Cycle(tile * (n // len(tile))) == cyc.reversed_cycle()
    repetition = n // len(period) if consistent else 0
    return SeriesReport(period, cyc, sign, repetition, consistent)
