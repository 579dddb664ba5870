"""Quadratic surds, continued fractions, and cutting cycles.

A hyperbolic element of SL(2,Z) acts on the hyperbolic plane with two
irrational fixed points on the boundary.  Expanding the attracting one
as a continued fraction is eventually periodic, and the period, read as
run lengths of the two unipotent generators U = (1 1; 0 1) and
V = (1 0; 1 1), is a conjugacy invariant of the matrix: its cutting
cycle.  Everything in this module is exact integer arithmetic.
"""

from __future__ import annotations

from math import isqrt

from .errors import NotHyperbolic, NotSL2
from .mat2 import Mat2, _conjugated, _Frozen, _quote, _unchecked_mat2

__all__ = [
    "Surd",
    "Cycle",
    "attracting_fixed_point",
    "cutting_cycle",
]


class Surd(_Frozen):
    """The real quadratic irrational (p + sqrt(d)) / q, held exactly.

    Invariants: q != 0, d > 0 and not a perfect square, and q divides
    d - p^2.  The divisibility is what keeps the Gauss-map recurrence
    inside the integers; its quotient (d - p^2) / q is kept as
    ``_cofactor``, the denominator a Gauss walk holds beside q (see
    _gauss_orbit).  Equality compares the stored (p, d, q), not the
    real value.
    """

    _fields = ("p", "d", "q")

    def __init__(self, p: int, d: int, q: int) -> None:
        self.__dict__.update(p=p, d=d, q=q)
        self.__post_init__()

    def __post_init__(self) -> None:
        for entry in (self.p, self.d, self.q):
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise TypeError(f"surd components must be int, got {_quote(entry)}")
        if self.q == 0:
            raise ValueError("zero denominator")
        if self.d <= 0 or isqrt(self.d) ** 2 == self.d:
            raise ValueError(f"{_quote(self.d)} is not a positive non-square")
        cofactor, rest = divmod(self.d - self.p * self.p, self.q)
        if rest:
            raise ValueError("q must divide d - p^2")
        self.__dict__["_cofactor"] = cofactor

    def conjugate(self) -> "Surd":
        """The Galois conjugate (p - sqrt(d)) / q, whose cofactor is
        this one's negated, so it needs no check."""
        return _unchecked_surd(-self.p, self.d, -self.q, -self._cofactor)

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


def _unchecked_surd(p: int, d: int, q: int, cofactor: int) -> Surd:
    """Surd without the checks, for a state known to be valid with
    q * cofactor == d - p^2."""
    x = object.__new__(Surd)
    x.__dict__.update(p=p, d=d, q=q, _cofactor=cofactor)
    return x


def attracting_fixed_point(m: Mat2) -> Surd:
    """Boundary fixed point of m with eigenvalue of modulus > 1.

    For m = (a b; c d) of trace t with sign e, the point is
    z = (lambda - d) / c for the dominant eigenvalue
    lambda = (t + e sqrt(t^2 - 4)) / 2, that is (p + sqrt(D)) / q with
    p = e (a - d), D = t^2 - 4 and q = 2 e c.  Its cofactor needs no
    division: D - p^2 = (a + d)^2 - (a - d)^2 - 4 = 4 (ad - 1), which is
    4bc exactly when det m = 1, and q = 2ec, so (D - p^2) / q = 2eb
    (e^2 = 1); the repelling point's is -2eb.  So the one product
    q * 2eb == D - p^2 checks det m = 1 and the Surd invariant at once.
    D is no square when |t| > 2, since (t - k)(t + k) = 4 forces t = 2,
    and q != 0, since c = 0 with det 1 forces |t| = 2.
    """
    t = m.trace
    e = 1 if t > 0 else -1  # the sign of t
    p, disc, q, cofactor = e * (m.a - m.d), t * t - 4, 2 * e * m.c, 2 * e * m.b
    if q * cofactor != disc - p * p:
        raise NotSL2("det != 1")
    if disc <= 0:
        raise NotHyperbolic(f"trace {t} is not hyperbolic")
    return _unchecked_surd(p, disc, q, cofactor)


def _times_word(a: int, b: int, c: int, d: int, exponents) -> tuple:
    """(a b; c d) times the alternating U-first word of these runs (any
    int exponents), on plain ints; a leading 0 starts the word with V,
    as U^0 = I."""
    u_next = True
    for e in exponents:
        if u_next:
            b, d = a * e + b, c * e + d  # times U^e = (1 e; 0 1)
        else:
            a, c = a + b * e, c + d * e  # times V^e = (1 0; e 1)
        u_next = not u_next
    return a, b, c, d


class Cycle(_Frozen):
    """Cyclic word U^{e1} V^{e2} ... V^{e_2n}, stored at a concrete rotation.

    It is held once, as its ``root`` and a power ``j`` >= 1: the root is
    the least even-length period of the stored exponents, which are
    ``root * j``.  A proper power of a matrix has its root's cycle
    repeated, so its realness and class are decided on the root alone.
    ``Cycle(exponents)`` checks the tuple and reduces it to its root in
    the same pass.  That pass spells the exponents as one character
    each, so a checked cycle has at most 1,114,112 distinct exponents
    (see is_odd_bipalindromic).

    Equality and hashing quotient by all rotations (the GL-conjugacy
    level).  Even rotations preserve which letter carries which
    exponent; :meth:`equal_up_to_even_rotation` tests that finer,
    SL-level relation on the roots.
    """

    _fields = ("root", "j")  # shown by repr; equality is by ``canonical``

    def __init__(self, root: tuple[int, ...]) -> None:
        self.__dict__["root"] = root
        self.__post_init__()

    def __post_init__(self) -> None:
        exps = tuple(self.root)
        n = len(exps)
        if n < 2 or n % 2:
            raise ValueError(f"cycle length must be even and >= 2, got {n}")
        codes: dict[int, int] = {}
        letters = []
        for e in exps:
            if not isinstance(e, int) or isinstance(e, bool) or e < 1:
                raise ValueError(f"exponents must be positive ints, got {_quote(e)}")
            letters.append(chr(codes.setdefault(e, len(codes))))
        # the least period is where the word first recurs in its square,
        # and divides n; the least even period is it or its double
        word = "".join(letters)
        p = (word + word).find(word, 1)
        p = 2 * p if p % 2 else p
        self.__dict__.update(root=exps[:p], j=n // p)

    @property
    def exponents(self) -> tuple[int, ...]:
        return self.root * self.j

    def __len__(self) -> int:
        return len(self.root) * self.j

    @property
    def canonical(self) -> tuple[int, ...]:
        """Lexicographically least rotation, found on first use and kept
        (cutting_cycle keeps the one its own scan found): the root's
        least rotation, repeated j times, as every rotation of root * j
        is a rotation of the root repeated."""
        least = self.__dict__.get("_canonical")
        if least is None:
            least = self.__dict__["_canonical"] = _least_rotation(self.root) * self.j
        return least

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cycle):
            return NotImplemented
        return self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash(self.canonical)

    def equal_up_to_even_rotation(self, other: "Cycle") -> bool:
        """Same j and roots equal up to even rotation: an even rotation
        of root * j is one of the root, repeated, as the root has even
        length."""
        return self.j == other.j and _least_rotation(self.root, 2) == _least_rotation(other.root, 2)


def _unchecked_cycle(root: tuple[int, ...], j: int) -> Cycle:
    """Cycle root * j without the checks, for positive int exponents and
    a root that is its own least even-length period."""
    cyc = object.__new__(Cycle)
    entries = cyc.__dict__  # plain stores: cutting_cycle builds one per matrix
    entries["root"], entries["j"] = root, j
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


# A walk whose first denominator has more bits than _LEHMER_MIN_BITS takes
# its pre-period in chunks of digits read off _CHUNK_BITS-bit ints, while
# the denominator has more bits than those (see _gauss_orbit)
_LEHMER_MIN_BITS = 2_000
_CHUNK_BITS = 480


def _lehmer_chunk(p: int, q: int, s: int) -> tuple[list[int], int, int, int, int]:
    """Leading CF digits of x = (p + sqrt(d)) / q, for s = isqrt(d) and
    |q| past _CHUNK_BITS bits, with the product (A B; C D) of their
    digit matrices (a 1; 1 0), all read off short ints (Lehmer).

    x lies strictly between lo/den and (lo + 1)/den, where lo/den is
    (p + s)/q with den = |q|.  Both ends are cut outward to their top
    _CHUNK_BITS bits, to L <= lo/den and H >= (lo + 1)/den; that needs
    lo >= 0, so a state below 1/den gives no digits, as does one past
    about 2^_CHUNK_BITS.  While floor(L) == floor(H) == a, the digit of x is
    a too, and y -> 1/(y - a), decreasing on (a, a + 1), carries the
    bracket to one around x's next state, its ends swapped.  The chunk
    stops at the first digit the ends disagree on; when L == a, the
    next upper end is 1/0 and stops it one digit later.

    The matrix is found once, not digit by digit: each end u/v steps as
    (u, v) = M' (u', v') with M' the digit matrix, so the ends' first
    pairs are M times their last, and M = E_0 adj(E_k) / det E_k for
    the matrices E_i whose columns are L's and H's pairs.  det E_k is
    +-det E_0, which is not 0 as L < H.
    """
    lo, den = (p + s, q) if q > 0 else (-p - s - 1, -q)
    k = max((lo + 1).bit_length(), den.bit_length()) - _CHUNK_BITS
    lo_u, lo_v = lo >> k, (den >> k) + 1  # L
    hi_u, hi_v = ((lo + 1) >> k) + 1, den >> k  # H
    digits: list[int] = []
    if lo < 0 or not hi_v:
        return digits, 1, 0, 0, 1
    u0, v0, u1, v1 = lo_u, lo_v, hi_u, hi_v
    while True:
        a, r0 = divmod(u0, v0)
        r1 = u1 - a * v1  # > 0, as H > x > a
        if r1 >= v1:  # floor(H) != a
            break
        digits.append(a)
        u0, v0, u1, v1 = v1, r1, v0, r0  # 1/(H - a) < next state < 1/(L - a)
    if len(digits) % 2:
        u0, v0, u1, v1 = u1, v1, u0, v0  # L's pair first
    det = u0 * v1 - u1 * v0
    return (
        digits,
        (lo_u * v1 - hi_u * v0) // det,
        (hi_u * u0 - lo_u * u1) // det,
        (lo_v * v1 - hi_v * v0) // det,
        (hi_v * u0 - lo_v * u1) // det,
    )


def _gauss_orbit(x: Surd) -> tuple[list[int], int, list[tuple[int, int, int, int, int]]]:
    """CF digits of x through one full period, (digits, entry, chunks):
    digits[entry:] is the period, and each chunk (end, A, B, C, D)
    holds the product (A B; C D) of the digit matrices (a 1; 1 0) of
    the digits after the previous chunk's end, up to its own.  The
    chunks cover a head of the pre-period, possibly none of it.

    The walk holds each state x_i = (p + sqrt(d)) / q as plain ints
    (p, q, q_prev) with q * q_prev == d - p^2, where q_prev is the
    previous state's denominator; x's own is its Surd cofactor, found
    by the check that built x.  With a = floor(x_i) the next state is
    1 / (x_i - a) = (p1 + sqrt(d)) / q1 for p1 = a q - p and
    q1 = (d - p1^2) / q.  Since d - p1^2 = (d - p^2) + (p - p1)(p + p1)
    and p + p1 = a q, the quotient is q1 = q_prev + a (p - p1).  So a
    step multiplies by the digit a and never divides d - p1^2, which is
    twice as long as q.  The floor a = (p + s) // q uses s = isqrt(d),
    computed once, and divides numbers of about the same length, so a
    step costs linear big-int work unless the digit itself is large.

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

    A long pre-period is walked in chunks (Lehmer, Amer. Math. Monthly
    45, 1938; Knuth, TAOCP vol. 2, 4.5.2).  When |q| has more than
    _LEHMER_MIN_BITS bits, a test made once per walk, _lehmer_chunk
    reads the next digits off the top _CHUNK_BITS bits of the state,
    and their matrix M = (A B; C D) moves it in one pass: x_i = M x_k,
    so x_k is a root of the state's form q X^2 - 2p XY - q_prev Y^2
    taken through M, which is

        p' = p (AD + BC) - q AB + q_prev CD
        q' = q A^2 - 2p AC - q_prev C^2
        q_prev' = q_prev D^2 + 2p BD - q B^2,

    all three negated when the chunk has odd length (det M = -1 swaps
    which root carries +sqrt(d)).  det M = (-1)^length is checked, so a
    chunk keeps the discriminant d and the walk still reaches the
    period and its closing check.  A chunk is kept only if it lands on
    a state that is not reduced.  The Gauss map keeps reduced states
    reduced, so no state inside a kept chunk is reduced, and the
    period's entry is still found by the plain loop; a chunk that
    lands on a reduced state is dropped and replayed plainly.  A state
    that gives no chunk takes one plain step as a chunk of one digit.
    Chunks stop when |q| is down to _CHUNK_BITS bits.  Each chunk
    costs nine products of the state by short ints, where its digits
    would cost a pass over the state each: walks of 2,000-digit
    conjugates took 0.33 to 0.6 times as long (README, Cost).  Below
    _LEHMER_MIN_BITS the chunks did not pay off, and every walk there
    runs the plain loop alone.

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
    p, q, q_prev = x.p, x.q, x._cofactor
    digits: list[int] = []
    chunks: list[tuple[int, int, int, int, int]] = []
    if q.bit_length() > _LEHMER_MIN_BITS:
        while q.bit_length() > _CHUNK_BITS:
            run, A, B, C, D = _lehmer_chunk(p, q, s)
            if not run:
                a = (p + s) // q if q > 0 else (p + s + 1) // q
                run, A, B, C, D = [a], a, 1, 1, 0
            ad_bc = A * D + B * C
            odd = len(run) % 2
            if ad_bc - 2 * B * C != (-1 if odd else 1):
                raise RuntimeError("Lehmer chunk matrix has the wrong determinant")
            p1 = p * ad_bc - q * (A * B) + q_prev * (C * D)
            q1 = q * (A * A) - 2 * p * (A * C) - q_prev * (C * C)
            r1 = q_prev * (D * D) + 2 * p * (B * D) - q * (B * B)
            if odd:
                p1, q1, r1 = -p1, -q1, -r1
            if 0 < p1 <= s and s - p1 < q1 <= s + p1:
                break  # the chunk reaches the period: replay it plainly
            p, q, q_prev = p1, q1, r1
            digits += run
            chunks.append((len(digits), A, B, C, D))
    entry = None
    while True:
        if entry is None:
            if 0 < p <= s and s - p < q <= s + p:
                entry, p_entry, q_entry = len(digits), p, q
        elif p == p_entry and q == q_entry:
            if q * q_prev != d - p * p:
                raise RuntimeError("Gauss orbit invariant q * q_prev == d - p^2 failed")
            return digits, entry, chunks
        # s < sqrt(d) < s + 1 strictly, so these integer quotients are exact
        a = (p + s) // q if q > 0 else (p + s + 1) // q
        p1 = a * q - p
        p, q, q_prev = p1, q_prev + a * (p - p1), q
        digits.append(a)


def cutting_cycle(m: Mat2) -> tuple[Cycle, int, Mat2]:
    """Cutting cycle of a hyperbolic matrix.

    Returns (cycle, sign, conjugator) with the exact identity

        m == sign * conjugator @ W @ conjugator.inverse()

    where W = P^j for the alternating U-first word P whose run lengths
    are ``cycle.root`` and j = ``cycle.j``.  The conjugator is in
    SL(2,Z): the CF pre-period is forced even (each digit matrix has
    det -1), and the later rotation of the word is by an even number of
    runs.  The identity is re-verified before returning.

    The digit matrices pair up as (a 1; 1 0)(b 1; 1 0) = U^a V^b, so the
    even pre-period c multiplies out as a word.  Then c^-1 m c fixes
    the reduced state x_entry, which by Galois's theorem is purely
    periodic; its stabilizer in SL(2,Z) is generated by -I and the word
    P of the period read from the even entry, doubled when the period
    is odd.  So sign * c^-1 m c is P^j for the one j >= 1 with
    tr(P^j) = |tr m|: U-first, of even length, and its runs never
    merge.  The cycle's root is P at its least even rotation, its power j
    (see _period_power for j and P^j).  The identity is then checked
    on plain ints.

    The conjugator is the product of the digit matrices (a 1; 1 0) of
    the even pre-period and of the even pick's head of the period.  The
    walk's chunks already hold the product over their digits; the rest
    is a U/V word, since (a 1; 1 0) = U^a S for the swap
    S = (0 1; 1 0) and S U^b S = V^b.  That word starts after the
    chunks, so an odd chunked head leaves one S over at its end.

    The period, doubled when odd, is the least even-length period of the
    digits, since a state and its digits fix each other; so the picked
    rotation is the returned Cycle's root, and j its power.  The period
    is scanned for its least rotation first, which is kept as the
    Cycle's canonical form.  Its start is the even pick when it is even.
    A doubled period of odd length n has the same rotation at r and
    r + n, one of them even, so its pick needs no other scan.  Only an
    undoubled period with an odd least start is scanned again, over its
    even starts alone.  The CF period is primitive, so in each case the
    pick is the least even start of the least even rotation.
    """
    digits, entry, chunks = _gauss_orbit(attracting_fixed_point(m))  # checks det and trace

    t = m.trace
    sign = 1 if t > 0 else -1
    t = abs(t)

    period = digits[entry:]
    if entry % 2:
        entry += 1
        period = period[1:] + period[:1]
    n = len(period)
    if n % 2:
        period += period
    least = _least_start(period)
    canonical = tuple(period[least:] + period[:least])
    if least % 2 == 0:
        best, exponents = least, canonical
    elif n % 2:
        best, exponents = least + n, canonical
    else:
        best = _least_start(period, 2)
        exponents = tuple(period[best:] + period[:best])
    ca, cb, cc, cd = 1, 0, 0, 1
    for _, a, b, c, d in chunks:
        ca, cb, cc, cd = ca * a + cb * c, ca * b + cb * d, cc * a + cd * c, cc * b + cd * d
    head = chunks[-1][0] if chunks else 0
    ca, cb, cc, cd = _times_word(ca, cb, cc, cd, digits[head:entry] + period[:best])
    if head % 2:
        ca, cb, cc, cd = cb, ca, cd, cc  # times S

    j, pa, pb, pc, pd = _period_power(*_times_word(1, 0, 0, 1, exponents), t)
    if sign < 0:
        pa, pb, pc, pd = -pa, -pb, -pc, -pd

    conj = _unchecked_mat2(ca, cb, cc, cd)  # an even number of digit matrices, det -1 each
    if _conjugated(conj, pa, pb, pc, pd) != (m.a, m.b, m.c, m.d):
        raise RuntimeError("cutting-cycle verification failed")
    cyc = _unchecked_cycle(exponents, j)
    cyc.__dict__["_canonical"] = canonical * j
    return cyc, sign, conj


def _period_power(pa: int, pb: int, pc: int, pd: int, t: int) -> tuple[int, int, int, int, int]:
    """(j, P^j) for P = (pa pb; pc pd) with tr P > 2 and the first j >= 1
    with tr(P^j) >= t, found by doubling.

    The traces t_k = tr(P^k) follow t_0 = 2, t_1 = tr P and
    t_{k+1} = tr P * t_k - t_{k-1}, and grow strictly since tr P > 2.
    They double as t_2k = t_k^2 - 2 and t_2k+1 = t_k t_k+1 - tr P.  As
    y -> y^2 - 2 is increasing for y >= 0, t_{n 2^i} <= T exactly when
    t_n <= tau_i, for tau_0 = T and tau_{i+1} = isqrt(tau_i + 2).  So
    the last K with t_K <= t - 1 has as many bits as there are tau_i
    from t - 1 that are >= tr P, and each bit below the top one is set
    exactly when the next odd index passes the test; j = K + 1.  That
    is O(log j) products, where stepping the recurrence took j.  The
    result is P^j = s_j P - s_{j-1} I by Cayley-Hamilton
    (P^2 = tr P * P - I), where s_0 = 0, s_1 = 1 and
    s_{k+1} = tr P * s_k - s_{k-1}.  Taking traces gives
    t_k = tr P * s_k - 2 s_{k-1}, and the eigenvalues give
    t_{k+1} - t_{k-1} = ((tr P)^2 - 4) s_k, so s_j and s_{j-1} come
    from t_j and t_{j-1} by two exact divisions.
    """
    tr = pa + pd
    if tr >= t:
        return 1, pa, pb, pc, pd
    taus = [t - 1]
    while taus[-1] >= tr:
        taus.append(isqrt(taus[-1] + 2))
    k, t_k, t_next = 1, tr, tr * tr - 2  # K's top bit
    for tau in reversed(taus[:-2]):
        t_odd = t_k * t_next - tr
        if t_odd <= tau:
            k, t_k, t_next = 2 * k + 1, t_odd, t_next * t_next - 2
        else:
            k, t_k, t_next = 2 * k, t_k * t_k - 2, t_odd
    j, t_prev, t_j = k + 1, t_k, t_next
    s = (tr * t_j - 2 * t_prev) // (tr * tr - 4)
    s_prev = (tr * s - t_j) // 2
    return j, s * pa - s_prev, s * pb, s * pc, s * pd - s_prev
