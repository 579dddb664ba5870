"""A census by trace: genus theory counts the real classes.

The SL(2,Z) classes of trace t >= 3 are the classes of the positive
words U^e1 V^e2 ... U^e2k-1 V^e2k under even rotation, so each is listed
once by its least even rotation.  The cycle criterion
(``is_odd_bipalindromic``) says which of them are real.  This file
counts them another way, with no search box and no code shared with
``realness``.

Latimer and MacDuffee (Ann. of Math. 34, 1933) match the SL(2,Z)
classes of trace t with the proper classes of binary quadratic forms of
discriminant D = t^2 - 4, through (a b; c d) -> c x^2 + (d - a) xy - b y^2.
The forms need not be primitive: a form of content g has a primitive
part of discriminant D/g^2, which must be 0 or 1 mod 4.  A det -1
reverser of m is an improper automorph of its form, and every det -1
reverser of a real hyperbolic m = J1 J2 is an involution (J1 P^k for the
primitive root P of m, with J1 P J1 = P^-1).  So m is real exactly when
the narrow class of its form's primitive part has order at most 2.

Gauss's genus theory counts those classes as 2^(mu - 1), where mu is the
number of genus characters of the discriminant: Cox, *Primes of the Form
x^2 + ny^2*, Prop. 3.11 (read with n -> -n for a positive
discriminant), and Buchmann and Vollmer, *Binary Quadratic Forms*
(Springer, 2007).  Let r be the number of odd primes dividing Delta.
If Delta = 1 (mod 4), mu = r.  If Delta = 4n, mu = r when n = 1 (mod 4),
r + 1 when n = 2 or 3 (mod 4) or n = 4 (mod 8), and r + 2 when
n = 0 (mod 8).  So the number of real classes of trace t is

    R(t) = sum of 2^(mu(D/g^2) - 1) over the g with g^2 | D and
           D/g^2 = 0 or 1 (mod 4).
"""

from collections import Counter
from itertools import count
from math import isqrt

from sl2real import Cycle, is_odd_bipalindromic

MAX_TRACE = 1_000


def _classes(max_trace):
    """The least even rotation of each positive word, starting with U,
    of trace at most max_trace, with its trace.

    A depth-first walk appends one U run and one V run at a time.  The
    entries of a positive word are nonnegative, so the trace cannot fall
    as runs are appended; with the least V run after it, a U run of e
    gives the trace a + b + d + e (a + c) for the word (a b; c d) so far,
    which grows with e.
    """
    found = []

    def extend(exps, a, b, c, d):
        for e in count(1):
            # times U^e, then V^f adds f times the new upper-right entry
            ub, ud = a * e + b, c * e + d
            if a + ud + ub > max_trace:
                return
            for f in count(1):
                t = a + ud + ub * f
                if t > max_trace:
                    break
                word = exps + (e, f)
                if all(word <= word[i:] + word[:i] for i in range(2, len(word), 2)):
                    found.append((t, word))
                extend(word, a + ub * f, ub, c + ud * f, ud)

    extend((), 1, 0, 0, 1)
    return found


def _mu(disc):
    """The number of genus characters of the discriminant disc > 0."""
    n, r = disc, 0
    while n % 2 == 0:
        n //= 2
    for p in range(3, isqrt(n) + 1, 2):
        if n % p == 0:
            r += 1
            while n % p == 0:
                n //= p
    r += n > 1
    if disc % 4 == 1:
        return r
    n = disc // 4
    if n % 4 == 1:
        return r
    if n % 8 == 0:
        return r + 2
    return r + 1  # n = 2 or 3 (mod 4), or n = 4 (mod 8)


def _real_class_count(t):
    disc = t * t - 4
    return sum(
        2 ** (_mu(disc // (g * g)) - 1)
        for g in range(1, isqrt(disc) + 1)
        if disc % (g * g) == 0 and disc // (g * g) % 4 in (0, 1)
    )


def test_real_classes_by_trace_match_genus_theory():
    classes = _classes(MAX_TRACE)
    real = Counter(t for t, word in classes if is_odd_bipalindromic(Cycle(word)) is not None)
    counts = {t: _real_class_count(t) for t in range(3, MAX_TRACE + 1)}
    assert [(t, real[t], n) for t, n in counts.items() if real[t] != n] == []
    assert (len(classes), sum(real.values())) == (78_628, 16_734)
    small = sum(t <= 300 for t, _ in classes), sum(n for t, n in real.items() if t <= 300)
    assert small == (8_769, 3_493)


def test_census_pins_small_traces():
    # trace 3 has the one class of (2 1; 1 1); trace 6 has three, U V^4,
    # U^2 V^2 and U^4 V, all real, and R(6) counts 2 of discriminant 32
    # and 1 of discriminant 8
    classes = _classes(6)
    assert sorted(word for t, word in classes if t == 3) == [(1, 1)]
    assert sorted(word for t, word in classes if t == 6) == [(1, 4), (2, 2), (4, 1)]
    assert all(is_odd_bipalindromic(Cycle(word)) is not None for t, word in classes if t == 6)
    assert [_real_class_count(t) for t in range(3, 7)] == [1, 2, 2, 3]
