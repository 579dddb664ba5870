"""Shared generators for the test suite.

Everything is driven by an explicit random.Random so failures are
reproducible from the seed alone.
"""

import random
import signal
import time
from contextlib import contextmanager
from math import isqrt

from sl2real import Mat2, Surd, u_pow, v_pow
from sl2real.farey import _times_word

IDENT = Mat2(1, 0, 0, 1)


def make_surd(p: int, d: int, q: int) -> Surd:
    """(p + sqrt(d)) / q from any triple with q != 0, rescaled so that
    q divides d - p^2; already-valid data is kept verbatim."""
    if q != 0 and (d - p * p) % q == 0:
        return Surd(p, d, q)
    s = abs(q)
    return Surd(p * s, d * s * s, q * s)


def surd_float(x: Surd) -> float:
    # sqrt(d) to k bits after the point, then one correctly rounded
    # int division; |p + sqrt(d)| >= 1/(2*sqrt(d) + 1) keeps 53 bits
    # even when p is close to -sqrt(d)
    k = x.d.bit_length() // 2 + 64
    return ((x.p << k) + isqrt(x.d << 2 * k)) / (x.q << k)


def surd_floor(x: Surd) -> int:
    s = isqrt(x.d)
    # s < sqrt(d) < s+1 strictly, so these integer quotients are exact
    if x.q > 0:
        return (x.p + s) // x.q
    return (-x.p - s - 1) // (-x.q)


def cf_step(x: Surd) -> tuple[int, Surd]:
    """One Gauss-map step: returns (floor(x), 1/(x - floor(x)))."""
    a = surd_floor(x)
    p1 = a * x.q - x.p
    # q | d - p1^2 because p1 = -p mod q and q | d - p^2
    return a, Surd(p1, x.d, (x.d - p1 * p1) // x.q)


def random_unimodular(rng: random.Random, steps: int = 8) -> Mat2:
    """A random element of SL(2,Z) as a short word in U^e, V^e."""
    m = IDENT
    for _ in range(steps):
        e = rng.choice((-2, -1, 1, 2))
        m = m @ (u_pow(e) if rng.random() < 0.5 else v_pow(e))
    return m


def word_matrix(exponents) -> Mat2:
    """The alternating U-first word of these runs; a leading 0 starts it with V."""
    return Mat2(*_times_word(1, 0, 0, 1, exponents))


def random_word(rng: random.Random, max_runs: int = 6, max_exp: int = 9) -> tuple[int, ...]:
    # even run count so the word is U-first and V-last
    n = 2 * rng.randint(1, max(1, max_runs // 2))
    return tuple(rng.randint(1, max_exp) for _ in range(n))


def random_hyperbolic(
    rng: random.Random,
    max_runs: int = 6,
    max_exp: int = 9,
    conj_steps: int = 6,
) -> Mat2:
    g = random_unimodular(rng, conj_steps)
    m = g @ word_matrix(random_word(rng, max_runs, max_exp)) @ g.inverse()
    return m if rng.random() < 0.5 else -m


def random_palindrome(rng: random.Random, length: int, max_exp: int) -> list[int]:
    assert length % 2 == 1
    half = [rng.randint(1, max_exp) for _ in range(length // 2)]
    return half + [rng.randint(1, max_exp)] + half[::-1]


def random_odd_bipalindromic_cycle(
    rng: random.Random, max_len: int = 10, max_exp: int = 7
) -> tuple[int, ...]:
    """The exponents of a cycle made of two odd-length palindromic
    blocks, in that order (a Cycle would store an even rotation)."""
    while True:
        first = rng.randrange(1, max_len, 2)
        second = rng.randrange(1, max_len, 2)
        if first + second <= max_len:
            break
    exps = random_palindrome(rng, first, max_exp)
    exps += random_palindrome(rng, second, max_exp)
    return tuple(exps)


class _Timeout(Exception):
    pass


@contextmanager
def budget(seconds):
    """Fail if the block takes `seconds` or longer; interrupt it at 5x."""

    def expire(signum, frame):
        raise _Timeout(f"interrupted after {5 * seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5 * seconds)
    start = time.perf_counter()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"
