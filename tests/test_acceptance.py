"""Acceptance gate.

Each test covers one numbered criterion, checks with exact integer
equality (tolerance zero), enforces its runtime budget, and prints one
pass/fail line (visible under pytest -s or in failure reports).
"""

import functools
import random
import time
import xml.etree.ElementTree as ET
from itertools import product

from sl2real import (
    IDENTITY,
    NEG_IDENTITY,
    ROT_2PI3,
    ROT_PI,
    Cycle,
    Mat2,
    Surd,
    brute_force_conjugator,
    brute_force_factor,
    cutting_cycle,
    factor_real,
    is_real,
    is_real_structure,
    render_farey,
    v_pow,
)

from conftest import (
    cf_step,
    random_hyperbolic,
    random_odd_bipalindromic_cycle,
    random_unimodular,
    random_word,
    word_matrix,
)

ELLIPTIC_REPS = (ROT_PI, ROT_2PI3, -ROT_2PI3)


def criterion(number, name, limit_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"[criterion {number}] {name}: FAIL")
                raise
            elapsed = time.monotonic() - start
            assert elapsed < limit_s, f"took {elapsed:.1f}s, budget {limit_s}s"
            print(f"[criterion {number}] {name}: PASS ({elapsed:.2f}s)")

        return wrapper

    return deco


def _conjugator_word(rng, max_letters=12):
    m = IDENTITY
    for _ in range(rng.randint(0, max_letters)):
        e = rng.choice((-1, 1))
        m = m @ (Mat2(1, e, 0, 1) if rng.random() < 0.5 else Mat2(1, 0, e, 1))
    return m


def _check_factorization(m, f):
    assert is_real_structure(f.c_plus)
    assert is_real_structure(f.c_minus)
    assert f.c_plus @ f.c_minus == m


@criterion(1, "elliptic and parabolic matrices factor", 5.0)
def test_criterion_1_elliptic_parabolic():
    rng = random.Random(101)
    for _ in range(100):
        g = _conjugator_word(rng)
        m = g @ rng.choice(ELLIPTIC_REPS) @ g.inverse()
        _check_factorization(m, factor_real(m))
    for _ in range(100):
        g = _conjugator_word(rng)
        base = v_pow(rng.randint(1, 30))
        if rng.random() < 0.5:
            base = -base
        m = g @ base @ g.inverse()
        _check_factorization(m, factor_real(m))


@criterion(2, "odd-bipalindromic hyperbolics factor", 10.0)
def test_criterion_2_hyperbolic_positive():
    rng = random.Random(202)
    for _ in range(300):
        exps = random_odd_bipalindromic_cycle(rng, max_len=10, max_exp=7)
        g = random_unimodular(rng)
        m = g @ word_matrix(exps) @ g.inverse()
        if rng.random() < 0.5:
            m = -m
        _check_factorization(m, factor_real(m))
    worked = Mat2(15, 4, 11, 3)
    f = factor_real(worked)
    assert f.c_plus @ f.c_minus == worked


@criterion(3, "even-bipalindromic example is not real", 60.0)
def test_criterion_3_hyperbolic_negative():
    m = Mat2(12, 5, 7, 3)
    cyc, sign, _ = cutting_cycle(m)
    assert cyc == Cycle((1, 1, 2, 2)) and sign == 1
    assert not is_real(m)
    assert factor_real(m) is None
    assert brute_force_factor(m, 50) is None


@criterion(4, "conjugation witnesses match realness exhaustively", 300.0)
def test_criterion_4_weak_realness():
    checked = reals = witnesses = 0
    for a, b, c, d in product(range(-3, 4), repeat=4):
        m = Mat2(a, b, c, d)
        if m.det != 1 or m in (IDENTITY, NEG_IDENTITY):
            continue
        checked += 1
        q = brute_force_conjugator(m, 25)
        if q is not None:
            witnesses += 1
            assert q.det == -1
            assert q @ m @ q.inverse() == m.inverse()
            assert is_real(m), f"witness without realness at {m}"
        if is_real(m):
            reals += 1
            f = factor_real(m)
            assert f.c_plus.det == -1
            assert f.c_plus @ m @ f.c_plus.inverse() == m.inverse()
    assert checked == 114  # all of SL(2,Z) with |entries| <= 3, minus +-I
    assert 0 < witnesses <= reals <= checked


@criterion(5, "cycle certificates round-trip", 10.0)
def test_criterion_5_cycle_round_trip():
    rng = random.Random(505)
    for _ in range(500):
        w = random_word(rng, max_runs=8, max_exp=9)
        g = random_unimodular(rng)
        sign = rng.choice((1, -1))
        m = g @ word_matrix(w) @ g.inverse()
        if sign == -1:
            m = -m
        cyc, got_sign, conj = cutting_cycle(m)
        assert cyc == Cycle(w)
        assert got_sign == sign
        recon = conj @ word_matrix(cyc.exponents) @ conj.inverse()
        assert (recon if got_sign == 1 else -recon) == m


@criterion(6, "inverse reverses the cycle", 5.0)
def test_criterion_6_inverse_reversal():
    rng = random.Random(606)
    for _ in range(200):
        m = random_hyperbolic(rng, max_exp=6)
        cyc, _, _ = cutting_cycle(m)
        inv_cyc, _, _ = cutting_cycle(m.inverse())
        assert inv_cyc == Cycle(cyc.exponents[::-1])


@criterion(7, "series cross-check is consistent", 10.0)
def test_criterion_7_series():
    rng = random.Random(707)
    for i in range(200):
        m = random_hyperbolic(rng, max_runs=4, max_exp=5)
        if i % 3 == 0:
            m = m ** rng.randint(2, 3)
        # by Galois's theorem the repelling point's period, doubled when
        # odd, is the cycle's root reversed, up to rotation
        tile = _repelling_period(m)
        if len(tile) % 2:
            tile += tile
        reversed_root = cutting_cycle(m)[0].root[::-1]
        assert len(tile) == len(reversed_root)
        assert any(tile[r:] + tile[:r] == reversed_root for r in range(len(tile)))


def _repelling_period(m):
    """CF period of the fixed point (a - d - e sqrt(t^2 - 4)) / 2c of m,
    for e the sign of its trace t, stepped one digit at a time until a
    state comes back."""
    e = 1 if m.trace > 0 else -1
    x = Surd(-e * (m.a - m.d), m.trace**2 - 4, -2 * e * m.c)
    seen, digits = {}, []
    while (x.p, x.q) not in seen:
        seen[(x.p, x.q)] = len(digits)
        digit, x = cf_step(x)
        digits.append(digit)
    return tuple(digits[seen[(x.p, x.q)] :])


@criterion(8, "elliptic elements have the right orders", 1.0)
def test_criterion_8_elliptic_orders():
    rng = random.Random(808)
    for _ in range(100):
        g = _conjugator_word(rng, 8)
        m = g @ ROT_PI @ g.inverse()
        assert m @ m == NEG_IDENTITY
        assert m**4 == IDENTITY
    for _ in range(100):
        g = _conjugator_word(rng, 8)
        base = ROT_2PI3 if rng.random() < 0.5 else -ROT_2PI3
        m = g @ base @ g.inverse()
        assert m**6 == IDENTITY
        assert m @ m != IDENTITY  # true order 3 or 6, never <= 2


def _mediants(depth):
    """Right-half insertions (u, w, v), w the mediant of the frontier arc
    u < v, round by round and from 0 to infinity within a round: the
    arcs `svg` draws, besides the base diameter and the mirror images."""
    row = [(0, 1), (1, 0)]
    for _ in range(depth):
        nxt = [row[0]]
        for u, v in zip(row, row[1:]):
            w = (u[0] + v[0], u[1] + v[1])
            yield u, w, v
            nxt += (w, v)
        row = nxt


@criterion(9, "figures have the exact arc structure", 5.0)
def test_criterion_9_svg():
    """On what `svg` draws: the arc paths of each depth, and the mediant
    walk's arcs with their mirror images, whose ends are Farey neighbours."""
    for depth in range(9):
        doc = render_farey(depth)
        ET.fromstring(doc)  # well-formed XML
        assert doc.count('<path class="arc"') == 2 ** (depth + 2) - 3
        arcs = [((0, 1), (1, 0))]
        for u, w, v in _mediants(depth):
            for (m1, n1), (m2, n2) in ((u, w), (w, v)):
                arcs += [((m1, n1), (m2, n2)), ((-m1, n1), (-m2, n2))]
        for (m1, n1), (m2, n2) in arcs:
            assert m1 * n2 - m2 * n1 in (1, -1)
