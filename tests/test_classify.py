"""Trace trichotomy and the conjugators that certify it."""

import json
import random
import sys
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from sl2real import (
    CENTRAL,
    ELLIPTIC,
    HYPERBOLIC,
    IDENTITY,
    NEG_IDENTITY,
    PARABOLIC,
    REFL_DIAG,
    ROT_2PI3,
    ROT_PI,
    U,
    Cycle,
    Mat2,
    NotSL2,
    classify,
    conjugacy_test,
    u_pow,
    v_pow,
)
from sl2real.classify import _STABILIZER_TABLE, _parabolic_reduce
from sl2real.cli import _class_text

from conftest import random_unimodular, word_matrix

classify_module = sys.modules["sl2real.classify"]  # the package binds the name to the function

ELLIPTIC_REPS = (ROT_PI, ROT_2PI3, -ROT_2PI3)
ELLIPTIC_REP = {rep.trace: rep for rep in ELLIPTIC_REPS}


def _uv_word(factors):
    g = IDENTITY
    for is_u, e in factors:
        g = g @ (u_pow(e) if is_u else v_pow(e))
    return g


def test_classify_central():
    c = classify(IDENTITY)
    assert c.kind == CENTRAL and c.sign == 1
    c = classify(NEG_IDENTITY)
    assert c.kind == CENTRAL and c.sign == -1
    assert json.loads(_class_text(c)) == {"kind": "central", "sign": -1}


def test_classify_elliptic():
    c = classify(ROT_PI)
    assert c.kind == ELLIPTIC and c.trace == 0
    assert classify(ROT_2PI3).trace == 1
    assert classify(-ROT_2PI3).trace == -1
    assert json.loads(_class_text(c)) == {"kind": "elliptic", "trace": 0}


def test_classify_parabolic():
    c = classify(Mat2(1, 0, 5, 1))
    assert c.kind == PARABOLIC and c.sign == 1 and c.shift == 5
    c = classify(Mat2(-1, 0, -2, -1))
    assert c.kind == PARABOLIC and c.sign == -1 and c.shift == 2
    c = classify(U)
    assert c.shift == 1
    assert json.loads(_class_text(classify(Mat2(1, 0, 5, 1)))) == {
        "kind": "parabolic",
        "sign": 1,
        "shift": "5",
    }


def test_classify_hyperbolic():
    c = classify(Mat2(2, 1, 1, 1))
    assert c.kind == HYPERBOLIC and c.sign == 1
    assert c.cycle == Cycle((1, 1))
    c = classify(Mat2(-12, -5, -7, -3))
    assert c.sign == -1 and c.cycle == Cycle((1, 1, 2, 2))
    assert json.loads(_class_text(classify(Mat2(2, 1, 1, 1)))) == {
        "kind": "hyperbolic",
        "sign": 1,
        "cycle": ["1", "1"],
    }


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_classify_conjugator_is_a_witness_not_an_invariant(seed):
    rng = random.Random(seed)
    g = random_unimodular(rng)
    for m in (Mat2(15, 4, 11, 3), Mat2(-1, 0, 3, -1)):
        c, d = classify(m), classify(g @ m @ g.inverse())
        assert c == d and hash(c) == hash(d)
        assert "conjugator" not in repr(c) and "conjugator" not in json.loads(_class_text(c))
    w = classify(Mat2(15, 4, 11, 3)).conjugator
    assert w @ word_matrix((1, 2, 1, 3)) @ w.inverse() == Mat2(15, 4, 11, 3)
    m = g @ Mat2(-1, 0, 3, -1) @ g.inverse()
    c = classify(m).conjugator
    assert c @ -v_pow(3) @ c.inverse() == m  # sign -1


def test_classify_rejects_non_sl2():
    with pytest.raises(NotSL2):
        classify(Mat2(1, 0, 0, -1))
    with pytest.raises(NotSL2):
        classify(Mat2(2, 0, 0, 2))
    with pytest.raises(NotSL2):  # trace 2 and b == c == 0, but det -3: not central
        classify(Mat2(3, 0, 0, -1))


# ------------------------------------------------------------ elliptic
# classify's conjugator c carries the representative of m's trace to m


class _RecordingTable(dict):
    """The stabilizer table, keeping each key the reduction loop looks up."""

    def __init__(self, table):
        super().__init__(table)
        self.met = set()

    def __getitem__(self, key):
        self.met.add(key)
        return super().__getitem__(key)


def _keys_met(matrices):
    table = _RecordingTable(_STABILIZER_TABLE)
    with mock.patch.object(classify_module, "_STABILIZER_TABLE", table):
        for m in matrices:
            classify(m)
    return table.met


def test_stabilizer_table():
    # every row is one the loop ends on, and each mover carries the
    # representative of its trace to its key
    assert _keys_met(_box_elliptics(30)) == set(_STABILIZER_TABLE)
    for key, mover in _STABILIZER_TABLE.items():
        m = Mat2(*key)
        assert m == mover @ ELLIPTIC_REP[m.trace] @ mover.inverse()


def test_elliptic_canonicalize_pinned():
    m = Mat2(0, -1, 1, 0)
    c = classify(m).conjugator
    assert c == Mat2(1, 0, 0, -1)
    assert c @ ROT_PI @ c.inverse() == m


def test_elliptic_canonicalize_fixes_representatives():
    for rep in ELLIPTIC_REPS:
        c = classify(rep).conjugator
        assert c @ rep @ c.inverse() == rep


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=2))
def test_elliptic_canonicalize_random_conjugates(seed, which):
    rng = random.Random(seed)
    g = random_unimodular(rng, steps=10)
    rep = ELLIPTIC_REPS[which]
    m = g @ rep @ g.inverse()
    cls = classify(m)
    assert cls.trace == rep.trace
    assert cls.conjugator.det in (1, -1)
    assert cls.conjugator @ rep @ cls.conjugator.inverse() == m


def test_elliptic_orders():
    rng = random.Random(3)
    for _ in range(40):
        g = random_unimodular(rng)
        m = g @ rng.choice(ELLIPTIC_REPS) @ g.inverse()
        if m.trace == 0:
            assert m @ m == NEG_IDENTITY
            assert m**4 == IDENTITY
        else:
            assert m**6 == IDENTITY
            assert m**3 in (IDENTITY, NEG_IDENTITY)


# ----------------------------------------------------------- parabolic
# classify's conjugator c carries sign * (1 0; shift 1) to m, and its
# determinant is the sign of k in the SL(2,Z) representative (1 0; k 1)


def _signed_shift(m):
    cls = classify(m)
    c = cls.conjugator
    rep = v_pow(cls.shift) if cls.sign == 1 else -v_pow(cls.shift)
    assert cls.shift >= 1 and c @ rep @ c.inverse() == m
    return cls.shift * c.det, cls.sign


def test_parabolic_canonicalize_pinned():
    cls = classify(Mat2(1, 0, 3, 1))
    assert (cls.sign, cls.shift, cls.conjugator) == (1, 3, IDENTITY)

    m = Mat2(-1, 0, -2, -1)
    cls = classify(m)
    c = cls.conjugator
    assert (cls.sign, cls.shift) == (-1, 2)
    assert c @ -v_pow(2) @ c.inverse() == m

    c = classify(U).conjugator  # U is SL-conjugate to (1 0; -1 1)
    assert c == Mat2(0, -1, -1, 0) and c.det == -1
    assert c @ v_pow(1) @ c.inverse() == U


def test_parabolic_signed_shift_pinned():
    assert _signed_shift(Mat2(3, -1, 4, -1)) == (1, 1)
    assert _signed_shift(Mat2(1, 0, 5, 1)) == (5, 1)
    assert _signed_shift(Mat2(1, -3, 0, 1)) == (3, 1)
    assert _signed_shift(Mat2(-1, 0, -2, -1)) == (2, -1)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=40),
    st.sampled_from((1, -1)),
)
def test_parabolic_canonicalize_random_conjugates(seed, n, sign):
    rng = random.Random(seed)
    g = random_unimodular(rng, steps=10)
    base = v_pow(n) if sign == 1 else -v_pow(n)
    m = g @ base @ g.inverse()
    assert _signed_shift(m) == (n, sign)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=20))
def test_parabolic_shift_of_inverse_flips_sign(seed, n):
    # V^n and V^-n are GL- but not SL-conjugate: the signed shift
    # separates them, the absolute shift does not
    rng = random.Random(seed)
    g = random_unimodular(rng)
    m = g @ v_pow(n) @ g.inverse()
    assert _signed_shift(m) == (n, 1)
    assert _signed_shift(m.inverse()) == (-n, 1)
    assert classify(m).shift == classify(m.inverse()).shift == n


def _parabolic_reduce_reference(m):
    """Reference: the reduction by a probe conjugation, with checked
    matrices; reading n and p/q off sign*m - I replaced it."""
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
        gamma = pow(p, -1, q)
        delta = (1 - p * gamma) // q
        w = Mat2(q, -p, gamma, delta)
    k = (w @ b @ w.inverse()).c
    conj = w.inverse() if k > 0 else w.inverse() @ REFL_DIAG
    assert conj @ Mat2(sign, 0, sign * abs(k), sign) @ conj.inverse() == m
    return sign, conj, abs(k)


_BIG_UV_FACTOR = st.tuples(st.booleans(), st.integers(min_value=-(10**300), max_value=10**300))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((1, -1)),
    st.integers(min_value=-(10**1000), max_value=10**1000).filter(bool),
    st.booleans(),
    st.lists(_BIG_UV_FACTOR, max_size=8),
)
@example(1, -4, False, [(True, 5)])  # c == 0
@example(-1, 3, True, [(False, -7)])  # b == 0
@example(1, -(10**999) - 3, True, [(True, 10**300), (False, -(10**300) + 1)])  # 1,000 digits
def test_parabolic_reduce_matches_probe_reference(sign, k, lower, factors):
    g = _uv_word(factors)
    base = v_pow(k) if lower else u_pow(k)
    m = g @ (base if sign == 1 else -base) @ g.inverse()
    assert _parabolic_reduce(m) == _parabolic_reduce_reference(m)


def _entry_sign_class(m):
    # sign*m - I = g (0 0; k 0) g^-1 for g = (p q; r s) in SL(2,Z): its
    # lower-left entry is k s^2, its upper-right -k q^2, and the gcd of
    # its entries is |k|
    sign = m.trace // 2
    a, b, c, d = sign * m.a - 1, sign * m.b, sign * m.c, sign * m.d - 1
    k_sign = (c > 0) - (c < 0) if c else (b < 0) - (b > 0)
    return sign, gcd(a, b, c, d) * k_sign


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_parabolic_sl_conjugacy_matches_entry_signs(seed):
    rng = random.Random(seed)
    for _ in range(40):
        pair = []
        for _ in range(2):
            sign, k = rng.choice((1, -1)), rng.choice((-3, -2, -1, 1, 2, 3))
            g = random_unimodular(rng, steps=10)
            m = g @ (v_pow(k) if sign == 1 else -v_pow(k)) @ g.inverse()
            assert _entry_sign_class(m) == (sign, k)
            pair.append(m)
        x, y = pair
        assert conjugacy_test(x, y, "sl") == (_entry_sign_class(x) == _entry_sign_class(y))


# ------------------------------------------- elliptic reduction reference


def _elliptic_conjugator_by_fixed_point(m):
    """Reference: the translate/invert loop on the fixed point
    (x + y*i*sqrt(4 - t^2)) / q kept as a reduced integer triple, with
    the moves multiplied up as checked matrices; the loop on the
    matrix's own entries replaced it."""
    t = m.trace
    dd = 4 - t * t
    if m.c > 0:
        x, y, q = m.a - m.d, 1, 2 * m.c
    else:
        x, y, q = m.d - m.a, 1, -2 * m.c
    g = IDENTITY
    while True:
        n = (2 * x + q) // (2 * q)
        if n:
            x -= n * q
            g = Mat2(1, -n, 0, 1) @ g
        norm = x * x + y * y * dd
        if norm >= q * q:
            break
        x, y, q = -x * q, y * q, norm
        shrink = gcd(x, y, q)
        x, y, q = x // shrink, y // shrink, q // shrink
        g = Mat2(0, -1, 1, 0) @ g
    reduced = g @ m @ g.inverse()
    conj = g.inverse() @ _STABILIZER_TABLE[(reduced.a, reduced.b, reduced.c, reduced.d)]
    assert conj @ ELLIPTIC_REP[t] @ conj.inverse() == m
    return conj


def _box_elliptics(r):
    out = []
    for a in range(-r, r + 1):
        for d in range(-r, r + 1):
            if abs(a + d) >= 2:
                continue
            for b in range(-r, r + 1):
                # b == 0 would force ad = 1, so |trace| = 2
                if b and (a * d - 1) % b == 0 and abs((a * d - 1) // b) <= r:
                    out.append(Mat2(a, b, (a * d - 1) // b, d))
    return out


def test_elliptic_conjugator_matches_fixed_point_loop_on_a_box():
    box = _box_elliptics(30)
    assert len(box) == 274
    for m in box:
        assert classify(m).conjugator == _elliptic_conjugator_by_fixed_point(m), m


_UV_FACTOR = st.tuples(st.booleans(), st.integers(min_value=-(10**6), max_value=10**6))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((ROT_PI, -ROT_PI, ROT_2PI3, -ROT_2PI3, ROT_2PI3 @ ROT_2PI3)),
    st.lists(_UV_FACTOR, max_size=40),
)
def test_elliptic_conjugator_matches_fixed_point_loop_on_conjugates(rep, factors):
    g = _uv_word(factors)
    m = g @ rep @ g.inverse()
    assert classify(m).conjugator == _elliptic_conjugator_by_fixed_point(m)


@settings(max_examples=100, deadline=None)
@given(st.lists(_UV_FACTOR, max_size=40))
def test_stabilizer_table_rows_met_on_conjugates(factors):
    # m, -m, m^-1 and -m^-1 share m's fixed point, so the loop makes the
    # same moves on each and ends on K, -K, K^-1 and -K^-1 for the key K
    # of m: both rows of trace 0 for a conjugate of ROT_PI, all four of
    # trace +-1 for one of ROT_2PI3
    g = _uv_word(factors)
    reps = (ROT_PI, -ROT_PI, ROT_2PI3, -ROT_2PI3, ROT_2PI3.inverse(), -ROT_2PI3.inverse())
    assert _keys_met(g @ rep @ g.inverse() for rep in reps) == set(_STABILIZER_TABLE)
