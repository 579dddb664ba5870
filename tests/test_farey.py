"""Quadratic surds, continued-fraction reduction, cutting cycles."""

import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sl2real import (
    IDENTITY,
    ROT_PI,
    U,
    Cycle,
    Mat2,
    NotHyperbolic,
    NotSL2,
    Surd,
    attracting_fixed_point,
    classify,
    conjugacy_test,
    cutting_cycle,
    factor_real,
    is_real,
    u_pow,
    v_pow,
)
import sl2real.farey as farey
from sl2real.cli import _class_text, _strings_text, main
from sl2real.farey import _gauss_orbit

from conftest import (
    budget,
    cf_step,
    make_surd,
    random_hyperbolic,
    random_unimodular,
    random_word,
    surd_float,
    surd_floor,
    word_matrix,
)

GOLDEN = Surd(1, 5, 2)


# ---------------------------------------------------------------- surds


def test_surd_validation():
    with pytest.raises(ValueError):
        Surd(0, 4, 1)  # square discriminant
    with pytest.raises(ValueError):
        Surd(0, -5, 1)
    with pytest.raises(ValueError):
        Surd(1, 5, 0)
    with pytest.raises(ValueError):
        Surd(1, 5, 3)  # 3 does not divide 5 - 1


def test_surd_make_rescales():
    x = make_surd(1, 5, 3)
    assert x.q % 1 == 0 and (x.d - x.p * x.p) % x.q == 0
    assert abs(surd_float(x) - (1 + math.sqrt(5)) / 3) < 1e-12
    # already-valid data is kept verbatim
    assert make_surd(1, 5, 2) == GOLDEN


def test_surd_floor():
    assert surd_floor(GOLDEN) == 1
    assert surd_floor(GOLDEN.conjugate()) == -1  # (1 - sqrt 5)/2 ~ -0.618
    assert surd_floor(Surd(9, 221, 14)) == 1
    assert surd_floor(Surd(-1, 5, 2)) == 0


def test_surd_compare_rational():
    assert GOLDEN.compare_rational(1, 1) > 0
    assert GOLDEN.compare_rational(2, 1) < 0
    assert GOLDEN.compare_rational(13, 8) < 0  # 1.618... < 1.625
    assert GOLDEN.compare_rational(8, 5) > 0


surd_data = st.tuples(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=2, max_value=400),
    st.integers(min_value=-30, max_value=30).filter(lambda q: q != 0),
)


@given(surd_data)
def test_surd_make_invariant(data):
    p, d, q = data
    if math.isqrt(d) ** 2 == d:
        d += 1
        if math.isqrt(d) ** 2 == d:
            return
    x = make_surd(p, d, q)
    assert (x.d - x.p * x.p) % x.q == 0
    assert abs(surd_float(x) - (p + math.sqrt(d)) / q) < 1e-9


@given(surd_data)
def test_surd_floor_matches_float(data):
    p, d, q = data
    if math.isqrt(d) ** 2 == d:
        return
    x = make_surd(p, d, q)
    f = surd_float(x)
    # far from an integer the float-based floor is reliable
    if abs(f - round(f)) > 1e-6:
        assert surd_floor(x) == math.floor(f)


def test_surd_float_with_discriminant_past_float_range():
    # d has about 800 digits, the value is 10^200
    x = attracting_fixed_point(word_matrix((10**200, 1, 3, 10**200)))
    assert surd_float(x) == 1e200
    with pytest.raises(OverflowError):
        surd_float(make_surd(10**400, 2, 1))  # the value itself is past float range


@settings(max_examples=300)
@given(
    st.integers(min_value=2, max_value=2**2400),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=-(10**30), max_value=10**30).filter(lambda q: q != 0),
    st.booleans(),
)
def test_surd_float_within_two_ulp(d, offset, q, near_root):
    if math.isqrt(d) ** 2 == d:
        d += 1
    # p close to -sqrt(d) makes p + sqrt(d) cancel
    p = offset - math.isqrt(d) if near_root else offset
    x = make_surd(p, d, q)
    k = x.d.bit_length() + 200
    exact = Fraction((x.p << k) + math.isqrt(x.d << 2 * k), x.q << k)
    try:
        expected = float(exact)
    except OverflowError:
        with pytest.raises(OverflowError):
            surd_float(x)
        return
    assert abs(surd_float(x) - expected) <= 2 * math.ulp(expected)


# ------------------------------------------------- continued fractions


def test_cf_step_golden():
    digit, nxt = cf_step(GOLDEN)
    assert digit == 1
    assert nxt == GOLDEN  # purely periodic with period [1]


def test_cf_step_silver():
    x = Surd(1, 2, 1)  # 1 + sqrt 2 = [2; 2, 2, ...]
    digit, nxt = cf_step(x)
    assert digit == 2
    assert nxt == x


def test_cf_step_pinned():
    digit, nxt = cf_step(Surd(9, 221, 14))
    assert digit == 1
    assert nxt == Surd(5, 221, 14)


@given(surd_data)
def test_cf_step_preserves_discriminant(data):
    p, d, q = data
    if math.isqrt(d) ** 2 == d:
        return
    x = make_surd(p, d, q)
    digit, nxt = cf_step(x)
    assert nxt.d == x.d
    assert (nxt.d - nxt.p * nxt.p) % nxt.q == 0
    # x = digit + 1/nxt, so nxt > 1 requires digit = floor(x)
    assert digit == surd_floor(x)
    assert nxt.compare_rational(1, 1) > 0


def test_cf_orbit_becomes_periodic():
    rng = random.Random(7)
    for _ in range(25):
        m = random_hyperbolic(rng)
        x = attracting_fixed_point(m)
        seen = {}
        for i in range(300):
            key = (x.p, x.q)
            if key in seen:
                break
            seen[key] = i
            _, x = cf_step(x)
        else:
            pytest.fail("no repetition after 300 steps")


# -------------------------------------------------------- fixed points


def test_attracting_fixed_point_pinned():
    assert attracting_fixed_point(Mat2(2, 1, 1, 1)) == GOLDEN
    assert attracting_fixed_point(Mat2(1, 1, 1, 2)) == Surd(-1, 5, 2)
    assert attracting_fixed_point(Mat2(12, 5, 7, 3)) == Surd(9, 221, 14)


def test_fixed_points_of_negated_matrix_agree():
    m = Mat2(2, 1, 1, 1)
    assert attracting_fixed_point(-m) == attracting_fixed_point(m)
    assert attracting_fixed_point(m.inverse()) == attracting_fixed_point(m).conjugate()


def test_fixed_point_errors():
    with pytest.raises(NotHyperbolic):
        attracting_fixed_point(U)
    with pytest.raises(NotHyperbolic):
        attracting_fixed_point(ROT_PI)
    with pytest.raises(NotSL2):
        attracting_fixed_point(Mat2(0, 1, 1, 0))


@given(st.integers(min_value=0, max_value=300))
def test_fixed_point_is_fixed(seed):
    rng = random.Random(seed)
    m = random_hyperbolic(rng, max_exp=5)
    x = attracting_fixed_point(m)
    # m fixes x: a x + b = x (c x + d), checked in the surd field:
    # (a x + b) and (c x + d) x have equal rational and surd parts.
    p, d, q = x.p, x.d, x.q
    # x = (p + s)/q with s^2 = d; compute both sides over Z[s]/(s^2-d)
    lhs = (m.a * p + m.b * q, m.a)  # q * (a x + b) = (ap + bq) + a s
    cx_d = (m.c * p + m.d * q, m.c)  # q * (c x + d)
    # q^2 * (c x + d) x = (cx_d rational + surd) * (p + s)
    rhs = (cx_d[0] * p + cx_d[1] * d, cx_d[0] + cx_d[1] * p)
    assert (lhs[0] * q, lhs[1] * q) == rhs


# --------------------------------------------------------------- words


def test_word_matrix_pinned():
    assert farey._times_word(1, 0, 0, 1, (1, 1)) == (2, 1, 1, 1)
    assert farey._times_word(1, 0, 0, 1, (0, 1, 1)) == (1, 1, 1, 2)  # V first, as U^0 = I
    assert farey._times_word(1, 0, 0, 1, (1, 2, 1, 3)) == (15, 4, 11, 3)
    assert farey._times_word(1, 0, 0, 1, (2, 2)) == (5, 2, 2, 1)


# -------------------------------------------------------------- cycles


def test_cycle_validation():
    with pytest.raises(ValueError):
        Cycle((1,))
    with pytest.raises(ValueError):
        Cycle((1, 2, 3))
    with pytest.raises(ValueError):
        Cycle((0, 1))
    with pytest.raises(ValueError):
        Cycle(())


def test_cycle_canonical_rotation():
    assert Cycle((2, 1)).canonical == (1, 2)
    assert Cycle((3, 1, 2, 1)).canonical == (1, 2, 1, 3)
    assert Cycle((1, 1)).canonical == (1, 1)


def test_cycle_equality_up_to_rotation():
    assert Cycle((2, 1)) == Cycle((1, 2))
    assert Cycle((1, 2, 1, 3)) == Cycle((1, 3, 1, 2))
    assert Cycle((1, 2)) != Cycle((1, 3))
    assert hash(Cycle((2, 1))) == hash(Cycle((1, 2)))


def test_cycle_even_rotation_is_finer():
    # (1,2) and (2,1) are the same cycle but differ by an odd shift
    assert Cycle((1, 2)) == Cycle((2, 1))
    assert not Cycle((1, 2)).equal_up_to_even_rotation(Cycle((2, 1)))
    assert Cycle((1, 2, 1, 3)).equal_up_to_even_rotation(Cycle((1, 3, 1, 2)))
    assert not Cycle((1, 2, 1, 3)).equal_up_to_even_rotation(Cycle((3, 1, 2, 1)))
    # the same root to different powers
    assert not Cycle((1, 2)).equal_up_to_even_rotation(Cycle((1, 2, 1, 2)))


def test_cycle_reversed():
    assert Cycle(Cycle((1, 2, 1, 3)).exponents[::-1]) == Cycle((3, 1, 2, 1))
    assert Cycle(Cycle((1, 1)).exponents[::-1]) == Cycle((1, 1))


def test_cycle_json():
    assert _strings_text(Cycle((3, 1, 2, 1)).canonical) == '["1","2","1","3"]'


# ------------------------------------------------------ cutting cycles


def _check_certificate(m, cyc, sign, conj):
    assert conj.det == 1
    recon = conj @ word_matrix(cyc.exponents) @ conj.inverse()
    assert (recon if sign == 1 else -recon) == m


def test_cutting_cycle_pinned():
    cyc, sign, conj = cutting_cycle(Mat2(2, 1, 1, 1))
    assert (cyc, sign) == (Cycle((1, 1)), 1)
    _check_certificate(Mat2(2, 1, 1, 1), cyc, sign, conj)

    cyc, sign, conj = cutting_cycle(Mat2(1, 1, 1, 2))
    assert (cyc, sign) == (Cycle((1, 1)), 1)
    _check_certificate(Mat2(1, 1, 1, 2), cyc, sign, conj)

    cyc, sign, conj = cutting_cycle(Mat2(-12, -5, -7, -3))
    assert (cyc, sign) == (Cycle((1, 1, 2, 2)), -1)
    _check_certificate(Mat2(-12, -5, -7, -3), cyc, sign, conj)

    cyc, sign, conj = cutting_cycle(Mat2(15, 4, 11, 3))
    assert (cyc, sign) == (Cycle((1, 2, 1, 3)), 1)
    _check_certificate(Mat2(15, 4, 11, 3), cyc, sign, conj)

    cyc, sign, conj = cutting_cycle(Mat2(5, 2, 2, 1))
    assert (cyc, sign) == (Cycle((2, 2)), 1)
    _check_certificate(Mat2(5, 2, 2, 1), cyc, sign, conj)


def test_cutting_cycle_errors():
    with pytest.raises(NotHyperbolic):
        cutting_cycle(U)
    with pytest.raises(NotHyperbolic):
        cutting_cycle(ROT_PI)
    with pytest.raises(NotHyperbolic):
        cutting_cycle(IDENTITY)
    with pytest.raises(NotSL2):
        cutting_cycle(Mat2(0, 1, 1, 0))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_cutting_cycle_round_trip(seed):
    rng = random.Random(seed)
    w = random_word(rng)
    g = random_unimodular(rng)
    sign = rng.choice((1, -1))
    m = g @ word_matrix(w) @ g.inverse()
    if sign == -1:
        m = -m
    cyc, got_sign, conj = cutting_cycle(m)
    assert cyc == Cycle(w)
    # conjugation by g (det +1) preserves the even-rotation class
    assert cyc.equal_up_to_even_rotation(Cycle(w))
    assert got_sign == sign
    _check_certificate(m, cyc, got_sign, conj)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_cutting_cycle_conjugation_invariant(seed):
    rng = random.Random(seed)
    m = random_hyperbolic(rng, max_exp=6)
    g = random_unimodular(rng)
    cyc1, sign1, _ = cutting_cycle(m)
    cyc2, sign2, _ = cutting_cycle(g @ m @ g.inverse())
    assert cyc1 == cyc2
    assert sign1 == sign2


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_cutting_cycle_of_inverse_reverses(seed):
    rng = random.Random(seed)
    m = random_hyperbolic(rng, max_exp=6)
    cyc, sign, _ = cutting_cycle(m)
    inv_cyc, inv_sign, _ = cutting_cycle(m.inverse())
    assert inv_cyc == Cycle(cyc.exponents[::-1])
    assert inv_sign == sign


# ---------------------------------------- the fast loops and their references


def _gauss_orbit_reference(x):
    """Letter-for-letter walk with validated surds until a state repeats."""
    seen = {}
    digits = []
    while (x.p, x.q) not in seen:
        seen[(x.p, x.q)] = len(digits)
        digit, x = cf_step(x)
        digits.append(digit)
    return digits, seen[(x.p, x.q)]


def _walk_bound(m):
    """_gauss_orbit's bound on the pre-period plus the period, for m's fixed points."""
    phi = (1 + math.sqrt(5)) / 2
    return math.log(2 * abs(m.c), phi) + math.log(abs(m.trace), phi) + 3


class NotFactorable(Exception):
    """The matrix is not a nonempty positive word in U and V."""


def _greedy_factor_reference(b):
    """Peel one letter per step, then merge the letters into runs: the
    exponents of the U-first word, led by a 0 when b's word starts with V."""
    if b.det != 1:
        raise NotFactorable("det != 1")
    if min(b.a, b.b, b.c, b.d) < 0:
        raise NotFactorable("matrix has a negative entry")
    if b == IDENTITY:
        raise NotFactorable("identity is the empty word")
    a, bb, c, d = b.a, b.b, b.c, b.d
    letters = []
    while (a, bb, c, d) != (1, 0, 0, 1):
        if a >= c and bb >= d:
            letters.append("U")
            a, bb = a - c, bb - d
        elif c >= a and d >= bb:
            letters.append("V")
            c, d = c - a, d - bb
        else:
            raise NotFactorable("matrix is not a positive word in U and V")
    runs = []
    for letter in letters:
        if runs and runs[-1][0] == letter:
            runs[-1][1] += 1
        else:
            runs.append([letter, 1])
    return (0,) * (runs[0][0] == "V") + tuple(e for _, e in runs)


@settings(max_examples=300, deadline=None)
@given(surd_data)
def test_gauss_orbit_matches_reference_on_surds(data):
    # q of either sign, and x anywhere on the line
    p, d, q = data
    if math.isqrt(d) ** 2 == d:
        return
    x = make_surd(p, d, q)
    assert _gauss_orbit(x)[:2] == _gauss_orbit_reference(x)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_gauss_orbit_matches_reference_on_fixed_points(seed):
    # m and its proper powers share their fixed points, which a power
    # holds over a larger discriminant
    rng = random.Random(seed)
    m = random_hyperbolic(rng, max_exp=50, conj_steps=12)  # either trace sign
    for power in (m, m**2, m**3):
        att = attracting_fixed_point(power)
        for x in (att, att.conjugate()):
            digits, entry, _ = _gauss_orbit(x)
            assert (digits, entry) == _gauss_orbit_reference(x)
            assert len(digits) <= _walk_bound(power)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=3))
def test_series_crosscheck_powers(seed, k):
    # on a proper power, the repelling point's CF period, doubled when odd,
    # is the cycle's root reversed up to rotation (Galois), and the cycle
    # repeats the attracting point's period a whole number of times
    rng = random.Random(seed)
    m = random_hyperbolic(rng, max_runs=4, max_exp=4) ** k
    att = attracting_fixed_point(m)
    cyc = cutting_cycle(m)[0]
    digits, entry, _ = _gauss_orbit(att)
    period = len(digits) - entry
    rep_digits, rep_entry, _ = _gauss_orbit(att.conjugate())
    tile = tuple(rep_digits[rep_entry:])
    if len(tile) % 2:
        tile += tile
    assert farey._least_rotation(tile) == farey._least_rotation(cyc.root[::-1])
    assert len(cyc) % period == 0
    assert len(cyc) // period >= 1


def _hyperbolics_in_box(r):
    """Every hyperbolic matrix with entries in [-r, r]."""
    for a, b, c in product(range(-r, r + 1), repeat=3):
        if a == 0:
            if b * c != -1:
                continue
            ds = range(-r, r + 1)
        elif (1 + b * c) % a == 0 and abs((1 + b * c) // a) <= r:
            ds = ((1 + b * c) // a,)
        else:
            continue
        for d in ds:
            if (a + d) ** 2 > 4:
                yield Mat2(a, b, c, d)


def test_gauss_orbit_matches_reference_exhaustively():
    # both fixed points of every hyperbolic matrix with entries in [-30, 30]
    count = 0
    for m in _hyperbolics_in_box(30):
        count += 1
        x = attracting_fixed_point(m)
        for y in (x, x.conjugate()):
            digits, entry, _ = _gauss_orbit(y)
            assert (digits, entry) == _gauss_orbit_reference(y)
            assert len(digits) <= _walk_bound(m)
    assert count == 7832


def _near_limit_conjugate(seed, sign, power, emax):
    """sign * g W^power g^-1 for a random word W and a random g in U^e, V^e
    with |e| <= emax, with entries just under the 4,300-digit input limit."""
    rng = random.Random(seed)
    w = word_matrix(random_word(rng, max_runs=6, max_exp=9)) ** power
    target = (14_000 - w.max_abs_entry().bit_length()) // 2
    g = IDENTITY
    while g.max_abs_entry().bit_length() < target:
        e = rng.choice((-1, 1)) * rng.randint(1, emax)
        g = g @ (u_pow(e) if rng.random() < 0.5 else v_pow(e))
    m = g @ w @ g.inverse()
    assert 10**3500 < m.max_abs_entry() < 10**4300
    return m if sign == 1 else -m


# the reference takes about a second a walk at this size, so the cases are few
@pytest.mark.parametrize(
    "seed, sign, power, emax",
    [(1, 1, 1, 999), (2, -1, 2, 999), (3, 1, 3, 999), (4, -1, 1, 9)],
)
def test_chunked_walk_matches_reference_near_the_limit(seed, sign, power, emax):
    # past _LEHMER_MIN_BITS the pre-period is walked in Lehmer chunks
    m = _near_limit_conjugate(seed, sign, power, emax)
    x = attracting_fixed_point(m)
    for y in (x, x.conjugate()):
        digits, entry, chunks = _gauss_orbit(y)
        assert y.q.bit_length() > farey._LEHMER_MIN_BITS and chunks
        assert (digits, entry) == _gauss_orbit_reference(y)
        # the chunks tile a head of the pre-period, each with its digits' matrix
        start = 0
        for end, *matrix in chunks:
            assert start < end < entry
            assert tuple(matrix) == _digit_matrix_product(digits[start:end])
            start = end


def _digit_matrix_product(digits):
    a, b, c, d = 1, 0, 0, 1
    for e in digits:
        a, b, c, d = a * e + b, a, c * e + d, c
    return a, b, c, d


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from((4, 8, 16)),
    st.integers(min_value=0, max_value=8),
)
def test_lehmer_chunk_reads_a_prefix_of_the_digits(seed, bits, steps):
    # from any state of either fixed point's walk, with |q| past the cut:
    # the chunk's digits are the state's next digits, and its matrix is
    # their product (short cuts make ends that land on integers common)
    rng = random.Random(seed)
    m = random_hyperbolic(rng, max_runs=4, max_exp=rng.choice((3, 5000)), conj_steps=10)
    x = attracting_fixed_point(m)
    for y in (x, x.conjugate()):
        for _ in range(steps):
            y = cf_step(y)[1]
        if y.q.bit_length() <= bits:
            continue
        expected, z = [], y
        for _ in range(100):
            digit, z = cf_step(z)
            expected.append(digit)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(farey, "_CHUNK_BITS", bits)
            digits, *matrix = farey._lehmer_chunk(y.p, y.q, math.isqrt(y.d))
        assert digits == expected[: len(digits)]
        assert tuple(matrix) == _digit_matrix_product(digits)


def test_chunk_into_the_period_is_replayed(monkeypatch):
    # a walk's _lehmer_chunk calls past its kept chunks are the one chunk
    # it dropped because it landed on a reduced state
    calls = []
    chunk = farey._lehmer_chunk

    def counted(*args):
        calls.append(args)
        return chunk(*args)

    monkeypatch.setattr(farey, "_lehmer_chunk", counted)
    # the golden ratio is reduced, so the one chunk taken from the
    # 13,885-bit first state of (2 1; 1 1)^10000 lands in the period
    x = attracting_fixed_point(_GOLDEN_10000)
    assert x.q.bit_length() > farey._LEHMER_MIN_BITS
    assert _gauss_orbit(x) == ([1], 0, [])
    assert len(calls) == 1
    # chunks read off 16-bit ends: short chunks, plain one-digit steps,
    # and, where the trace is large, chunks that reach the period
    monkeypatch.setattr(farey, "_LEHMER_MIN_BITS", 0)
    monkeypatch.setattr(farey, "_CHUNK_BITS", 16)
    rng = random.Random(16)
    dropped = kept = 0
    for _ in range(300):
        m = random_hyperbolic(rng, max_runs=4, max_exp=rng.choice((9, 1000)), conj_steps=12)
        x = attracting_fixed_point(m)
        for y in (x, x.conjugate()):
            del calls[:]
            digits, entry, chunks = _gauss_orbit(y)
            assert (digits, entry) == _gauss_orbit_reference(y)
            assert len(calls) - len(chunks) in (0, 1)
            dropped += len(calls) - len(chunks)
            kept += len(chunks)
    assert dropped > 50 and kept > 500, (dropped, kept)


def test_corrupted_chunk_is_caught_before_output(capsys, monkeypatch):
    # one chunk matrix off by one entry leaves the conjugator wrong, and
    # the cycle certificate refuses it before anything is printed
    walk = farey._gauss_orbit

    def corrupted(x):
        digits, entry, chunks = walk(x)
        assert chunks
        end, a, b, c, d = chunks[len(chunks) // 2]
        chunks[len(chunks) // 2] = (end, a + 1, b, c, d)
        return digits, entry, chunks

    monkeypatch.setattr(farey, "_gauss_orbit", corrupted)
    for sign in (1, -1):
        m = _near_limit_conjugate(2, sign, 1, 999)
        with pytest.raises(RuntimeError, match="cutting-cycle verification failed"):
            main(["cycle", m.to_text()])
        assert capsys.readouterr().out == ""


def test_chunk_of_wrong_determinant_is_refused(capsys, monkeypatch):
    # a chunk matrix that is not unimodular would move the walk off its
    # discriminant, where it need not close; the walk refuses it
    chunk = farey._lehmer_chunk

    def corrupted(p, q, s):
        digits, a, b, c, d = chunk(p, q, s)
        return digits, a + 1, b, c, d

    monkeypatch.setattr(farey, "_lehmer_chunk", corrupted)
    m = _near_limit_conjugate(2, 1, 1, 999)
    # without the check the walk need not close, so the bound fails it
    with budget(1.0), pytest.raises(
        RuntimeError, match="Lehmer chunk matrix has the wrong determinant"
    ):
        main(["real", m.to_text()])
    assert capsys.readouterr().out == ""


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from((1, 2, 3)), st.integers(0, 3))
def test_checked_surd_accepts_every_first_state(seed, power, scale):
    # attracting_fixed_point builds its state unchecked, with the
    # cofactor 2eb checked by one product; the checked constructor agrees
    rng = random.Random(seed)
    m = random_hyperbolic(rng, max_exp=10**scale, conj_steps=4 * scale + 2) ** power
    x = attracting_fixed_point(m)
    for y in (x, x.conjugate()):
        checked = Surd(y.p, y.d, y.q)
        assert checked == y and checked._cofactor == y._cofactor
    e = 1 if m.trace > 0 else -1
    assert x._cofactor == 2 * e * m.b


def _cutting_cycle_by_peel(m):
    """The cycle as cutting_cycle found it before it read the period:
    peel sign * c^-1 m c one letter at a time, for c the product of the
    even pre-period's digit matrices (a 1; 1 0), then move the peeled
    word to its least even rotation by a doubled-slice scan."""
    sign = 1 if m.trace > 0 else -1
    digits, entry, _ = _gauss_orbit(attracting_fixed_point(m))
    c = IDENTITY
    for a in digits[: entry + entry % 2]:
        c = c @ Mat2(a, 1, 1, 0)
    body = c.inverse() @ m @ c
    exps = _greedy_factor_reference(body if sign == 1 else -body)
    # sign * body is a positive power of the period's word
    assert exps[0] != 0 and len(exps) % 2 == 0
    n = len(exps)
    dbl = exps + exps
    best = min(range(0, n, 2), key=lambda r: dbl[r : r + n])
    c = c @ _word_matrix_reference(exps[:best])
    return dbl[best : best + n], sign, c


def test_peeled_word_is_u_first_and_even_exhaustively():
    # the cycle read off the CF period, repeated j times, is the peeled
    # word at its least even rotation, with the same conjugator
    count = 0
    for m in _hyperbolics_in_box(30):
        cyc, sign, conj = cutting_cycle(m)
        assert (cyc.exponents, sign, conj) == _cutting_cycle_by_peel(m)
        count += 1
    assert count == 7832


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=50),
    st.sampled_from((1, -1)),
)
def test_cutting_cycle_of_power_repeats_the_cycle(seed, k, sign):
    # m and m^k share their attracting fixed point, so the walk, the
    # pre-period and the even pick are the same; only j is k times larger
    rng = random.Random(seed)
    m = random_hyperbolic(rng, max_runs=4, max_exp=4, conj_steps=4)
    m = m if (m.trace > 0) == (sign == 1) else -m
    cyc, base_sign, conj = cutting_cycle(m)
    power = m**k
    cyc_k, sign_k, conj_k = cutting_cycle(power)
    assert (cyc_k.exponents, sign_k, conj_k) == (cyc.exponents * k, base_sign**k, conj)
    _check_certificate(power, cyc_k, sign_k, conj_k)


def test_cutting_cycle_of_odd_period_powers():
    # the golden ratio's period is the one digit 1, doubled to U V
    golden = Mat2(2, 1, 1, 1)
    for k in (1, 2, 3, 7, 50):
        for m in (golden**k, -(golden**k), golden ** (-k)):
            cyc, sign, conj = cutting_cycle(m)
            assert cyc.exponents == (1, 1) * k
            _check_certificate(m, cyc, sign, conj)


def _period_power_reference(p, t):
    """(j, P^j) for the first j >= 1 with tr(P^j) >= t, one trace step
    per k: the linear recurrence t_{k+1} = tr P * t_k - t_{k-1}."""
    tr = p.trace
    t_prev, t_k, j = 2, tr, 1
    while t_k < t:
        t_prev, t_k, j = t_k, tr * t_k - t_prev, j + 1
    return j, p**j


# primitive period words: golden, odd and even lengths, a large trace
_PRIMITIVE_PERIODS = [
    word_matrix(e)
    for e in ((1, 1), (1, 2), (2, 1, 1, 3), (5, 1), (1, 1, 1, 2), (1, 2, 3, 4, 5, 6), (1000, 1))
]


@pytest.mark.parametrize("p", _PRIMITIVE_PERIODS, ids=str)
def test_period_power_matches_linear_recurrence(p):
    for j in range(1, 301):
        t_j = (p**j).trace
        for t in (t_j - 1, t_j, t_j + 1):
            want_j, want = _period_power_reference(p, t)
            got_j, *got = farey._period_power(p.a, p.b, p.c, p.d, t)
            assert (got_j, tuple(got)) == (want_j, (want.a, want.b, want.c, want.d))
        assert farey._period_power(p.a, p.b, p.c, p.d, t_j)[0] == j


@pytest.mark.parametrize("j", [2, 3, 1000, 4096, 4097, 9999, 10_000, 12_345, 20_000])
def test_period_power_of_golden_powers(j):
    golden = Mat2(2, 1, 1, 1)
    power = golden**j
    assert farey._period_power(2, 1, 1, 1, power.trace) == (j, power.a, power.b, power.c, power.d)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=4))
def test_cycle_canonical_is_a_fresh_least_rotation(seed, k):
    # the canonical form of a cutting cycle is its root's least rotation, repeated
    rng = random.Random(seed)
    m = random_hyperbolic(rng, max_runs=8, max_exp=3, conj_steps=4) ** k
    cyc = cutting_cycle(m)[0]
    assert cyc.canonical == farey._least_rotation(cyc.exponents)


# exponents spread over the decades up to 10^6
big_exponent = st.integers(min_value=0, max_value=6).flatmap(
    lambda k: st.integers(min_value=1, max_value=10**k)
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=6).flatmap(
        lambda half: st.lists(
            st.integers(min_value=-(10**6), max_value=10**6), min_size=2 * half, max_size=2 * half
        )
    )
)
def test_digit_matrix_pairs_are_u_v_runs(digits):
    # (a 1; 1 0)(b 1; 1 0) == U^a V^b, for digits of any sign
    expected = IDENTITY
    for a in digits:
        expected = expected @ Mat2(a, 1, 1, 0)
    assert Mat2(*farey._times_word(1, 0, 0, 1, digits)) == expected


def _word_matrix_reference(exponents, first="U"):
    """One checked u_pow/v_pow factor per run, the first a `first`,
    multiplied left to right."""
    result = IDENTITY
    letter = first
    for e in exponents:
        result = result @ (u_pow(e) if letter == "U" else v_pow(e))
        letter = "V" if letter == "U" else "U"
    return result


@settings(max_examples=200, deadline=None)
@given(st.lists(big_exponent, min_size=1, max_size=12), st.sampled_from("UV"))
def test_word_matrix_matches_run_by_run_product(exponents, first):
    # a V-first word is the U-first word led by U^0 = I
    lead = (0,) if first == "V" else ()
    m = Mat2(*farey._times_word(1, 0, 0, 1, lead + tuple(exponents)))
    assert m == _word_matrix_reference(exponents, first)


def _least_rotation_reference(exponents):
    n = len(exponents)
    dbl = exponents + exponents
    return min(dbl[i : i + n] for i in range(n))


def _root_reference(exponents):
    """The least even p dividing the length whose first p exponents,
    repeated, give them all back: the tuple's least even period."""
    n = len(exponents)
    p = next(p for p in range(2, n + 1, 2) if n % p == 0 and exponents[:p] * (n // p) == exponents)
    return exponents[:p]


def _least_start_reference(seq, step):
    """First r, a multiple of step, of the least such rotation: a doubled-slice scan."""
    n = len(seq)
    dbl = seq + seq
    return min(range(0, n, step), key=lambda r: dbl[r : r + n])


def _even_rotation_equality_reference(x, y):
    n = len(x)
    dbl = x + x
    return len(y) == n and any(dbl[r : r + n] == y for r in range(0, n, 2))


def _repeated(parts):
    root, repeats, shift = parts
    word = tuple(root) * repeats
    shift %= len(word)
    return word[shift:] + word[:shift]


# small alphabets and repeated roots, so rotations tie often
_ROTATION_INPUTS = st.one_of(
    st.lists(st.integers(1, 3), min_size=1, max_size=16).map(tuple),
    st.tuples(
        st.lists(st.integers(1, 3), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=40),
    ).map(_repeated),
)


@settings(max_examples=500, deadline=None)
@given(_ROTATION_INPUTS)
def test_least_start_matches_scan(seq):
    assert farey._least_start(seq) == _least_start_reference(seq, 1)
    assert farey._least_rotation(seq) == _least_rotation_reference(seq)
    if len(seq) % 2 == 0:
        # the even pick: the least rotation of the exponent pairs
        assert farey._least_start(seq, 2) == _least_start_reference(seq, 2)
        assert farey._least_start(list(seq), 2) == _least_start_reference(seq, 2)


@settings(max_examples=500, deadline=None)
@given(_ROTATION_INPUTS, st.integers(min_value=0, max_value=40), st.booleans())
def test_equal_up_to_even_rotation_matches_scan(seq, shift, change):
    x = seq + seq if len(seq) % 2 else seq
    shift %= len(x)
    y = x[shift:] + x[:shift]
    if change:
        y = y[:-1] + (y[-1] % 3 + 1,)
    verdict = Cycle(x).equal_up_to_even_rotation(Cycle(y))
    assert verdict == _even_rotation_equality_reference(x, y)
    assert Cycle(y).equal_up_to_even_rotation(Cycle(x)) == verdict


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda half: st.lists(st.integers(1, 4), min_size=2 * half, max_size=2 * half)
    ),
    st.integers(min_value=0, max_value=15),
)
def test_cycle_canonical_is_computed_once(exponents, shift):
    exponents = tuple(exponents)
    shift %= len(exponents)
    rotated = exponents[shift:] + exponents[:shift]
    calls = []
    least = farey._least_rotation

    def counted(exps):
        calls.append(exps)
        return least(exps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(farey, "_least_rotation", counted)
        x, y = Cycle(exponents), Cycle(rotated)
        assert x == y and y == x and hash(x) == hash(y)
        assert _strings_text(x.canonical) == _strings_text(y.canonical)
        assert x.canonical == y.canonical == _least_rotation_reference(exponents)
    # one scan per cycle, over its root alone
    assert sorted(calls) == sorted([_root_reference(exponents), _root_reference(rotated)])


@settings(max_examples=500, deadline=None)
@given(_ROTATION_INPUTS.filter(lambda w: len(w) % 2 == 0))
def test_cycle_is_its_root_to_a_power(w):
    cyc = Cycle(w)
    assert cyc.root * cyc.j == cyc.exponents == w and len(cyc) == len(w)
    # the root is primitive: no shorter even period
    assert cyc.root == _root_reference(cyc.root) == _root_reference(w)
    assert cyc == Cycle(w[1:] + w[:1])
    assert cyc.equal_up_to_even_rotation(Cycle(w[2:] + w[:2]))


def _cutting_cycle_reference(m, digits, entry):
    """The two-scan cutting cycle of a walk without chunks: the even pick
    by a scan over the even starts, the canonical form by another over
    the root's rotations, and j by stepping the powers of the root's word."""
    period = digits[entry:]
    if entry % 2:
        entry += 1
        period = period[1:] + period[:1]
    if len(period) % 2:
        period += period
    best = _least_start_reference(period, 2)
    root = tuple(period[best:] + period[:best])
    word = power = word_matrix(root)
    j = 1
    while power.trace < abs(m.trace):
        power, j = power @ word, j + 1
    conj = word_matrix(digits[:entry] + period[:best])
    return root, j, _least_rotation_reference(root) * j, conj


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=6),
    st.booleans(),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from((1, -1)),
)
def test_one_scan_cycle_matches_two_scan_reference(runs, repeat, power, seed, sign):
    # an odd run list is doubled into a word, whose CF period is odd; an
    # even one is doubled when asked, and the word is raised to a power,
    # so proper powers come both ways
    word = tuple(runs) * 2 if len(runs) % 2 or repeat else tuple(runs)
    g = random_unimodular(random.Random(seed), 4)
    m = g @ word_matrix(word) ** power @ g.inverse()
    m = m if sign > 0 else -m
    digits, entry, chunks = _gauss_orbit(attracting_fixed_point(m))
    assert chunks == []
    cyc, got_sign, conj = cutting_cycle(m)
    assert got_sign == sign
    assert (cyc.root, cyc.j, cyc.canonical, conj) == _cutting_cycle_reference(m, digits, entry)


# ------------------------------------------------------- scale gates


def test_huge_exponent_cycle_is_fast():
    k = 10**9
    m = u_pow(k) @ v_pow(1)  # (k+1 k; 1 1), the README's U^k V
    with budget(1.0):
        cyc, sign, conj = cutting_cycle(m)
    assert (cyc.exponents, sign) == ((k, 1), 1)
    _check_certificate(m, cyc, sign, conj)


_GOLDEN_10000 = Mat2(2, 1, 1, 1) ** 10_000  # 4,180-digit entries, a 20,000-run cycle


def test_golden_power_classifies_in_budget():
    with budget(0.5):
        obj = json.loads(_class_text(classify(_GOLDEN_10000)))
    assert obj["cycle"] == ["1"] * 20_000 and obj["sign"] == 1


def test_golden_power_factors_in_budget():
    with budget(0.5):
        fac = factor_real(_GOLDEN_10000)
    assert fac.c_plus @ fac.c_minus == _GOLDEN_10000


def test_golden_power_is_decided_on_its_root(monkeypatch):
    # the cycle is (1, 1) repeated 10,000 times; every rotation scan runs
    # on the two-run root, and no checked Cycle spells the whole cycle
    scanned, checked = [], []
    least_start, check_cycle = farey._least_start, farey.Cycle.__post_init__

    def counted_scan(seq, step=1):
        scanned.append(len(seq))
        return least_start(seq, step)

    def counted_check(self):
        check_cycle(self)
        checked.append(len(self))

    monkeypatch.setattr(farey, "_least_start", counted_scan)
    monkeypatch.setattr(farey.Cycle, "__post_init__", counted_check)
    g = u_pow(3) @ v_pow(-2)
    assert json.loads(_class_text(classify(_GOLDEN_10000)))["cycle"] == ["1"] * 20_000
    assert is_real(_GOLDEN_10000)
    assert conjugacy_test(_GOLDEN_10000, g @ _GOLDEN_10000 @ g.inverse(), "sl")
    assert scanned and max(scanned) == 2
    assert max(checked, default=0) <= 2


def test_golden_power_sl_conjugacy_in_budget():
    g = u_pow(3) @ v_pow(-2)
    conjugate = g @ _GOLDEN_10000 @ g.inverse()
    with budget(0.5):
        assert conjugacy_test(_GOLDEN_10000, conjugate, "sl")


def test_ten_thousand_digit_conjugate_is_fast():
    rng = random.Random(10**4)
    g = IDENTITY
    while g.max_abs_entry().bit_length() < 16_700:  # about 5,000 digits
        e = rng.choice((-1, 1)) * rng.randint(1, 9)
        g = g @ (u_pow(e) if rng.random() < 0.5 else v_pow(e))
    w = (1, 2, 1, 3)  # real: blocks (1, 2, 1) and (3)
    m = g @ word_matrix(w) @ g.inverse()
    assert m.max_abs_entry().bit_length() > 33_220  # over 10^4 digits
    with budget(1.0):
        fac = factor_real(m)
    assert fac.c_plus @ fac.c_minus == m
    assert classify(m).cycle == Cycle(w)
