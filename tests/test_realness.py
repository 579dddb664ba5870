"""Factorization into two real structures and conjugacy testing."""

import json
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sl2real import (
    IDENTITY,
    NEG_IDENTITY,
    REFL_DIAG,
    REFL_SWAP,
    ROT_2PI3,
    ROT_PI,
    U,
    Cycle,
    Mat2,
    NotSL2,
    RealFactorization,
    classify,
    conjugacy_test,
    factor_real,
    is_odd_bipalindromic,
    is_real,
    is_real_structure,
    u_pow,
    v_pow,
)
import sl2real.farey as farey
import sl2real.realness as realness
from sl2real.cli import _factorization_text, _real_view
from sl2real.errors import NotARealStructure, NotUnimodular
from sl2real.farey import _times_word
from sl2real.mat2 import real_structure_kind

from conftest import (
    random_hyperbolic,
    random_odd_bipalindromic_cycle,
    random_unimodular,
    word_matrix,
)


# -------------------------------------------------- split recognition


def test_odd_bipalindromic_pinned():
    assert is_odd_bipalindromic(Cycle((1, 2, 1, 3))) == 3
    assert is_odd_bipalindromic(Cycle((1, 1))) == 1
    assert is_odd_bipalindromic(Cycle((2, 2))) == 1
    assert is_odd_bipalindromic(Cycle((1, 1, 2, 2))) is None


def _blocks(exps, first):
    return exps[:first], exps[first:]


def test_split_blocks():
    s = is_odd_bipalindromic(Cycle((1, 2, 1, 3)))
    assert _blocks((1, 2, 1, 3), s) == ((1, 2, 1), (3,))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_generated_cycles_are_recognized(seed):
    rng = random.Random(seed)
    cyc = Cycle(random_odd_bipalindromic_cycle(rng))
    split = is_odd_bipalindromic(cyc)
    assert split is not None
    b1, b2 = _blocks(cyc.exponents, split)
    assert b1 == b1[::-1] and b2 == b2[::-1]
    assert len(b1) % 2 == 1 and len(b2) % 2 == 1


def _split_at_any_rotation(exps):
    """Reference search: least (rotation, first block length) over all
    rotations, the cubic scan that is_odd_bipalindromic replaced."""
    n = len(exps)
    dbl = exps + exps
    for r in range(n):
        rot = dbl[r : r + n]
        for first in range(1, n, 2):
            b1, b2 = rot[:first], rot[first:]
            if b1 == b1[::-1] and b2 == b2[::-1]:
                return r, first
    return None


def _assert_matches_reference(exps):
    split = realness._first_block(exps)
    reference = _split_at_any_rotation(exps)
    if reference is None:
        assert split is None
        return
    # a split at any rotation implies one at rotation 0, so the least
    # reference split is the unrotated one the scan finds
    assert reference == (0, split)
    b1, b2 = _blocks(exps, split)
    assert b1 == b1[::-1] and b2 == b2[::-1]
    assert len(b1) % 2 == 1 and len(b2) % 2 == 1


_EXPONENT = st.integers(min_value=1, max_value=3)
_EVEN_LENGTH_WORDS = st.integers(min_value=1, max_value=10).flatmap(
    lambda half: st.lists(_EXPONENT, min_size=2 * half, max_size=2 * half)
)
_ODD_PALINDROMES = st.tuples(st.lists(_EXPONENT, max_size=6), _EXPONENT).map(
    lambda t: t[0] + [t[1]] + t[0][::-1]
)


def _rotated_concatenation(parts):
    first, second, shift = parts
    word = first + second
    shift %= len(word)
    return word[shift:] + word[:shift]


# two odd palindromes, then rotated by any amount
_ROTATED_BIPALINDROMES = st.tuples(
    _ODD_PALINDROMES, _ODD_PALINDROMES, st.integers(min_value=0, max_value=30)
).map(_rotated_concatenation)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_EVEN_LENGTH_WORDS, _ROTATED_BIPALINDROMES))
def test_split_scan_matches_all_rotations(exps):
    _assert_matches_reference(tuple(exps))


def _split_by_scan(exps):
    """The O(n^2) scan that the str.find split replaced: try each odd cut."""
    for first in range(1, len(exps), 2):
        b1, b2 = exps[:first], exps[first:]
        if b1 == b1[::-1] and b2 == b2[::-1]:
            return first
    return None


def _periodic_cycle(parts):
    root, repeats, shift = parts
    if len(root) % 2:
        root = root + root
    word = tuple(root) * repeats
    shift %= len(word)
    return word[shift:] + word[:shift]


# a root of 1-6 exponents, doubled when odd, repeated 1-6 times and rotated
_PERIODIC_CYCLES = st.tuples(
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=71),
).map(_periodic_cycle)


# powers of real roots, so the split is decided on a root shorter than
# the cycle: two odd palindromes, or one doubled, whose least period is odd
_PERIODIC_BIPALINDROMES = st.tuples(
    st.one_of(_ROTATED_BIPALINDROMES, _ODD_PALINDROMES),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=71),
).map(_periodic_cycle)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        _PERIODIC_CYCLES, _PERIODIC_BIPALINDROMES, _EVEN_LENGTH_WORDS, _ROTATED_BIPALINDROMES
    )
)
def test_split_matches_quadratic_scan(exps):
    exps = tuple(exps)
    assert realness._first_block(exps) == _split_by_scan(exps)


def test_split_matches_quadratic_scan_on_big_exponents():
    # the split compares exponents only for equality, whatever their size
    big = 10**400
    for exps in [(big, 1, big, 5), (big, big + 1), (big,) * 6, (1, big, 1, 2, big + 2, 2)]:
        assert realness._first_block(exps) == _split_by_scan(exps)


def _first_block_reference(root):
    """The split as first written: each exponent numbered in order of
    first appearance, the numbers spelled as code points."""
    codes = {}
    word = "".join([chr(codes.setdefault(e, len(codes))) for e in root])
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


# exponents at the edges of chr's range: the surrogates, the last code
# point, the first past it (ValueError) and ints past a C int or long
# (OverflowError), with small ones, so one root can mix both paths
_WIDE_EXPONENTS = (1, 2, 0xD7FF, 0xD800, 0xDBFF, 0xDC00, 0xDFFF, 0xE000, 0x10FFFF,
                   0x110000, 2**31, 2**63, 10**100)


def _spelled(parts):
    letters, alphabet = parts
    return [alphabet[i % len(alphabet)] for i in letters]


# words over 1-3 letters, each letter mapped onto a distinct wide exponent
_WIDE_WORDS = st.tuples(
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=8),
    st.lists(st.sampled_from(_WIDE_EXPONENTS), min_size=1, max_size=3, unique=True),
).map(_spelled)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        _WIDE_WORDS,
        st.tuples(_WIDE_WORDS, st.integers(min_value=1, max_value=4),
                  st.integers(min_value=0, max_value=71)).map(_periodic_cycle),
    )
)
def test_code_point_split_matches_numbered_split(exps):
    exps = tuple(exps)
    assert realness._first_block(exps) == _first_block_reference(exps)
    if len(exps) % 2 == 0:
        assert realness._first_block(exps) == _split_by_scan(exps)


def test_split_scan_matches_all_rotations_exhaustively():
    count = 0
    for n in range(2, 9, 2):
        for exps in product((1, 2, 3), repeat=n):
            _assert_matches_reference(exps)
            count += 1
    assert count == 7380


# -------------------------------------------------- factorization data


def test_real_factorization_validates():
    f = RealFactorization(REFL_DIAG, REFL_SWAP)
    assert f.c_plus @ f.c_minus == REFL_DIAG @ REFL_SWAP
    with pytest.raises(NotARealStructure):
        RealFactorization(IDENTITY, REFL_SWAP)
    with pytest.raises(NotARealStructure):
        RealFactorization(REFL_DIAG, Mat2(0, 1, 1, 1))


def test_real_factorization_json():
    f = RealFactorization(REFL_DIAG, REFL_SWAP)
    assert json.loads(_factorization_text(f)) == {
        "c_plus": [["1", "0"], ["0", "-1"]],
        "c_minus": [["0", "1"], ["1", "0"]],
        "kind_plus": "diagonal",
        "kind_minus": "exchange",
    }


@pytest.mark.parametrize("m", [Mat2(15, 4, 11, 3), Mat2(-5, -2, -2, -1), ROT_PI, U, NEG_IDENTITY])
def test_factorization_checks_each_factor_once(monkeypatch, m):
    # the kinds are read when the factors are checked, so neither the
    # kinds nor the CLI's writer check them again
    import sl2real.mat2 as mat2

    calls = []
    check = mat2.is_real_structure

    def counted(j):
        calls.append(j)
        return check(j)

    monkeypatch.setattr(mat2, "is_real_structure", counted)
    fac = factor_real(m)
    _real_view(fac)
    fac.kind_plus, fac.kind_minus
    assert calls == [fac.c_plus, fac.c_minus]


def test_factorization_kinds_stay_out_of_equality():
    f = RealFactorization(REFL_DIAG, REFL_SWAP)
    assert f == RealFactorization(REFL_DIAG, REFL_SWAP)
    assert hash(f) == hash(RealFactorization(REFL_DIAG, REFL_SWAP))
    assert repr(f) == f"RealFactorization(c_plus={REFL_DIAG!r}, c_minus={REFL_SWAP!r})"
    assert (f.kind_plus.value, f.kind_minus.value) == ("diagonal", "exchange")


# ------------------------------------------------------- factor_real


def test_analyze_pinned():
    for m in (IDENTITY, NEG_IDENTITY, ROT_PI, -ROT_2PI3, Mat2(15, 4, 11, 3)):
        f = factor_real(m)
        assert is_real(m) and f.c_plus @ f.c_minus == m
    assert factor_real(Mat2(12, 5, 7, 3)) is None
    assert not is_real(Mat2(12, 5, 7, 3))
    with pytest.raises(NotSL2):
        factor_real(REFL_DIAG)


def test_analyze_parabolic_pinned():
    # every sign of trace and of the unipotent entry
    cases = {
        Mat2(1, 0, -2, 1): (Mat2(1, 0, -2, -1), Mat2(1, 0, 0, -1)),
        Mat2(-1, 0, 3, -1): (Mat2(1, 0, -3, -1), Mat2(-1, 0, 0, 1)),
        Mat2(-1, -4, 0, -1): (Mat2(-1, 4, 0, 1), Mat2(1, 0, 0, -1)),
        Mat2(5, -4, 9, -7): (Mat2(-13, 8, -21, 13), Mat2(7, -4, 12, -7)),
    }
    for m, pair in cases.items():
        f = factor_real(m)
        assert (f.c_plus, f.c_minus) == pair


# the elliptic mirror pairs (j1, j2), j1 @ j2 the representative of
# each trace, that one mirror and c_minus = c_plus @ m replaced
_ELLIPTIC_PAIRS = {
    0: (REFL_DIAG, REFL_SWAP),
    1: (Mat2(1, 0, 1, -1), REFL_SWAP),
    -1: (Mat2(-1, 0, -1, 1), REFL_SWAP),
}


def _factors_by_mirror_pair(m):
    """Reference: a mirror pair (j1, j2) of the class representative,
    j1 @ j2 == R, with both factors conjugated by classify's conjugator."""
    cls = classify(m)
    if cls.kind == "elliptic":
        j1, j2 = _ELLIPTIC_PAIRS[cls.trace]
    elif cls.kind == "parabolic":
        j1, j2 = Mat2(1, 0, cls.shift, -1), (REFL_DIAG if cls.sign == 1 else -REFL_DIAG)
    else:
        b1, b2 = _blocks(cls.cycle.exponents, is_odd_bipalindromic(cls.cycle))
        a, b, c, d = _times_word(cls.sign, 0, 0, cls.sign, b1)
        j1 = Mat2(a, -b, c, -d)  # sign W1 D
        j2 = Mat2(*_times_word(1, 0, 0, -1, (0, *b2)))  # D W2, V first
    conj, conj_inv = cls.conjugator, cls.conjugator.inverse()
    return conj @ j1 @ conj_inv, conj @ j2 @ conj_inv


def _sl2_box(r):
    """Every matrix of SL(2,Z) with entries in [-r, r]."""
    for a, b, c in product(range(-r, r + 1), repeat=3):
        if a:
            d, rem = divmod(1 + b * c, a)
            if not rem and abs(d) <= r:
                yield Mat2(a, b, c, d)
        elif b * c == -1:
            for d in range(-r, r + 1):
                yield Mat2(0, b, c, d)


def test_analyze_matches_mirror_pairs_on_a_box():
    counts = {}
    elliptic = [m for m in _sl2_box(30) if abs(m.trace) < 2]
    others = [m for m in _sl2_box(12) if abs(m.trace) >= 2 and m not in (IDENTITY, NEG_IDENTITY)]
    for m in elliptic + others:
        f = factor_real(m)
        if f is not None:
            assert (f.c_plus, f.c_minus) == _factors_by_mirror_pair(m), m
            kind = classify(m).kind
            counts[kind] = counts.get(kind, 0) + 1
    assert counts == {"elliptic": 274, "parabolic": 264, "hyperbolic": 1056}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["elliptic", "parabolic", "hyperbolic"]),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
)
def test_analyze_matches_mirror_pairs_on_conjugates(kind, seed, power, negate):
    # conjugators of 1 to 8 factors U^e or V^e with |e| <= 10^6; a
    # hyperbolic representative is a real word's power P^j, j <= 6
    rng = random.Random(seed)
    if kind == "elliptic":
        rep = rng.choice([ROT_PI, ROT_2PI3, -ROT_2PI3])
    elif kind == "parabolic":
        rep = v_pow(rng.choice((-1, 1)) * rng.randint(1, 10**6))
    else:
        rep = word_matrix(random_odd_bipalindromic_cycle(rng)) ** power
    g = IDENTITY
    for _ in range(rng.randint(1, 8)):
        e = rng.randint(-(10**6), 10**6)
        g = g @ (u_pow(e) if rng.random() < 0.5 else v_pow(e))
    m = g @ (-rep if negate else rep) @ g.inverse()
    f = factor_real(m)
    assert (f.c_plus, f.c_minus) == _factors_by_mirror_pair(m)


def test_analyze_walks_no_run_per_power(monkeypatch):
    # the period and the first block are walked once whatever the power:
    # the cycle certificate raises the period's matrix to it, and c_minus
    # is c_plus @ m, so no second block is walked
    walked = []
    times = farey._times_word

    def counted(a, b, c, d, exponents):
        walked.append(len(exponents))
        return times(a, b, c, d, exponents)

    monkeypatch.setattr(farey, "_times_word", counted)
    monkeypatch.setattr(realness, "_times_word", counted)
    g = u_pow(3) @ v_pow(-2)
    runs = []
    for j in (10, 1_000):
        m = g @ Mat2(2, 1, 1, 1) ** j @ g.inverse()
        walked.clear()
        assert is_real(m)
        runs.append(sum(walked))
    assert runs[0] == runs[1]


def _check_factorization(m, f):
    assert is_real_structure(f.c_plus)
    assert is_real_structure(f.c_minus)
    assert f.c_plus @ f.c_minus == m


def test_factor_real_pinned():
    f = factor_real(Mat2(0, 1, -1, 0))
    assert (f.c_plus, f.c_minus) == (Mat2(1, 0, 0, -1), Mat2(0, 1, 1, 0))

    f = factor_real(Mat2(1, 0, 2, 1))
    assert (f.c_plus, f.c_minus) == (Mat2(1, 0, 2, -1), Mat2(1, 0, 0, -1))

    f = factor_real(Mat2(2, 1, 1, 1))
    assert (f.c_plus, f.c_minus) == (Mat2(1, -1, 0, -1), Mat2(1, 0, -1, -1))

    f = factor_real(Mat2(15, 4, 11, 3))
    assert (f.c_plus, f.c_minus) == (Mat2(3, -4, 2, -3), Mat2(1, 0, -3, -1))
    _check_factorization(Mat2(15, 4, 11, 3), f)


def test_factor_real_not_real():
    assert factor_real(Mat2(12, 5, 7, 3)) is None
    assert factor_real(Mat2(-12, -5, -7, -3)) is None
    # an exponent past the int/str limit, found not real with no printing
    assert factor_real(word_matrix((BIG, 1, 2, 3))) is None


def test_factor_real_central_input():
    # the degenerate splittings of the center: I and -I are both real
    assert factor_real(IDENTITY) == RealFactorization(REFL_DIAG, REFL_DIAG)
    assert factor_real(NEG_IDENTITY) == RealFactorization(-REFL_DIAG, REFL_DIAG)


def test_factor_real_rejects_non_sl2():
    with pytest.raises(NotSL2):
        factor_real(REFL_DIAG)


def test_is_real_basics():
    assert is_real(IDENTITY)
    assert is_real(NEG_IDENTITY)
    assert is_real(ROT_PI) and is_real(ROT_2PI3) and is_real(-ROT_2PI3)
    assert is_real(U) and is_real(-v_pow(7))
    assert is_real(Mat2(2, 1, 1, 1))
    assert not is_real(Mat2(12, 5, 7, 3))
    assert not is_real(Mat2(-12, -5, -7, -3))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_factor_real_on_generated_cycles(seed):
    rng = random.Random(seed)
    exps = random_odd_bipalindromic_cycle(rng, max_len=8, max_exp=5)
    g = random_unimodular(rng)
    m = g @ word_matrix(exps) @ g.inverse()
    if rng.random() < 0.5:
        m = -m
    f = factor_real(m)
    _check_factorization(m, f)
    # the positive factor conjugates m to its inverse
    assert f.c_plus @ m @ f.c_plus.inverse() == m.inverse()


def _reflection_factor(position, e):
    # entries of F, where U^e = F * diag(1,-1) at even positions and
    # V^e = diag(1,-1) * F at odd
    if position % 2 == 0:
        return 1, -e, 0, -1
    return 1, 0, -e, -1


def _factors_reference(m):
    """(c_plus, c_minus) of a real hyperbolic m, one reflection factor per run."""
    cls = classify(m)
    exps, conj = cls.cycle.exponents, cls.conjugator
    f = is_odd_bipalindromic(cls.cycle)
    blocks = []
    for block in (range(f), range(f, len(exps))):
        a, b, c, d = conj.a, conj.b, conj.c, conj.d
        for i in block:
            fa, fb, fc, fd = _reflection_factor(i, exps[i])
            a, b, c, d = a * fa + b * fc, a * fb + b * fd, c * fa + d * fc, c * fb + d * fd
        blocks.append(Mat2(a, b, c, d) @ conj.inverse())
    c1, c2 = blocks
    return (c1 if cls.sign == 1 else -c1), c2


# exponents spread over the decades up to 10^6
big_exponent = st.integers(min_value=0, max_value=6).flatmap(
    lambda k: st.integers(min_value=1, max_value=10**k)
)
palindrome = st.tuples(st.lists(big_exponent, max_size=3), big_exponent).map(
    lambda t: t[0] + [t[1]] + t[0][::-1]
)


@settings(max_examples=200, deadline=None)
@given(palindrome, palindrome, st.integers(min_value=0, max_value=10**6), st.booleans())
def test_analyze_factors_match_reflection_factor_reference(b1, b2, seed, negate):
    g = random_unimodular(random.Random(seed))
    m = g @ word_matrix(tuple(b1 + b2)) @ g.inverse()
    if negate:
        m = -m
    f = factor_real(m)
    assert (f.c_plus, f.c_minus) == _factors_reference(m)


def _hyperbolic_factors_by_hand(m):
    """Reference: the hand-expanded hyperbolic assembly that one
    conjugation of a mirror pair replaced.  The word products start
    from the conjugator, the inverse is built from its entries, and the
    sign is flipped on the finished first factor."""
    cls = classify(m)
    b1, b2 = _blocks(cls.cycle.exponents, is_odd_bipalindromic(cls.cycle))
    conj = cls.conjugator
    ca, cb, cc, cd = conj.a, conj.b, conj.c, conj.d
    conj_inv = Mat2(cd, -cb, -cc, ca)
    a, b, c, d = _times_word(ca, cb, cc, cd, b1)
    c1 = Mat2(a, -b, c, -d) @ conj_inv  # conj W1 D conj^-1
    a, b, c, d = _times_word(ca, -cb, cc, -cd, (0, *b2))  # V first
    c2 = Mat2(a, b, c, d) @ conj_inv  # conj D W2 conj^-1
    return (c1 if cls.sign == 1 else -c1), c2


def test_analyze_matches_hand_assembly_on_a_box():
    count = 0
    for a, b, c in product(range(-12, 13), repeat=3):
        if a == 0 or (1 + b * c) % a:
            continue
        m = Mat2(a, b, c, (1 + b * c) // a)
        if abs(m.trace) <= 2 or m.max_abs_entry() > 12:
            continue
        f = factor_real(m)
        if f is not None:
            assert (f.c_plus, f.c_minus) == _hyperbolic_factors_by_hand(m), m
            count += 1
    assert count == 1016


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.booleans())
def test_analyze_matches_hand_assembly_on_big_conjugates(seed, negate):
    # a real word with 10^200-sized runs, conjugated by factors U^e or
    # V^e with |e| <= 10^6 until the conjugator passes 180 digits (a
    # fixed count of 30 factors can cancel down to 47 digits, as for
    # seed 267): entries of about 10^3 digits
    rng = random.Random(seed)

    def big_palindrome():
        half = [rng.randint(1, 10**200) for _ in range(rng.randint(0, 1))]
        return half + [rng.randint(1, 10**200)] + half[::-1]

    g = IDENTITY
    while g.max_abs_entry().bit_length() < 600:
        e = rng.randint(-(10**6), 10**6)
        g = g @ (u_pow(e) if rng.random() < 0.5 else v_pow(e))
    m = g @ word_matrix(tuple(big_palindrome() + big_palindrome())) @ g.inverse()
    if negate:
        m = -m
    assert len(str(m.max_abs_entry())) >= 500
    f = factor_real(m)
    assert (f.c_plus, f.c_minus) == _hyperbolic_factors_by_hand(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_is_real_is_a_class_function(seed):
    rng = random.Random(seed)
    m = random_hyperbolic(rng, max_exp=5)
    g = random_unimodular(rng)
    assert is_real(m) == is_real(g @ m @ g.inverse())
    assert is_real(m) == is_real(m.inverse())


def test_products_of_bounded_structures_are_real_exhaustively():
    from sl2real import enumerate_involutions

    structures = list(enumerate_involutions(5))
    for j1 in structures:
        for j2 in structures:
            assert is_real(j1 @ j2)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_products_of_real_structures_are_real(seed):
    rng = random.Random(seed)

    def small_structure():
        while True:
            x = rng.randint(-3, 3)
            y = rng.randint(-5, 5)
            if y != 0 and (1 - x * x) % y == 0:
                return Mat2(x, y, (1 - x * x) // y, -x)
            if y == 0 and abs(x) == 1:
                return Mat2(x, 0, rng.randint(-5, 5), -x)

    j1, j2 = small_structure(), small_structure()
    m = j1 @ j2
    assert m.det == 1
    _check_factorization(m, factor_real(m))


# ----------------------------------------------------- conjugacy test


def test_conjugacy_pinned():
    a, b = Mat2(2, 1, 1, 1), Mat2(1, 1, 1, 2)
    assert conjugacy_test(a, b, "gl")
    assert conjugacy_test(a, b, "sl")
    assert not conjugacy_test(a, -a, "gl")
    assert not conjugacy_test(a, -a, "sl")
    assert not conjugacy_test(a, Mat2(5, 2, 2, 1), "gl")


def test_conjugacy_gl_vs_sl_for_inverse():
    a = Mat2(15, 4, 11, 3)  # cycle (1,2,1,3): reversal is an odd rotation
    assert conjugacy_test(a, a.inverse(), "gl")
    assert not conjugacy_test(a, a.inverse(), "sl")


def test_conjugacy_sl_inverse_verdict_matches_brute_force():
    # independent check of the even-rotation refinement: search det +1
    # conjugators with small entries
    a = Mat2(15, 4, 11, 3)
    target = a.inverse()
    found = False
    for x in range(-20, 21):
        for y in range(-20, 21):
            for z in range(-20, 21):
                num = 1 + y * z
                if x == 0:
                    if y * z != -1:
                        continue
                    ws = range(-20, 21)
                else:
                    if num % x != 0:
                        continue
                    ws = (num // x,)
                for w in ws:
                    q = Mat2(x, y, z, w)
                    if q.det == 1 and q @ a == target @ q:
                        found = True
    assert not found


def test_conjugacy_sl_matches_witness_search_exhaustively():
    # every elliptic and parabolic matrix with entries in [-2, 2]; an SL
    # verdict must agree with a det +1 witness of entries at most 6
    small = [
        m
        for m in (Mat2(*e) for e in product(range(-2, 3), repeat=4))
        if m.det == 1 and abs(m.trace) <= 2 and m not in (IDENTITY, NEG_IDENTITY)
    ]
    assert len(small) == 42
    pairs = [(x, y) for x in small for y in small if conjugacy_test(x, y, "gl")]
    assert len(pairs) == 292
    witnesses = [Mat2(*e) for e in product(range(-6, 7), repeat=4) if e[0] * e[3] - e[1] * e[2] == 1]
    assert len(witnesses) == 372
    sl = 0
    for x, y in pairs:
        verdict = conjugacy_test(x, y, "sl")
        assert verdict == any(q @ x == y @ q for q in witnesses), (x, y)
        sl += verdict
    assert sl == 146


def test_conjugacy_kinds_and_groups():
    assert conjugacy_test(ROT_PI, ROT_PI, "sl")
    assert not conjugacy_test(ROT_2PI3, -ROT_2PI3, "gl")
    assert not conjugacy_test(U, ROT_PI, "gl")
    assert conjugacy_test(v_pow(3), Mat2(1, -3, 0, 1), "gl")
    assert conjugacy_test(IDENTITY, IDENTITY, "sl")
    assert not conjugacy_test(IDENTITY, NEG_IDENTITY, "gl")
    with pytest.raises(ValueError):
        conjugacy_test(U, U, "psl")


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_conjugates_test_conjugate(seed):
    rng = random.Random(seed)
    m = random_hyperbolic(rng, max_exp=5)
    g = random_unimodular(rng)
    n = g @ m @ g.inverse()
    assert conjugacy_test(m, n, "sl")
    assert conjugacy_test(m, n, "gl")


# ------------------------------------------------- unprintable inputs

BIG = 10**4400  # past the int/str conversion limit


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: Mat2(2 * BIG, 0, 0, 1).inverse(), NotUnimodular),
        (lambda: RealFactorization(Mat2(1, BIG, 0, 1), REFL_DIAG), NotARealStructure),
        (lambda: real_structure_kind(Mat2(1, BIG, 0, 1)), NotARealStructure),
    ],
    ids=[
        "inverse",
        "RealFactorization",
        "real_structure_kind",
    ],
)
def test_errors_on_huge_entries_do_not_print_them(call, error):
    with pytest.raises(error):
        call()
