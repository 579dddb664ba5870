"""Exact 2x2 integer matrix core."""

import dataclasses
import json
import random

import pytest
from hypothesis import given, strategies as st

from sl2real import (
    IDENTITY,
    NEG_IDENTITY,
    REFL_DIAG,
    REFL_SWAP,
    ROT_2PI3,
    ROT_PI,
    U,
    V,
    Cycle,
    Mat2,
    MatClass,
    MatrixParseError,
    NotUnimodular,
    RealFactorization,
    RealStructureKind,
    Surd,
    attracting_fixed_point,
    classify,
    conjugacy_test,
    factor_real,
    is_real_structure,
    real_structure_kind,
    u_pow,
    v_pow,
)
from sl2real.cli import _matrix_text
from sl2real.errors import NotARealStructure

from conftest import random_unimodular

entries = st.integers(min_value=-50, max_value=50)


def test_constants():
    assert U == Mat2(1, 1, 0, 1)
    assert V == Mat2(1, 0, 1, 1)
    assert ROT_PI == Mat2(0, 1, -1, 0)
    assert ROT_2PI3 == Mat2(0, 1, -1, 1)
    assert IDENTITY.det == 1 and NEG_IDENTITY == -IDENTITY
    assert REFL_DIAG.det == -1 and REFL_SWAP.det == -1


def test_matmul_and_trace():
    assert U @ V == Mat2(2, 1, 1, 1)
    assert V @ U == Mat2(1, 1, 1, 2)
    assert (U @ V).trace == 3
    assert (U @ V).det == 1


def test_pow():
    assert U**5 == u_pow(5)
    assert V**-3 == v_pow(-3)
    assert ROT_PI**2 == NEG_IDENTITY
    assert ROT_PI**4 == IDENTITY
    assert ROT_2PI3**6 == IDENTITY
    m = Mat2(2, 1, 1, 1)
    assert m**0 == IDENTITY
    assert m**-1 == m.inverse()
    assert m**3 == m @ m @ m


@pytest.mark.parametrize("n", [1, 2, 3, 6, 255, 256, 1_000, -1, -6])
def test_pow_squares_only_below_the_top_bit(monkeypatch, n):
    # from the top bit down: one squaring per lower bit and one product
    # by the base per further set bit, so m ** 1 is m with no product
    m = Mat2(2, 1, 1, 1)
    base = m if n > 0 else m.inverse()
    expected = base
    for _ in range(abs(n) - 1):
        expected = expected @ base
    squarings, products = [], []
    matmul = Mat2.__matmul__

    def counted(x, y):
        (squarings if x is y else products).append(y)
        return matmul(x, y)

    monkeypatch.setattr(Mat2, "__matmul__", counted)
    power = m**n
    monkeypatch.undo()
    assert power == expected
    assert len(squarings) == abs(n).bit_length() - 1
    assert len(products) == bin(abs(n)).count("1") - 1


def test_inverse():
    assert Mat2(2, 1, 1, 1).inverse() == Mat2(1, -1, -1, 2)
    assert REFL_SWAP.inverse() == REFL_SWAP
    with pytest.raises(NotUnimodular):
        Mat2(2, 0, 0, 2).inverse()


def test_entries_must_be_int():
    with pytest.raises(TypeError):
        Mat2(1.0, 0, 0, 1)
    with pytest.raises(TypeError):
        Mat2(True, 0, 0, 1)


def test_public_constructors_check_types():
    with pytest.raises(TypeError):
        u_pow(1.5)
    with pytest.raises(TypeError):
        v_pow(True)
    with pytest.raises(MatrixParseError):
        Mat2.from_json_obj([[1.0, 0], [0, 1]])


@given(entries, entries, entries, entries, entries, entries, entries, entries)
def test_unchecked_products_are_plain_mat2(a, b, c, d, e, f, g, h):
    # products, negatives and inverses skip the type checks; they must
    # still be indistinguishable from checked matrices
    x, y = Mat2(a, b, c, d), Mat2(e, f, g, h)
    results = [x @ y, -x]
    if x.det in (1, -1):
        results.append(x.inverse())
    for m in results:
        checked = Mat2(m.a, m.b, m.c, m.d)
        assert type(m) is Mat2 and m == checked and hash(m) == hash(checked)
        assert repr(m) == repr(checked)


def test_central():
    # I and -I, the center of SL(2,Z), commute with its generators
    assert NEG_IDENTITY == -IDENTITY == Mat2(-1, 0, 0, -1)
    for z in (IDENTITY, NEG_IDENTITY):
        assert z @ U == U @ z and z @ V == V @ z


def test_text_round_trip():
    m = Mat2(-12, -5, -7, -3)
    assert Mat2.from_text(m.to_text()) == m
    assert Mat2.from_text("  2 , 1 ; 1 , 1 ") == Mat2(2, 1, 1, 1)
    assert str(m) == "(-12 -5; -7 -3)"


@pytest.mark.parametrize(
    "bad", ["", "1,2;3", "1 2;3 4", "a,b;c,d", "1,2;3,4;5,6", "1,2,3,4", "1.5,0;0,1"]
)
def test_from_text_rejects(bad):
    with pytest.raises(MatrixParseError):
        Mat2.from_text(bad)


def test_json_round_trip():
    m = Mat2(15, 4, 11, 3)
    obj = json.loads(_matrix_text(m.a, m.b, m.c, m.d))
    assert obj == [["15", "4"], ["11", "3"]]
    assert Mat2.from_json_obj(obj) == m
    assert Mat2.from_json_obj([[15, 4], [11, 3]]) == m
    with pytest.raises(MatrixParseError):
        Mat2.from_json_obj([[1, 2], [3]])
    with pytest.raises(MatrixParseError):
        Mat2.from_json_obj([["x", "0"], ["0", "1"]])
    with pytest.raises(MatrixParseError):
        Mat2.from_json_obj("nope")


@pytest.mark.parametrize(
    "obj", [10**5000, [10**5000], [[10**5000, 0], [0]]], ids=["int", "row", "rows"]
)
def test_from_json_obj_quotes_an_int_past_the_str_limit(obj):
    with pytest.raises(MatrixParseError, match="int over") as info:
        Mat2.from_json_obj(obj)
    assert len(str(info.value)) < 300


_LONG = "x" * 10**5


@pytest.mark.parametrize(
    "build",
    [
        lambda: Mat2(_LONG, 0, 0, 1),
        lambda: Surd(_LONG, 5, 1),
        lambda: Cycle((1, _LONG)),
        lambda: Surd(1, -(10**4000), 1),
        lambda: conjugacy_test(U, U, _LONG),
    ],
    ids=[
        "Mat2",
        "Surd",
        "Cycle",
        "Surd-d",
        "conjugacy_test-group",
    ],
)
def test_constructor_errors_quote_a_long_argument(build):
    with pytest.raises((TypeError, ValueError)) as info:
        build()
    assert len(str(info.value)) < 300


def test_surd_quotes_a_d_past_the_str_limit_in_its_own_message():
    with pytest.raises(ValueError, match="is not a positive non-square") as info:
        Surd(1, -(10**5000), 1)
    assert len(str(info.value)) < 300


def test_max_abs_entry():
    assert Mat2(-12, 5, 7, -3).max_abs_entry() == 12


def test_real_structure_predicate():
    assert is_real_structure(REFL_DIAG)
    assert is_real_structure(REFL_SWAP)
    assert is_real_structure(Mat2(1, 0, 5, -1))
    assert not is_real_structure(IDENTITY)  # det +1
    assert not is_real_structure(Mat2(0, 1, 1, 1))  # not an involution


@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["entries", "det -1", "conjugate"]),
)
def test_real_structure_predicate_is_the_definition(seed, shape):
    # the trace test stands in for j @ j == I (Cayley-Hamilton); draw
    # matrices of any det, of det -1 with any trace, and real structures
    rng = random.Random(seed)
    if shape == "entries":
        j = Mat2(*(rng.randint(-3, 3) for _ in range(4)))
    elif shape == "det -1":
        j = random_unimodular(rng) @ REFL_DIAG @ random_unimodular(rng)
    else:
        g = random_unimodular(rng)
        j = g @ rng.choice((REFL_DIAG, -REFL_DIAG, REFL_SWAP)) @ g.inverse()
    assert is_real_structure(j) == (j.det == -1 and j @ j == IDENTITY)


def test_real_structure_kind():
    assert real_structure_kind(Mat2(1, 0, 5, -1)) is RealStructureKind.EXCHANGE
    assert real_structure_kind(Mat2(3, -2, 4, -3)) is RealStructureKind.DIAGONAL
    assert real_structure_kind(REFL_DIAG) is RealStructureKind.DIAGONAL
    assert real_structure_kind(REFL_SWAP) is RealStructureKind.EXCHANGE
    with pytest.raises(NotARealStructure):
        real_structure_kind(U)


def test_kind_values_are_stable_strings():
    assert RealStructureKind.DIAGONAL.value == "diagonal"
    assert RealStructureKind.EXCHANGE.value == "exchange"


@given(st.integers(min_value=0, max_value=200))
def test_random_unimodular_is_unimodular(seed):
    rng = random.Random(seed)
    m = random_unimodular(rng)
    assert m.det == 1
    assert m @ m.inverse() == IDENTITY
    assert m.inverse() @ m == IDENTITY


@given(entries, entries, entries, entries)
def test_det_multiplicative(a, b, c, d):
    m = Mat2(a, b, c, d)
    n = Mat2(d, a, b, c)
    assert (m @ n).det == m.det * n.det
    assert (-m).det == m.det
    assert (m @ n).trace == (n @ m).trace


def test_public_api_exports_resolve():
    import sl2real

    for name in sl2real.__all__:
        assert getattr(sl2real, name, None) is not None, name
    assert sl2real.__version__ == "0.1.0"


# --------------------------------------------------------- value classes
#
# Mat2, Surd, Cycle, MatClass and RealFactorization are plain classes.
# Each is checked against a frozen dataclass built here with the fields
# the class compares and shows: on the same field values, both must give
# the same equality, hash and repr.

_COMPARED = {
    Mat2: ("a", "b", "c", "d"),
    Surd: ("p", "d", "q"),
    Cycle: ("root", "j"),  # shown only: a Cycle compares by its canonical form
    MatClass: ("kind", "sign", "trace", "shift", "cycle"),
    RealFactorization: ("c_plus", "c_minus"),
}

# central, elliptic of each trace, parabolic of both signs, hyperbolic
# real and not, a proper power, and the odd-period golden matrix
_SAMPLE_MATRICES = (
    "1,0;0,1", "-1,0;0,-1", "0,-1;1,0", "0,1;-1,1", "1,-1;1,0", "1,4;0,1", "-1,0;5,-1",
    "15,4;11,3", "7,-18;-5,13", "269,72;198,53", "2,1;1,1", "-5,-2;-2,-1",
)


def _value_samples():
    """Instances of every value class, each built twice from the same input."""
    samples = []
    for _ in range(2):
        for text in _SAMPLE_MATRICES:
            m = Mat2.from_text(text)
            cls, fac = classify(m), factor_real(m)
            samples += [m, Mat2(m.a, m.b, m.c, m.d), cls]
            if fac is not None:
                samples.append(fac)
            if abs(m.trace) > 2:
                samples += [cls.cycle, attracting_fixed_point(m)]
        samples += [Surd(1, 5, 2), Surd(-1, 5, -2), Cycle((1, 2) * 3), Cycle((2, 1))]
    return samples


_TWINS = {
    cls: dataclasses.make_dataclass(cls.__name__, fields, frozen=True, eq=cls is not Cycle)
    for cls, fields in _COMPARED.items()
}


def _dataclass_twin(value):
    return _TWINS[type(value)](*[getattr(value, name) for name in _COMPARED[type(value)]])


def test_value_classes_match_frozen_dataclasses():
    samples = _value_samples()
    assert {type(x) for x in samples} == set(_COMPARED)
    twins = [_dataclass_twin(x) for x in samples]
    for x, tx in zip(samples, twins):
        assert repr(x) == repr(tx)
        if type(x) is not Cycle:
            assert hash(x) == hash(tx)
            for y, ty in zip(samples, twins):
                if type(y) is type(x):
                    assert (x == y) == (tx == ty) and (x != y) == (tx != ty)
    # the pins elsewhere: the README's reprs and test_realness's
    assert repr(Mat2(3, -4, 2, -3)) == "Mat2(a=3, b=-4, c=2, d=-3)"
    assert repr(Cycle((1, 1) * 3)) == "Cycle(root=(1, 1), j=3)"
    assert repr(RealFactorization(REFL_DIAG, REFL_SWAP)) == (
        "RealFactorization(c_plus=Mat2(a=1, b=0, c=0, d=-1), c_minus=Mat2(a=0, b=1, c=1, d=0))"
    )


def test_value_classes_are_frozen():
    for x in _value_samples():
        name = _COMPARED[type(x)][0]
        before = dict(vars(x))
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            x.extra = 0
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert vars(x) == before


def test_value_classes_leave_other_types_to_them():
    for x in _value_samples():
        for other in (object(), _dataclass_twin(x), tuple(vars(x).values()), None):
            assert x.__eq__(other) is NotImplemented
            assert x != other and not x == other


def test_construction_hooks_still_fire(monkeypatch):
    # the tests and the benchmark's tracer count checked constructions by
    # wrapping these hooks on the class
    calls = []
    hooks = [
        (Mat2, "__post_init__"),
        (Surd, "__post_init__"),
        (Cycle, "__post_init__"),
        (RealFactorization, "__post_init__"),
        (MatClass, "__init__"),
    ]
    for owner, attr in hooks:
        original = getattr(owner, attr)

        def counted(self, *args, _original=original, _name=owner.__name__, **kwargs):
            calls.append(_name)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    m = Mat2(1, 4, 0, 1)
    Surd(1, 5, 2)
    Cycle((1, 2))
    RealFactorization(REFL_DIAG, REFL_SWAP)
    classify(m)
    assert calls == ["Mat2", "Surd", "Cycle", "RealFactorization", "MatClass"]
