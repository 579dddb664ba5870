"""Exact 2x2 integer matrix core."""

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
    MatrixParseError,
    NotUnimodular,
    RealStructureKind,
    Surd,
    conjugacy_test,
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
    assert IDENTITY.is_central()
    assert NEG_IDENTITY.is_central()
    assert not U.is_central()


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
