"""Brute-force cross-checks and the conjugation lattice."""

import ast
import importlib
import random
from fractions import Fraction
from itertools import product
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from sl2real import (
    IDENTITY,
    NEG_IDENTITY,
    REFL_DIAG,
    REFL_SWAP,
    ROT_PI,
    Mat2,
    brute_force_conjugator,
    brute_force_factor,
    enumerate_involutions,
    factor_real,
    integer_kernel,
    is_real,
    is_real_structure,
)

import sl2real.oracle

from conftest import budget, random_odd_bipalindromic_cycle, random_unimodular, word_matrix


def _package_imports(module):
    """The package modules a module's source imports, relative ones as
    written (".errors") and absolute ones by name ("sl2real.errors")."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    package_imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                package_imports.add("." * node.level + (node.module or ""))
            elif node.module.split(".")[0] == "sl2real":
                package_imports.add(node.module)
        elif isinstance(node, ast.Import):
            package_imports |= {a.name for a in node.names if a.name.split(".")[0] == "sl2real"}
    return package_imports


def test_oracle_imports_only_errors_and_mat2():
    # the acceptance gate compares the constructive code with the oracle,
    # which is only evidence while the oracle shares none of that code
    assert _package_imports(sl2real.oracle) == {".errors", ".mat2"}


@pytest.mark.parametrize("name", ["classify", "farey", "mat2", "realness", "render"])
def test_constructive_modules_do_not_import_the_oracle(name):
    # the other direction of the same independence; only the cli reaches
    # the oracle, for its oracle command
    imports = _package_imports(importlib.import_module(f"sl2real.{name}"))
    assert not {".oracle", "sl2real.oracle"} & imports


def test_enumerate_involutions_counts():
    assert sum(1 for _ in enumerate_involutions(0)) == 0
    assert sum(1 for _ in enumerate_involutions(1)) == 12


def test_enumerate_involutions_valid_and_unique():
    seen = set()
    for j in enumerate_involutions(4):
        assert is_real_structure(j)
        assert j.max_abs_entry() <= 4
        assert j not in seen
        seen.add(j)
    assert REFL_DIAG in seen
    assert REFL_SWAP in seen


def test_enumerate_involutions_monotone():
    small = set(enumerate_involutions(2))
    large = set(enumerate_involutions(5))
    assert small <= large
    assert Mat2(1, 0, 5, -1) in large


def test_enumerate_involutions_exhaustive_against_scan():
    # every det -1 involution with entries in a small box must appear
    direct = set()
    for a, b, c in product(range(-3, 4), repeat=3):
        for d in range(-3, 4):
            j = Mat2(a, b, c, d)
            if j.det == -1 and j @ j == IDENTITY:
                direct.add(j)
    assert direct == set(enumerate_involutions(3))


@pytest.mark.parametrize(
    "search",
    [
        lambda: list(enumerate_involutions(-1)),
        lambda: brute_force_factor(Mat2(2, 1, 1, 1), -1),
        lambda: brute_force_conjugator(Mat2(2, 1, 1, 1), -1),
    ],
    ids=["enumerate_involutions", "brute_force_factor", "brute_force_conjugator"],
)
def test_negative_bound_is_rejected(search):
    # None would read as "no witness within the bound"
    with pytest.raises(ValueError, match="bound must be >= 0"):
        search()


def test_brute_force_factor_finds_witness():
    m = Mat2(2, 1, 1, 1)
    pair = brute_force_factor(m, 2)
    assert pair is not None
    j1, j2 = pair
    assert is_real_structure(j1) and is_real_structure(j2)
    assert j1 @ j2 == m
    cap = 2 * (m.max_abs_entry() + 1)
    assert j1.max_abs_entry() <= cap and j2.max_abs_entry() <= cap


def test_brute_force_factor_negative_cases():
    assert brute_force_factor(Mat2(2, 1, 1, 1), 0) is None
    assert brute_force_factor(Mat2(12, 5, 7, 3), 12) is None
    assert brute_force_factor(Mat2(7, -18, -5, 13), 3) is None


def test_brute_force_factor_deterministic():
    m = Mat2(2, 1, 1, 1)
    assert brute_force_factor(m, 3) == brute_force_factor(m, 3)


def test_brute_force_factor_checks_its_witness(monkeypatch):
    # (1 1; 1 0) has det -1 but is no involution, while (1 1; 1 0) @ ROT_PI
    # is a real structure, so only the pair check can reject it
    monkeypatch.setattr(sl2real.oracle, "enumerate_involutions", lambda bound: iter([Mat2(1, 1, 1, 0)]))
    with pytest.raises(RuntimeError, match="oracle factor witness failed verification"):
        brute_force_factor(ROT_PI, 1)


# ------------------------------------------------------------ lattice


def test_integer_kernel_quarter_turn():
    basis = integer_kernel(ROT_PI)
    assert len(basis) == 2
    assert set(basis) == {(0, 1, 1, 0), (1, 0, 0, -1)}


def test_integer_kernel_central():
    assert len(integer_kernel(IDENTITY)) == 4


def _as_mat(vec):
    return Mat2(vec[0], vec[1], vec[2], vec[3])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_integer_kernel_solves_the_commutation_system(seed):
    rng = random.Random(seed)
    m = random_unimodular(rng, steps=6)
    if m in (IDENTITY, NEG_IDENTITY):
        return
    basis = integer_kernel(m)
    assert len(basis) == 2
    inv = m.inverse()
    for vec in basis:
        q = _as_mat(vec)
        assert q @ m == inv @ q
    # random integer combinations stay in the kernel
    for _ in range(5):
        s, t = rng.randint(-4, 4), rng.randint(-4, 4)
        combo = tuple(s * a + t * b for a, b in zip(*basis))
        q = _as_mat(combo)
        assert q @ m == inv @ q


def test_lattice_membership():
    basis = integer_kernel(ROT_PI)
    assert _coefficients_of_reference(basis, (0, -1, -1, 0)) is not None
    assert _coefficients_of_reference(basis, (2, 3, 3, -2)) is not None
    assert _coefficients_of_reference(basis, (1, 1, 0, 0)) is None


def _coefficients_of_reference(vectors, vec):
    # integer coordinates of vec in the basis, or None: Gauss-Jordan
    # elimination on the 4 x (k + 1) system (vectors | vec); the zero
    # vec gets None exactly when the vectors are dependent
    k = len(vectors)
    if k == 0:
        return () if not any(vec) else None
    rows = [[Fraction(v[i]) for v in vectors] + [Fraction(vec[i])] for i in range(4)]
    for col in range(k):
        pivot = next((i for i in range(col, 4) if rows[i][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pv = rows[col][col]
        rows[col] = [x / pv for x in rows[col]]
        for i in range(4):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    if any(rows[i][k] != 0 for i in range(k, 4)):
        return None
    coeffs = [rows[j][k] for j in range(k)]
    if any(c.denominator != 1 for c in coeffs):
        return None
    return tuple(int(c) for c in coeffs)


_SMALL = st.integers(-3, 3)


@st.composite
def _basis(draw):
    """0 to 4 small vectors, sometimes made dependent."""
    vectors = draw(st.lists(st.tuples(_SMALL, _SMALL, _SMALL, _SMALL), max_size=4))
    if len(vectors) >= 2 and draw(st.booleans()):
        s, t = draw(_SMALL), draw(_SMALL)
        vectors[-1] = tuple(s * x + t * y for x, y in zip(vectors[0], vectors[1]))
    return tuple(vectors)


@settings(max_examples=400, deadline=None)
@given(_basis())
def test_lattice_coordinates_match_the_elimination_reference(vectors):
    # the minor whose inverse reads off lattice coordinates (in
    # _coefficient_box) exists exactly when the elimination finds the
    # vectors independent, and its inverse is one
    minor = sl2real.oracle._invertible_minor(vectors)
    assert (minor is None) == (_coefficients_of_reference(vectors, (0, 0, 0, 0)) is None)
    if minor is not None:
        rows, inv = minor
        square = [[v[r] for v in vectors] for r in rows]
        k = len(vectors)
        product_ = [[sum(map(mul, row, col)) for col in zip(*square)] for row in inv]
        assert product_ == [[int(i == j) for j in range(k)] for i in range(k)]


def test_lattice_contains_the_constructed_conjugator():
    rng = random.Random(11)
    for _ in range(20):
        cyc = random_odd_bipalindromic_cycle(rng, max_len=6, max_exp=4)
        g = random_unimodular(rng)
        m = g @ word_matrix(cyc.exponents) @ g.inverse()
        f = factor_real(m)
        q = f.c_plus
        assert _coefficients_of_reference(integer_kernel(m), (q.a, q.b, q.c, q.d)) is not None


# -------------------------------------------------------- conjugators


def test_brute_force_conjugator_pinned():
    assert brute_force_conjugator(ROT_PI, 2) == Mat2(0, -1, -1, 0)
    assert brute_force_conjugator(Mat2(12, 5, 7, 3), 25) is None
    assert brute_force_conjugator(Mat2(7, -18, -5, 13), 3) is None
    assert brute_force_conjugator(Mat2(2, 1, 1, 1), 5) is not None
    # real, but bound 0 leaves only the zero matrix to try
    assert brute_force_conjugator(Mat2(15, 4, 11, 3), 0) is None


def test_brute_force_conjugator_verifies():
    for m in (Mat2(2, 1, 1, 1), Mat2(1, 1, 1, 2), Mat2(15, 4, 11, 3)):
        q = brute_force_conjugator(m, 12)
        assert q is not None
        assert q.det == -1
        assert q @ m @ q.inverse() == m.inverse()


def test_brute_force_conjugator_near_singular_minor():
    # the first invertible minor of (0 -1; 1 t)'s lattice has an inverse
    # of size t, so its box alone walked 6t + 3 rows of coefficients
    for t in (10**3, 10**50, 10**4000):
        with budget(1):
            assert brute_force_conjugator(Mat2(0, -1, 1, t), 3) == Mat2(0, -1, -1, 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SMALL, _SMALL, _SMALL, _SMALL), min_size=2, max_size=2), st.integers(0, 3))
def test_coefficient_box_keeps_every_point_in_bound(vectors, bound):
    # the minor's box holds every lattice point within the bound; the
    # Gram cut must keep each of them
    minor = sl2real.oracle._invertible_minor(vectors)
    assume(minor is not None)
    box = sl2real.oracle._coefficient_box(vectors, bound)
    wide = [int(bound * sum(map(abs, row))) for row in minor[1]]
    for coeffs in product(*(range(-r, r + 1) for r in wide)):
        if all(abs(sum(c * v[i] for c, v in zip(coeffs, vectors))) <= bound for i in range(4)):
            assert all(abs(c) <= r for c, r in zip(coeffs, box))


def test_conjugator_presence_matches_realness_on_small_family():
    # entries bounded by 2: presence of a det -1 conjugator within the
    # search box must imply realness, and realness must produce one
    for a, b, c, d in product(range(-2, 3), repeat=4):
        m = Mat2(a, b, c, d)
        if m.det != 1 or m in (IDENTITY, NEG_IDENTITY):
            continue
        q = brute_force_conjugator(m, 10)
        if q is not None:
            assert is_real(m)
        if is_real(m):
            f = factor_real(m)
            assert f.c_plus @ m @ f.c_plus.inverse() == m.inverse()
