"""Brute-force cross-checks and the conjugation lattice."""

import ast
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sl2real import (
    IDENTITY,
    REFL_DIAG,
    REFL_SWAP,
    ROT_PI,
    LatticeBasis,
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

from conftest import random_odd_bipalindromic_cycle, random_unimodular
from sl2real import Word


def test_oracle_imports_only_errors_and_mat2():
    # the acceptance gate compares the constructive code with the oracle,
    # which is only evidence while the oracle shares none of that code
    tree = ast.parse(Path(sl2real.oracle.__file__).read_text(encoding="utf-8"))
    package_imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                package_imports.add("." * node.level + (node.module or ""))
            elif node.module.split(".")[0] == "sl2real":
                package_imports.add(node.module)
        elif isinstance(node, ast.Import):
            package_imports |= {a.name for a in node.names if a.name.split(".")[0] == "sl2real"}
    assert package_imports == {".errors", ".mat2"}


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
    assert basis.rank == 2
    assert set(basis.vectors) == {(0, 1, 1, 0), (1, 0, 0, -1)}


def test_integer_kernel_central():
    assert integer_kernel(IDENTITY).rank == 4


def _as_mat(vec):
    return Mat2(vec[0], vec[1], vec[2], vec[3])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_integer_kernel_solves_the_commutation_system(seed):
    rng = random.Random(seed)
    m = random_unimodular(rng, steps=6)
    if m.is_central():
        return
    basis = integer_kernel(m)
    assert basis.rank == 2
    inv = m.inverse()
    for vec in basis.vectors:
        q = _as_mat(vec)
        assert q @ m == inv @ q
    # random integer combinations stay in the kernel
    for _ in range(5):
        s, t = rng.randint(-4, 4), rng.randint(-4, 4)
        combo = tuple(s * a + t * b for a, b in zip(*basis.vectors))
        q = _as_mat(combo)
        assert q @ m == inv @ q


def test_lattice_membership():
    basis = integer_kernel(ROT_PI)
    assert basis.contains(Mat2(0, -1, -1, 0))
    assert basis.coefficients_of(Mat2(2, 3, 3, -2)) is not None
    assert basis.coefficients_of((1, 1, 0, 0)) is None


def test_lattice_contains_the_constructed_conjugator():
    rng = random.Random(11)
    for _ in range(20):
        cyc = random_odd_bipalindromic_cycle(rng, max_len=6, max_exp=4)
        g = random_unimodular(rng)
        m = g @ Word(cyc.exponents, "U").matrix() @ g.inverse()
        f = factor_real(m)
        assert integer_kernel(m).contains(f.c_plus)


def test_lattice_basis_validation():
    with pytest.raises(ValueError):
        LatticeBasis(((1, 0, 0),))


# -------------------------------------------------------- conjugators


def test_brute_force_conjugator_pinned():
    assert brute_force_conjugator(ROT_PI, 2) == Mat2(0, -1, -1, 0)
    assert brute_force_conjugator(Mat2(12, 5, 7, 3), 25) is None


def test_brute_force_conjugator_verifies():
    for m in (Mat2(2, 1, 1, 1), Mat2(1, 1, 1, 2), Mat2(15, 4, 11, 3)):
        q = brute_force_conjugator(m, 12)
        assert q is not None
        assert q.det == -1
        assert q @ m @ q.inverse() == m.inverse()


def test_conjugator_presence_matches_realness_on_small_family():
    # entries bounded by 2: presence of a det -1 conjugator within the
    # search box must imply realness, and realness must produce one
    for a, b, c, d in product(range(-2, 3), repeat=4):
        m = Mat2(a, b, c, d)
        if m.det != 1 or m.is_central():
            continue
        q = brute_force_conjugator(m, 10)
        if q is not None:
            assert is_real(m)
        if is_real(m):
            f = factor_real(m)
            assert f.c_plus @ m @ f.c_plus.inverse() == m.inverse()
