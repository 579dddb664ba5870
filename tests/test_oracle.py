"""Brute-force cross-checks."""

import ast
import importlib
from itertools import product
from pathlib import Path

import pytest

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
    is_real,
    is_real_structure,
)

import sl2real.oracle

from conftest import budget


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


# -------------------------------------------------------- conjugators


def test_brute_force_conjugator_pinned():
    assert brute_force_conjugator(ROT_PI, 2) == Mat2(-1, 0, 0, 1)
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
    # (0 -1; 1 t) with a huge t: the scan walks the same involutions for
    # every t, and only its products grow with t
    for t in (10**3, 10**50, 10**4000):
        with budget(1):
            assert brute_force_conjugator(Mat2(0, -1, 1, t), 3) == Mat2(0, -1, -1, 0)


def _raw_reversers(m, bound):
    """Every (x, y, z, w) with |entries| <= bound, det -1 and
    Q m = m^-1 Q, found with no assumption on Q's shape."""
    inv = m.inverse()
    span = range(-bound, bound + 1)
    found = []
    for x, y, z, w in product(span, repeat=4):
        if x * w - y * z != -1:
            continue
        q = Mat2(x, y, z, w)
        if q @ m == inv @ q:
            found.append(q)
    return found


def test_brute_force_conjugator_matches_the_raw_box():
    # the reference scans all of 4-entry space; the oracle scans only the
    # involutions, which its docstring proves are every det -1 reverser
    small = [Mat2(*e) for e in product(range(-3, 4), repeat=4) if e[0] * e[3] - e[1] * e[2] == 1]
    assert IDENTITY in small and NEG_IDENTITY in small
    for m in small:
        raw = _raw_reversers(m, 3)
        involutions = [q for q in raw if q @ q == IDENTITY]
        # +-I is reversed by every det -1 matrix, the involutions too
        assert involutions == raw or m in (IDENTITY, NEG_IDENTITY)
        for bound in range(4):
            q = brute_force_conjugator(m, bound)
            assert (q is None) == all(j.max_abs_entry() > bound for j in raw), (m, bound)
            if q is not None:
                first = next(j for j in enumerate_involutions(bound) if j @ m == m.inverse() @ j)
                in_bound = (j for j in involutions if j.max_abs_entry() <= bound)
                least = min(in_bound, key=lambda j: (j.a, j.b, j.c))
                assert q == first == least, (m, bound)


def test_skewed_conjugator_search_answers_in_budget():
    # no det -1 reverser within the bound, so the scan walks every
    # involution at the bound's cap
    with budget(5):
        assert brute_force_conjugator(Mat2(2, 39, -33, -643), 1000) is None


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
