"""End-to-end command line behaviour."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import sl2real.cli as cli
import sl2real.farey as farey
import sl2real.realness as realness
from sl2real import (
    IDENTITY,
    REFL_DIAG,
    ROT_2PI3,
    ROT_PI,
    Mat2,
    attracting_fixed_point,
    conjugacy_test,
    u_pow,
    v_pow,
)
from sl2real.cli import main
from sl2real.oracle import brute_force_conjugator, brute_force_factor

classify_module = sys.modules["sl2real.classify"]  # the package binds the name to the function

from conftest import (
    budget,
    random_odd_bipalindromic_cycle,
    random_unimodular,
    random_word,
    word_matrix,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    lines = [json.loads(line) for line in out.splitlines() if line]
    return lines


def test_classify(capsys):
    (obj,) = run_json(capsys, "classify", "2,1;1,1")
    assert obj == {"kind": "hyperbolic", "sign": 1, "cycle": ["1", "1"]}


def test_classify_negative_entries(capsys):
    (obj,) = run_json(capsys, "classify", "-12,-5;-7,-3")
    assert obj["sign"] == -1 and obj["cycle"] == ["1", "1", "2", "2"]


def test_cycle_output_is_verified(capsys):
    (obj,) = run_json(capsys, "cycle", "15,4;11,3")
    assert obj["cycle"] == ["1", "2", "1", "3"]
    assert obj["sign"] == 1
    assert obj["verified"] is True
    conj = Mat2.from_json_obj(obj["conjugator"])
    assert conj.det == 1
    word = [int(e) for e in obj["word"]]
    prod = Mat2(1, 0, 0, 1)
    letter = "U"
    for e in word:
        step = Mat2(1, e, 0, 1) if letter == "U" else Mat2(1, 0, e, 1)
        prod = prod @ step
        letter = "V" if letter == "U" else "U"
    recon = conj @ prod @ conj.inverse()
    assert (recon if obj["sign"] == 1 else -recon) == Mat2(15, 4, 11, 3)


def test_real_positive(capsys):
    (obj,) = run_json(capsys, "real", "15,4;11,3")
    assert obj["is_real"] is True
    f = obj["factorization"]
    c1 = Mat2.from_json_obj(f["c_plus"])
    c2 = Mat2.from_json_obj(f["c_minus"])
    assert c1 @ c2 == Mat2(15, 4, 11, 3)


def test_real_negative_is_exit_zero(capsys):
    code, out, err = run(capsys, "real", "12,5;7,3")
    assert code == 0
    assert json.loads(out) == {"is_real": False, "factorization": None}


def test_real_central(capsys):
    (obj,) = run_json(capsys, "real", "-1,0;0,-1")
    assert obj["is_real"] is True
    assert obj["factorization"] is not None


def test_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "real", "2,1;1")
    assert code == 2 and err


def test_domain_error_exit_3(capsys):
    code, out, err = run(capsys, "cycle", "1,1;0,1")
    assert code == 3 and "NotHyperbolic" in err
    code, out, err = run(capsys, "real", "1,0;0,-1")
    assert code == 3 and "NotSL2" in err


def test_conjugate(capsys):
    (obj,) = run_json(capsys, "conjugate", "2,1;1,1", "1,1;1,2", "--group", "sl")
    assert obj == {"conjugate": True, "group": "sl"}
    # (3 11;4 15) is the swap-reflection conjugate of (15 4;11 3)
    (obj,) = run_json(capsys, "conjugate", "15,4;11,3", "3,11;4,15")
    assert obj == {"conjugate": True, "group": "gl"}


def test_oracle_factor(capsys):
    (obj,) = run_json(capsys, "oracle", "2,1;1,1", "--bound", "2")
    assert obj["query"] == "factor" and obj["verified"] is True
    j1 = Mat2.from_json_obj(obj["witness"][0])
    j2 = Mat2.from_json_obj(obj["witness"][1])
    assert j1 @ j2 == Mat2(2, 1, 1, 1)


def test_oracle_conjugator_empty(capsys):
    (obj,) = run_json(
        capsys, "oracle", "12,5;7,3", "--bound", "25", "--mode", "conjugator"
    )
    assert obj["witness"] is None and obj["verified"] is True


def test_oracle_conjugator_witness(capsys):
    (obj,) = run_json(capsys, "oracle", "2,1;1,1", "--bound", "2", "--mode", "conjugator")
    assert obj["witness"] == [["-1", "0"], ["1", "1"]] and obj["verified"] is True
    m, q = Mat2(2, 1, 1, 1), Mat2.from_json_obj(obj["witness"])
    assert q.det == -1 and q @ m @ q.inverse() == m.inverse()


def test_oracle_identity_walks_no_layer_past_the_bound(capsys):
    # +-I has a rank-4 lattice: a radius one past the bound would walk a
    # whole (2r+1)^3 slab of rejected tuples before the first in-bound one
    with budget(2.0):
        (obj,) = run_json(capsys, "oracle", "1,0;0,1", "--bound", "100", "--mode", "conjugator")
    assert obj["witness"] == [["-100", "-99"], ["-99", "-98"]] and obj["verified"] is True


def test_oracle_factor_without_witness(capsys):
    (obj,) = run_json(capsys, "oracle", "12,5;7,3", "--bound", "3")
    assert obj["query"] == "factor" and obj["witness"] is None and obj["verified"] is True


@pytest.mark.parametrize("mode", ["factor", "conjugator"])
def test_oracle_non_real_without_witness(capsys, mode):
    code, out, err = run(capsys, "oracle", "7,-18;-5,13", "--bound", "3", "--mode", mode)
    assert code == 0 and '"witness":null' in out


def test_series_check(capsys):
    (obj,) = run_json(capsys, "series-check", "2,1;1,1")
    assert obj["consistent"] is True and obj["repetition"] == 2


def test_stdin_batch(capsys, monkeypatch):
    lines = '[[2,1],[1,1]]\n"1,1;1,2"\n\n[["5","2"],["2","1"]]\n'
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    objs = run_json(capsys, "classify", "-")
    assert [o["cycle"] for o in objs] == [["1", "1"], ["1", "1"], ["2", "2"]]


def test_stdin_bad_line(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[[1,2],[3]]\n"))
    code, out, err = run(capsys, "classify", "-")
    assert code == 2


@pytest.mark.parametrize("cell", ["1_5", "+15", "١٥", "１５"])
def test_stdin_string_cells_follow_the_compact_grammar(capsys, monkeypatch, cell):
    # int() would read each as 15, the last two in Arabic-Indic and
    # fullwidth digits; "1_5,4;11,3" is no compact matrix, so neither
    # spelling takes them
    lines = f'[[" 15 ","4"],["11","3"]]\n[["{cell}","4"],["11","3"]]\n'
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    code, out, err = run(capsys, "classify", "-")
    assert code == 2 and out.count("\n") == 1
    assert err.startswith("error: bad input line") and err.count("\n") == 1
    assert f"bad matrix entry {cell!r}" in err
    assert main(["classify", f"{cell},4;11,3"]) == 2


@pytest.mark.parametrize("command", ["classify", "cycle", "real", "series-check"])
def test_deeply_nested_line_is_a_usage_error(capsys, monkeypatch, command):
    # nesting past the recursion limit makes the json parser raise
    # RecursionError; the stream answers the good line, then stops
    monkeypatch.setattr("sys.stdin", io.StringIO("[[2,1],[1,1]]\n" + "[" * 100_000 + "\n"))
    code, out, err = run(capsys, command, "-")
    assert code == 2 and out.count("\n") == 1
    assert err.startswith("error: bad input line '[[[") and err.count("\n") == 1
    assert len(err) < 300  # the line is quoted by a bounded prefix


@pytest.mark.parametrize(
    "matrix, stdin",
    [
        ("-", "[" + ",".join(["1"] * 50_000) + "]\n"),
        ("1," * 30_000, None),
        ("-", f'[["{"9" * 5_000}","1"],["0","1"]]\n'),
    ],
    ids=["100kb-json-list", "60kb-argv", "5000-digit-entry"],
)
def test_long_bad_input_gives_a_short_error(capsys, monkeypatch, matrix, stdin):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, "classify", matrix)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300


_HUGE = "1" + "0" * 4400  # over the interpreter's 4,300-digit int/str limit


@pytest.mark.parametrize(
    "stdin",
    [
        None,  # the compact form as an argument
        f'"{_HUGE},1;0,1"\n',
        f"[[{_HUGE},1],[0,1]]\n",
        f'[["{_HUGE}","1"],["0","1"]]\n',
    ],
    ids=["argv", "stdin-compact", "stdin-ints", "stdin-strings"],
)
def test_oversize_entry_is_a_usage_error(capsys, monkeypatch, stdin):
    if stdin is None:
        code, out, err = run(capsys, "classify", f"{_HUGE},1;0,1")
        expected = ""
    else:
        # the stream answers the good line, then stops at the oversize one
        monkeypatch.setattr("sys.stdin", io.StringIO("[[2,1],[1,1]]\n" + stdin))
        code, out, err = run(capsys, "classify", "-")
        expected = '{"kind":"hyperbolic","sign":1,"cycle":["1","1"]}\n'
    assert code == 2 and out == expected
    assert err.startswith("error: ") and err.count("\n") == 1


_BIG_DET = f"1{'0' * 3000},1;1,1{'0' * 3000}"  # det has 6,001 digits


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", _BIG_DET],
        ["cycle", _BIG_DET],
        ["real", _BIG_DET],
        ["series-check", _BIG_DET],
        ["conjugate", _BIG_DET, "2,1;1,1"],
        ["oracle", _BIG_DET, "--bound", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_det_too_long_to_print_is_a_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: NotSL2") and err.count("\n") == 1


# ------------------------------------------- certificates in plain ints


def _ints(obj):
    (a, b), (c, d) = obj
    return int(a), int(b), int(c), int(d)


def _mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _check_cycle_record(obj, m):
    """sign * C W C^-1 == m, W the U-first word of the record's runs."""
    w = (1, 0, 0, 1)
    for i, e in enumerate(int(e) for e in obj["word"]):
        w = _mul(w, (1, e, 0, 1) if i % 2 == 0 else (1, 0, e, 1))
    ca, cb, cc, cd = c = _ints(obj["conjugator"])
    assert ca * cd - cb * cc == 1
    sign = obj["sign"]
    assert tuple(sign * x for x in _mul(_mul(c, w), (cd, -cb, -cc, ca))) == m


def _check_factorization(fac, m):
    """c_plus c_minus == m, each factor an involution of det -1."""
    c_plus, c_minus = _ints(fac["c_plus"]), _ints(fac["c_minus"])
    for a, b, c, d in (c_plus, c_minus):
        assert a * d - b * c == -1 and _mul((a, b, c, d), (a, b, c, d)) == (1, 0, 0, 1)
    assert _mul(c_plus, c_minus) == m


def test_ten_thousand_run_word_answers_in_budget(capsys):
    # 2,091-digit entries; the cycle has 10,002 runs
    m = word_matrix((1,) * 10001 + (2,))
    entries = (m.a, m.b, m.c, m.d)
    arg = f"{m.a},{m.b};{m.c},{m.d}"
    for command in ("classify", "cycle", "real", "series-check"):
        with budget(5.0):
            (obj,) = run_json(capsys, command, arg)
        if command == "cycle":
            _check_cycle_record(obj, entries)
        elif command == "real":
            assert obj["is_real"] is True  # blocks (1, ..., 1) and (2)
            _check_factorization(obj["factorization"], entries)
        elif command == "series-check":
            assert obj["consistent"] is True
        else:
            assert len(obj["cycle"]) == 10002


def _run_text_uncaptured(*argv):
    # capsys is function scoped, so a hypothesis test captures by hand
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 0 and err.getvalue() == ""
    return out.getvalue()


def _run_json_uncaptured(*argv):
    return [json.loads(line) for line in _run_text_uncaptured(*argv).splitlines()]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.booleans(), st.sampled_from((1, -1)))
def test_thousand_digit_conjugates_round_trip(seed, real, sign):
    rng = random.Random(seed)
    g = (1, 0, 0, 1)
    while max(map(abs, g)).bit_length() < 3_330:  # over 10^3 digits
        e = rng.choice((-1, 1)) * rng.randint(1, 9)
        g = _mul(g, (1, e, 0, 1) if rng.random() < 0.5 else (1, 0, e, 1))
    exps = random_odd_bipalindromic_cycle(rng).exponents if real else random_word(rng)
    w = word_matrix(exps)
    ga, gb, gc, gd = g
    m = tuple(sign * x for x in _mul(_mul(g, (w.a, w.b, w.c, w.d)), (gd, -gb, -gc, ga)))
    arg = ",".join(map(str, m[:2])) + ";" + ",".join(map(str, m[2:]))
    (obj,) = _run_json_uncaptured("cycle", arg)
    _check_cycle_record(obj, m)
    (obj,) = _run_json_uncaptured("real", arg)
    if real:
        assert obj["is_real"] is True
    if obj["is_real"]:
        _check_factorization(obj["factorization"], m)
    else:
        assert obj["factorization"] is None


def test_atlas_deterministic_and_complete(capsys):
    code, out1, _ = run(capsys, "atlas", "--max-entry", "1")
    assert code == 0
    code, out2, _ = run(capsys, "atlas", "--max-entry", "1")
    assert out1 == out2
    records = [json.loads(line) for line in out1.splitlines()]
    # 2 central + 3 elliptic + 2 parabolic + 2 hyperbolic
    assert len(records) == 9
    mats = [Mat2.from_json_obj(r["matrix"]) for r in records]
    for i, x in enumerate(mats):
        for y in mats[i + 1 :]:
            assert not conjugacy_test(x, y, "gl")
    for r in records:
        if r["is_real"]:
            assert r["factorization"] is not None
            f = r["factorization"]
            prod = Mat2.from_json_obj(f["c_plus"]) @ Mat2.from_json_obj(f["c_minus"])
            assert prod == Mat2.from_json_obj(r["matrix"])
        else:
            assert r["factorization"] is None


def test_atlas_real_only(capsys):
    code, full, _ = run(capsys, "atlas", "--max-entry", "2")
    code, real, _ = run(capsys, "atlas", "--max-entry", "2", "--real-only")
    full_lines = full.splitlines()
    real_lines = real.splitlines()
    assert len(full_lines) == 27
    assert len(real_lines) == 25
    assert set(real_lines) <= set(full_lines)
    assert all(json.loads(line)["is_real"] for line in real_lines)


def test_atlas_cycle_fields(capsys):
    code, out, _ = run(capsys, "atlas", "--max-entry", "2")
    for line in out.splitlines():
        r = json.loads(line)
        if r["class"]["kind"] == "hyperbolic":
            assert r["cycle"] == r["class"]["cycle"]
        else:
            assert r["cycle"] is None


def test_atlas_max_entry_3_is_pinned(capsys):
    code, out, _ = run(capsys, "atlas", "--max-entry", "3")
    assert code == 0 and out.count("\n") == 331
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "7355034be662446d05448ec540207a033aa3f52ecccd97b181ea8a8089b6dbbf"


def _stream_corpus():
    """Seeded stdin lines: hyperbolics of both trace signs (real and not),
    powers (odd CF periods among them) and entries of 100 or more digits."""
    rng = random.Random(1010)
    ms = []
    for _ in range(40):
        g = random_unimodular(rng, 6)
        real = rng.random() < 0.5
        exps = random_odd_bipalindromic_cycle(rng).exponents if real else random_word(rng)
        ms.append(g @ word_matrix(exps) @ g.inverse())
    for k in range(1, 8):
        ms.append(Mat2(2, 1, 1, 1) ** k)  # the golden ratio's period has one digit
        ms.append(random_unimodular(rng, 4) @ (Mat2(3, 2, 1, 1) ** k))
        w = word_matrix(random_word(rng, max_runs=4, max_exp=4))
        g = random_unimodular(rng, 5)
        ms.append(g @ w ** k @ g.inverse())
    for _ in range(12):
        g = IDENTITY
        while g.max_abs_entry().bit_length() < 170:  # over 50 digits, so m has over 100
            e = rng.choice((-1, 1)) * rng.randint(1, 10**6)
            g = g @ (u_pow(e) if rng.random() < 0.5 else v_pow(e))
        if rng.random() < 0.5:
            exps = random_odd_bipalindromic_cycle(rng).exponents
        else:
            exps = (10**100 + rng.randint(0, 9), 3)
        ms.append(g @ word_matrix(exps) @ g.inverse())
    ms = [m if rng.random() < 0.5 else -m for m in ms]
    return "".join(json.dumps([[str(m.a), str(m.b)], [str(m.c), str(m.d)]]) + "\n" for m in ms)


@pytest.mark.parametrize(
    "command, digest",
    [
        ("classify", "e9f6362b7ebbeabc25fe71b95f90667f2bdf03e2cfb76e9e804703116e9a6d3c"),
        ("cycle", "47b16fddb2e17db7bea6e300752172552f2019af4c4784e41d610c3c59284103"),
        ("real", "917319ab39cd9819a80c43219bc66bd441e3a26f37e48a92bcaf841a3f6d2ee6"),
        ("series-check", "bb4bbf64f34414a7a5cfb87dd1251a335f82ad12cf178f994382bea9da5e8d38"),
    ],
)
def test_stream_output_pinned(capsys, monkeypatch, command, digest):
    # digests taken when the cycle was still peeled by greedy_factor and
    # normalised by quadratic scans
    monkeypatch.setattr("sys.stdin", io.StringIO(_stream_corpus()))
    code, out, err = run(capsys, command, "-")
    assert code == 0 and err == "" and out.count("\n") == 73
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _non_hyperbolic_corpus():
    """Seeded stdin lines for the other kinds: both centrals, elliptics of
    each trace and parabolics of both signs and shifts (one of 61 digits),
    moved by conjugators of det 1 and -1, in the three line spellings in
    turn (rows of ints, rows of strings, the compact form)."""
    rng = random.Random(1818)
    rotations = [ROT_PI, ROT_2PI3, -ROT_2PI3, ROT_PI.inverse(), ROT_2PI3.inverse()]
    reps = rotations * 2 + [v_pow(rng.choice((-1, 1)) * rng.randint(1, 50)) for _ in range(24)]
    reps += [v_pow(10**60 + 7), -v_pow(-(10**40))]
    ms = [IDENTITY, -IDENTITY]
    for r in reps:
        for _ in range(2):
            g = random_unimodular(rng, rng.randint(0, 9))
            if rng.random() < 0.5:
                g = g @ REFL_DIAG
            m = g @ r @ g.inverse()
            ms.append(m if rng.random() < 0.5 else -m)
    lines = []
    for i, m in enumerate(ms):
        if i % 3 == 0:
            lines.append(json.dumps([[m.a, m.b], [m.c, m.d]]))
        elif i % 3 == 1:
            lines.append(json.dumps([[str(m.a), str(m.b)], [str(m.c), str(m.d)]]))
        else:
            lines.append(json.dumps(m.to_text()))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize(
    "command, digest",
    [
        ("classify", "fd45cd3a7a9ca41745af764c363129a5ae0ea4ea6aea93db089fbc15d1ed5226"),
        ("real", "250bb900c236ce7054e30029a8fc6b377196ff297758e57aa841d458f8c10e27"),
    ],
)
def test_non_hyperbolic_stream_output_pinned(capsys, monkeypatch, command, digest):
    # digests taken while c_plus was still built as Mat2 products
    monkeypatch.setattr("sys.stdin", io.StringIO(_non_hyperbolic_corpus()))
    code, out, err = run(capsys, command, "-")
    assert code == 0 and err == "" and out.count("\n") == 74
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _necklaces_reference(n, k):
    """Every tuple, kept when it is its own least rotation, with the
    first rotation that gives it back, its least period."""
    for exps in product(range(1, k + 1), repeat=n):
        dbl = exps + exps
        if min(dbl[i : i + n] for i in range(n)) == exps:
            yield exps, next(p for p in range(1, n + 1) if dbl[p : p + n] == exps)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", range(1, 9))
def test_necklaces_match_least_rotation_filter(n, k):
    assert list(cli._necklaces(n, k)) == list(_necklaces_reference(n, k))


def test_atlas_builds_one_word_per_necklace(capsys, monkeypatch):
    words, cycles, walks, checked, built, splits, analyses, classes = ([] for _ in range(8))
    times_word, reduce = cli._times_word, classify_module.cutting_cycle
    walk, check_cycle = farey._gauss_orbit, farey.Cycle.__post_init__
    unchecked_cycle = farey._unchecked_cycle
    first_block, analysis_of = realness._first_block, realness._analysis_of
    new_class = classify_module.MatClass.__init__

    def counted_word(*args):
        words.append(args)
        return times_word(*args)

    def counted_reduce(m):
        cycles.append(m)
        return reduce(m)

    def counted_walk(x):
        walks.append(x)
        return walk(x)

    def counted_check(self):
        checked.append(self)
        check_cycle(self)

    def counted_unchecked_cycle(root, j):
        built.append(root)
        return unchecked_cycle(root, j)

    def counted_split(root):
        splits.append(root)
        return first_block(root)

    def counted_analysis(cls, m):
        analyses.append(m)
        return analysis_of(cls, m)

    def counted_class(self, *args, **kwargs):
        classes.append(args)
        new_class(self, *args, **kwargs)

    monkeypatch.setattr(cli, "_times_word", counted_word)
    monkeypatch.setattr(classify_module, "cutting_cycle", counted_reduce)
    monkeypatch.setattr(farey, "_gauss_orbit", counted_walk)
    monkeypatch.setattr(farey.Cycle, "__post_init__", counted_check)
    monkeypatch.setattr(farey, "_unchecked_cycle", counted_unchecked_cycle)
    # is_odd_bipalindromic calls realness's name, the atlas its own import
    monkeypatch.setattr(realness, "_first_block", counted_split)
    monkeypatch.setattr(cli, "_first_block", counted_split)
    monkeypatch.setattr(realness, "_analysis_of", counted_analysis)
    monkeypatch.setattr(classify_module.MatClass, "__init__", counted_class)
    code, out, _ = run(capsys, "atlas", "--max-entry", "4")
    assert code == 0 and out.count("\n") == 18_033
    # 10 + 70 + 700 + 8,230 necklaces of lengths 2, 4, 6 and 8 over 1..4,
    # where enumerating every tuple took 69,904 tuples and as many Cycles;
    # each necklace's root is split once and its word multiplied out once,
    # for both signs, and it is its own cutting cycle, so no record is
    # reduced again, and no necklace gets a Cycle, a class or an analysis
    assert len(splits) == 9_010 and len(words) == 9_010
    assert cycles == [] and walks == [] and checked == [] and built == []
    # only the 5 + 2 * 4 central, elliptic and parabolic records are
    # classified and analysed
    assert len(analyses) == 13 and len(classes) == 13
    # --real-only decides each split first and multiplies out only the
    # 694 real necklaces' words, for their 2 * 694 + 13 records
    del words[:], splits[:]
    code, out, _ = run(capsys, "atlas", "--max-entry", "4", "--real-only")
    assert code == 0 and out.count("\n") == 1_401
    assert len(splits) == 9_010 and len(words) == 694


# ------------------------------- records against the JSON encoder
#
# Each reference record is a dict built here from the library objects
# and encoded by json.dumps, so it shares no code with the CLI's writers.


def _encoded(obj):
    return json.dumps(obj, separators=(",", ":"))


def _rows(m):
    return [[str(m.a), str(m.b)], [str(m.c), str(m.d)]]


def _class_obj(c):
    obj = {"kind": c.kind}
    if c.sign is not None:
        obj["sign"] = c.sign
    if c.trace is not None:
        obj["trace"] = c.trace
    if c.shift is not None:
        obj["shift"] = str(c.shift)
    if c.cycle is not None:
        obj["cycle"] = [str(e) for e in c.cycle.canonical]
    return obj


def _factorization_obj(fac):
    if fac is None:
        return None
    return {
        "c_plus": _rows(fac.c_plus),
        "c_minus": _rows(fac.c_minus),
        "kind_plus": fac.kind_plus.value,
        "kind_minus": fac.kind_minus.value,
    }


def _atlas_record_reference(rep):
    analysis = realness.analyze(rep)
    cls_obj = _class_obj(analysis.matclass)
    fac = analysis.factorization
    record = {
        "matrix": _rows(rep),
        "class": cls_obj,
        "is_real": fac is not None,
        "factorization": _factorization_obj(fac),
        "cycle": cls_obj.get("cycle"),
    }
    return _encoded(record)


def test_atlas_records_match_analyze(capsys):
    # every record, byte for byte, against the analysis of the matrix it
    # names; the real records alone are the full atlas filtered, in order
    for max_entry in range(1, 5):
        code, full, _ = run(capsys, "atlas", "--max-entry", str(max_entry))
        assert code == 0
        lines = full.splitlines()
        for line in lines:
            rep = Mat2.from_json_obj(json.loads(line)["matrix"])
            assert line == _atlas_record_reference(rep)
        code, real, _ = run(capsys, "atlas", "--max-entry", str(max_entry), "--real-only")
        assert code == 0
        assert real.splitlines() == [line for line in lines if json.loads(line)["is_real"]]


def _view_references(m):
    """The reference line of each stream command that answers for m."""
    fac = realness.analyze(m).factorization
    refs = {
        "classify": _class_obj(classify_module.classify(m)),
        "real": {"is_real": fac is not None, "factorization": _factorization_obj(fac)},
    }
    if abs(m.trace) > 2:
        cyc, sign, q = farey.cutting_cycle(m)
        refs["cycle"] = {
            "cycle": [str(e) for e in cyc.canonical],
            "sign": sign,
            "conjugator": _rows(q),
            "word": [str(e) for e in cyc.exponents],
            "verified": True,
        }
        report = farey.series_crosscheck(m)
        refs["series-check"] = {
            "cf_period": [str(a) for a in report.cf_period],
            "cycle": [str(e) for e in report.cycle.canonical],
            "sign": report.sign,
            "repetition": report.repetition,
            "consistent": report.consistent,
        }
    return refs


@st.composite
def _matrices_of_every_kind(draw):
    """A central, elliptic, parabolic or hyperbolic matrix, or a proper
    power of a hyperbolic word, conjugated by a matrix of up to about 500
    digits (entries up to about 1,000), and negated half the time."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(("central", "elliptic", "parabolic", "hyperbolic", "power")))
    if kind == "central":
        m = IDENTITY
    elif kind == "elliptic":
        m = rng.choice((ROT_PI, ROT_2PI3, ROT_2PI3.inverse()))
    elif kind == "parabolic":
        m = rng.choice((u_pow, v_pow))(rng.choice((-1, 1)) * rng.randint(1, 10**6))
    elif kind == "hyperbolic":
        m = word_matrix(random_word(rng, 8, rng.choice((9, 10**6))))
    else:
        m = word_matrix(random_word(rng, 4)) ** rng.randint(2, 5)
    bits = draw(st.sampled_from((0, 20, 300, 1_600)))
    g = IDENTITY
    while max(map(abs, (g.a, g.b, g.c, g.d))).bit_length() < bits:
        g = g @ random_unimodular(rng, 1)
    m = g @ m @ g.inverse()
    return -m if draw(st.booleans()) else m


@settings(max_examples=150, deadline=None)
@given(_matrices_of_every_kind())
def test_stream_records_match_json_dumps(m):
    for command, ref in _view_references(m).items():
        assert _run_text_uncaptured(command, m.to_text()) == _encoded(ref) + "\n"


# every kind, with small entries, so the oracle's boxes stay small
_SMALL = (
    IDENTITY, -IDENTITY, ROT_PI, ROT_2PI3, -ROT_2PI3, u_pow(2), v_pow(-3), -u_pow(1),
    Mat2(2, 1, 1, 1), Mat2(15, 4, 11, 3), Mat2(3, 11, 4, 15), Mat2(-5, -2, -2, -1),
    Mat2(7, -18, -5, 13), Mat2(4, 1, 3, 1),
)


def test_oracle_and_conjugate_records_match_json_dumps():
    witnesses = set()
    for m, bound in product(_SMALL, range(3)):
        pair = brute_force_factor(m, bound)
        q = brute_force_conjugator(m, bound)
        for mode, witness in (
            ("factor", None if pair is None else [_rows(j) for j in pair]),
            ("conjugator", None if q is None else _rows(q)),
        ):
            witnesses.add((mode, witness is None))
            ref = {
                "query": mode,
                "matrix": _rows(m),
                "bound": bound,
                "witness": witness,
                "verified": True,
            }
            argv = ("oracle", m.to_text(), "--bound", str(bound), "--mode", mode)
            assert _run_text_uncaptured(*argv) == _encoded(ref) + "\n"
    verdicts = set()
    for a, b, group in product(_SMALL, _SMALL, ("gl", "sl")):
        verdict = conjugacy_test(a, b, group)
        verdicts.add(verdict)
        line = _run_text_uncaptured("conjugate", a.to_text(), b.to_text(), "--group", group)
        assert line == _encoded({"conjugate": verdict, "group": group}) + "\n"
    # each mode found and missed a witness, and both verdicts were written
    assert len(witnesses) == 4 and verdicts == {True, False}


@st.composite
def _random_necklaces(draw):
    """A least rotation of even length up to 12: a power of a random root,
    the root itself when its length is even."""
    exponent = st.one_of(st.integers(1, 3), st.integers(1, 10**6))
    root = tuple(draw(st.lists(exponent, min_size=1, max_size=12)))
    if len(root) % 2 and len(root) > 6:
        root = root[:-1]
    step = 2 * len(root) if len(root) % 2 else len(root)  # its least even power
    word = root * (draw(st.integers(1, 12 // step)) * step // len(root))
    return min(word[i:] + word[:i] for i in range(len(word)))


@settings(max_examples=300, deadline=None)
@given(_random_necklaces(), st.sampled_from((1, -1)))
def test_necklace_is_its_own_cutting_cycle(necklace, sign):
    w = word_matrix(necklace)
    cls = classify_module.classify(w if sign == 1 else -w)
    assert (cls.kind, cls.sign) == ("hyperbolic", sign)
    assert cls.cycle.exponents == necklace
    assert cls.conjugator == IDENTITY


_E = 10**300
_LONG_CERTIFICATE = word_matrix(
    (_E + 1, 29, _E + 7, _E + 3, 8, _E + 3, _E + 7, 29, _E + 1, 8, 2, 10, 7, 10, 2, 8)
)  # 1,810-digit entries; real, with a factor of 5,423 digits


def test_certificate_too_long_to_print_is_a_domain_error(capsys):
    m = _LONG_CERTIFICATE
    text = f"{m.a},{m.b};{m.c},{m.d}"
    code, out, err = run(capsys, "real", text)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"{sys.get_int_max_str_digits()} digits" in err
    code, out, _ = run(capsys, "cycle", text)
    assert code == 0 and json.loads(out)["verified"] is True


def _count_gauss_orbits(monkeypatch):
    calls = []
    walk = farey._gauss_orbit

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(farey, "_gauss_orbit", counted)
    return calls


@pytest.mark.parametrize(
    "argv, hyperbolic_inputs",
    [
        (["classify", "15,4;11,3"], 1),
        (["cycle", "15,4;11,3"], 1),
        (["real", "15,4;11,3"], 1),
        (["real", "12,5;7,3"], 1),
        (["real", "2,1;1,1"], 1),
        (["conjugate", "15,4;11,3", "3,11;4,15"], 2),
        (["conjugate", "15,4;11,3", "3,11;4,15", "--group", "sl"], 2),
    ],
)
def test_each_hyperbolic_input_walks_one_orbit(capsys, monkeypatch, argv, hyperbolic_inputs):
    calls = _count_gauss_orbits(monkeypatch)
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == hyperbolic_inputs


@pytest.mark.parametrize(
    "command, matrix, scanned",
    [
        # the least rotation of the period (1, 2, 1, 3) starts at an even
        # place, so it is both the even pick and the canonical form
        ("real", "15,4;11,3", [(4, 1)]),
        ("cycle", "15,4;11,3", [(4, 1)]),
        # an odd least start: the even starts are scanned on their own
        ("classify", "7,-18;-5,13", [(4, 1), (4, 2)]),
        # a proper square: the scan covers the period, not the cycle
        ("classify", "269,72;198,53", [(4, 1)]),
        ("real", "7,-18;-5,13", [(4, 1), (4, 2)]),
        # the odd period (2, 1, 1), doubled: its least start 1 and 1 + 3
        # begin the same rotation, so the even pick needs no second scan
        ("cycle", "31,18;12,7", [(6, 1)]),
    ],
)
def test_rotation_scans_per_line(capsys, monkeypatch, command, matrix, scanned):
    # each scan as (length, step)
    calls = []
    least_start = farey._least_start

    def counted(seq, step=1):
        calls.append((len(seq), step))
        return least_start(seq, step)

    monkeypatch.setattr(farey, "_least_start", counted)
    assert run(capsys, command, matrix)[0] == 0
    assert calls == scanned


def test_series_check_walks_each_fixed_point_once(capsys, monkeypatch):
    calls = _count_gauss_orbits(monkeypatch)
    assert run(capsys, "series-check", "15,4;11,3")[0] == 0
    att = attracting_fixed_point(Mat2(15, 4, 11, 3))
    assert calls == [(att,), (att.conjugate(),)]


def test_atlas_walks_no_orbit(capsys, monkeypatch):
    # each hyperbolic record is read off its necklace (see
    # test_atlas_records_match_analyze)
    calls = _count_gauss_orbits(monkeypatch)
    records = run_json(capsys, "atlas", "--max-entry", "2")
    hyperbolic = [r for r in records if r["class"]["kind"] == "hyperbolic"]
    assert len(hyperbolic) == 18
    assert calls == []


def test_real_factorization_is_checked_before_output(capsys, monkeypatch):
    # raising every exponent keeps both blocks palindromes, so each wrong
    # factor is still a real structure and only the final product check
    # can catch the corruption
    times = realness._times_word

    def raised(a, b, c, d, exponents):
        return times(a, b, c, d, [e + 1 for e in exponents])

    monkeypatch.setattr(realness, "_times_word", raised)
    for matrix in ("15,4;11,3", "2,1;1,1", "-5,-2;-2,-1"):
        with pytest.raises(RuntimeError, match="factorization verification failed"):
            main(["real", matrix])
        assert capsys.readouterr().out == ""
    # the atlas analyses each necklace before it writes either sign's
    # record: only the 9 central, elliptic and parabolic records get out
    with pytest.raises(RuntimeError, match="factorization verification failed"):
        main(["atlas", "--max-entry", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    assert all(json.loads(line)["class"]["kind"] != "hyperbolic" for line in lines)


def test_cycle_certificate_is_checked_before_output(capsys, monkeypatch):
    # rotating the CF period by two digits keeps the cycle up to even
    # rotation and its trace, but leaves the conjugator two runs off
    walk = farey._gauss_orbit

    def rotated(x):
        digits, entry, chunks = walk(x)
        period = digits[entry:]
        return digits[:entry] + period[2:] + period[:2], entry, chunks

    monkeypatch.setattr(farey, "_gauss_orbit", rotated)
    # an even period, an odd one of negative trace, and an odd pre-period;
    # then proper squares (j = 2) of the first and third, of both signs.
    # A golden power such as 13,8;8,5 cannot serve: its period is all
    # ones, so no rotation leaves its conjugator off.
    matrices = ("15,4;11,3", "-121,-36;-84,-25", "7,-18;-5,13")
    powers = ("269,72;198,53", "-269,-72;-198,-53", "139,-360;-100,259")
    for matrix in matrices + powers:
        with pytest.raises(RuntimeError, match="cutting-cycle verification failed"):
            main(["cycle", matrix])
        assert capsys.readouterr().out == ""


def test_parabolic_conjugator_is_checked_before_output(capsys, monkeypatch):
    # a conjugator built without its diag(1,-1) factor: for 1,0;-1,1
    # (n = -1, fixed point 0/1) c = diag(1,-1) becomes I, which carries
    # (1 0; 1 1) to a matrix other than the input
    built = classify_module._unchecked_mat2
    monkeypatch.setattr(classify_module, "_unchecked_mat2", lambda a, b, c, d: built(a, abs(b), c, abs(d)))
    for argv in (["conjugate", "1,0;1,1", "1,0;-1,1", "--group", "sl"], ["real", "1,0;-1,1"]):
        with pytest.raises(RuntimeError, match="parabolic reduction verification failed"):
            main(argv)
        assert capsys.readouterr().out == ""


def test_elliptic_conjugator_is_checked_before_output(capsys, monkeypatch):
    # 0,-1;1,0 is reduced already, and its mover is REFL_DIAG
    monkeypatch.setitem(classify_module._STABILIZER_TABLE, (0, -1, 1, 0), IDENTITY)
    with pytest.raises(RuntimeError, match="elliptic reduction verification failed"):
        main(["classify", "0,-1;1,0"])
    assert capsys.readouterr().out == ""


_MUTANT_CELLS = (
    "true", "false", "null", "1.5", "1e3", "-0", "[1]", "[[1]]", "{}", '""', '" 7 "',
    '"1_0"', '"+5"', '"\\u0661"', '"\\uff15"', '"1\\u0000"', "9" * 4301, '"' + "9" * 4301 + '"',
)
_MUTANT_ENTRIES = ("1_0", "+5", "\u0661", "\uff15", "1\x00", "1.5", "", " 3 ", "9" * 4301, "--1")
_MUTANT_LINES = ("[]", "{}", "[[1,0],[0]]", "[[1,0],[0,1],[1,1]]", "[" * 2000 + "]" * 2000, '"1,0;0"')


@st.composite
def _stdin_lines(draw):
    """(line, entries): one JSONL line in one of the three spellings, and
    its matrix's entries, or None when a mutation may have changed them."""
    m = IDENTITY
    for is_u, e in draw(st.lists(st.tuples(st.booleans(), st.integers(-(10**20), 10**20)), max_size=5)):
        m = m @ (u_pow(e) if is_u else v_pow(e))
    m = draw(st.sampled_from((m, -m)))
    entries = [m.a, m.b, m.c, m.d]
    mutation = draw(st.sampled_from(("none", "cell", "line", "char")))
    spelling = draw(st.sampled_from(("ints", "strings", "mixed", "text")))
    if spelling == "text":
        texts = [str(x) for x in entries]
        if mutation == "cell":
            texts[draw(st.integers(0, 3))] = draw(st.sampled_from(_MUTANT_ENTRIES))
        line = json.dumps("{},{};{},{}".format(*texts))
    else:
        quoted = {"ints": False, "strings": True}.get(spelling)
        cells = [
            f'"{x}"' if (draw(st.booleans()) if quoted is None else quoted) else str(x)
            for x in entries
        ]
        if mutation == "cell":
            cells[draw(st.integers(0, 3))] = draw(st.sampled_from(_MUTANT_CELLS))
        line = "[[{},{}],[{},{}]]".format(*cells)
    if mutation == "line":
        line = draw(st.sampled_from(_MUTANT_LINES))
    elif mutation == "char":
        i = draw(st.integers(0, len(line)))
        line = line[:i] + draw(st.sampled_from("_+-.e\x00\u0661 [],;\"")) + line[i:]
    return line, entries if mutation == "none" else None


@settings(max_examples=300, deadline=None)
@given(_stdin_lines())
def test_each_stdin_line_parses_to_checked_ints_or_exits_2(case):
    line, entries = case
    parsed = []
    view = cli._VIEWS["classify"]

    def recorded(m):
        parsed.append(m)
        return view[1](m)

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(cli._VIEWS, {"classify": (view[0], recorded)}), mock.patch(
        "sys.stdin", io.StringIO(line + "\n")
    ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", "-"])
    if parsed:
        (m,) = parsed
        ints = (m.a, m.b, m.c, m.d)
        assert all(type(x) is int for x in ints) and m == Mat2(*ints)
        assert entries is None or list(ints) == entries
        if m.det == 1:
            assert code == 0 and out.getvalue().count("\n") == 1 and err.getvalue() == ""
            return
        assert code == 3  # NotSL2
    else:
        assert entries is None and code == 2
    text = err.getvalue()
    assert text.startswith("error: ") and text.count("\n") == 1 and "Traceback" not in text
    assert len(text.encode("utf-8", "surrogatepass")) < 300 and out.getvalue() == ""


_ARGV_MATRICES = (
    "2,1;1,1", "15,4;11,3", "-12,-5;-7,-3", "1,0;0,1", "-1,0;0,-1", "0,-1;1,0", "1,-4;0,1",
    "2,1;1,2", "-",
    # near the 4,300-digit limit: a 20,000-run cycle, a 2,141-digit
    # exponent, and the oracle's near-singular minor; then past it
    *(
        f"{m.a},{m.b};{m.c},{m.d}"
        for m in (Mat2(2, 1, 1, 1) ** 10_000, word_matrix((10**2140, 1, 3, 10**2140)))
    ),
    "0,-1;1," + "9" * 4300, "1," + "9" * 4301 + ";0,1",
)
_ARGV_JUNK = (
    "", "1_0", "+1", "\u0663", "\uff11", "1\x00", "\ud800", "9" * 5000, "-1", "1.0", "x", "--", "1,0;0",
)
# valid values stay cheap: atlas --max-entry 5 alone takes about 16 s
_ARGV_VALUES = {
    "--bound": ("0", "1", "3", "1001"),
    "--max-entry": ("1", "2", "3", "0", "6"),
    "--depth": ("0", "3", "6", "1001"),
    "--mode": ("factor", "conjugator"),
    "--group": ("gl", "sl"),
    "--axis": _ARGV_MATRICES,
    "-o": ("out.svg", "-1,2.svg", "missing/x.svg", "d" * 400, "a\x00b.svg", "\ud800.svg"),
}
_ARGV_SLOTS = {
    **dict.fromkeys(("classify", "cycle", "real", "series-check"), ("M",)),
    "conjugate": ("M", "M", "--group"),
    "oracle": ("M", "--bound", "--mode"),
    "atlas": ("--max-entry", "--real-only"),
    "svg": ("--depth", "--axis", "-o"),
}
_ARGV_STRAY = (
    *_ARGV_VALUES, "--output", "--real-only", "-h", "--help", "--nope", "-x", "classif", "help",
    *_ARGV_JUNK, *_ARGV_MATRICES, *(v for values in _ARGV_VALUES.values() for v in values),
)


@st.composite
def _argvs(draw):
    """A command with its arguments, mostly well formed, then up to three
    stray (an unknown command among them), dropped or repeated tokens."""
    command = draw(st.sampled_from(tuple(_ARGV_SLOTS)))
    argv = [command]
    for slot in _ARGV_SLOTS[command]:
        junk = draw(st.integers(0, 7)) == 7  # hypothesis leans to small draws
        if slot == "M":
            argv.append(draw(st.sampled_from(_ARGV_JUNK if junk else _ARGV_MATRICES)))
        elif slot in ("--bound", "--max-entry", "--depth") or draw(st.booleans()):
            argv.append(slot)
            if slot in _ARGV_VALUES:
                argv.append(draw(st.sampled_from(_ARGV_JUNK if junk else _ARGV_VALUES[slot])))
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2, 3)))):
        i = draw(st.integers(0, len(argv)))
        mutation = draw(st.sampled_from(("insert", "drop", "repeat")))
        if mutation == "insert" or i == len(argv):
            argv.insert(i, draw(st.sampled_from(_ARGV_STRAY)))
        elif mutation == "drop":
            del argv[i]
        else:
            argv[i:i] = argv[i : i + draw(st.integers(1, 2))]
    return argv


@settings(max_examples=200, deadline=None)
@given(_argvs(), st.sampled_from(("", "[[2,1],[1,1]]\n", '[[2,1],[1,1]]\n"1,0;0"\n')))
def test_each_argv_exits_0_2_or_3_with_a_short_error(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # -o writes here
        try:
            with budget(2), mock.patch("sys.stdin", io.StringIO(stdin)):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
        finally:
            os.chdir(cwd)
    text = err.getvalue()
    assert code in (0, 2, 3) and (code == 0) == (text == "")
    assert len(text.encode("utf-8", "surrogatepass")) < 300 and "Traceback" not in text


def test_svg_stdout(capsys):
    code, out, _ = run(capsys, "svg", "--depth", "2")
    assert code == 0
    root = ET.fromstring(out)
    assert root.tag.endswith("svg")


def test_svg_to_file(tmp_path, capsys):
    target = tmp_path / "fig.svg"
    code, out, _ = run(capsys, "svg", "--depth", "3", "--axis", "2,1;1,1", "-o", str(target))
    assert code == 0 and out == ""
    doc = target.read_text(encoding="utf-8")
    root = ET.fromstring(doc)
    classes = [el.get("class") for el in root.iter() if el.get("class")]
    assert classes.count("axis") == 1


@pytest.mark.parametrize("e, depth", [(200, 2), (1300, 12)])
def test_svg_huge_axis(capsys, e, depth):
    # entries of 401 and 2,601 digits: fixed points far past float range;
    # the crossings cost O(depth) comparisons, not one per triangle
    m = word_matrix((10**e, 1, 3, 10**e))
    with budget(0.5):
        code, out, err = run(capsys, "svg", "--depth", str(depth), "--axis", f"{m.a},{m.b};{m.c},{m.d}")
    assert code == 0 and err == ""
    root = ET.fromstring(out)
    assert "nan" not in out.lower() and "inf" not in out.lower()
    classes = [el.get("class") for el in root.iter() if el.get("class")]
    assert classes.count("axis") == 1


@pytest.mark.parametrize(
    "name",
    ["missing/x.svg", "d" * 400 + "/x.svg", "nodir/a\nb.svg", "a\x00b.svg", "\ud800.svg"],
    ids=["missing", "long", "newline", "nul", "surrogate"],
)
def test_svg_unwritable_output(tmp_path, capsys, name):
    # the name is quoted like every other bad input; a NUL or a lone
    # surrogate, refused before the OS sees the name, is one line too
    code, out, err = run(capsys, "svg", "--depth", "2", "-o", f"{tmp_path}/{name}")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert len(err.encode("utf-8", "surrogatepass")) < 300 and "Traceback" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flag", ["-o", "--output", "--out"])
def test_svg_output_name_is_never_escaped(tmp_path, monkeypatch, capsys, flag):
    # a file name that looks like a negative matrix is still a file name
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "svg", "--depth", "1", flag, "-1,2.svg")
    assert (code, out, err) == (0, "", "")
    assert os.listdir(tmp_path) == ["-1,2.svg"]


def test_svg_negative_axis_and_matrix_like_output_name(tmp_path, monkeypatch, capsys):
    # the matrix after --axis is escaped, the name after -o is not
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "svg", "--depth", "2", "--axis", "-2,-1;-1,-1", "-o", "-1,2.svg")
    assert (code, out, err) == (0, "", "")
    assert os.listdir(tmp_path) == ["-1,2.svg"]
    root = ET.fromstring((tmp_path / "-1,2.svg").read_text(encoding="utf-8"))
    classes = [el.get("class") for el in root.iter() if el.get("class")]
    assert classes.count("axis") == 1


def test_svg_depth_too_large(capsys):
    code, out, err = run(capsys, "svg", "--depth", "13")
    assert code == 3 and out == "" and err.startswith("error: DepthTooLarge")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "depth, axis, error",
    [("13", "1,1;0,1", "DepthTooLarge"), ("2", "1,1;0,1", "NotHyperbolic"), ("2", "2,1;1,2", "NotSL2")],
)
def test_svg_errors_come_in_order(capsys, depth, axis, error):
    # the depth is checked before the axis
    code, out, err = run(capsys, "svg", "--depth", depth, "--axis", axis)
    assert code == 3 and out == "" and err.startswith(f"error: {error}")
    assert err.count("\n") == 1


def test_svg_negative_depth_exit_2(capsys):
    code, out, err = run(capsys, "svg", "--depth", "-1")
    assert code == 2 and out == "" and "must be >= 0" in err


def test_bad_flags_exit_2(capsys):
    assert main(["svg", "--depth", "x"]) == 2
    assert main(["atlas", "--max-entry", "0"]) == 2
    assert main(["oracle", "2,1;1,1", "--bound", "-1"]) == 2
    # one past each cap; the caps themselves take seconds (README Limits)
    assert main(["atlas", "--max-entry", "6"]) == 2
    assert main(["oracle", "2,1;1,1", "--bound", "1001"]) == 2
    assert main(["conjugate", "1,0;0,1", "1,0;0,1", "--group", "psl"]) == 2
    assert main(["nonsense"]) == 2


@pytest.mark.parametrize("value", ["1_0", "+5", "٣"])
@pytest.mark.parametrize(
    "argv",
    [["svg", "--depth"], ["atlas", "--max-entry"], ["oracle", "2,1;1,1", "--bound"]],
    ids=["svg", "atlas", "oracle"],
)
def test_int_flags_follow_the_entry_grammar(capsys, argv, value):
    # int() would read these as 10, 5 and 3; argparse prints its usage
    # lines and then one error line
    code, out, err = run(capsys, *argv, value)
    assert code == 2 and out == ""
    (line,) = [line for line in err.splitlines() if "error:" in line]
    name = "_positive_int" if argv[0] == "atlas" else "_nonneg_int"
    assert line.endswith(f"invalid {name} value: {value!r}")


@pytest.mark.parametrize("digits", [4_000, 5_000, 10**5])
@pytest.mark.parametrize(
    "argv",
    [["svg", "--depth"], ["atlas", "--max-entry"], ["oracle", "2,1;1,1", "--bound"]],
    ids=["svg", "atlas", "oracle"],
)
def test_long_int_flag_gives_a_short_error(capsys, argv, digits):
    # past the int/str limit int() rejects the text; under it the value
    # parses, and is past the flag's cap or svg's depth limit
    code, out, err = run(capsys, *argv, "9" * digits)
    assert out == "" and len(err.encode()) < 300
    if digits > 4_300:
        assert code == 2 and "invalid" in err
    elif argv[0] == "svg":
        assert code == 3 and err.startswith("error: DepthTooLarge") and err.count("\n") == 1
    else:
        assert code == 2 and "must be within" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["classify", "--help"]) == 0


@pytest.mark.parametrize(
    "argv",
    [["classify", "1,0;0,1", "x" * 10**5], ["y" * 10**5]],
    ids=["unrecognized-argument", "unknown-command"],
)
def test_long_argparse_error_is_short(capsys, argv):
    # argparse's own messages echo whole arguments
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.encode()) < 300 and err.count("error:") == 1


_EMOJI = "\U0001F600" * 10**5  # four bytes each in UTF-8


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["classify", "1,0;0,1", _EMOJI], None),
        (["classify", "1,0;0,1", _EMOJI[:100]], None),  # under 150 characters
        (["classify", _EMOJI], None),
        (["svg", "--depth", _EMOJI], None),
        (["classify", "-" + _EMOJI + ","], None),
        (["svg", "--depth", "1", "--axis", _EMOJI], None),
        (["classify", "-"], _EMOJI + "\n"),
        (["classify", "\udcff" * 10**5], None),  # undecodable argv bytes
        (["classify", "-"], '["' + "\x7f" * 300 + '"]\n'),  # four bytes each in repr, quoted twice
    ],
    ids=[
        "unrecognized-argument",
        "short-unrecognized-argument",
        "matrix",
        "int-flag",
        "negative-matrix",
        "axis",
        "stdin-line",
        "surrogates",
        "escaped-stdin-line",
    ],
)
def test_non_ascii_error_lines_are_bounded_in_bytes(capsys, monkeypatch, argv, stdin):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.encode("utf-8", "surrogatepass")) <= 300 and err.count("error:") == 1


def test_non_ascii_negative_matrix_meets_the_grammar(capsys):
    # without the escape argparse reads it as an option and asks for a matrix
    code, out, err = run(capsys, "classify", "-١,0;0,-1")
    assert code == 2 and out == ""
    assert err.startswith("error: expected 'a,b;c,d' with integer entries")
    assert cli._escape_matrix_args(["-ofig,1.svg"]) == ["-ofig,1.svg"]  # an option and its value


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["series-check", "15,4;11,3", "-12,-5;-7,-3"],
            "sl2real: error: unrecognized arguments: -12,-5;-7,-3",
        ),
        (["real", "1,0;0,1", " -1,2", "x"], "sl2real: error: unrecognized arguments:  -1,2 x"),
        (["-1,2"], "sl2real: error: argument command: invalid choice: '-1,2'"),
        ([" real"], "sl2real: error: argument command: invalid choice: ' real'"),
        (
            ["conjugate", "2,1;1,1", "2,1;1,1", "--group", "-1,2"],
            "sl2real conjugate: error: argument --group: invalid choice: '-1,2'",
        ),
        (
            ["svg", "--depth", "-1,2"],
            "sl2real svg: error: argument --depth: invalid _nonneg_int value: '-1,2'",
        ),
        (["real", "-1,2"], "error: expected 'a,b;c,d' with integer entries, got '-1,2'"),
        (
            ["svg", "--depth", "1", "--axis", " -1,2"],
            "error: expected 'a,b;c,d' with integer entries, got ' -1,2'",
        ),
    ],
    ids=[
        "unrecognized", "unrecognized-spaced", "command", "spaced-command",
        "choice", "int-flag", "matrix", "axis",
    ],
)
def test_error_names_the_argument_as_given(capsys, argv, line):
    # the space that hides a negative matrix from argparse never shows;
    # an argument given with a space keeps it.  The choices are cut off:
    # how argparse lists them differs between Python versions
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1].split(" (choose from ")[0] == line


@pytest.mark.parametrize("argv", [["atlas", "--max-entry", "4"], ["classify", "-"]])
def test_closed_stdout_ends_quietly(tmp_path, argv):
    # far more output than a pipe holds, read one line, then close the pipe
    stdin = tmp_path / "stdin.jsonl"
    stdin.write_text('"2,1;1,1"\n' * 20_000)
    stderr = tmp_path / "stderr"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    with stdin.open() as fh, stderr.open("wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "sl2real.cli", *argv],
            stdin=fh, stdout=subprocess.PIPE, stderr=err, env=env,
        )
        try:
            assert proc.stdout.readline().startswith(b"{")
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
    assert stderr.read_bytes() == b""


@pytest.mark.parametrize("data", [b"\xff\n", b"[[1,0],[0,1]]\n\xfe\n"], ids=["first", "second"])
def test_undecodable_stdin_byte_is_one_error_line(data):
    # a UTF-8 locale decodes stdin strictly; the bad byte fails its own
    # line, so the lines before it are answered
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]),
        "PYTHONIOENCODING": "utf-8",
    }
    proc = subprocess.run(
        [sys.executable, "-m", "sl2real.cli", "real", "-"],
        input=data, capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.count(b"\n") == 1 and len(proc.stderr) < 300
    assert proc.stderr.startswith(b"error: bad input line") and b"Traceback" not in proc.stderr
    lines = proc.stdout.decode().splitlines()
    assert len(lines) == data.count(b"\n") - 1
    if lines:
        assert json.loads(lines[0])["is_real"] is True
