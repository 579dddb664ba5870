"""Seeded inputs for the four benchmark workloads.

Every matrix is built from a cycle the generator chose, so the checks
know the right answer without asking the package: a hyperbolic line is
sign * P W P^-1 with W the alternating U-first word of ``cycle`` and P
a random SL(2,Z) word.  Sizes are stratified (fixed counts per cycle
length, per decade of k and per decade of entry digits), so the cost
of a pass changes little from seed to seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from checks import ATLAS_RECORDS, odd_bipalindromic
from intmat import IDENTITY, conj, digits, mul, neg, u, v, word

# The generator parameters; README.md restates them with their reasons.
BATCH = {
    "lines": 10_000,
    "elliptic": 1_000,
    "parabolic": 1_000,
    "central": 20,
    "cycle_len": (2, 12),
    "exponent": (1, 9),
    "conjugator_len": (1, 4),
}
HARD = {
    # lines per cycle length, half bipalindromic and half not
    "long": {20: 240, 40: 180, 80: 80, 160: 40, 320: 20},
    # lines per decade of k, k log-uniform within the decade
    "k_decades": {2: 120, 3: 120, 4: 120},
    # lines with entry digits log-uniform in [100, 3000]
    "big_entries": 90,
    "big_digits": (100, 3000),
    "big_conjugator_exponent": 999,
}
ATLAS_MAX_ENTRY = 4
SVG = {"figures": 30, "depth": 12, "cycle_len": (2, 6), "exponent": (1, 9)}

# Entries stay far below Python's 4,300-digit int/str limit: at this
# commit one line over it aborts the whole stdin stream.
MAX_DIGITS = 3_100


@dataclass
class Item:
    """One generated matrix and what the checks expect of it."""

    m: tuple
    kind: str
    sign: int = 1
    cycle: tuple | None = None  # m == sign * P word(cycle) P^-1
    shift: int | None = None
    family: str = ""
    buckets: tuple = ()  # size buckets for the latency breakdown
    line: str = ""


@dataclass
class Call:
    """One in-process ``sl2real.cli.main`` call.

    ``timing`` says what one item is: "lines" (one stdin line, timed
    from read to write), "gaps" (one output record, timed from the
    previous write) or "whole" (the call is one item).
    """

    argv: list
    check: str
    items: list = field(default_factory=list)
    stdin: list | None = None
    timing: str = "lines"

    @property
    def size(self) -> int:
        if self.timing == "gaps":  # atlas: one item per record
            return ATLAS_RECORDS[int(self.argv[-1])]
        return len(self.items) or 1


@dataclass
class Workload:
    name: str
    calls: list
    families: dict


def _conjugator(rng: random.Random, length: int) -> tuple:
    p = IDENTITY
    letter = rng.randrange(2)
    for _ in range(length):
        e = rng.choice((-1, 1)) * rng.randint(1, 3)
        p = mul(p, u(e) if letter == 0 else v(e))
        letter ^= 1
    return p


def _big_conjugator(rng: random.Random, target_digits: int, emax: int) -> tuple:
    p = IDENTITY
    letter = rng.randrange(2)
    while digits(p) < target_digits:
        e = rng.choice((-1, 1)) * rng.randint(1, emax)
        p = mul(p, u(e) if letter == 0 else v(e))
        letter ^= 1
    return p


def _line(rng: random.Random, m: tuple) -> str:
    """One JSONL input line in one of the three accepted spellings."""
    a, b, c, d = m
    style = rng.randrange(3)
    if style == 0:
        return json.dumps([[a, b], [c, d]])
    if style == 1:
        return json.dumps([[str(a), str(b)], [str(c), str(d)]])
    return json.dumps(f"{a},{b};{c},{d}")


def _hyperbolic(rng, cycle, p, family="", buckets=()) -> Item:
    sign = rng.choice((-1, 1))
    m = conj(p, word(cycle))
    if sign < 0:
        m = neg(m)
    if digits(m) > MAX_DIGITS:
        raise ValueError(f"generated entry with {digits(m)} digits")
    return Item(m, "hyperbolic", sign=sign, cycle=tuple(cycle), family=family,
                buckets=buckets, line=_line(rng, m))


def _random_cycle(rng, n, lo, hi) -> tuple:
    return tuple(rng.randint(lo, hi) for _ in range(n))


def _bipalindromic_cycle(rng, n, lo, hi) -> tuple:
    """Two odd palindromes of total length n, at a random even rotation."""
    first = rng.randrange(1, n, 2)

    def pal(length):
        half = [rng.randint(lo, hi) for _ in range(length // 2)]
        return half + [rng.randint(lo, hi)] + half[::-1]

    exps = pal(first) + pal(n - first)
    r = rng.randrange(0, n, 2)
    return tuple(exps[r:] + exps[:r])


def batch_items(rng: random.Random) -> list:
    lo, hi = BATCH["exponent"]
    items = []
    rot_pi, rot3 = (0, 1, -1, 0), (0, 1, -1, 1)
    elliptic_reps = [rot_pi, neg(rot_pi), rot3, neg(rot3), mul(rot3, rot3), neg(mul(rot3, rot3))]
    for _ in range(BATCH["elliptic"]):
        rep = rng.choice(elliptic_reps)
        m = conj(_conjugator(rng, rng.randint(*BATCH["conjugator_len"])), rep)
        items.append(Item(m, "elliptic", line=_line(rng, m)))
    for _ in range(BATCH["parabolic"]):
        s = rng.choice((-1, 1)) * rng.randint(lo, hi)
        sign = rng.choice((-1, 1))
        m = conj(_conjugator(rng, rng.randint(*BATCH["conjugator_len"])), u(s))
        if sign < 0:
            m = neg(m)
        items.append(Item(m, "parabolic", sign=sign, shift=abs(s), line=_line(rng, m)))
    for i in range(BATCH["central"]):
        m = IDENTITY if i % 2 == 0 else neg(IDENTITY)
        items.append(Item(m, "central", sign=m[0], line=_line(rng, m)))
    lengths = range(BATCH["cycle_len"][0], BATCH["cycle_len"][1] + 1, 2)
    while len(items) < BATCH["lines"]:
        n = lengths[len(items) % len(lengths)]  # equal counts per length
        cycle = _random_cycle(rng, n, lo, hi)
        p = _conjugator(rng, rng.randint(*BATCH["conjugator_len"]))
        items.append(_hyperbolic(rng, cycle, p))
    rng.shuffle(items)
    return items


def _log_strata(rng, lo, hi, count) -> list:
    """``count`` values log-uniform in [lo, hi), one per equal slice of
    the log range, so the sorted sizes barely move between seeds."""
    a, b = math.log10(lo), math.log10(hi)
    return [10 ** (a + (b - a) * (i + rng.random()) / count) for i in range(count)]


def _cycle_with_verdict(rng, real: bool, n, lo, hi, head=()) -> tuple:
    """A cycle of length n (starting with ``head``) that is odd-bipalindromic
    exactly when ``real`` is set; rejection sampling for the random half."""
    if real and not head:
        return _bipalindromic_cycle(rng, n, lo, hi)
    while True:
        cycle = head + _random_cycle(rng, n - len(head), lo, hi)
        if odd_bipalindromic(cycle) == real:
            return cycle


def hard_items(rng: random.Random) -> list:
    families = {"long": [], "large_k": [], "big_entries": []}
    for n, count in HARD["long"].items():
        for j in range(count):
            cycle = _cycle_with_verdict(rng, j % 2 == 0, n, 1, 9)
            p = _conjugator(rng, rng.randint(1, 4))
            families["long"].append(_hyperbolic(rng, cycle, p, "long", (f"cycle_len_{n}",)))
    for dec, count in HARD["k_decades"].items():
        for j, k in enumerate(_log_strata(rng, 10**dec, 10 ** (dec + 1), count)):
            # (k, e) is always real; a length-4 cycle is real or not by choice
            n, real = ((2, True), (4, True), (4, False))[j % 3]
            cycle = _cycle_with_verdict(rng, real, n, 1, 9, head=(int(k),))
            p = _conjugator(rng, rng.randint(1, 4))
            families["large_k"].append(_hyperbolic(rng, cycle, p, "large_k", (f"k_1e{dec}",)))
    emax = HARD["big_conjugator_exponent"]
    min_digits = HARD["big_digits"][0]
    for j, target in enumerate(_log_strata(rng, *HARD["big_digits"], HARD["big_entries"])):
        cycle = _cycle_with_verdict(rng, j % 2 == 0, 4, 1, 9)
        half = (int(target) - digits(word(cycle))) // 2
        item = None
        # near the low end the product can come out a digit or two short
        while item is None or digits(item.m) < min_digits:
            item = _hyperbolic(rng, cycle, _big_conjugator(rng, half, emax), "big_entries")
            half += 1
        item.buckets = (f"digits_1e{len(str(digits(item.m))) - 1}",)
        families["big_entries"].append(item)
    # interleave the families so that every stretch of the stream mixes them
    items = [item for fam in families.values() for item in fam]
    rng.shuffle(items)
    return items


def svg_items(rng: random.Random) -> list:
    lo, hi = SVG["exponent"]
    items = []
    for _ in range(SVG["figures"]):
        n = rng.randrange(SVG["cycle_len"][0], SVG["cycle_len"][1] + 1, 2)
        p = _conjugator(rng, rng.randint(1, 3))
        items.append(_hyperbolic(rng, _random_cycle(rng, n, lo, hi), p))
    return items


def _text(m) -> str:
    return "{},{};{},{}".format(*m)


def stdin_lines(items) -> list:
    return [it.line + "\n" for it in items]


def make(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "batch_small":
        items = batch_items(rng)
        hyper = [it for it in items if it.kind == "hyperbolic"]
        calls = [
            Call(["classify", "-"], "classify", items, stdin_lines(items)),
            Call(["real", "-"], "real", items, stdin_lines(items)),
            Call(["cycle", "-"], "cycle", hyper, stdin_lines(hyper)),
        ]
        fams = {"elliptic": BATCH["elliptic"], "parabolic": BATCH["parabolic"],
                "central": BATCH["central"], "hyperbolic": len(hyper)}
        return Workload(name, calls, fams)
    if name == "hard_hyperbolic":
        items = hard_items(rng)
        fams = {}
        for it in items:
            fams[it.family] = fams.get(it.family, 0) + 1
        return Workload(name, [Call(["real", "-"], "real", items, stdin_lines(items))], fams)
    if name == "atlas":
        argv = ["atlas", "--max-entry", str(ATLAS_MAX_ENTRY)]
        return Workload(name, [Call(argv, "atlas", timing="gaps")], {"records": ATLAS_RECORDS[ATLAS_MAX_ENTRY]})
    if name == "svg":
        depth = str(SVG["depth"])
        calls = [Call(["svg", "--depth", depth, "--axis", _text(it.m)], "svg", [it], timing="whole")
                 for it in svg_items(rng)]
        return Workload(name, calls, {"figures": len(calls)})
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("batch_small", "hard_hyperbolic", "atlas", "svg")
