"""Output checks that share no code with ``sl2real``.

Each check takes the generator's record of what it built and one parsed
output record, and returns a list of problems (empty when the record is
right).  Products are re-multiplied in plain integers (``intmat``), the
realness verdict comes from this module's own palindrome-split test,
and cycles are compared with the cycle the generator chose.
"""

from __future__ import annotations

import hashlib
import xml.parsers.expat
from math import gcd

from intmat import IDENTITY, conj, det, from_json, mul, neg, word

# Records printed by `atlas --max-entry N`, and the sha256 of the
# newline-joined output at the commit that introduced this benchmark;
# the output must stay byte-identical.
ATLAS_RECORDS = {3: 331, 4: 18_033}
ATLAS_DIGEST = {
    3: "247af299d45f2718f598330151ef9f650669ef27f06de7e4c5d8b0012ce01a81",
    4: "7cbad4ee57539c008adef57a0db6eaae7091cf74884ed7fef1a7e2e339170fd1",
}


def odd_bipalindromic(cycle) -> bool:
    """Does some rotation of ``cycle`` split into two odd palindromes?

    Blocks c[0..k] and c[k+1..n-1] are both palindromes exactly when c
    is fixed by the reflection i -> k - i (mod n); the first block has
    odd length k + 1 when k is even, and then so does the second.
    """
    n = len(cycle)
    return any(
        all(cycle[i] == cycle[(k - i) % n] for i in range(n)) for k in range(0, n, 2)
    )


def least_rotation(seq) -> tuple:
    seq = tuple(seq)
    return min(seq[r:] + seq[:r] for r in range(len(seq)))


def equal_up_to_even_rotation(a, b) -> bool:
    a, b = tuple(a), tuple(b)
    return len(a) == len(b) and any(a[r:] + a[:r] == b for r in range(0, len(a), 2))


def _ints(strs) -> tuple:
    return tuple(int(s) for s in strs)


def check_factorization(m, fac) -> list:
    if not isinstance(fac, dict):
        return [f"missing factorization for {m}"]
    cp, cm = from_json(fac["c_plus"]), from_json(fac["c_minus"])
    problems = []
    for name, j in (("c_plus", cp), ("c_minus", cm)):
        if det(j) != -1 or mul(j, j) != IDENTITY:
            problems.append(f"{name} is not an involution of det -1")
        diagonal = j[0] % 2 == 1 and j[3] % 2 == 1 and j[1] % 2 == 0 and j[2] % 2 == 0
        if fac["kind_" + name[2:]] != ("diagonal" if diagonal else "exchange"):
            problems.append(f"{name} has the wrong kind")
    if mul(cp, cm) != m:
        problems.append("c_plus @ c_minus differs from the input")
    return problems


def expected_real(item) -> bool:
    return item.kind != "hyperbolic" or odd_bipalindromic(item.cycle)


def check_classify(item, rec) -> list:
    if rec.get("kind") != item.kind:
        return [f"kind {rec.get('kind')} != {item.kind}"]
    problems = []
    if item.kind in ("central", "parabolic", "hyperbolic") and rec.get("sign") != item.sign:
        problems.append(f"sign {rec.get('sign')} != {item.sign}")
    if item.kind == "elliptic" and rec.get("trace") != item.m[0] + item.m[3]:
        problems.append("wrong trace")
    if item.kind == "parabolic":
        a, b, c, d = item.m
        s = item.sign
        if rec.get("shift") != str(item.shift) or gcd(a - s, b, c, d - s) != item.shift:
            problems.append(f"shift {rec.get('shift')} != {item.shift}")
    if item.kind == "hyperbolic":
        if _ints(rec.get("cycle", ())) != least_rotation(item.cycle):
            problems.append("cycle differs from the generated one up to rotation")
    return problems


def check_real(item, rec) -> list:
    want = expected_real(item)
    if rec.get("is_real") is not want:
        return [f"is_real {rec.get('is_real')} != {want}"]
    if not want:
        return [] if rec.get("factorization") is None else ["factorization for a non-real matrix"]
    return check_factorization(item.m, rec.get("factorization"))


def check_cycle(item, rec) -> list:
    problems = []
    exps = _ints(rec["word"])
    if rec.get("sign") != item.sign:
        problems.append(f"sign {rec.get('sign')} != {item.sign}")
    if not equal_up_to_even_rotation(exps, item.cycle):
        problems.append("word is not an even rotation of the generated cycle")
    if _ints(rec["cycle"]) != least_rotation(item.cycle):
        problems.append("cycle is not the least rotation")
    c = from_json(rec["conjugator"])
    if det(c) != 1:
        problems.append("conjugator is not in SL(2,Z)")
    else:
        recon = conj(c, word(exps))
        if (recon if item.sign == 1 else neg(recon)) != item.m:
            problems.append("conjugator identity fails")
    if rec.get("verified") is not True:
        problems.append("not marked verified")
    return problems


def check_atlas_record(_item, rec) -> list:
    m = from_json(rec["matrix"])
    t = m[0] + m[3]
    kind = rec["class"]["kind"]
    want_kind = ("central" if m in (IDENTITY, neg(IDENTITY)) else "elliptic" if abs(t) < 2
                 else "parabolic" if abs(t) == 2 else "hyperbolic")
    if kind != want_kind:
        return [f"kind {kind} != {want_kind}"]
    real = True
    if kind == "hyperbolic":
        cyc = _ints(rec["cycle"])
        if cyc != least_rotation(cyc) or m != (word(cyc) if t > 0 else neg(word(cyc))):
            return ["matrix is not the word of its least-rotation cycle"]
        real = odd_bipalindromic(cyc)
    if rec["is_real"] is not real:
        return [f"is_real {rec['is_real']} != {real}"]
    if not real:
        return [] if rec["factorization"] is None else ["factorization for a non-real matrix"]
    return check_factorization(m, rec["factorization"])


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_atlas_output(lines, max_entry: int) -> list:
    problems = []
    if len(lines) != ATLAS_RECORDS[max_entry]:
        problems.append(f"{len(lines)} records, want {ATLAS_RECORDS[max_entry]}")
    if max_entry in ATLAS_DIGEST and sha256_lines(lines) != ATLAS_DIGEST[max_entry]:
        problems.append("output digest differs from the recorded one")
    return problems


def check_svg(doc: str, depth: int) -> list:
    counts = {"svg": 0, "arc": 0, "axis": 0, "tri": 0}

    def start(tag, attrs):
        if tag == "svg":
            counts["svg"] += 1
        elif tag == "path":
            cls = attrs.get("class", "")
            key = "tri" if cls.startswith("tri-") else cls
            if key in counts:
                counts[key] += 1

    parser = xml.parsers.expat.ParserCreate()
    parser.StartElementHandler = start
    try:
        parser.Parse(doc, True)
    except xml.parsers.expat.ExpatError as exc:
        return [f"malformed XML: {exc}"]
    problems = []
    want_arcs = 2 ** (depth + 2) - 3
    if counts["arc"] != want_arcs:
        problems.append(f"{counts['arc']} arcs, want {want_arcs}")
    if counts["svg"] != 1 or counts["axis"] != 1 or counts["tri"] < 1:
        problems.append(f"element counts {counts}")
    return problems
