"""Self-tests for the output checks.

Each check must pass genuine CLI output and flag a corrupted copy of
it.  These run at the start of every benchmark run, so a check that
has stopped catching errors makes the run incorrect.
"""

from __future__ import annotations

import copy
import json
import random

import checks
import workloads
from harness import run_call

Call = workloads.Call


def _set(path, value):
    def corrupt(rec):
        node = rec
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
        return rec

    return corrupt


def _bump(s):
    return str(int(s) + 1)


def _rotate_one(word):
    return word[1:] + word[:1]


# per check: corruptions as (description, applies to item?, function)
CORRUPTIONS = {
    "classify": [
        ("kind", lambda it: True, _set(["kind"], "elliptic!")),
        ("cycle entry", lambda it: it.kind == "hyperbolic", _set(["cycle", 0], _bump)),
        ("sign", lambda it: it.kind in ("parabolic", "hyperbolic"), _set(["sign"], lambda s: -s)),
        ("shift", lambda it: it.kind == "parabolic", _set(["shift"], _bump)),
        ("trace", lambda it: it.kind == "elliptic", _set(["trace"], lambda t: t + 3)),
    ],
    "real": [
        ("verdict", lambda it: True, _set(["is_real"], lambda r: not r)),
        ("c_plus entry", lambda it: checks.expected_real(it), _set(["factorization", "c_plus", 0, 1], _bump)),
        ("c_minus entry", lambda it: checks.expected_real(it), _set(["factorization", "c_minus", 1, 0], _bump)),
        ("kind label", lambda it: checks.expected_real(it),
         _set(["factorization", "kind_plus"], lambda k: "exchange" if k == "diagonal" else "diagonal")),
        ("dropped factorization", lambda it: checks.expected_real(it), _set(["factorization"], None)),
    ],
    "cycle": [
        ("odd rotation of the word", lambda it: len(set(it.cycle)) > 1, _set(["word"], _rotate_one)),
        ("conjugator entry", lambda it: True, _set(["conjugator", 0, 0], _bump)),
        ("sign", lambda it: True, _set(["sign"], lambda s: -s)),
        ("cycle entry", lambda it: True, _set(["cycle", 1], _bump)),
    ],
    "atlas_record": [
        ("verdict", lambda rec: True, _set(["is_real"], lambda r: not r)),
        ("matrix entry", lambda rec: True, _set(["matrix", 1, 0], _bump)),
    ],
}


def _pick_items():
    items = workloads.batch_items(random.Random("selftest"))
    picked = {}
    for it in items:
        key = (it.kind, checks.expected_real(it))
        picked.setdefault(key, it)
    return list(picked.values())


def _expect(failures, label, problems, want_flagged):
    if bool(problems) != want_flagged:
        state = "missed" if want_flagged else f"rejected genuine output: {problems}"
        failures.append(f"{label}: {state}")


def _stream_checks(main, failures):
    items = _pick_items()
    hyper = [it for it in items if it.kind == "hyperbolic"]
    for check, its in (("classify", items), ("real", items), ("cycle", hyper)):
        res = run_call(main, Call([check, "-"], check, its, workloads.stdin_lines(its)))
        if res.error:
            failures.append(f"{check}: {res.error}")
        fn = getattr(checks, "check_" + check)
        for it, line in zip(its, res.lines):
            rec = json.loads(line)
            _expect(failures, f"{check} {it.kind}", fn(it, rec), False)
            for what, applies, corrupt in CORRUPTIONS[check]:
                if applies(it):
                    bad = corrupt(copy.deepcopy(rec))
                    _expect(failures, f"{check} {it.kind} {what}", fn(it, bad), True)


def _atlas_checks(main, failures):
    atlas = run_call(main, Call(["atlas", "--max-entry", "3"], "atlas", timing="gaps"))
    _expect(failures, "atlas count at max-entry 3", checks.check_atlas_output(atlas.lines, 3), False)
    _expect(failures, "atlas truncated", checks.check_atlas_output(atlas.lines[:-1], 3), True)
    fake = ["{}"] * checks.ATLAS_RECORDS[4]
    _expect(failures, "atlas digest", checks.check_atlas_output(fake, 4), True)
    for line in atlas.lines:
        _expect(failures, "atlas record", checks.check_atlas_record(None, json.loads(line)), False)
    hyperbolic = [json.loads(line) for line in atlas.lines if '"hyperbolic"' in line]
    for rec in (hyperbolic[0], hyperbolic[-1]):
        for what, _, corrupt in CORRUPTIONS["atlas_record"]:
            bad = corrupt(copy.deepcopy(rec))
            _expect(failures, f"atlas record {what}", checks.check_atlas_record(None, bad), True)


def _svg_checks(main, failures):
    depth = 3
    svg = run_call(main, Call(["svg", "--depth", str(depth), "--axis", "5,2;2,1"], "svg", timing="whole"))
    doc = svg.lines[0] if svg.lines else ""
    _expect(failures, "svg", checks.check_svg(doc, depth), False)
    lines = doc.split("\n")
    first_arc = next((i for i, line in enumerate(lines) if 'class="arc"' in line), 0)
    dropped = "\n".join(lines[:first_arc] + lines[first_arc + 1:])
    _expect(failures, "svg missing arc", checks.check_svg(dropped, depth), True)
    _expect(failures, "svg truncated", checks.check_svg(doc[: len(doc) // 2], depth), True)


def run(main) -> list:
    """Failures of the self-tests; empty when every check behaves."""
    failures = []
    for part in (_stream_checks, _atlas_checks, _svg_checks):
        try:
            part(main, failures)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            failures.append(f"{part.__name__}: unusable CLI output: {type(exc).__name__}: {exc}")
    return failures
