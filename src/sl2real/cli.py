"""Command line front end.

JSON on stdout, one object per input; diagnostics on stderr.  Exit
status 0 on success (including negative verdicts like a non-real
matrix), 2 on argument or matrix syntax errors (a capped flag past its
cap among them), 3 on domain errors (wrong determinant, wrong trace
kind, too deep a figure).

Matrix arguments use the compact "a,b;c,d" grammar.  The subcommands
classify, cycle, and real also accept "-" to stream JSONL matrices
([[a,b],[c,d]] rows of ints or decimal strings, or the compact form as
a JSON string) from standard input.  Integers in
output objects are decimal strings wherever they can grow without
bound; signs, traces, and flags stay plain JSON numbers.

The library objects carry no JSON: every record is spelled as JSON text
by the writers here, and the json module only decodes standard input,
so only "-" imports it.  The oracle and render modules are likewise
imported by their own commands alone.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
from collections.abc import Callable, Iterator, Sequence

from .classify import _ELLIPTIC_REPS, MatClass, classify
from .errors import MatrixParseError, Sl2RealError
from .farey import _times_word, cutting_cycle
from .mat2 import _INTEGER, IDENTITY, NEG_IDENTITY, Mat2, _quote, _unchecked_mat2, v_pow
from .realness import (
    RealFactorization,
    _certified,
    _factorization,
    _first_block,
    _split_mirror,
    conjugacy_test,
    factor_real,
)

__all__ = ["main"]


def _input_matrices(arg: str) -> Iterator[Mat2]:
    if arg == "-":
        import json

        if isinstance(sys.stdin, io.TextIOWrapper):
            # a byte stdin's encoding cannot decode becomes a lone
            # surrogate, as under the C locale, so it fails its own line
            # (exit 2), not the decoding of the whole chunk it was read in
            sys.stdin.reconfigure(errors="surrogateescape")
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                yield Mat2.from_text(obj) if isinstance(obj, str) else Mat2.from_json_obj(obj)
            except (ValueError, RecursionError) as exc:
                # JSONDecodeError, MatrixParseError, the int/str limit, or
                # nesting too deep for the json parser
                raise MatrixParseError(f"bad input line {_quote(line)}: {exc}") from None
    else:
        yield Mat2.from_text(arg)


# The records are written as JSON text here, with no encoder: every value
# is an int, a JSON literal, or a fixed ASCII word (a kind name, a
# RealStructureKind value, an argparse choice), so nothing needs escaping.
# Integers that can grow without bound are written as decimal strings.


def _strings_text(values: Sequence[int]) -> str:
    """A JSON list of decimal strings: a cycle or a word."""
    return '["' + '","'.join(map(str, values)) + '"]' if values else "[]"


def _matrix_text(a: int, b: int, c: int, d: int) -> str:
    """Rows of decimal strings, which keep every digit.  Input is capped
    at the int/str limit, a certificate is not, and one past it is a
    domain error."""
    try:
        return f'[["{a}","{b}"],["{c}","{d}"]]'
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise Sl2RealError(f"matrix entries over {limit} digits cannot be printed") from None


def _class_text(c: MatClass) -> str:
    """The invariants of c, without its conjugator, which is a witness."""
    text = f'{{"kind":"{c.kind}"'
    if c.sign is not None:
        text += f',"sign":{c.sign}'
    if c.trace is not None:
        text += f',"trace":{c.trace}'
    if c.shift is not None:
        text += f',"shift":"{c.shift}"'
    if c.cycle is not None:
        text += f',"cycle":{_strings_text(c.cycle.canonical)}'
    return text + "}"


def _factorization_text(fac: RealFactorization) -> str:
    p, m = fac.c_plus, fac.c_minus
    return (
        f'{{"c_plus":{_matrix_text(p.a, p.b, p.c, p.d)},'
        f'"c_minus":{_matrix_text(m.a, m.b, m.c, m.d)},'
        f'"kind_plus":"{fac.kind_plus.value}","kind_minus":"{fac.kind_minus.value}"}}'
    )


def _cycle_view(m: Mat2) -> str:
    cyc, sign, q = cutting_cycle(m)
    return (
        f'{{"cycle":{_strings_text(cyc.canonical)},"sign":{sign},'
        f'"conjugator":{_matrix_text(q.a, q.b, q.c, q.d)},'
        f'"word":{_strings_text(cyc.exponents)},"verified":true}}'
    )


def _real_view(fac: RealFactorization | None) -> str:
    if fac is None:
        return '{"is_real":false,"factorization":null}'
    return f'{{"is_real":true,"factorization":{_factorization_text(fac)}}}'


# the stream commands: name -> (help, view of one matrix as JSON text)
_VIEWS: dict[str, tuple[str, Callable[[Mat2], str]]] = {
    "classify": ("trace trichotomy with invariants", lambda m: _class_text(classify(m))),
    "cycle": ("cutting cycle of a hyperbolic matrix", _cycle_view),
    "real": ("factor into two real structures", lambda m: _real_view(factor_real(m))),
}


def _cmd_view(args) -> int:
    view = _VIEWS[args.command][1]
    for m in _input_matrices(args.matrix):
        print(view(m))
    return 0


def _cmd_conjugate(args) -> int:
    a = Mat2.from_text(args.matrix_a)
    b = Mat2.from_text(args.matrix_b)
    verdict = "true" if conjugacy_test(a, b, args.group) else "false"
    print(f'{{"conjugate":{verdict},"group":"{args.group}"}}')
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import brute_force_conjugator, brute_force_factor

    m = Mat2.from_text(args.matrix)
    # both searches check their witness before returning it
    if args.mode == "factor":
        pair = brute_force_factor(m, args.bound)
        witness = (
            "null"
            if pair is None
            else "[" + ",".join([_matrix_text(j.a, j.b, j.c, j.d) for j in pair]) + "]"
        )
    else:
        q = brute_force_conjugator(m, args.bound)
        witness = "null" if q is None else _matrix_text(q.a, q.b, q.c, q.d)
    print(
        f'{{"query":"{args.mode}","matrix":{_matrix_text(m.a, m.b, m.c, m.d)},'
        f'"bound":{args.bound},"witness":{witness},"verified":true}}'
    )
    return 0


def _necklaces(n: int, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Necklaces (least rotations) of length n over 1..k, in lexicographic
    order, each with its least period p, by Fredricksen-Kessler-Maiorana
    in constant amortized time each (Ruskey, Savage and Wang, J.
    Algorithms 13, 1992): the next prenecklace raises the last entry
    below k, at position p, and repeats the first p entries; it is a
    necklace when its period p divides n."""
    a, p = [1] * n, 1
    while True:
        if n % p == 0:
            yield tuple(a), p
        p = n
        while p and a[p - 1] == k:
            p -= 1
        if not p:
            return
        a[p - 1] += 1
        a = (a[:p] * (n // p + 1))[:n]


def _atlas_record(matrix: str, cls: str, factorization: str, cycle: str) -> str:
    """One atlas line from the JSON text of its parts; "null" is no
    factorization (not real) or no cycle (not hyperbolic)."""
    real = "false" if factorization == "null" else "true"
    return (
        f'{{"matrix":{matrix},"class":{cls},"is_real":{real},'
        f'"factorization":{factorization},"cycle":{cycle}}}\n'
    )


def _cmd_atlas(args) -> int:
    """One record per conjugacy class, written as text.

    The central, elliptic and parabolic representatives are classified
    once each, and _factorization factors them from that class.  A
    hyperbolic record is read off its necklace (e1, ..., e2n) with no
    Gauss walk.  The word W = U^e1 V^e2 ... fixes
    x = [e1; e2, ..., e2n, e1, ...], the attracting point of both W and
    -W, and a purely periodic x is reduced (Galois), so cutting_cycle's
    walk would enter the period at its first digit, with conjugator I.
    That period is the necklace's least period, and a necklace, the least
    of its rotations, is also the least of its even ones.  So
    classify(sign * W) has the necklace as its cycle, printed as it
    stands, and I as its conjugator, and the cycle certificate
    sign * W == rep holds by construction.  The cycle's root is the
    necklace's first p entries, 2p when p is odd.

    So each necklace is asked only what its records need: the split of
    its root, decided before the word is multiplied out, so that
    --real-only drops a non-real necklace before its product, and, when
    there is a split, the mirror c_plus = W1 D (conjugator I).  W and
    -W share the cycle: W is c_plus @ c_minus with c_minus = c_plus @ W,
    and -W is (-c_plus) @ c_minus, as (-c_plus)(-W) = c_plus W.  Both
    pairs are checked by RealFactorization, and a failed check raises
    RuntimeError before either record is written.
    """
    real_only, write = args.real_only, sys.stdout.write
    small = [IDENTITY, NEG_IDENTITY, *_ELLIPTIC_REPS.values()]
    for n in range(1, args.max_entry + 1):
        small += (v_pow(n), -v_pow(n))
    for rep in small:
        cls = classify(rep)
        fac = _factorization(cls, rep)
        if fac is None and real_only:
            continue
        fac_text = "null" if fac is None else _factorization_text(fac)
        matrix = _matrix_text(rep.a, rep.b, rep.c, rep.d)
        write(_atlas_record(matrix, _class_text(cls), fac_text, "null"))
    for length in range(2, 2 * args.max_entry + 1, 2):
        for exps, p in _necklaces(length, args.max_entry):  # one per cyclic word
            root = exps[: 2 * p if p % 2 else p]
            first = _first_block(root)
            if first is None and real_only:
                continue
            a, b, c, d = _times_word(1, 0, 0, 1, exps)
            if first is None:
                texts = ("null", "null")
            else:
                c_plus = _unchecked_mat2(*_split_mirror(1, root, first))
                c_minus = c_plus @ _unchecked_mat2(a, b, c, d)
                texts = (
                    _factorization_text(_certified(c_plus, c_minus)),
                    _factorization_text(_certified(-c_plus, c_minus)),
                )
            cycle = _strings_text(exps)
            for sign, fac_text in zip((1, -1), texts):
                # what _class_text writes for sign * W, on the necklace's cycle text
                cls_text = f'{{"kind":"hyperbolic","sign":{sign},"cycle":{cycle}}}'
                matrix = _matrix_text(sign * a, sign * b, sign * c, sign * d)
                write(_atlas_record(matrix, cls_text, fac_text, cycle))
    return 0


def _cmd_svg(args) -> int:
    from .render import render_farey

    axis = None if args.axis is None else Mat2.from_text(args.axis)
    doc = render_farey(args.depth, axis)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(doc + "\n")
        except (OSError, ValueError) as exc:  # ValueError: a NUL or a lone surrogate
            reason = exc.strerror if isinstance(exc, OSError) else exc
            print(f"error: cannot write {_quote(args.output)}: {reason}", file=sys.stderr)
            return 2
    else:
        print(doc)
    return 0


# Caps on the flags whose work grows without a bound of its own: atlas
# --max-entry 6 would print 375,336,811 records, and the oracle's
# searches walk boxes whose sides grow with the bound (README, Limits).
_MAX_ATLAS_ENTRY = 5
_MAX_ORACLE_BOUND = 1_000


def _int_at_least(low: int, name: str, high: int | None = None) -> Callable[[str], int]:
    def parse(text: str) -> int:
        text = _given(text)
        # the grammar of a matrix entry: int() alone would also take
        # "1_0", "+5" and non-ASCII digits
        try:
            if not _INTEGER.match(text):
                raise ValueError
            value = int(text)  # fails past the int/str limit
        except ValueError:  # argparse's own message would hold all of text
            raise argparse.ArgumentTypeError(f"invalid {name} value: {_quote(text)}") from None
        if high is not None and not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be within {low}..{high}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value

    return parse


# argparse's own messages hold whole arguments ("unrecognized arguments:
# ...", "invalid choice: ..."); past this many bytes one is cut by _quote,
# so with the usage lines an error stays under 300 bytes.
_MAX_PARSER_MESSAGE = 150


class _Parser(argparse.ArgumentParser):
    """ArgumentParser with bounded error lines; subparsers share its class."""

    def error(self, message: str):
        message = _ESCAPED_CHOICE.sub(r"\1", message)
        short = len(message.encode("utf-8", "surrogatepass")) <= _MAX_PARSER_MESSAGE
        super().error(message if short else _quote(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sl2real",
        description=(
            "Conjugacy invariants of SL(2,Z) matrices, factorization into "
            "two orientation-reversing involutions, and Farey tessellation "
            "figures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, _) in _VIEWS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("matrix", type=_given, help='matrix "a,b;c,d", or - for JSONL on stdin')
        p.set_defaults(func=_cmd_view)

    p = sub.add_parser("conjugate", help="conjugacy test for two matrices")
    p.add_argument("matrix_a", type=_given)
    p.add_argument("matrix_b", type=_given)
    p.add_argument("--group", choices=("gl", "sl"), default="gl")
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("oracle", help="bounded brute-force cross-checks")
    p.add_argument("matrix", type=_given)
    p.add_argument(
        "--bound", type=_int_at_least(0, "_nonneg_int", _MAX_ORACLE_BOUND), required=True
    )
    p.add_argument("--mode", choices=("factor", "conjugator"), default="factor")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("atlas", help="JSONL atlas of conjugacy classes")
    p.add_argument(
        "--max-entry", type=_int_at_least(1, "_positive_int", _MAX_ATLAS_ENTRY), required=True
    )
    p.add_argument("--real-only", action="store_true")
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("svg", help="Farey tessellation figure")
    p.add_argument("--depth", type=_int_at_least(0, "_nonneg_int"), required=True)
    p.add_argument("--axis", type=_given, help='hyperbolic matrix "a,b;c,d" to overlay')
    p.add_argument("-o", "--output", type=_given, help="write the SVG here instead of stdout")
    p.set_defaults(func=_cmd_svg)

    return parser


# Matrices like "-12,-5;-7,-3" would otherwise be eaten as option
# strings; a leading space hides them from argparse.  Options start "--"
# or "-" and a letter, so "-ofile,name.svg" stays an option.  An argument
# that already starts with a space gets one more, so every argument that
# starts with one was escaped, and the escape is undone exactly: each
# value goes through `_given`, argparse's "invalid choice" message drops
# the space after its quote, and main names unrecognized arguments.
_MATRIXISH = re.compile(r"-(?![-A-Za-z])[^,]*,")
_ESCAPED_CHOICE = re.compile(r"(invalid choice: ['\"]?) ")


def _escape_matrix_args(argv: list[str]) -> list[str]:
    return [" " + tok if tok[:1] == " " or _MATRIXISH.match(tok) else tok for tok in argv]


def _given(arg: str) -> str:
    """An argument as given, before `_escape_matrix_args`."""
    return arg[1:] if arg[:1] == " " else arg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        # parse_args would name the extras escaped
        args, extras = parser.parse_known_args(_escape_matrix_args(argv))
        if extras:
            parser.error("unrecognized arguments: " + " ".join(map(_given, extras)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
        return code
    except BrokenPipeError:
        # nothing more can reach the reader; the interpreter's final flush
        # of stdout goes to the null device instead of failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except MatrixParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Sl2RealError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
