"""Plain-integer 2x2 matrices as (a, b, c, d) tuples.

The generators and the output checks use these instead of
``sl2real.Mat2`` so that a check never leans on the code it checks.
"""

from __future__ import annotations

IDENTITY = (1, 0, 0, 1)


def mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def det(x) -> int:
    return x[0] * x[3] - x[1] * x[2]


def inv(x):
    """Inverse of a det +-1 matrix."""
    s = det(x)
    if s not in (1, -1):
        raise ValueError(f"det {s} is not a unit")
    return (s * x[3], -s * x[1], -s * x[2], s * x[0])


def neg(x):
    return (-x[0], -x[1], -x[2], -x[3])


def u(n: int):
    return (1, n, 0, 1)


def v(n: int):
    return (1, 0, n, 1)


def word(exps) -> tuple:
    """U^e1 V^e2 U^e3 ... for the run lengths exps."""
    out = IDENTITY
    for i, e in enumerate(exps):
        out = mul(out, u(e) if i % 2 == 0 else v(e))
    return out


def conj(p, x):
    return mul(mul(p, x), inv(p))


def digits(x) -> int:
    """Decimal digits of the largest entry."""
    return len(str(max(abs(e) for e in x)))


def from_json(rows) -> tuple:
    """[[a, b], [c, d]] of decimal strings as output by the CLI."""
    (a, b), (c, d) = rows
    return (int(a), int(b), int(c), int(d))
