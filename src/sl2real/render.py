"""Farey tessellation figures and SVG rendering.

The tessellation of the hyperbolic plane by ideal triangles is grown by
mediant bisection: two boundary fractions m1/n1, m2/n2 are joined by a
geodesic exactly when m1*n2 - m2*n1 = +-1, and each round inserts the
mediant of every frontier pair (the right half plus its mirror image).
Every decision is exact: endpoints, arc counts, the crossed triangles,
their labels and their order, and for each drawn geodesic the choice of
line or arc and its sweep are integer tests.  Floats only print the
coordinates and radii of the finished SVG.

Fractions are (m, n) pairs in lowest terms with n >= 0; infinity is
(1, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import DepthTooLarge
from .farey import Surd, attracting_fixed_point
from .mat2 import Mat2

__all__ = [
    "MAX_DEPTH",
    "FareyFigure",
    "AxisOverlay",
    "farey_figure",
    "render_farey",
    "render_svg",
]

MAX_DEPTH = 12

Frac = tuple[int, int]
Tri = tuple[Frac, Frac, Frac]


@dataclass(frozen=True)
class AxisOverlay:
    """Translation axis of a hyperbolic matrix across the tessellation.

    Crossed triangles are listed in travel order from the repelling to
    the attracting fixed point, each labeled "L" or "R" by the side of
    the axis holding the triangle's lone vertex.  Order and labels come
    from exact comparisons of the vertices with the fixed points.
    """

    attracting: Surd
    repelling: Surd
    crossings: tuple[tuple[Tri, str], ...]


@dataclass(frozen=True)
class FareyFigure:
    depth: int
    arcs: tuple[tuple[Frac, Frac], ...]
    triangles: tuple[Tri, ...]
    axis: AxisOverlay | None


def _is_between(frac: Frac, att: Surd, rep: Surd) -> bool:
    # strictly inside the finite interval with surd endpoints; infinity
    # always lies on the outer arc
    m, n = frac
    if n == 0:
        return False
    return att.compare_rational(m, n) != rep.compare_rational(m, n)


def _rank(frac: Frac, inside: bool, rep: Surd, s: int) -> tuple[int, Fraction]:
    """Position of a vertex along its boundary arc, from rep toward att.

    Travel from rep to att runs in direction s along the fixed interval.
    The outer arc leaves rep the other way, passes infinity and comes
    back to att.
    """
    m, n = frac
    if n == 0:
        return (1, Fraction(0))
    x = s * Fraction(m, n)
    if inside:
        return (0, x)
    return (0 if rep.compare_rational(m, n) == s else 2, -x)


def _axis_overlay(axis_matrix: Mat2, depth: int) -> AxisOverlay:
    """Crossed triangles in travel order, found by descent.

    A triangle grown under the frontier arc (u, v), and every triangle
    below it, has its vertices in the closed arc [u, v].  If no fixed
    point lies in the open arc, they are all on one side of the axis.  So
    each half is walked down only through arcs holding att or rep, at
    most two per round: O(depth) exact comparisons in all.
    """
    att = attracting_fixed_point(axis_matrix)
    rep = att.conjugate()
    s = 1 if att.q > 0 else -1  # att - rep = 2*sqrt(d)/q

    def side(x: Surd, frac: Frac, h: int) -> int:
        # sign of x - frac in half h, frac mirrored when h = -1
        m, n = frac
        return x.compare_rational(h * m, n) if n else -h

    candidates: list[Tri] = []
    frontier = [((0, 1), (1, 0), 1), ((0, 1), (1, 0), -1)]
    for _ in range(depth):
        nxt = []
        for u, v, h in frontier:
            if any(side(x, u, h) != side(x, v, h) for x in (att, rep)):
                w = (u[0] + v[0], u[1] + v[1])
                candidates.append(tuple((h * m, n) if n else (1, 0) for m, n in (u, w, v)))
                nxt += [(u, w, h), (w, v, h)]
        frontier = nxt
    ordered = []
    for tri in candidates:
        between = [_is_between(v, att, rep) for v in tri]
        count = sum(between)
        if count == 0 or count == 3:
            continue
        # boundary points outside the fixed interval sit on the left of
        # rightward travel, inside on the right; mirrored when the axis
        # runs leftward
        label = "R" if (count == 1) == (s == 1) else "L"
        # the crossed edges never meet inside the disk, so they run in
        # the order of their ends along both boundary arcs; the axis
        # leaves a triangle by the edge joining its latest vertex on
        # each side
        inner = max(_rank(v, True, rep, s) for v, b in zip(tri, between) if b)
        outer = max(_rank(v, False, rep, s) for v, b in zip(tri, between) if not b)
        ordered.append(((inner, outer), tri, label))
    ordered.sort(key=lambda item: item[0])
    return AxisOverlay(att, rep, tuple((tri, label) for _, tri, label in ordered))


def farey_figure(depth: int, axis_matrix: Mat2 | None = None) -> FareyFigure:
    """Tessellation after `depth` mediant rounds, optionally with an axis.

    Arc count is 2^(depth+2) - 3 and triangle count 2^(depth+1) - 2.
    Each frontier entry carries the mirror images of its ends, so every
    mirrored vertex is one tuple shared by its arcs and triangles.
    """
    if depth < 0 or depth > MAX_DEPTH:
        raise DepthTooLarge(f"depth must be within 0..{MAX_DEPTH}, got {depth}")
    base = ((0, 1), (1, 0))
    arcs: list[tuple[Frac, Frac]] = [base]
    triangles: list[Tri] = []
    frontier = [base + base]  # 0 and infinity are their own mirrors
    for _ in range(depth):
        nxt = []
        for u, v, mu, mv in frontier:
            w = (u[0] + v[0], u[1] + v[1])
            mw = (-w[0], w[1])  # w is finite
            arcs += [(u, w), (w, v), (mu, mw), (mw, mv)]
            triangles += [(u, w, v), (mu, mw, mv)]
            nxt += [(u, w, mu, mw), (w, v, mw, mv)]
        frontier = nxt
    axis = None if axis_matrix is None else _axis_overlay(axis_matrix, depth)
    return FareyFigure(depth, tuple(arcs), tuple(triangles), axis)


# -- SVG output ------------------------------------------------------

_TINTS = {"L": "#9ecae1", "R": "#fdae6b"}


def _point(frac: Frac) -> str:
    """SVG coordinates of a boundary point, y pointing down.

    The map x -> (2x/(x^2+1), (x^2-1)/(x^2+1)) puts 0 south, infinity
    north and 1 east.  Any integer point (m, n) of x = m/n will do, and
    the int divisions cannot overflow.
    """
    m, n = frac
    s = m * m + n * n
    return f"{2 * m * n / s:.6f} {-((m * m - n * n) / s):.6f}"


class _Points(dict):
    """`_point` strings of one figure, each vertex formatted once."""

    def __missing__(self, frac: Frac) -> str:
        text = self[frac] = _point(frac)
        return text


def _geodesic(f1: Frac, f2: Frac, end: str) -> str:
    """Path command along the geodesic from f1 to f2 = `end` in SVG.

    With m_i/n_i = tan(t_i), the ends lie 2*|t1 - t2| apart on the
    boundary circle, so the arc has radius |tan(t1 - t2)| = |det/k|,
    1/|k| for Farey neighbours, and subtends less than half its circle
    (large-arc flag 0).  From radius 10^6 on, and for a diameter (k = 0), the chord is
    drawn: it bows at most 1/(2r) from the arc, which six decimals hide.
    """
    (m1, n1), (m2, n2) = f1, f2
    k = m1 * m2 + n1 * n2
    det = m1 * n2 - m2 * n1
    if abs(det) >= 10**6 * abs(k):
        return f"L {end}"
    r = f"{abs(det) / abs(k):.6f}"
    return f"A {r} {r} 0 0 {int(det * k < 0)} {end}"


def render_svg(fig: FareyFigure) -> str:
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="-1.05 -1.05 2.1 2.1" width="600" height="600">',
        '<circle class="boundary" cx="0" cy="0" r="1" fill="none" '
        'stroke="#202020" stroke-width="0.006"/>',
    ]
    point = _Points()
    if fig.axis is not None:
        for tri, label in fig.axis.crossings:
            a, b, c = tri
            pa, pb, pc = point[a], point[b], point[c]
            d = (
                f"M {pa} {_geodesic(a, b, pb)} {_geodesic(b, c, pc)} "
                f"{_geodesic(c, a, pa)} Z"
            )
            parts.append(
                f'<path class="tri-{label}" d="{d}" fill="{_TINTS[label]}" '
                'fill-opacity="0.8" stroke="none"/>'
            )
    for f1, f2 in fig.arcs:
        d = f"M {point[f1]} {_geodesic(f1, f2, point[f2])}"
        parts.append(
            f'<path class="arc" d="{d}" fill="none" stroke="#404040" '
            'stroke-width="0.004"/>'
        )
    if fig.axis is not None:
        att = fig.axis.attracting
        # the ends (p -+ sqrt(d))/q as integer points, sqrt(d) taken to
        # 64 bits after the point
        p, root, q = att.p << 64, isqrt(att.d << 128), att.q << 64
        rep_end, att_end = (p - root, q), (p + root, q)
        d = f"M {_point(rep_end)} {_geodesic(rep_end, att_end, _point(att_end))}"
        parts.append(
            f'<path class="axis" d="{d}" fill="none" stroke="#d62728" '
            'stroke-width="0.012"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def render_farey(depth: int, axis_matrix: Mat2 | None = None) -> str:
    """SVG document for the depth-d tessellation, optional axis overlay."""
    return render_svg(farey_figure(depth, axis_matrix))
