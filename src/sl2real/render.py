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

from math import isqrt

from .errors import DepthTooLarge
from .farey import Surd, attracting_fixed_point
from .mat2 import Mat2, _quote

__all__ = ["MAX_DEPTH", "render_farey"]

MAX_DEPTH = 12

Frac = tuple[int, int]
Tri = tuple[Frac, Frac, Frac]


def _axis_overlay(axis_matrix: Mat2, depth: int) -> tuple[Surd, tuple[tuple[Tri, str], ...]]:
    """The attracting fixed point and the crossed triangles, read off
    two walks.

    The crossings run in travel order from the repelling fixed point
    (the attracting one's Galois conjugate) to the attracting one, each
    labeled "L" or "R" by the side of the axis holding the triangle's
    lone vertex.  They are the triangles of the two fixed points' walks
    down the Farey tree (Series, J. London Math. Soc. 31, 1985), and
    each label is the sign of one exact comparison made on the way.

    Each fixed point x is walked down the arcs of its half that hold it:
    a round splits the arc at its mediant w and keeps the part holding
    x, by one exact comparison.  Let k count the arcs the two walks
    share (0 when the ends lie in different halves).  Triangles below
    shared arcs have all vertices on one side of the axis, except the
    one where the walks part (index k-1); every later triangle of either
    walk is crossed.  So the axis climbs rep's walk from its deepest
    triangle to index k, crosses the parting triangle and descends att's
    walk from index k.

    The lone vertex of a crossed triangle is the end of the arc the walk
    keeps, at the parting triangle the mediant.  The boundary from rep
    counterclockwise to att lies right of the axis, so the label is "R"
    on rep's walk when rep > w, on att's when att < w, and at the
    parting triangle when att > w.
    """
    att = attracting_fixed_point(axis_matrix)
    rep = att.conjugate()

    def walk(x: Surd) -> tuple[int, list[tuple[Tri, int]]]:
        h = x.compare_rational(0, 1)  # the half holding x, mirrored when -1
        u, v = (0, 1), (1, 0)
        steps = []
        for _ in range(depth):
            w = (u[0] + v[0], u[1] + v[1])
            sign = x.compare_rational(h * w[0], w[1])  # sign of x - h*w
            steps.append((tuple((h * m, n) if n else (1, 0) for m, n in (u, w, v)), sign))
            if sign == h:  # x lies beyond w in its half
                u = w
            else:
                v = w
        return h, steps

    h_rep, rep_steps = walk(rep)
    h_att, att_steps = walk(att)
    k = 0
    if h_rep == h_att:
        k = 1
        while k <= depth and rep_steps[k - 1][1] == att_steps[k - 1][1]:
            k += 1
    crossings = [(tri, "R" if sign > 0 else "L") for tri, sign in reversed(rep_steps[k:])]
    if 0 < k <= depth:
        tri, sign = att_steps[k - 1]
        crossings.append((tri, "R" if sign > 0 else "L"))
    crossings += [(tri, "L" if sign > 0 else "R") for tri, sign in att_steps[k:]]
    return att, tuple(crossings)


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


class _Radii(dict):
    """`_geodesic`'s arc command up to its sweep flag, for Farey
    neighbours with k = m1*m2 + n1*n2 > 0, formatted once per k."""

    def __missing__(self, k: int) -> str:
        r = f"{1 / k:.6f}"
        text = self[k] = f"A {r} {r} 0 0 "
        return text


Vertex = tuple[int, int, str, str]


def _next_row(row: list[Vertex], radius: _Radii, arcs: list[str]) -> list[Vertex]:
    """One mediant round of the right half: the row after `row`, with
    each insertion's two arcs and their mirror images appended to `arcs`.

    A row entry (m, n, "x y", "mirror_x y") carries the SVG coordinates
    of m/n and of its image -m/n, so an insertion formats only its
    mediant.  Right-half Farey neighbours u < w have det -1 and
    k = u.w > 0, so `_geodesic` draws (u, w) as an arc of radius 1/k with
    sweep 1, and its mirror image with sweep 0.

    A row is symmetric under x -> 1/x, which negates the SVG y, so a
    mediant m/n > 1 comes after n/m in its round and takes n/m's point
    with the y negated.  Int true division rounds symmetrically, so that
    is `_point`'s string, 0.000000 against -0.000000 included: the y of
    n/m < 1 is positive and carries no sign.  x -> -x negates the SVG x,
    positive between 0 and infinity, so a mirror point is the point with
    a "-" before it.
    """
    nxt = [row[0]]
    last = 2 * len(row) - 2  # n/m's index in nxt is last - (m/n's)
    for (mu, nu, pu, qu), v in zip(row, row[1:]):
        mv, nv, pv, qv = v
        m = mu + mv
        n = nu + nv
        if m > n:
            pw = nxt[last - len(nxt)][2].replace(" ", " -")
        else:
            pw = _point((m, n))
        qw = "-" + pw
        r1 = radius[mu * m + nu * n]
        r2 = radius[m * mv + n * nv]
        arcs.append(
            f'<path class="arc" d="M {pu} {r1}1 {pw}" '
            'fill="none" stroke="#404040" stroke-width="0.004"/>\n'
            f'<path class="arc" d="M {pw} {r2}1 {pv}" '
            'fill="none" stroke="#404040" stroke-width="0.004"/>\n'
            f'<path class="arc" d="M {qu} {r1}0 {qw}" '
            'fill="none" stroke="#404040" stroke-width="0.004"/>\n'
            f'<path class="arc" d="M {qw} {r2}0 {qv}" '
            'fill="none" stroke="#404040" stroke-width="0.004"/>'
        )
        nxt += ((m, n, pw, qw), v)
    return nxt


def _arc_paths(depth: int) -> list[str]:
    """The arc elements of the depth-d figure: the base diameter, then
    each insertion's two arcs followed by their mirror images, round by
    round and from 0 to infinity within a round.

    The base diameter from 0 to infinity is the chord.  0 and infinity
    are their own mirror images.
    """
    zero, infinity = _point((0, 1)), _point((1, 0))
    arcs = [
        f'<path class="arc" d="M {zero} L {infinity}" '
        'fill="none" stroke="#404040" stroke-width="0.004"/>'
    ]
    radius = _Radii()
    row = [(0, 1, zero, zero), (1, 0, infinity, infinity)]
    for _ in range(depth):
        row = _next_row(row, radius, arcs)
    return arcs


def render_farey(depth: int, axis_matrix: Mat2 | None = None) -> str:
    """SVG document of the tessellation after `depth` mediant rounds:
    the triangles the axis of `axis_matrix` crosses, if given, tinted by
    label, under the arcs, and the axis on top.

    The depth is checked before the axis.  The arcs come from one walk
    over the rows of the right half (`_arc_paths`).
    """
    if depth < 0 or depth > MAX_DEPTH:
        raise DepthTooLarge(f"depth must be within 0..{MAX_DEPTH}, got {_quote(depth)}")
    att, crossings = (None, ()) if axis_matrix is None else _axis_overlay(axis_matrix, depth)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="-1.05 -1.05 2.1 2.1" width="600" height="600">',
        '<circle class="boundary" cx="0" cy="0" r="1" fill="none" '
        'stroke="#202020" stroke-width="0.006"/>',
    ]
    for tri, label in crossings:
        a, b, c = tri
        pa, pb, pc = _point(a), _point(b), _point(c)
        d = f"M {pa} {_geodesic(a, b, pb)} {_geodesic(b, c, pc)} {_geodesic(c, a, pa)} Z"
        parts.append(
            f'<path class="tri-{label}" d="{d}" fill="{_TINTS[label]}" '
            'fill-opacity="0.8" stroke="none"/>'
        )
    parts += _arc_paths(depth)
    if att is not None:
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
