"""Farey tessellation combinatorics and SVG output."""

import hashlib
import random
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import groupby, product
from math import atan2, isqrt, pi, sqrt

import pytest
from hypothesis import given, settings, strategies as st

import sl2real.render as render_module
from sl2real import (
    IDENTITY,
    MAX_DEPTH,
    DepthTooLarge,
    Mat2,
    NotHyperbolic,
    Surd,
    attracting_fixed_point,
    cutting_cycle,
    render_farey,
    u_pow,
)

from sl2real.render import _Radii, _axis_overlay, _geodesic, _next_row, _point

from conftest import random_hyperbolic, surd_float

AXIS_M = Mat2(2, 1, 1, 1)


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def test_arc_and_triangle_counts():
    for depth in range(7):
        arcs, triangles = _farey_by_mirroring(depth)
        assert len(arcs) == 2 ** (depth + 2) - 3
        assert len(triangles) == 2 ** (depth + 1) - 2
        assert render_farey(depth).count('<path class="arc"') == len(arcs)


def test_depth_limits():
    render_farey(0)
    assert render_farey(MAX_DEPTH).count('<path class="arc"') == 2 ** (MAX_DEPTH + 2) - 3
    with pytest.raises(DepthTooLarge):
        render_farey(MAX_DEPTH + 1)
    with pytest.raises(DepthTooLarge):
        render_farey(-1)


def test_arcs_join_farey_neighbours():
    for depth in range(6):
        for u, v in _farey_by_mirroring(depth)[0]:
            assert _det(u, v) in (1, -1)
            assert u[1] >= 0 and v[1] >= 0  # denominators normalized


def test_triangles_have_pairwise_neighbour_vertices():
    arcs, triangles = _farey_by_mirroring(4)
    arcs = {frozenset(arc) for arc in arcs}
    for tri in triangles:
        a, b, c = tri
        for u, v in ((a, b), (b, c), (a, c)):
            assert _det(u, v) in (1, -1)
            assert frozenset((u, v)) in arcs


def test_vertices_are_reduced_fractions():
    import math

    for u, v in _farey_by_mirroring(5)[0]:
        for m, n in (u, v):
            assert math.gcd(m, n) == 1


def test_axis_overlay_pinned():
    attracting, crossings = _axis_overlay(AXIS_M, 3)
    assert attracting == Surd(1, 5, 2)
    labels = [label for _, label in crossings]
    assert labels == ["R", "L", "R", "L", "R", "L"]
    crossed = [tri for tri, _ in crossings]
    assert len(set(crossed)) == len(crossed)
    triangles = _farey_by_mirroring(3)[1]
    for tri in crossed:
        assert tri in triangles


def test_axis_overlay_depth_one():
    assert [label for _, label in _axis_overlay(AXIS_M, 1)[1]] == ["R", "L"]


def _label_runs(crossings):
    return [len(list(run)) for _, run in groupby(label for _, label in crossings)]


def test_crossings_pinned_fans():
    # cycle (2, 2): the axis crosses fans of two triangles in turn
    labels = [label for _, label in _axis_overlay(Mat2(5, 2, 2, 1), 5)[1]]
    assert labels == ["R", "L", "L", "R", "R", "L", "L", "R", "R", "L"]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=8, max_value=10))
def test_crossings_walk_the_cutting_cycle(seed, depth):
    # the crossed triangles form a path through shared edges, and the
    # axis crosses a fan of e triangles around each vertex in turn, so
    # every complete run of labels is the next exponent of the cycle
    m = random_hyperbolic(random.Random(seed))
    crossings = _axis_overlay(m, depth)[1]
    for (tri, _), (nxt, _) in zip(crossings, crossings[1:]):
        assert len(set(tri) & set(nxt)) == 2
    inner = _label_runs(crossings)[1:-1]
    exps = list(cutting_cycle(m)[0].exponents)
    periodic = exps * (len(inner) // len(exps) + 2)
    assert any(periodic[i : i + len(inner)] == inner for i in range(len(exps)))


# -- the descent against the scan over every triangle it replaced --------


def _mirror(frac):
    return (1, 0) if frac[1] == 0 else (-frac[0], frac[1])


def _farey_by_mirroring(depth):
    """Arcs and triangles, every mirror image built from its arc."""
    base = ((0, 1), (1, 0))
    arcs, triangles, frontier = [base], [], [base]
    for _ in range(depth):
        nxt = []
        for u, v in frontier:
            w = (u[0] + v[0], u[1] + v[1])
            arcs += [(u, w), (w, v), (_mirror(u), _mirror(w)), (_mirror(w), _mirror(v))]
            triangles += [(u, w, v), (_mirror(u), _mirror(w), _mirror(v))]
            nxt += [(u, w), (w, v)]
        frontier = nxt
    return tuple(arcs), tuple(triangles)


def _is_between(frac, att, rep):
    # strictly inside the finite interval with surd endpoints; infinity
    # always lies on the outer arc
    m, n = frac
    if n == 0:
        return False
    return att.compare_rational(m, n) != rep.compare_rational(m, n)


def _rank(frac, inside, rep, s):
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


def _axis_overlay_by_scan(m, triangles):
    """Crossings by testing every triangle, in travel order."""
    att = attracting_fixed_point(m)
    rep = att.conjugate()
    s = 1 if att.q > 0 else -1
    ordered = []
    for tri in triangles:
        between = [_is_between(v, att, rep) for v in tri]
        count = sum(between)
        if count in (0, 3):
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
    return tuple((tri, label) for _, tri, label in ordered)


S = Mat2(0, -1, 1, 0)  # x -> -1/x swaps 0 and infinity


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=MAX_DEPTH),
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
    st.booleans(),
)
def test_descent_matches_scan(seed, depth, shift, swap, invert):
    # random_hyperbolic takes both trace signs; the shift and the swap of
    # 0 with infinity put the ends in either half or one in each
    m = random_hyperbolic(random.Random(seed))
    g = u_pow(shift) @ (S if swap else IDENTITY)
    m = g @ m @ g.inverse()
    if invert:
        m = m.inverse()
    assert _axis_overlay(m, depth)[1] == _axis_overlay_by_scan(m, _farey_by_mirroring(depth)[1])


@pytest.mark.parametrize(
    "m",
    [
        Mat2(2, 1, 1, 1),  # ends -0.618 and 1.618, one in each half
        Mat2(10, 99, 1, 10),  # ends -+sqrt(99): the axis passes close to infinity
        Mat2(10, 1, 99, 10),  # ends -+1/sqrt(99): the axis passes close to 0
        Mat2(-12, -5, -7, -3),  # trace -15
        Mat2(1, -2, -2, 5),  # repelling end 2.414, attracting end -0.414
        Mat2(11, -28, 2, -5),  # ends 3 +- sqrt(2): both right of 0
        Mat2(-1, -4, 2, 7),  # ends -3 +- sqrt(2): both left of 0
    ],
)
def test_descent_matches_scan_pinned(m):
    for depth in range(MAX_DEPTH + 1):
        triangles = _farey_by_mirroring(depth)[1]
        for axis in (m, -m, m.inverse(), S @ m @ S.inverse()):
            assert _axis_overlay(axis, depth)[1] == _axis_overlay_by_scan(axis, triangles)


def test_descent_matches_scan_exhaustive():
    # every hyperbolic element with entries in [-8, 8]
    triangles = _farey_by_mirroring(6)[1]
    count = 0
    for a, b, c, d in product(range(-8, 9), repeat=4):
        if a * d - b * c == 1 and abs(a + d) > 2:
            m = Mat2(a, b, c, d)
            assert _axis_overlay(m, 6)[1] == _axis_overlay_by_scan(m, triangles)
            count += 1
    assert count == 456


def test_axis_requires_hyperbolic():
    with pytest.raises(NotHyperbolic):
        render_farey(2, Mat2(1, 1, 0, 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_inverse_axis_swaps_labels(seed):
    # m^-1 runs along the same axis the other way: one of the two runs
    # leftward, and every crossed triangle changes sides
    m = random_hyperbolic(random.Random(seed))
    forward = dict(_axis_overlay(m, 7)[1])
    backward = dict(_axis_overlay(m.inverse(), 7)[1])
    assert backward == {tri: "R" if label == "L" else "L" for tri, label in forward.items()}


def test_axis_crossing_separation():
    # a crossed triangle has exactly one vertex on one side of the
    # axis ends and two on the other
    att, crossings = _axis_overlay(AXIS_M, 4)
    rep = att.conjugate()
    for tri, _ in crossings:
        inside = 0
        for m, n in tri:
            if n == 0:
                continue
            if att.compare_rational(m, n) * rep.compare_rational(m, n) < 0:
                inside += 1
        assert inside in (1, 2)


def test_svg_well_formed():
    doc = render_farey(3)
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == 2**5 - 3  # arcs only, no axis requested
    assert any(el.tag.endswith("circle") for el in root.iter())


def test_svg_with_axis_layers():
    doc = render_farey(3, AXIS_M)
    root = ET.fromstring(doc)
    classes = [el.get("class") for el in root.iter() if el.get("class")]
    assert classes.count("arc") == 29
    assert classes.count("axis") == 1
    assert classes.count("tri-L") == 3
    assert classes.count("tri-R") == 3
    assert classes.count("boundary") == 1


def test_svg_numbers_are_clean():
    doc = render_farey(2, AXIS_M)
    assert "nan" not in doc.lower()
    assert "inf" not in doc.lower()
    for num in re.findall(r"-?\d+\.\d+", doc):
        frac = num.split(".")[1]
        assert len(frac) <= 6


def test_svg_deterministic():
    assert render_farey(4, AXIS_M) == render_farey(4, AXIS_M)


@pytest.mark.parametrize(
    "depth, axis, digest",
    [
        (12, Mat2(5, 2, 2, 1), "612feaabded5a6f5886ab6b9fa7a1e7110c584fa13de5410c8a8c78d612dbe13"),
        (12, Mat2(1, -2, -2, 5), "ff9e5a7213c0433f009420250685de12d9060846fcb8c944e99bf382481287ad"),
        (9, Mat2(-12, -5, -7, -3), "2a25a28a593f3f3e7acd81cc9e94bc5a7fe86d2e55fb82aedb0bc63a4dac577c"),
        (12, None, "d9d468ee6702ae3bb8fb62f2fd71beb6dbbe5800e289e875f83f8461f282281b"),
        (0, None, "0603bbb5c9957b96498f2af16e264685e6f96b9c231920946c9bc3155cc096b2"),
        (1, Mat2(5, 2, 2, 1), "791720387cb95d7935f9d29dd4e6a1e642fdb3f6220151798a980e391563891a"),
        (5, Mat2(-12, -5, -7, -3), "edf9134393b1d0dc88b300bd11792cdf97176c164a4391accc68e86db31c95ab"),
        (11, Mat2(15, 4, 11, 3), "dbbd850fa21d90b0523caaaea3d7642a7dfc82f18af37492968525cfbd64ec1f"),
    ],
)
def test_svg_bytes_pinned(depth, axis, digest):
    doc = render_farey(depth, axis)
    assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == digest


# -- the row-walk writer against one `_geodesic` per arc ------------


def _render_svg_by_arcs(depth, axis):
    """`render_farey` drawing every arc of `_farey_by_mirroring` by
    `_geodesic`, each vertex formatted by `_point`: the byte reference of
    the writer."""
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="-1.05 -1.05 2.1 2.1" width="600" height="600">',
        '<circle class="boundary" cx="0" cy="0" r="1" fill="none" '
        'stroke="#202020" stroke-width="0.006"/>',
    ]
    tints = {"L": "#9ecae1", "R": "#fdae6b"}
    if axis is not None:
        att, crossings = _axis_overlay(axis, depth)
        for (a, b, c), label in crossings:
            d = (
                f"M {_point(a)} {_geodesic(a, b, _point(b))} "
                f"{_geodesic(b, c, _point(c))} {_geodesic(c, a, _point(a))} Z"
            )
            parts.append(
                f'<path class="tri-{label}" d="{d}" fill="{tints[label]}" '
                'fill-opacity="0.8" stroke="none"/>'
            )
    for f1, f2 in _farey_by_mirroring(depth)[0]:
        d = f"M {_point(f1)} {_geodesic(f1, f2, _point(f2))}"
        parts.append(f'<path class="arc" d="{d}" fill="none" stroke="#404040" stroke-width="0.004"/>')
    if axis is not None:
        p, root, q = att.p << 64, isqrt(att.d << 128), att.q << 64
        rep_end, att_end = (p - root, q), (p + root, q)
        d = f"M {_point(rep_end)} {_geodesic(rep_end, att_end, _point(att_end))}"
        parts.append(f'<path class="axis" d="{d}" fill="none" stroke="#d62728" stroke-width="0.012"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def test_writer_matches_reference_without_axis():
    for depth in range(MAX_DEPTH + 1):
        assert render_farey(depth) == _render_svg_by_arcs(depth, None)


def test_writer_matches_reference_with_axis_at_every_depth():
    for depth in range(MAX_DEPTH + 1):
        assert render_farey(depth, Mat2(5, 2, 2, 1)) == _render_svg_by_arcs(depth, Mat2(5, 2, 2, 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=MAX_DEPTH))
def test_writer_matches_reference_with_axis(seed, depth):
    axis = random_hyperbolic(random.Random(seed))
    assert render_farey(depth, axis) == _render_svg_by_arcs(depth, axis)


def _entry(m, n):
    """A row entry as `_point` formats it: (m, n, "x y", "mirror_x y")."""
    return m, n, _point((m, n)), _point((-m, n) if n else (1, 0))


def test_row_entries_match_point():
    rows = [[_entry(0, 1), _entry(1, 0)]]
    for _ in range(MAX_DEPTH):
        rows.append(_next_row(rows[-1], _Radii(), []))
    # two rows symmetric under x -> 1/x whose mediants (1, 10^7), a hair
    # east of 0, and (10^7, 10^7 + 1), a hair south of 1, print 0.000000
    # against -0.000000: the x of (1, 10^7) and its mirror image, and the
    # y of (10^7, 10^7 + 1) and of its reciprocal, which is not formatted
    # but read off it
    big = 10**7
    near_zero = {}
    for a, b in ((1, big - 1), (big, big)):
        row = _next_row([_entry(0, 1), _entry(a, b), _entry(b, a), _entry(1, 0)], _Radii(), [])
        rows.append(row)
        near_zero |= {(m, n): (xy, mirror_xy) for m, n, xy, mirror_xy in row}
    for row in rows:
        for m, n, xy, mirror_xy in row:
            assert xy == _point((m, n))
            assert mirror_xy == _point((-m, n) if n else (1, 0))
    assert [xy.split(" ")[0] for xy in near_zero[(1, big)]] == ["0.000000", "-0.000000"]
    assert near_zero[(big, big + 1)][0].split(" ")[1] == "0.000000"
    assert near_zero[(big + 1, big)][0].split(" ")[1] == "-0.000000"


def test_render_walks_once_and_builds_no_tessellation(monkeypatch):
    walked, rounds = [], []
    arc_paths, next_row = render_module._arc_paths, render_module._next_row

    def counted_walk(depth):
        walked.append(depth)
        return arc_paths(depth)

    def counted_round(row, radius, arcs):
        rounds.append(len(row))
        return next_row(row, radius, arcs)

    monkeypatch.setattr(render_module, "_arc_paths", counted_walk)
    monkeypatch.setattr(render_module, "_next_row", counted_round)
    render_farey(MAX_DEPTH, Mat2(5, 2, 2, 1))
    assert walked == [MAX_DEPTH]
    assert rounds == [2**r + 1 for r in range(MAX_DEPTH)]  # each row once


def test_svg_viewbox_and_size():
    doc = render_farey(0)
    assert 'viewBox="-1.05 -1.05 2.1 2.1"' in doc
    assert 'width="600"' in doc


# -- geodesics against the float circle fit they replaced ---------------


def _disk_point(frac):
    m, n = frac
    s = m * m + n * n
    return 2 * m * n / s, (m * m - n * n) / s


def _disk_point_real(x):
    s = x * x + 1
    return 2 * x / s, (x * x - 1) / s


def _antipodal(f1, f2):
    m1, n1 = f1
    m2, n2 = f2
    u1 = (2 * m1 * n1, m1 * m1 - n1 * n1)
    u2 = (2 * m2 * n2, m2 * m2 - n2 * n2)
    return u1[0] * u2[1] - u1[1] * u2[0] == 0


def _segment(p1, p2, straight):
    """(radius, sweep) of the circle through p1, p2 orthogonal to the
    boundary, fitted in floats; None for a straight segment."""
    if straight:
        return None
    x2s, y2s = p2[0], -p2[1]
    det = p1[0] * p2[1] - p1[1] * p2[0]
    cx, cy = (p2[1] - p1[1]) / det, (p1[0] - p2[0]) / det
    r = sqrt(max(cx * cx + cy * cy - 1.0, 0.0))
    scx, scy = cx, -cy
    a1 = atan2(-p1[1] - scy, p1[0] - scx)
    a2 = atan2(y2s - scy, x2s - scx)
    delta = a2 - a1
    while delta <= -pi:
        delta += 2 * pi
    while delta > pi:
        delta -= 2 * pi
    return r, 1 if delta > 0 else 0


def _assert_matches(command, reference):
    op, *args = command.split()
    if reference is None:
        assert op == "L"
    else:
        assert op == "A" and args[0] == args[1]
        assert abs(float(args[0]) - reference[0]) <= 1e-6
        assert int(args[4]) == reference[1]


def test_geodesics_match_float_reference():
    # every triangle edge is an arc, drawn one way round or the other
    for u, v in _farey_by_mirroring(9)[0]:
        for f1, f2 in ((u, v), (v, u)):
            ref = _segment(_disk_point(f1), _disk_point(f2), _antipodal(f1, f2))
            _assert_matches(_geodesic(f1, f2, _point(f2)), ref)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_axis_geodesic_matches_float_reference(seed):
    m = random_hyperbolic(random.Random(seed))
    path = re.search(r'class="axis" d="M \S+ \S+ ([^"]*)"', render_farey(0, m)).group(1)
    att = attracting_fixed_point(m)
    p1 = _disk_point_real(surd_float(att.conjugate()))
    p2 = _disk_point_real(surd_float(att))
    det = p1[0] * p2[1] - p1[1] * p2[0]
    _assert_matches(path, _segment(p1, p2, abs(det) < 1e-12))


def test_arc_radius_is_correctly_rounded():
    # 7*8 + 8*9 = 128 and 1/128 = 0.0078125 is a tie, rounded to even
    assert _geodesic((7, 8), (8, 9), _point((8, 9))).startswith("A 0.007812 0.007812 ")
