"""Farey tessellation combinatorics and SVG output."""

import random
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from sl2real import (
    MAX_DEPTH,
    DepthTooLarge,
    Mat2,
    NotHyperbolic,
    Surd,
    farey_figure,
    render_farey,
    render_svg,
)

from conftest import random_hyperbolic

AXIS_M = Mat2(2, 1, 1, 1)


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def test_arc_and_triangle_counts():
    for depth in range(7):
        fig = farey_figure(depth)
        assert len(fig.arcs) == 2 ** (depth + 2) - 3
        assert len(fig.triangles) == 2 ** (depth + 1) - 2


def test_depth_limits():
    farey_figure(0)
    assert len(farey_figure(MAX_DEPTH).arcs) == 2 ** (MAX_DEPTH + 2) - 3
    with pytest.raises(DepthTooLarge):
        farey_figure(MAX_DEPTH + 1)
    with pytest.raises(DepthTooLarge):
        farey_figure(-1)


def test_arcs_join_farey_neighbours():
    for depth in range(6):
        for u, v in farey_figure(depth).arcs:
            assert _det(u, v) in (1, -1)
            assert u[1] >= 0 and v[1] >= 0  # denominators normalized


def test_triangles_have_pairwise_neighbour_vertices():
    fig = farey_figure(4)
    arcs = {frozenset(arc) for arc in fig.arcs}
    for tri in fig.triangles:
        a, b, c = tri
        for u, v in ((a, b), (b, c), (a, c)):
            assert _det(u, v) in (1, -1)
            assert frozenset((u, v)) in arcs


def test_vertices_are_reduced_fractions():
    import math

    fig = farey_figure(5)
    for u, v in fig.arcs:
        for m, n in (u, v):
            assert math.gcd(m, n) == 1


def test_axis_overlay_pinned():
    fig = farey_figure(3, AXIS_M)
    assert fig.axis is not None
    assert fig.axis.attracting == Surd(1, 5, 2)
    assert fig.axis.repelling == Surd(1, 5, 2).conjugate()
    labels = [label for _, label in fig.axis.crossings]
    assert labels == ["R", "L", "R", "L", "R", "L"]
    crossed = [tri for tri, _ in fig.axis.crossings]
    assert len(set(crossed)) == len(crossed)
    for tri in crossed:
        assert tri in fig.triangles


def test_axis_overlay_depth_one():
    fig = farey_figure(1, AXIS_M)
    assert [label for _, label in fig.axis.crossings] == ["R", "L"]


def test_axis_requires_hyperbolic():
    with pytest.raises(NotHyperbolic):
        farey_figure(2, Mat2(1, 1, 0, 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_inverse_axis_swaps_labels(seed):
    # m^-1 runs along the same axis the other way: one of the two runs
    # leftward, and every crossed triangle changes sides
    m = random_hyperbolic(random.Random(seed))
    forward = dict(farey_figure(7, m).axis.crossings)
    backward = dict(farey_figure(7, m.inverse()).axis.crossings)
    assert backward == {tri: "R" if label == "L" else "L" for tri, label in forward.items()}


def test_axis_crossing_separation():
    # a crossed triangle has exactly one vertex on one side of the
    # axis ends and two on the other
    fig = farey_figure(4, AXIS_M)
    att, rep = fig.axis.attracting, fig.axis.repelling
    for tri, _ in fig.axis.crossings:
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
    assert render_svg(farey_figure(3)) == render_farey(3)


def test_svg_viewbox_and_size():
    doc = render_farey(0)
    assert 'viewBox="-1.05 -1.05 2.1 2.1"' in doc
    assert 'width="600"' in doc
