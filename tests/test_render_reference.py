"""Static charts and leaf layout against the references in ``oracles``:
``render_svg`` gives the line-by-line reference document byte for byte, also
when one process draws many charts and reuses its trunk text;
``layout_extents`` gives the reference trunk, also when it is taken from
the trunk memo, and ``place_anchor`` the first-written leaf and ring glyphs
down to the last float bit, which the criterion-7 mirror check and
``glyph_extent_measure`` rely on."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    reference_leaf_glyphs,
    reference_render_svg,
    reference_ring_glyph,
    reference_trunk,
)
from plantchart import render, svg
from plantchart.render import (
    DEVICE_DIMENSIONS,
    Anchoring,
    Animation,
    ChartDimensions,
    ChartStyle,
    Decoration,
    Glyph,
    GlyphPath,
    TrunkForm,
    layout,
    layout_extents,
    place_anchor,
)
from plantchart.svg import GALLERY_STYLES, render_svg

dimensions = st.sampled_from(list(DEVICE_DIMENSIONS.values()))
canvases = st.tuples(st.integers(1, 1201), st.integers(1, 1601))


@st.composite
def scenes(draw):
    n = draw(st.integers(3, 10))
    start = draw(st.integers(8, 19 - n))
    hours = list(range(start, start + n))
    style = draw(st.sampled_from(GALLERY_STYLES))
    dims = draw(dimensions)
    if draw(st.booleans()):
        positions = draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))
        return layout(positions, hours, style, dims)
    extents = draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
    return layout_extents(extents, hours, style, dims)


@settings(max_examples=150, deadline=None)
@given(scenes(), canvases)
def test_static_chart_equals_the_reference(scene, canvas):
    assert render_svg(scene, canvas) == reference_render_svg(scene, canvas)


def copy_points(points):
    """Value-equal points in new tuples of new floats; ``repr`` keeps the
    sign of a zero."""
    return tuple((float(repr(x)), float(repr(y))) for x, y in points)


NAN = float("nan")
INF = float("inf")
BASE = ((10.0, 20.0), (11.5, 19.25), (12.0, 18.0))
ONE = ((10.0, 20.0),)
HAND_BUILT = {
    "extends-with-equal-copies": (
        GlyphPath(BASE),
        GlyphPath(copy_points(BASE) + ((13.0, 17.0),), closed=True),
    ),
    "signed-zero-prefix": (
        GlyphPath(((-0.0, 0.0), (1.0, -0.0))),
        GlyphPath(((0.0, -0.0), (1.0, 0.0), (2.0, 2.0)), closed=True),
    ),
    "nan-point-same-object": (
        GlyphPath(((NAN, 1.0), (2.0, 3.0))),
        GlyphPath(((NAN, 1.0), (2.0, 3.0), (4.0, NAN)), closed=True),
    ),
    "nan-point-other-object": (
        GlyphPath(((NAN, 1.0), (2.0, 3.0))),
        GlyphPath(copy_points(((NAN, 1.0), (2.0, 3.0))) + ((4.0, 5.0),)),
    ),
    "second-path-shorter": (
        GlyphPath(BASE + ((13.0, 17.0),)),
        GlyphPath(BASE[:2], closed=True),
    ),
    "path-with-no-points": (
        GlyphPath(()),
        GlyphPath(BASE),
        GlyphPath((), closed=True),
        GlyphPath(BASE, closed=True),
    ),
    "path-equal-to-the-previous": (
        GlyphPath(BASE),
        GlyphPath(BASE, closed=True),
        GlyphPath(copy_points(BASE)),
    ),
    "one-point-paths": (
        GlyphPath(ONE),
        GlyphPath(ONE, closed=True),
        GlyphPath(ONE + ((11.0, 21.0),)),
        GlyphPath(((11.0, 21.0),)),
    ),
    "empty-then-points": (
        GlyphPath((), closed=True),
        GlyphPath(BASE, closed=True),
    ),
    "infinities": (
        GlyphPath(((INF, 1.0), (-INF, 2.0))),
        GlyphPath(((INF, 1.0), (-INF, 2.0), (3.0, INF), (-INF, -INF)), closed=True),
    ),
}


def projection(canvas, dims=DEVICE_DIMENSIONS["plantform"]):
    """``(x0, y0, scale)``: the serializer's projection of ``dims`` on ``canvas``."""
    width, height = canvas
    world_w = 2 * (dims.glyph_max_extent + 0.08 * dims.chart_height) * 1.06
    margin = svg.MARGIN_RATIO * min(width, height)
    scale = min((width - 2 * margin) / world_w,
                (height - 2 * margin) / (dims.chart_height * 1.12))
    return width / 2, height - margin, scale


def below_zero(canvas):
    """A point whose coordinates both project to about -0.0003 on ``canvas``,
    which ``%.3f`` prints as ``-0.000``."""
    x0, y0, scale = projection(canvas)
    point = ((-0.0003 - x0) / scale, (y0 + 0.0003) / scale)
    assert "%.3f %.3f" % (x0 + point[0] * scale, y0 - point[1] * scale) == "-0.000 -0.000"
    return point


# Rows whose points depend on the canvas: a coordinate that rounds to
# -0.000 in the prefix a path shares with the previous one, and in its rest.
NEAR_ZERO = {
    "minus-zero-in-the-prefix": lambda z: (
        GlyphPath((z, (1.0, 2.0))),
        GlyphPath((z, (1.0, 2.0), (3.0, 4.0)), closed=True),
    ),
    "minus-zero-in-the-rest": lambda z: (
        GlyphPath(((1.0, 2.0),)),
        GlyphPath(((1.0, 2.0), z, (3.0, 4.0), z), closed=True),
    ),
}


@pytest.mark.parametrize("paths", [*HAND_BUILT.values(), *NEAR_ZERO.values()],
                         ids=[*HAND_BUILT, *NEAR_ZERO])
@pytest.mark.parametrize("canvas", [(1, 1), (480, 640), (1201, 333)])
def test_hand_built_paths_equal_the_reference(paths, canvas):
    base = layout([0, 5, 10], [8, 9, 10], GALLERY_STYLES[0], DEVICE_DIMENSIONS["plantform"])
    if callable(paths):
        paths = paths(below_zero(canvas))
    glyph = Glyph(0, Decoration.LEAF, 0.5, "right", paths)
    scene = replace(base, glyphs=(glyph, glyph))
    assert render_svg(scene, canvas) == reference_render_svg(scene, canvas)


def point_bits(path):
    return [(x.hex(), y.hex()) for x, y in path.points]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(TrunkForm),
    dimensions | st.builds(ChartDimensions, st.floats(1e-6, 1e6), st.just(1.0), st.just(2.0)),
)
def test_the_trunk_equals_the_reference_bit_for_bit(trunk, dims):
    style = ChartStyle(trunk, Anchoring.ONE_SIDED, Decoration.BAR, Animation.GROWTH)
    laid = layout_extents([0.0, 0.5, 1.0], [8, 9, 10], style, dims).trunk
    want = reference_trunk(style, dims)
    assert (laid.closed, point_bits(laid)) == (want.closed, point_bits(want))


@pytest.mark.parametrize("heights", [(2**53 - 1, float(2**53 - 1)), (float(2**53 - 1), 2**53 - 1)],
                         ids=["int-first", "float-first"])
@pytest.mark.parametrize("trunk", TrunkForm)
def test_equal_heights_of_another_type_lay_out_their_own_trunk(trunk, heights):
    # The int height's products are exact and the float's round: the two
    # trunks differ in 29 of 97 points, though the heights compare equal.
    style = ChartStyle(trunk, Anchoring.ONE_SIDED, Decoration.BAR, Animation.GROWTH)
    for height in heights:
        dims = ChartDimensions(height, 0, 1)
        laid = layout_extents([0.0, 0.5, 1.0], [8, 9, 10], style, dims).trunk
        assert point_bits(laid) == point_bits(reference_trunk(style, dims))


def test_the_trunks_kept_are_bounded():
    style = GALLERY_STYLES[1]
    for height in range(10, 10 + 3 * render.TRUNK_MEMO_SIZE):
        dims = ChartDimensions(float(height), 1.0, 2.0)
        trunk = layout([0, 5, 10], [8, 9, 10], style, dims).trunk
        assert render._trunk.cache_info().currsize <= render.TRUNK_MEMO_SIZE
    hits = render._trunk.cache_info().hits
    again = layout([10, 0, 5], [8, 9, 10], style, dims).trunk
    assert render._trunk.cache_info().hits == hits + 1
    assert again is trunk
    assert point_bits(again) == point_bits(reference_trunk(style, dims))


@pytest.mark.parametrize("style", [GALLERY_STYLES[0], GALLERY_STYLES[1]], ids=lambda s: s.label())
@pytest.mark.parametrize("canvas", [(480, 640), (333, 1201)])
def test_another_trunk_at_the_same_projection_is_formatted_anew(style, canvas):
    scene = layout([0, 5, 10], [8, 9, 10], style, DEVICE_DIMENSIONS["plantform"])
    render_svg(scene, canvas)
    other = replace(scene, trunk=GlyphPath(tuple((x + 1.0, y) for x, y in scene.trunk.points)))
    assert render_svg(other, canvas) == reference_render_svg(other, canvas)
    assert render_svg(scene, canvas) == reference_render_svg(scene, canvas)


def test_the_trunk_texts_kept_are_bounded():
    scene = layout([0, 5, 10], [8, 9, 10], GALLERY_STYLES[1], DEVICE_DIMENSIONS["plantform"])
    for width in range(100, 100 + 3 * svg.TRUNK_CACHE_SIZE):
        render_svg(scene, (width, 640))
        assert svg._trunk_d.cache_info().currsize <= svg.TRUNK_CACHE_SIZE
    hits = svg._trunk_d.cache_info().hits
    assert render_svg(scene, (width, 640)) == reference_render_svg(scene, (width, 640))
    assert svg._trunk_d.cache_info().hits == hits + 1


def test_the_path_templates_kept_are_bounded():
    base = layout([0, 5, 10], [8, 9, 10], GALLERY_STYLES[0], DEVICE_DIMENSIONS["plantform"])
    for n in range(1, 3 * svg.TEMPLATE_CACHE_SIZE):
        path = GlyphPath(tuple((1.0 + k, 2.0 + k) for k in range(n)), closed=True)
        scene = replace(base, glyphs=(Glyph(0, Decoration.BAR, 0.5, "right", (path,)),))
        render_svg(scene)
        assert svg._template.cache_info().currsize <= svg.TEMPLATE_CACHE_SIZE
    hits = svg._template.cache_info().hits
    assert render_svg(scene) == reference_render_svg(scene)
    assert svg._template.cache_info().hits == hits + 1


def float_bits(glyphs):
    return [
        (g.anchor_index, g.decoration, g.extent.hex(), g.side,
         [(p.closed, [(x.hex(), y.hex()) for x, y in p.points]) for p in g.paths])
        for g in glyphs
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(TrunkForm),
    st.sampled_from([Anchoring.ONE_SIDED, Anchoring.TWO_SIDED, Anchoring.ALTERNATED]),
    st.sampled_from(Animation),
    dimensions,
    st.integers(3, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
    st.floats(0, 1) | st.integers(0, 10).map(lambda p: p / 10),
)
def test_leaf_glyphs_equal_the_reference_bit_for_bit(trunk, anchoring, animation, dims,
                                                     anchor, extent):
    n, index = anchor
    style = ChartStyle(trunk, anchoring, Decoration.LEAF, animation)
    placed, glyphs = place_anchor(index, 8 + index, extent, n, style, dims)
    want = reference_leaf_glyphs(index, placed.point, placed.side, extent, style, dims)
    assert float_bits(glyphs) == float_bits(want)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(TrunkForm),
    st.sampled_from(Animation),
    dimensions | st.builds(ChartDimensions, st.floats(1e-6, 1e6), st.just(0.0), st.floats(1e-3, 1e3)),
    st.integers(3, 10).flatmap(lambda n: st.lists(
        st.floats(0, 1) | st.sampled_from([0.0, 1.0, 1 + 1e-9]), min_size=n, max_size=n)),
)
def test_ring_glyphs_equal_the_reference_bit_for_bit(trunk, animation, dims, extents):
    n = len(extents)
    style = ChartStyle(trunk, Anchoring.TWO_SIDED, Decoration.RING, animation)
    scene = layout_extents(extents, list(range(8, 8 + n)), style, dims)
    want = [reference_ring_glyph(i, anchor.point, extent, dims, dims.chart_height / n)
            for i, (anchor, extent) in enumerate(zip(scene.anchors, extents))]
    assert float_bits(scene.glyphs) == float_bits(want)
