import math
import random
import re
from dataclasses import replace

import pytest

from oracles import glyph_extent_measure
from plantchart import svg
from plantchart.motion import (
    CAIRNSCREEN,
    MAX_FRAMES,
    PLANTFORM,
    PLANTSCREEN,
    FrameTimeline,
    MotionCommand,
    MotionPlan,
    TimelineFrame,
    lowfi_series_timeline,
    lowfi_timeline,
    plan_for_profile,
    transition_plan,
)
from plantchart.render import (
    DEVICE_DIMENSIONS,
    Anchoring,
    Animation,
    ChartDimensions,
    ChartStyle,
    Decoration,
    TrunkForm,
    UnsupportedStyleError,
    layout,
    layout_extents,
    parse_style,
)
from plantchart.svg import (
    GALLERY_HOURS,
    GALLERY_POSITIONS,
    GALLERY_STYLES,
    design_space_gallery,
    iter_frames,
    render_frames,
    render_svg,
)

HOURS10 = list(range(8, 18))
POSITIONS10 = [0, 3, 4, 5, 10, 7, 6, 5, 3, 0]

LEAF_TWO_CURVY = ChartStyle(
    TrunkForm.CURVY, Anchoring.TWO_SIDED, Decoration.LEAF, Animation.UNFURL
)
BAR_ONE_STRAIGHT = ChartStyle(
    TrunkForm.STRAIGHT, Anchoring.ONE_SIDED, Decoration.BAR, Animation.GROWTH
)


def mirror_mismatch(scene) -> float:
    """Worst distance from each anchor's glyph points, reflected across the
    vertical through the anchor, to the nearest original point."""
    worst = 0.0
    for index, anchor in enumerate(scene.anchors):
        points = [
            p
            for glyph in scene.glyphs
            if glyph.anchor_index == index
            for path in glyph.paths
            for p in path.points
        ]
        for x, y in points:
            rx, ry = 2 * anchor.point[0] - x, y
            nearest = min(math.hypot(rx - ox, ry - oy) for ox, oy in points)
            worst = max(worst, nearest)
    return worst


class TestLayout:
    def test_two_sided_leaf_chart_counts(self):
        scene = layout(POSITIONS10, HOURS10, LEAF_TWO_CURVY)
        assert len(scene.glyphs) == 20
        assert len(scene.anchors) == 10
        assert [a.hour for a in scene.anchors] == HOURS10

    def test_one_sided_straight_bars_form_a_classic_histogram(self):
        scene = layout(POSITIONS10, HOURS10, BAR_ONE_STRAIGHT)
        dims = scene.dims
        for glyph, position in zip(scene.glyphs, POSITIONS10):
            measured = glyph_extent_measure(scene, glyph)
            assert measured == pytest.approx(dims.extent_cm(position / 10))
        # bar lengths are an affine function of the position
        m0 = glyph_extent_measure(scene, scene.glyphs[0])
        m10 = glyph_extent_measure(scene, scene.glyphs[4])
        assert m0 == pytest.approx(dims.glyph_min_extent)
        assert m10 == pytest.approx(dims.glyph_max_extent)

    def test_alternated_sides_strictly_alternate(self):
        style = ChartStyle(TrunkForm.CURVY, Anchoring.ALTERNATED, Decoration.LEAF, Animation.UNFURL)
        scene = layout(POSITIONS10, HOURS10, style)
        sides = [a.side for a in scene.anchors]
        assert sides == ["left", "right"] * 5

    def test_anchors_evenly_spaced_bottom_to_top(self):
        scene = layout(POSITIONS10, HOURS10, BAR_ONE_STRAIGHT)
        ys = [a.point[1] for a in scene.anchors]
        gaps = [b - a for a, b in zip(ys, ys[1:])]
        for gap in gaps:
            assert gap == pytest.approx(scene.slot)
        assert ys == sorted(ys)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            layout([1, 2, 3], HOURS10, BAR_ONE_STRAIGHT)

    @pytest.mark.parametrize("chart, message", [
        (lambda p: layout(p, HOURS10, BAR_ONE_STRAIGHT), r"^position {} out of range \[0, 10\]$"),
        (lambda p: layout_extents(p, HOURS10, BAR_ONE_STRAIGHT), r"^extent {} out of range \[0, 1\]$"),
    ], ids=["layout", "layout_extents"])
    @pytest.mark.parametrize("bad", [11, -1, math.nan, True])
    def test_a_value_outside_its_range_or_a_bool_is_refused(self, chart, message, bad):
        with pytest.raises(ValueError, match=message.format(bad)):
            chart([0] * 9 + [bad])

    @pytest.mark.parametrize("dims, message", [
        ((math.nan, 1.0, 2.0), "^chart_height must be a finite number > 0, got nan$"),
        ((0.0, 1.0, 2.0), "^chart_height must be a finite number > 0, got 0.0$"),
        ((True, 1.0, 2.0), "^chart_height must be a finite number > 0, got True$"),
        ((10.0, math.inf, 2.0), "^glyph_min_extent must be a finite number, got inf$"),
        ((10.0, 1.0, math.nan), "^glyph_max_extent must be a finite number, got nan$"),
        ((10.0, 2.0, 1.0), "^glyph_min_extent must be smaller than glyph_max_extent$"),
        ((10.0, -5.0, -0.8), "^glyph_min_extent must be >= 0, got -5.0$"),
        ((10.0, -50.0, -20.0), "^glyph_min_extent must be >= 0, got -50.0$"),
        ((10.0, -1e-300, 2.0), "^glyph_min_extent must be >= 0, got -1e-300$"),
        ((1e308, 0.0, 1.0), r"^chart_height \* 96 must be finite, got 1e\+308$"),
        ((1.8727e306, 0.0, 1.0), r"^chart_height \* 96 must be finite, got 1.8727e\+306$"),
    ])
    def test_chart_dimensions_are_finite_with_a_positive_height(self, dims, message):
        with pytest.raises(ValueError, match=message):
            ChartDimensions(*dims)

    def test_ring_requires_two_sided(self):
        with pytest.raises(UnsupportedStyleError):
            ChartStyle(TrunkForm.STRAIGHT, Anchoring.ONE_SIDED, Decoration.RING, Animation.GROWTH)

    def test_parse_style(self):
        style = parse_style("leaf,two-sided,curvy")
        assert style == LEAF_TWO_CURVY
        assert parse_style("bar,one-sided,straight").animation is Animation.GROWTH
        with pytest.raises(UnsupportedStyleError):
            parse_style("vine,one-sided,straight")
        style = parse_style("leaf,two-sided,curvy,growth")
        assert style == replace(LEAF_TWO_CURVY, animation=Animation.GROWTH)
        message = "style must be 'decoration,anchoring,trunk[,animation]', got 'leaf,two-sided'"
        with pytest.raises(UnsupportedStyleError, match=f"^{re.escape(message)}$"):
            parse_style("leaf,two-sided")

    def test_mirror_symmetry_within_tolerance(self):
        for style in GALLERY_STYLES:
            if style.anchoring is not Anchoring.TWO_SIDED:
                continue
            scene = layout(POSITIONS10, HOURS10, style)
            assert mirror_mismatch(scene) <= 1e-6

    def test_extent_monotonicity_within_each_scene(self):
        rng = random.Random(5)
        for style in GALLERY_STYLES:
            positions = [rng.randint(0, 10) for _ in range(10)]
            scene = layout(positions, HOURS10, style)
            measures = {}
            for glyph in scene.glyphs:
                measures.setdefault(positions[glyph.anchor_index], set()).add(
                    round(glyph_extent_measure(scene, glyph), 9)
                )
            ordered = sorted(measures)
            for p, q in zip(ordered, ordered[1:]):
                assert max(measures[p]) < min(measures[q]), style.label()

    def test_unfurl_guard_at_full_extent(self):
        for style in GALLERY_STYLES:
            if style.decoration is not Decoration.LEAF:
                continue
            scene = layout([10] * 10, HOURS10, style)
            for glyph in scene.glyphs:
                anchor_y = scene.anchors[glyph.anchor_index].point[1]
                top = max(y for path in glyph.paths for _, y in path.points)
                assert top <= anchor_y + 1e-9, style.label()

    def test_furled_leaf_is_a_spiral_not_a_line(self):
        scene = layout([0] * 10, HOURS10, LEAF_TWO_CURVY)
        glyph = scene.glyphs[0]
        midrib = glyph.paths[0]
        start = midrib.points[0]
        tip = midrib.points[-1]
        # heavy curl: the tip folds back close to the anchor
        assert math.dist(start, tip) < 0.5 * midrib.arc_length()

    def test_unfurled_leaf_is_flat(self):
        scene = layout([10] * 10, HOURS10, LEAF_TWO_CURVY)
        midrib = scene.glyphs[0].paths[0]
        ys = {round(y, 9) for _, y in midrib.points}
        assert len(ys) == 1  # horizontal straight midrib


class TestRenderSvg:
    def test_same_scene_twice_is_byte_identical(self):
        scene = layout(POSITIONS10, HOURS10, LEAF_TWO_CURVY)
        assert render_svg(scene).encode() == render_svg(scene).encode()

    def test_one_text_element_per_hour(self):
        scene = layout(POSITIONS10, HOURS10, LEAF_TWO_CURVY)
        doc = render_svg(scene)
        assert doc.count("<text") == len(HOURS10)
        for hour in HOURS10:
            assert f">{hour}H</text>" in doc

    def test_label_completeness_across_styles(self):
        for style in GALLERY_STYLES:
            doc = render_svg(layout(POSITIONS10, HOURS10, style))
            assert doc.count("<text") == len(HOURS10)

    def test_zero_area_canvas_rejected(self):
        scene = layout(POSITIONS10, HOURS10, BAR_ONE_STRAIGHT)
        with pytest.raises(ValueError):
            render_svg(scene, (0, 640))

    @pytest.mark.parametrize("canvas, message", [
        ((math.nan, 640), "canvas width must be an int >= 1, got nan"),
        ((math.inf, 640), "canvas width must be an int >= 1, got inf"),
        ((480, -math.inf), "canvas height must be an int >= 1, got -inf"),
        ((True, True), "canvas width must be an int >= 1, got True"),
        ((480.0, 640), "canvas width must be an int >= 1, got 480.0"),
        ((480, 0), "canvas height must be an int >= 1, got 0"),
    ])
    def test_a_canvas_that_is_not_two_positive_ints_is_refused(self, canvas, message):
        scene = layout(POSITIONS10, HOURS10, BAR_ONE_STRAIGHT)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            render_svg(scene, canvas)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            iter_frames(lowfi_timeline(100.0), HOURS10, BAR_ONE_STRAIGHT, canvas=canvas)

    @pytest.mark.parametrize("dims, canvas, message", [
        # The world width overflows, so the scale is 0.
        ((1.0, 0.0, 1e308), (480, 640), "canvas (480, 640) and dims (1.0, 0.0, 1e+308)"),
        # The world window is subnormal, so the scale is infinite.
        ((1e-320, 0.0, 1e-320), (480, 640), "canvas (480, 640) and dims (1e-320, 0.0, 1e-320)"),
        # The canvas width is beyond the floats.
        ((69.0, 6.5, 13.7), (10 ** 400, 640),
         f"canvas ({'1' + '0' * 78}... and dims (69.0, 6.5, 13.7)"),
    ], ids=["world-width-overflows", "world-subnormal", "canvas-beyond-floats"])
    def test_a_projection_that_is_not_finite_is_refused(self, dims, canvas, message):
        dims = ChartDimensions(*dims)
        scene = layout(POSITIONS10, HOURS10, LEAF_TWO_CURVY, dims)
        message = f"^{re.escape(message)} give no finite projection at a scale > 0$"
        kept = svg._trunk_d.cache_info()
        with pytest.raises(ValueError, match=message):
            render_svg(scene, canvas)
        with pytest.raises(ValueError, match=message):
            iter_frames(lowfi_timeline(100.0), HOURS10, LEAF_TWO_CURVY, dims, canvas)
        assert svg._trunk_d.cache_info() == kept

    def test_glyph_extents_scale_with_device_dimensions(self):
        dims = DEVICE_DIMENSIONS["plantform"]
        low = layout([0] * 10, HOURS10, LEAF_TWO_CURVY, dims)
        high = layout([10] * 10, HOURS10, LEAF_TWO_CURVY, dims)
        m_low = glyph_extent_measure(low, low.glyphs[0])
        m_high = glyph_extent_measure(high, high.glyphs[0])
        assert m_high / m_low == pytest.approx(13.7 / 6.5, rel=1e-3)

    def test_coordinates_use_three_decimals(self):
        doc = render_svg(layout(POSITIONS10, HOURS10, BAR_ONE_STRAIGHT))
        for token in doc.split('d="')[1].split('"')[0].split():
            if token in ("M", "L", "Z"):
                continue
            assert len(token.split(".")[-1]) == 3


class TestRenderFrames:
    def test_lowfi_timeline_renders_one_document_per_frame(self):
        timeline = lowfi_timeline(100.0)
        docs = render_frames(timeline, HOURS10, LEAF_TWO_CURVY)
        assert len(docs) == 5

    def test_empty_timeline_renders_nothing(self):
        docs = render_frames(lowfi_timeline(0.0), HOURS10, LEAF_TWO_CURVY)
        assert docs == []

    def test_graphical_plan_sampling(self):
        plan = plan_for_profile([10] * 10, [0] * 10, PLANTSCREEN)
        docs = render_frames(plan, HOURS10, LEAF_TWO_CURVY, fps=4.0)
        assert len(docs) == 80

    def test_final_frame_shows_the_targets(self):
        plan = plan_for_profile([10] * 10, [0] * 10, PLANTSCREEN)
        docs = render_frames(plan, HOURS10, LEAF_TWO_CURVY, fps=2.0)
        final = render_svg(layout([10] * 10, HOURS10, LEAF_TWO_CURVY))
        assert docs[-1] == final

    def test_empty_plan_renders_nothing(self):
        assert render_frames(MotionPlan("plantscreen", (), 0.0), HOURS10, LEAF_TWO_CURVY) == []

    @pytest.mark.parametrize(
        "duration, fps, count",
        [
            (20.0, 4.0, 80),
            (0.1 * 3, 10.0, 3),  # 3.0000000000000004 frames
            (3 + 5e-10, 1.0, 3),
            (3 - 5e-10, 1.0, 3),
            (3 + 2e-9, 1.0, 4),
        ],
    )
    def test_frame_count_within_1e_9_of_a_whole_number(self, duration, fps, count):
        plan = MotionPlan("plantscreen", (MotionCommand(0, 0, 10, 0.0, duration),), duration)
        assert len(render_frames(plan, HOURS10, BAR_ONE_STRAIGHT, fps=fps)) == count

    def test_a_ten_hour_screen_transition_at_60_fps_renders(self):
        plan = transition_plan([10] * 10, [10] * 10, PLANTSCREEN)
        assert plan.total_duration == 40.0
        assert len(render_frames(plan, HOURS10, BAR_ONE_STRAIGHT, fps=60.0)) == 2400

    def test_a_frame_count_past_the_bound_is_refused(self):
        duration = MAX_FRAMES + 2e-9
        plan = MotionPlan("plantscreen", (MotionCommand(0, 0, 10, 0.0, duration),), duration)
        with pytest.raises(ValueError, match=f"more than {MAX_FRAMES} frames"):
            render_frames(plan, HOURS10, BAR_ONE_STRAIGHT, fps=1.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"fps": True}, "^fps must be a finite number > 0, got True$"),
        ({"full_extension": math.nan}, "^full_extension must be a finite number, got nan$"),
        ({"full_extension": math.inf}, "^full_extension must be a finite number, got inf$"),
        ({"full_extension": True}, "^full_extension must be a finite number, got True$"),
    ])
    def test_a_bad_fps_or_full_extension_is_refused_before_the_first_frame(self, kwargs,
                                                                           message):
        source = plan_for_profile([10] * 10, [0] * 10, PLANTSCREEN)
        if "full_extension" in kwargs:
            source = lowfi_timeline(100.0)
        with pytest.raises(ValueError, match=message):
            iter_frames(source, HOURS10, LEAF_TWO_CURVY, **kwargs)

    @pytest.mark.parametrize("initial, message", [
        pytest.param([0, 0, 0, 0], "expected 3 initial_positions, one per hour, got 4",
                     id="one-too-many"),
        pytest.param([0, 0], "expected 3 initial_positions, one per hour, got 2",
                     id="one-too-few"),
        pytest.param([0, 0, True], "initial_positions[2] must be an int in [0, 10], got True",
                     id="bool"),
        pytest.param([0, 11, 0], "initial_positions[1] must be an int in [0, 10], got 11",
                     id="past-10"),
        pytest.param([0, 5.0, 0], "initial_positions[1] must be an int in [0, 10], got 5.0",
                     id="float"),
    ])
    def test_bad_initial_positions_are_refused_before_the_first_frame(self, initial, message):
        plan = plan_for_profile([10] * 3, [0] * 3, PLANTSCREEN)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            iter_frames(plan, HOURS10[:3], BAR_ONE_STRAIGHT, initial_positions=initial)

    @pytest.mark.parametrize("source", [
        plan_for_profile([0] * 3, [0] * 3, PLANTFORM),
        lowfi_series_timeline([0.0] * 3),
    ], ids=["plan-with-no-commands", "zero-delta-timeline"])
    @pytest.mark.parametrize("hours, canvas, message", [
        ([8, 9], (480, 640), "a chart displays 3..10 hours, got 2"),
        ([8, 9, 10], (0, 0), "canvas width must be an int >= 1, got 0"),
    ], ids=["two-hours", "canvas-0x0"])
    def test_a_source_with_no_frames_is_still_checked(self, source, hours, canvas, message):
        assert len(render_frames(source, [8, 9, 10], BAR_ONE_STRAIGHT)) == 0
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            iter_frames(source, hours, BAR_ONE_STRAIGHT, canvas=canvas)

    @pytest.mark.parametrize("timeline, full_extension", [
        pytest.param(FrameTimeline((TimelineFrame(0.32, (0.0,)), TimelineFrame(0.64, (0.0,))),
                                   0.32), None, id="all-zero-timeline"),
        pytest.param(lowfi_timeline(100.0), 0.0, id="full-extension-0"),
        pytest.param(lowfi_timeline(100.0), -1.0, id="full-extension-negative"),
    ])
    def test_a_full_extension_at_most_0_reads_as_1(self, timeline, full_extension):
        def frames(full_extension):
            return render_frames(timeline, HOURS10, LEAF_TWO_CURVY,
                                 full_extension=full_extension)
        assert frames(full_extension) == frames(1.0)

    def test_a_timeline_whose_channels_are_not_the_hours_is_refused(self):
        timeline = lowfi_series_timeline([10.0, 20.0, 30.0])
        with pytest.raises(ValueError, match="^timeline carries 3 channels for 5 hours$"):
            iter_frames(timeline, HOURS10[:5], BAR_ONE_STRAIGHT)

    def test_cairnscreen_final_frame_is_the_static_chart(self):
        style = parse_style("ring,two-sided,straight")
        dims = DEVICE_DIMENSIONS["cairnscreen"]
        hours = [9, 10, 11, 12, 13]
        targets = [0, 4, 10, 5, 3]
        plan = plan_for_profile(targets, [0] * 5, CAIRNSCREEN, [h - 8 for h in hours])
        docs = render_frames(plan, hours, style, dims, fps=3.0)
        assert len(docs) == 30
        assert docs[-1] == render_svg(layout(targets, hours, style, dims))


class TestGallery:
    def test_gallery_has_ten_distinct_styles(self):
        gallery = design_space_gallery()
        assert len(gallery) >= 10
        labels = {style.label() for style, _ in gallery}
        assert len(labels) == len(gallery)

    def test_gallery_covers_the_studied_designs(self):
        labels = {style.label() for style, _ in design_space_gallery()}
        expected = {
            "bar-one-sided-straight-growth",
            "bar-one-sided-curvy-growth",
            "bar-alternated-curvy-growth",
            "leaf-one-sided-straight-unfurl",
            "leaf-one-sided-curvy-unfurl",
            "leaf-alternated-curvy-unfurl",
            "bamboo-two-sided-curvy-growth",
            "leaf-two-sided-curvy-unfurl",
            "bar-two-sided-straight-growth",
            "ring-two-sided-straight-growth",
        }
        assert expected <= labels

    def test_gallery_entry_equals_direct_layout_call(self):
        gallery = dict(design_space_gallery())
        direct = render_svg(layout(list(GALLERY_POSITIONS), list(GALLERY_HOURS), BAR_ONE_STRAIGHT))
        assert gallery[BAR_ONE_STRAIGHT] == direct

    def test_gallery_scenes_satisfy_scene_invariants(self):
        for style in GALLERY_STYLES:
            scene = layout(list(GALLERY_POSITIONS), list(GALLERY_HOURS), style)
            assert len(scene.anchors) == len(GALLERY_HOURS)
            if style.anchoring is Anchoring.TWO_SIDED:
                assert mirror_mismatch(scene) <= 1e-6
            if style.anchoring is Anchoring.ALTERNATED:
                sides = [a.side for a in scene.anchors]
                assert all(a != b for a, b in zip(sides, sides[1:]))
