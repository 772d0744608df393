"""``render_frames`` against the whole-frame reference in ``oracles``: the
same documents byte for byte, or the same error, for plans of every
builtin profile, frame timelines, every gallery style and odd canvases."""

from hypothesis import example, given, settings, strategies as st

from oracles import reference_fmt, reference_render_frames
from plantchart.motion import (
    BUILTIN_PROFILES,
    FrameTimeline,
    TimelineFrame,
    lowfi_series_timeline,
    lowfi_timeline,
    plan_for_profile,
    transition_plan,
)
from plantchart.render import DEVICE_DIMENSIONS, GlyphPath
from plantchart.svg import GALLERY_STYLES, _fmt, _path_d, iter_frames, render_frames

# The reference lays out and serializes every frame whole; keeping each
# animation this short keeps the test to seconds.
MAX_FRAMES = 48

styles = st.sampled_from(GALLERY_STYLES)
dimensions = st.sampled_from(list(DEVICE_DIMENSIONS.values()))
canvases = st.tuples(st.integers(1, 1201), st.integers(1, 1601))
positions = st.integers(0, 10)


def outcome(render, *args, **kwargs):
    try:
        return render(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def chart_hours(draw) -> list[int]:
    """3..10 consecutive hours; the last may be 18:00, which no plan leaf
    drives."""
    length = draw(st.integers(3, 10))
    start = draw(st.integers(8, 19 - length))
    return list(range(start, start + length))


@st.composite
def plan_cases(draw):
    hours = draw(chart_hours())
    leaves = [h - 8 for h in hours if h <= 17]
    profile = draw(st.sampled_from(list(BUILTIN_PROFILES.values())))
    current = draw(st.lists(positions, min_size=len(leaves), max_size=len(leaves)))
    targets = draw(st.lists(positions, min_size=len(leaves), max_size=len(leaves)))
    if draw(st.booleans()):
        # Screen profiles wipe to 0 first; the others move directly.
        plan = transition_plan(current, targets, profile, leaves)
    else:
        plan = plan_for_profile(targets, current, profile, leaves)
    initial = None
    if any(current) or draw(st.booleans()):
        initial = current + draw(st.lists(positions, min_size=len(hours) - len(leaves),
                                          max_size=len(hours) - len(leaves)))
    top = min(30.0, MAX_FRAMES / plan.total_duration) if plan.total_duration else 30.0
    fps = draw(st.floats(0.5, max(0.5, top)))
    return plan, hours, fps, initial


@st.composite
def timeline_cases(draw):
    hours = draw(chart_hours())
    kind = draw(st.sampled_from(["broadcast", "series", "frames"]))
    if kind == "broadcast":
        timeline = lowfi_timeline(draw(st.floats(0, 300)))
    elif kind == "series":
        deltas = draw(st.lists(st.floats(0, 300), min_size=len(hours), max_size=len(hours)))
        timeline = lowfi_series_timeline(deltas)
    else:
        channels = draw(st.sampled_from([1, len(hours)]))
        rows = draw(st.lists(
            st.lists(st.floats(0, 150), min_size=channels, max_size=channels),
            max_size=12,
        ))
        if rows and draw(st.booleans()):
            # A negative extension fails its frame's range check.
            k = draw(st.integers(0, len(rows) - 1))
            rows[k][0] = -draw(st.floats(1e-6, 10))
        timeline = FrameTimeline(
            tuple(TimelineFrame(0.32 * (k + 1), tuple(row)) for k, row in enumerate(rows)),
            0.32,
        )
    full_extension = draw(st.none() | st.floats(-1, 200))
    return timeline, hours, full_extension


@settings(max_examples=30, deadline=None)
@given(plan_cases(), styles, dimensions, canvases)
def test_plan_frames_equal_the_reference(case, style, dims, canvas):
    plan, hours, fps, initial = case
    args = (plan, hours, style, dims, canvas, fps, initial)
    assert outcome(render_frames, *args) == outcome(reference_render_frames, *args)


@settings(max_examples=30, deadline=None)
@given(timeline_cases(), styles, dimensions, canvases)
def test_timeline_frames_equal_the_reference(case, style, dims, canvas):
    timeline, hours, full_extension = case
    kwargs = dict(dims=dims, canvas=canvas, full_extension=full_extension)
    got = outcome(render_frames, timeline, hours, style, **kwargs)
    assert got == outcome(reference_render_frames, timeline, hours, style, **kwargs)


def test_every_gallery_style_on_a_wipe_equals_the_reference():
    profile = BUILTIN_PROFILES["plantscreen"]
    hours = list(range(8, 13))
    plan = transition_plan([3, 10, 0, 6, 2], [5, 0, 7, 7, 10], profile, [0, 1, 2, 3, 4])
    for style in GALLERY_STYLES:
        args = (plan, hours, style, DEVICE_DIMENSIONS["plantscreen"], (481, 333), 2.5,
                [3, 10, 0, 6, 2])
        assert render_frames(*args) == reference_render_frames(*args), style.label()


def test_a_later_frame_out_of_range_fails_like_the_reference():
    rows = [(10.0,), (20.0,), (-3.0,), (40.0,)]
    timeline = FrameTimeline(
        tuple(TimelineFrame(0.32 * (k + 1), row) for k, row in enumerate(rows)), 0.32
    )
    args = (timeline, list(range(8, 12)), GALLERY_STYLES[0])
    got = outcome(render_frames, *args)
    assert got == (ValueError, "extent -0.075 out of range [0, 1]")
    assert got == outcome(reference_render_frames, *args)
    # The streaming form raises before its first document is made.
    assert outcome(iter_frames, *args) == got


@given(st.floats(-1e6, 1e6) | st.floats(-0.0005, 0.0))
@example(0.0005)
@example(2.0005)
@example(-1.2345)
@example(-0.0004999)
@example(-0.0)
@example(1e6 + 0.0005)
def test_fmt_equals_rounding_first(value):
    assert _fmt(value) == reference_fmt(value)
    # Path data formats every coordinate the same way.
    d = _path_d(GlyphPath(((value, -value), (0.0, value))), 0.0, 0.0, 1.0)
    coords = (value, value, 0.0, -value)
    assert d == "M {} {} L {} {}".format(*map(reference_fmt, coords))
