"""Deterministic SVG documents for chart scenes.

Coordinates are formatted to exactly three decimals and elements are
emitted in a fixed order (trunk, glyphs, labels), so the same scene always
serializes to the same bytes -- golden-file tests compare documents
directly.  Shapes keep a single unchanging green; only shape encodes the
data.

Static charts and animation frames share one serializer, in three parts:
the header with the trunk, the glyphs, and the hour labels with the closing
tag.  Within one :func:`iter_frames` call the canvas, style, dimensions
and hours are fixed, so the projection and the first and last parts are
serialized once.  An anchor's glyph text depends only on the anchor's index
and its extent: it is laid out and serialized the first time a frame shows
that pair, and later frames showing it reuse the text.  Each frame thus
costs only the anchors that moved since an earlier frame, and frames are
made one at a time, so writing them holds one document and the glyph texts.

Across documents, the trunk's path data is formatted once per trunk and
projection.  Every chart drawn for one device on one canvas has the same
trunk, so a process drawing many of them formats it once.  The text is
kept by the trunk's points and the projection, never by the style or the
dimensions, since a hand-built scene may carry any trunk; at most
:data:`TRUNK_CACHE_SIZE` texts are kept.

Each run of points is formatted with one ``%`` operation, against a
template of one ``"%.3f %.3f"`` per point joined by ``" L "``; at most
:data:`TEMPLATE_CACHE_SIZE` templates are kept, one per point count.
Within one glyph, a path whose points begin with all of the previous path's
points reuses that path's formatted text and formats only the rest.  A
leaf's blade starts with its midrib's points, so they are formatted once.
Reuse compares points by value, here and for the trunk, which keeps the
bytes: equal floats format alike once ``-0.000`` is rewritten as
``0.000``, and a NaN matches at most itself.

Of the package this module imports ``_checks`` and ``render`` at load,
so a process that draws static charts loads no forecast pipeline.  Only
:func:`iter_frames` samples a plan or a timeline, and it imports
``motion`` when called; a repeated import costs about a microsecond
against milliseconds per frames call.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from typing import TYPE_CHECKING

from . import _checks
from ._checks import POSITION_MAX, POSITION_MIN
from .render import (
    DEFAULT_DIMENSIONS,
    Anchoring,
    Animation,
    ChartDimensions,
    ChartScene,
    ChartStyle,
    Decoration,
    Glyph,
    GlyphPath,
    TrunkForm,
    check_extents,
    layout,
    layout_extents,
    place_anchor,
)

if TYPE_CHECKING:
    from .motion import FrameTimeline, MotionPlan

GLYPH_FILL = "#3f7d2e"
GLYPH_STROKE = "#2c5a20"
TRUNK_STROKE = "#6b4f2d"
LABEL_FILL = "#3d3325"

DEFAULT_CANVAS = (480, 640)
MARGIN_RATIO = 0.06
#: Trunk path texts kept, each for one trunk and one projection.
TRUNK_CACHE_SIZE = 16
#: Path-data templates kept, each for one count of points.
TEMPLATE_CACHE_SIZE = 32


def render_svg(scene: ChartScene, canvas: tuple[int, int] = DEFAULT_CANVAS) -> str:
    """Serialize a scene to a standalone SVG 1.1 document."""
    head, glyph_text, tail = _serializer(scene, canvas)
    return head + "".join(map(glyph_text, scene.glyphs)) + tail


def _serializer(scene: ChartScene, canvas: tuple[int, int]):
    """The three parts of a scene's document: the text before the glyphs
    (header and trunk), a function serializing one glyph, and the text
    after them (hour labels and the closing tag).  Only the glyph text
    depends on the extents, and every part ends in a newline."""
    width, height = canvas
    _checks.an_int("canvas width", width, 1)
    _checks.an_int("canvas height", height, 1)

    # Fixed world window: the chart extents do not depend on the displayed
    # positions, so documents for different data share one projection.
    dims = scene.dims
    amplitude = 0.08 * dims.chart_height
    reach = dims.glyph_max_extent + amplitude
    world_w = 2 * reach * 1.06
    world_h = dims.chart_height * 1.12
    try:
        margin = MARGIN_RATIO * min(width, height)
        scale = min((width - 2 * margin) / world_w, (height - 2 * margin) / world_h)
        x0 = width / 2
        y0 = height - margin
    except OverflowError:  # a canvas side beyond the floats
        x0 = y0 = scale = math.inf
    if not (_checks.is_finite(x0) and _checks.is_finite(y0) and _checks.is_finite(scale)
            and scale > 0):
        raise ValueError(
            f"canvas {_checks.quote(canvas)} and dims "
            f"{(dims.chart_height, dims.glyph_min_extent, dims.glyph_max_extent)} "
            "give no finite projection at a scale > 0"
        )

    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<path d="{_trunk_d(scene.trunk, x0, y0, scale)}" fill="none" '
        f'stroke="{TRUNK_STROKE}" stroke-width="{_fmt(0.16 * scene.slot * scale)}" '
        'stroke-linecap="round"/>\n'
    )
    closed_attrs = (
        f'" fill="{GLYPH_FILL}" stroke="{GLYPH_STROKE}" '
        f'stroke-width="{_fmt(0.03 * scene.slot * scale)}"/>\n'
    )
    open_attrs = (
        f'" fill="none" stroke="{GLYPH_STROKE}" '
        f'stroke-width="{_fmt(0.05 * scene.slot * scale)}"/>\n'
    )

    def glyph_text(glyph: Glyph) -> str:
        parts = []
        prev_points, prev_text = (), ""
        for path in glyph.paths:
            points = path.points
            k = len(prev_points)
            if k and points[:k] == prev_points:
                rest = points[k:]
                text = prev_text + " L " + _text(rest, x0, y0, scale) if rest else prev_text
            else:
                text = _text(points, x0, y0, scale)
            parts.append(f'<path d="{_d(text, path.closed)}')
            parts.append(closed_attrs if path.closed else open_attrs)
            prev_points, prev_text = points, text
        return "".join(parts)

    font = _fmt(0.34 * scene.slot * scale)
    labels = []
    for anchor in scene.anchors:
        x, y = anchor.point
        labels.append(
            f'<text x="{_fmt(x0 + x * scale)}" y="{_fmt(y0 - y * scale)}" font-size="{font}" '
            f'font-family="sans-serif" text-anchor="middle" dominant-baseline="middle" '
            f'fill="{LABEL_FILL}">{anchor.hour}H</text>\n'
        )
    return head, glyph_text, "".join(labels) + "</svg>\n"


def render_frames(*args, **kwargs) -> list[str]:
    """Every document of :func:`iter_frames` for the same arguments, in one list."""
    return list(iter_frames(*args, **kwargs))


def iter_frames(
    source: FrameTimeline | MotionPlan,
    hours: list[int],
    style: ChartStyle,
    dims: ChartDimensions = DEFAULT_DIMENSIONS,
    canvas: tuple[int, int] = DEFAULT_CANVAS,
    fps: float = 4.0,
    initial_positions: list[int] | None = None,
    full_extension: float | None = None,
) -> Iterator[str]:
    """One SVG document per animation frame, ready for GIF assembly, made
    as the returned iterator is advanced.

    A frame timeline renders its own frames (point extensions normalized by
    ``full_extension``, a finite number, default the timeline maximum, and
    1.0 when at most 0; single-channel frames broadcast to every hour).  A motion plan is sampled at ``fps`` into at
    most :data:`.motion.MAX_FRAMES` frames; hours show plan leaves by
    ``leaf_for_hour``, and a leaf shows its hour's ``initial_positions``
    entry, an int in [0, 10] and default 0, until its first command starts.
    Every input is checked before this returns, so a bad frame raises
    ``ValueError`` here, before the first document is made.
    """
    from .motion import MAX_FRAMES, FrameTimeline, leaf_for_hour

    if isinstance(source, FrameTimeline):
        extent_rows = _timeline_extents(source, len(hours), full_extension)
    else:
        _checks.positive("fps", fps)
        if not source.total_duration * fps <= MAX_FRAMES:  # an infinite count too
            raise ValueError(
                f"{source.total_duration} s at {fps} fps is more than {MAX_FRAMES} frames")
        if initial_positions is None:
            initial_positions = [0] * len(hours)
        elif len(initial_positions) != len(hours):
            raise ValueError(f"expected {len(hours)} initial_positions, one per hour, "
                             f"got {len(initial_positions)}")
        for i, position in enumerate(initial_positions):
            _checks.an_int(f"initial_positions[{i}]", position, POSITION_MIN, POSITION_MAX)
        leaves = [leaf_for_hour(h) for h in hours]
        extent_rows = _plan_extents(source, leaves, fps, initial_positions)
    # With no frames, a furled row still checks the hours and the canvas.
    first = extent_rows[0] if extent_rows else [0.0] * len(hours)
    scene = layout_extents(first, hours, style, dims)
    serializer = _serializer(scene, canvas)
    for row in extent_rows[1:]:
        check_extents(row, hours)
    return _documents(extent_rows, scene, serializer)


def _documents(extent_rows, scene, serializer) -> Iterator[str]:
    head, glyph_text, tail = serializer
    hours, style, dims = scene.hours, scene.style, scene.dims
    # Glyph text of one anchor at one extent, seeded from the first frame.
    pieces: dict[tuple[int, float], str] = {}
    for glyph in scene.glyphs:
        key = (glyph.anchor_index, glyph.extent)
        pieces[key] = pieces.get(key, "") + glyph_text(glyph)
    n = len(hours)
    for row in extent_rows:
        parts = [head]
        for i, extent in enumerate(row):
            piece = pieces.get((i, extent))
            if piece is None:
                _, glyphs = place_anchor(i, hours[i], extent, n, style, dims)
                piece = pieces[i, extent] = "".join(map(glyph_text, glyphs))
            parts.append(piece)
        parts.append(tail)
        yield "".join(parts)


def _timeline_extents(timeline, n_hours, full_extension):
    if full_extension is None:
        peak = max((max(f.extensions) for f in timeline.frames), default=1.0)
    else:
        peak = _checks.finite("full_extension", full_extension)
    if peak <= 0:
        peak = 1.0
    rows = []
    for frame in timeline.frames:
        ext = frame.extensions
        if len(ext) == 1:
            ext = ext * n_hours
        elif len(ext) != n_hours:
            raise ValueError(
                f"timeline carries {len(ext)} channels for {n_hours} hours"
            )
        rows.append([min(1.0, e / peak) for e in ext])
    return rows


def _plan_extents(plan, leaves, fps, initial_positions):
    """Each frame's extents of ``leaves``, sampled at ``fps``; the caller
    has checked every argument."""
    per_leaf = {leaf: [] for leaf in leaves}
    for cmd in plan.commands:
        if cmd.leaf in per_leaf:
            per_leaf[cmd.leaf].append(cmd)
    # A leaf shows its last started command (in plan order, up to the first
    # one not yet started).  Frame times only grow, so each leaf's count of
    # started commands only grows: it is advanced, never recounted.
    started = dict.fromkeys(leaves, 0)

    count = math.ceil(plan.total_duration * fps - 1e-9)
    rows = []
    for k in range(count):
        t = (k + 1) / fps
        row = []
        for leaf, base in zip(leaves, initial_positions):
            cmds = per_leaf[leaf]
            m = started[leaf]
            while m < len(cmds) and t >= cmds[m].start_time:
                m += 1
            started[leaf] = m
            if m == 0:
                pos = float(base)
            else:
                cmd = cmds[m - 1]
                if t >= cmd.start_time + cmd.duration:
                    pos = float(cmd.target)
                else:
                    frac = (t - cmd.start_time) / cmd.duration if cmd.duration else 1.0
                    pos = cmd.source + (cmd.target - cmd.source) * frac
            row.append(pos / 10)
        rows.append(row)
    return rows


# Canonical gallery data: a full working day rising to a midday peak,
# encoded peak-relative.
GALLERY_HOURS = tuple(range(8, 18))
GALLERY_POSITIONS = (0, 4, 4, 5, 10, 5, 5, 4, 3, 0)

GALLERY_STYLES = (
    ChartStyle(TrunkForm.STRAIGHT, Anchoring.ONE_SIDED, Decoration.BAR, Animation.GROWTH),
    ChartStyle(TrunkForm.CURVY, Anchoring.ONE_SIDED, Decoration.BAR, Animation.GROWTH),
    ChartStyle(TrunkForm.CURVY, Anchoring.ALTERNATED, Decoration.BAR, Animation.GROWTH),
    ChartStyle(TrunkForm.STRAIGHT, Anchoring.ONE_SIDED, Decoration.LEAF, Animation.UNFURL),
    ChartStyle(TrunkForm.CURVY, Anchoring.ONE_SIDED, Decoration.LEAF, Animation.UNFURL),
    ChartStyle(TrunkForm.CURVY, Anchoring.ALTERNATED, Decoration.LEAF, Animation.UNFURL),
    ChartStyle(TrunkForm.CURVY, Anchoring.TWO_SIDED, Decoration.BAMBOO, Animation.GROWTH),
    ChartStyle(TrunkForm.CURVY, Anchoring.TWO_SIDED, Decoration.LEAF, Animation.UNFURL),
    ChartStyle(TrunkForm.STRAIGHT, Anchoring.TWO_SIDED, Decoration.BAR, Animation.GROWTH),
    ChartStyle(TrunkForm.STRAIGHT, Anchoring.TWO_SIDED, Decoration.RING, Animation.GROWTH),
)


def design_space_gallery(
    dims: ChartDimensions = DEFAULT_DIMENSIONS,
    canvas: tuple[int, int] = DEFAULT_CANVAS,
) -> list[tuple[ChartStyle, str]]:
    """Render the whole explored design space on the canonical day: the six
    low-fidelity chart styles plus the four evaluated device styles."""
    return [
        (style, render_svg(layout(list(GALLERY_POSITIONS), list(GALLERY_HOURS), style, dims), canvas))
        for style in GALLERY_STYLES
    ]


def _fmt(value: float) -> str:
    """``value`` to three decimals, rounded correctly; ``-0.000`` prints
    as ``0.000``."""
    text = "%.3f" % value
    return "0.000" if text == "-0.000" else text


def _path_d(path: GlyphPath, x0: float, y0: float, scale: float) -> str:
    """Path data for ``path`` projected to ``(x0 + x*scale, y0 - y*scale)``,
    every coordinate formatted as :func:`_fmt` does."""
    return _d(_text(path.points, x0, y0, scale), path.closed)


# The trunk's text by the path's value and the projection: not by the style
# or dimensions, since a hand-built scene may carry any trunk.
_trunk_d = functools.lru_cache(maxsize=TRUNK_CACHE_SIZE)(_path_d)


@functools.lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def _template(n: int) -> str:
    """The format of ``n`` points: ``"%.3f %.3f"`` ``n`` times, joined by ``" L "``."""
    return " L ".join(["%.3f %.3f"] * n)


def _text(points, x0: float, y0: float, scale: float) -> str:
    """The points projected and formatted to three decimals, ``"x y"``
    each, joined by ``" L "``, in one ``%`` operation.  A coordinate that
    rounds to zero from below reads ``-0.000`` until :func:`_d` rewrites
    it, so equal points give equal path data."""
    coords = []
    append = coords.append
    for x, y in points:
        append(x0 + x * scale)
        append(y0 - y * scale)
    return _template(len(points)) % tuple(coords)


def _d(text: str, closed: bool) -> str:
    """Path data from the points' text: a moveto, linetos, and a
    closepath when ``closed``."""
    if not text:
        return "Z" if closed else ""
    # A number reads "-0.000" only where _fmt would print "0.000": every
    # number has exactly three decimals and a sign only at its start.
    d = "M " + text.replace("-0.000", "0.000")
    return d + " Z" if closed else d
