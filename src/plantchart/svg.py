"""Deterministic SVG documents for chart scenes.

Coordinates are formatted to exactly three decimals and elements are
emitted in a fixed order (trunk, glyphs, labels), so the same scene always
serializes to the same bytes -- golden-file tests compare documents
directly.  Shapes keep a single unchanging green; only shape encodes the
data.
"""

from __future__ import annotations

import math

from .motion import FrameTimeline, MotionPlan
from .render import (
    DEFAULT_DIMENSIONS,
    Anchoring,
    Animation,
    ChartDimensions,
    ChartScene,
    ChartStyle,
    Decoration,
    GlyphPath,
    TrunkForm,
    layout,
    layout_extents,
)
from .series import FIRST_HOUR

GLYPH_FILL = "#3f7d2e"
GLYPH_STROKE = "#2c5a20"
TRUNK_STROKE = "#6b4f2d"
LABEL_FILL = "#3d3325"

DEFAULT_CANVAS = (480, 640)
MARGIN_RATIO = 0.06


def render_svg(scene: ChartScene, canvas: tuple[int, int] = DEFAULT_CANVAS) -> str:
    """Serialize a scene to a standalone SVG 1.1 document."""
    width, height = canvas
    if width <= 0 or height <= 0:
        raise ValueError(f"canvas must have positive area, got {canvas}")

    # Fixed world window: the chart extents do not depend on the displayed
    # positions, so documents for different data share one projection.
    dims = scene.dims
    amplitude = 0.08 * dims.chart_height
    reach = dims.glyph_max_extent + amplitude
    world_w = 2 * reach * 1.06
    world_h = dims.chart_height * 1.12
    margin = MARGIN_RATIO * min(width, height)
    scale = min((width - 2 * margin) / world_w, (height - 2 * margin) / world_h)

    def project(p):
        x, y = p
        return (width / 2 + x * scale, height - margin - y * scale)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<path d="{_path_d(scene.trunk, project)}" fill="none" '
        f'stroke="{TRUNK_STROKE}" stroke-width="{_fmt(0.16 * scene.slot * scale)}" '
        'stroke-linecap="round"/>',
    ]
    for glyph in scene.glyphs:
        for path in glyph.paths:
            d = _path_d(path, project)
            if path.closed:
                lines.append(
                    f'<path d="{d}" fill="{GLYPH_FILL}" stroke="{GLYPH_STROKE}" '
                    f'stroke-width="{_fmt(0.03 * scene.slot * scale)}"/>'
                )
            else:
                lines.append(
                    f'<path d="{d}" fill="none" stroke="{GLYPH_STROKE}" '
                    f'stroke-width="{_fmt(0.05 * scene.slot * scale)}"/>'
                )
    font = _fmt(0.34 * scene.slot * scale)
    for anchor in scene.anchors:
        x, y = project(anchor.point)
        lines.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{font}" '
            f'font-family="sans-serif" text-anchor="middle" dominant-baseline="middle" '
            f'fill="{LABEL_FILL}">{anchor.hour}H</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_frames(
    source: FrameTimeline | MotionPlan,
    hours: list[int],
    style: ChartStyle,
    dims: ChartDimensions = DEFAULT_DIMENSIONS,
    canvas: tuple[int, int] = DEFAULT_CANVAS,
    fps: float = 4.0,
    initial_positions: list[int] | None = None,
    full_extension: float | None = None,
) -> list[str]:
    """One SVG document per animation frame, ready for GIF assembly.

    A frame timeline renders its own frames (point extensions normalized by
    ``full_extension``, default the timeline maximum; single-channel frames
    broadcast to every hour).  A motion plan is sampled at ``fps``; plan
    leaf indices are hour-aligned (leaf 0 is the 8-o'clock leaf).
    """
    if isinstance(source, FrameTimeline):
        extent_rows = _timeline_extents(source, len(hours), full_extension)
    else:
        extent_rows = _plan_extents(source, hours, fps, initial_positions)
    return [
        render_svg(layout_extents(row, hours, style, dims), canvas)
        for row in extent_rows
    ]


def _timeline_extents(timeline, n_hours, full_extension):
    peak = full_extension
    if peak is None:
        peak = max((max(f.extensions) for f in timeline.frames), default=1.0)
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


def _plan_extents(plan, hours, fps, initial_positions):
    if not (math.isfinite(fps) and fps > 0):
        raise ValueError(f"fps must be a finite number > 0, got {fps}")
    if initial_positions is None:
        initial_positions = [0] * len(hours)
    leaves = [h - FIRST_HOUR for h in hours]
    per_leaf = {leaf: [] for leaf in leaves}
    for cmd in plan.commands:
        if cmd.leaf in per_leaf:
            per_leaf[cmd.leaf].append(cmd)

    def position_at(leaf, base, t):
        pos = float(base)
        for cmd in per_leaf[leaf]:
            if t >= cmd.start_time + cmd.duration:
                pos = float(cmd.target)
            elif t >= cmd.start_time:
                frac = (t - cmd.start_time) / cmd.duration if cmd.duration else 1.0
                pos = cmd.source + (cmd.target - cmd.source) * frac
            else:
                break
        return pos

    count = math.ceil(plan.total_duration * fps - 1e-9)
    rows = []
    for k in range(count):
        t = (k + 1) / fps
        rows.append(
            [
                position_at(leaf, base, t) / 10
                for leaf, base in zip(leaves, initial_positions)
            ]
        )
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
    return f"{round(value, 3) + 0.0:.3f}"


def _path_d(path: GlyphPath, project) -> str:
    cmds = []
    for i, point in enumerate(path.points):
        x, y = project(point)
        cmds.append(f"{'M' if i == 0 else 'L'} {_fmt(x)} {_fmt(y)}")
    if path.closed:
        cmds.append("Z")
    return " ".join(cmds)
