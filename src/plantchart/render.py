"""Layout of plant-like vertical charts as resolved 2-D geometry.

A chart is a vertical trunk with one anchor per displayed hour, carrying
decorations whose extent encodes the hour's position (0..10).  The design
space has four axes:

* trunk form -- straight, or curvy (a sinusoidal horizontal offset);
* anchoring -- one-sided, two-sided (mirrored), or alternated sides;
* decoration -- bar, bamboo stick, plant leaf, or expanding ring;
* animation -- growth (length scaling) or unfurl (a spiral curl that
  flattens as the extent grows).

Scene coordinates are centimeters, x to the right, y upward, origin at the
trunk base.  Leaves are drawn with the blade hanging below the midrib, so a
fully unfurled leaf never rises above the horizontal through its anchor.
Layout is pure: scenes are immutable values.

Geometry that depends on no data is built once.  The sines of the trunk's
curve, the leaf's length shares and blade profile, and the ring's unit
circle (``_RING_COS`` and ``_RING_SIN``, one entry per ring sample) are
tables made at import, each entry the expression the per-chart code would
evaluate, so every bit is kept.  A chart's trunk depends only on its form
and its height, and :func:`layout_extents` takes it from a memo that keeps
at most :data:`TRUNK_MEMO_SIZE` trunks, so charts of one device share one
trunk object.  The memo keys on the height's type as well as its value:
an int height and the float equal to it give different trunk points once
``height * k`` is past 2**53, where the int product is exact and the float
one rounds, and ``2**53 - 1`` as int and as float differ in 29 of 97.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from . import _checks
from .encoder import POSITION_MAX, POSITION_MIN, LeafPosition
from .series import MAX_SAMPLES, MIN_SAMPLES, HourSlot


class TrunkForm(enum.Enum):
    STRAIGHT = "straight"
    CURVY = "curvy"


class Anchoring(enum.Enum):
    ONE_SIDED = "one-sided"
    TWO_SIDED = "two-sided"
    ALTERNATED = "alternated"


class Decoration(enum.Enum):
    BAR = "bar"
    BAMBOO = "bamboo"
    LEAF = "leaf"
    RING = "ring"


class Animation(enum.Enum):
    GROWTH = "growth"
    UNFURL = "unfurl"


class UnsupportedStyleError(ValueError):
    pass


@dataclass(frozen=True)
class ChartStyle:
    trunk: TrunkForm
    anchoring: Anchoring
    decoration: Decoration
    animation: Animation

    def __post_init__(self):
        if self.decoration is Decoration.RING and self.anchoring is not Anchoring.TWO_SIDED:
            raise UnsupportedStyleError(
                "ring decorations expand concentrically and require two-sided anchoring"
            )

    def label(self) -> str:
        return "-".join(
            (self.decoration.value, self.anchoring.value, self.trunk.value,
             self.animation.value)
        )


@dataclass(frozen=True)
class ChartDimensions:
    chart_height: float  # cm, first to last hour
    glyph_min_extent: float  # cm at position 0
    glyph_max_extent: float  # cm at position 10

    def __post_init__(self):
        _checks.positive("chart_height", self.chart_height)
        if not math.isfinite(self.chart_height * TRUNK_SAMPLES):  # the trunk's last point
            raise ValueError(f"chart_height * {TRUNK_SAMPLES} must be finite, "
                             f"got {_checks.quote(self.chart_height)}")
        _checks.non_negative("glyph_min_extent", self.glyph_min_extent)
        _checks.finite("glyph_max_extent", self.glyph_max_extent)
        if not self.glyph_min_extent < self.glyph_max_extent:
            raise ValueError("glyph_min_extent must be smaller than glyph_max_extent")

    def extent_cm(self, extent: float) -> float:
        return self.glyph_min_extent + (self.glyph_max_extent - self.glyph_min_extent) * extent


CURVE_PERIODS = 1.5  # sine periods of a curvy trunk over the chart height
CURVE_AMPLITUDE_RATIO = 0.06
TRUNK_SAMPLES = 96
LEAF_MAX_CURL = 3 * math.pi  # total curl angle when fully furled
LEAF_WIDTH_RATIO = 0.30  # blade width relative to midrib length
LEAF_SAMPLES = 48
RING_SAMPLES = 64
#: Trunks kept by :func:`_trunk`, each for one trunk form and chart height.
TRUNK_MEMO_SIZE = 16
BAR_THICKNESS_RATIO = 0.55  # of the per-hour slot height
RING_THICKNESS_RATIO = 0.45
BAMBOO_LEAFLET_SIZE = 0.9  # cm, static whatever the extent

# Measured glyph sizes of the four study devices (height, extent at
# position 0, extent at position 10, all in centimeters).
DEVICE_DIMENSIONS = {
    "plantscreen": ChartDimensions(75.5, 4.7, 10.3),
    "plantform": ChartDimensions(69.0, 6.5, 13.7),
    "cairnscreen": ChartDimensions(73.7, 0.0, 25.0),
    "cairnform": ChartDimensions(92.5, 35.0, 62.0),
}
DEFAULT_DIMENSIONS = DEVICE_DIMENSIONS["plantform"]

# Tables that depend on no chart, built once at import.  Each entry is the
# same expression, in the same order, that the per-chart code would
# evaluate, so the geometry keeps every bit.
#: ``sin(2*pi*CURVE_PERIODS*t)`` at trunk sample ``k``, ``t = k/TRUNK_SAMPLES``.
_TRUNK_WAVE = tuple(
    math.sin(2 * math.pi * CURVE_PERIODS * (k / TRUNK_SAMPLES)) for k in range(TRUNK_SAMPLES + 1)
)
#: Where a leaf's midrib segment ``k`` takes its direction, as a share of its length.
_LEAF_U_MID = tuple((k + 0.5) / LEAF_SAMPLES for k in range(LEAF_SAMPLES))
#: Midrib point ``k`` as a share of the leaf's length, and the blade's
#: half-width profile there.
_LEAF_U = tuple(k / LEAF_SAMPLES for k in range(LEAF_SAMPLES + 1))
_LEAF_SIN_PI_U = tuple(math.sin(math.pi * u) for u in _LEAF_U)
#: ``cos`` and ``sin`` of ring sample ``k``'s angle, ``2*pi*k/RING_SAMPLES``.
_RING_COS = tuple(math.cos(2 * math.pi * k / RING_SAMPLES) for k in range(RING_SAMPLES))
_RING_SIN = tuple(math.sin(2 * math.pi * k / RING_SAMPLES) for k in range(RING_SAMPLES))

LEFT = "left"
RIGHT = "right"

Point = tuple[float, float]


@dataclass(frozen=True)
class GlyphPath:
    points: tuple[Point, ...]
    closed: bool = False

    def arc_length(self) -> float:
        pts = self.points + ((self.points[0],) if self.closed else ())
        return sum(math.dist(pts[i - 1], pts[i]) for i in range(1, len(pts)))


@dataclass(frozen=True)
class Anchor:
    hour: HourSlot
    point: Point
    side: str


@dataclass(frozen=True)
class Glyph:
    """One decoration; ``paths[0]`` is the data-carrying outline."""

    anchor_index: int
    decoration: Decoration
    extent: float
    side: str
    paths: tuple[GlyphPath, ...]


@dataclass(frozen=True)
class ChartScene:
    style: ChartStyle
    dims: ChartDimensions
    hours: tuple[HourSlot, ...]
    trunk: GlyphPath
    anchors: tuple[Anchor, ...]
    glyphs: tuple[Glyph, ...]
    slot: float  # vertical spacing between anchors, cm


def trunk_x(style: ChartStyle, dims: ChartDimensions, t: float) -> float:
    """Horizontal trunk offset at relative height ``t`` in [0, 1].  The
    trunk's own samples take these sines from ``_TRUNK_WAVE``."""
    if style.trunk is TrunkForm.STRAIGHT:
        return 0.0
    amplitude = CURVE_AMPLITUDE_RATIO * dims.chart_height
    return amplitude * math.sin(2 * math.pi * CURVE_PERIODS * t)


def layout(
    positions: list[LeafPosition],
    hours: list[HourSlot],
    style: ChartStyle,
    dims: ChartDimensions = DEFAULT_DIMENSIONS,
) -> ChartScene:
    """Resolve one chart: anchors evenly spaced bottom-to-top in hour order,
    glyph extents proportional to positions."""
    _checks.within("position", positions, POSITION_MIN, POSITION_MAX)
    return layout_extents([p / 10 for p in positions], hours, style, dims)


def layout_extents(
    extents: list[float],
    hours: list[HourSlot],
    style: ChartStyle,
    dims: ChartDimensions = DEFAULT_DIMENSIONS,
) -> ChartScene:
    """Continuous-extent variant of :func:`layout` (used for animation
    frames; extents in [0, 1])."""
    check_extents(extents, hours)
    n = len(hours)
    height = dims.chart_height
    trunk = _trunk(style.trunk, height)

    anchors = []
    glyphs = []
    for i, (hour, extent) in enumerate(zip(hours, extents)):
        anchor, anchor_glyphs = place_anchor(i, hour, extent, n, style, dims)
        anchors.append(anchor)
        glyphs.extend(anchor_glyphs)

    return ChartScene(
        style=style,
        dims=dims,
        hours=tuple(hours),
        trunk=trunk,
        anchors=tuple(anchors),
        glyphs=tuple(glyphs),
        slot=height / n,
    )


@functools.lru_cache(maxsize=TRUNK_MEMO_SIZE, typed=True)
def _trunk(form: TrunkForm, height: float) -> GlyphPath:
    """The points of :func:`trunk_x` at ``k / TRUNK_SAMPLES``, with its sines
    from the table.  ``typed`` keys on the height's type, as the module
    docstring explains."""
    if form is TrunkForm.STRAIGHT:
        points = [(0.0, height * k / TRUNK_SAMPLES) for k in range(TRUNK_SAMPLES + 1)]
    else:
        amplitude = CURVE_AMPLITUDE_RATIO * height
        points = [(amplitude * wave, height * k / TRUNK_SAMPLES)
                  for k, wave in enumerate(_TRUNK_WAVE)]
    return GlyphPath(tuple(points))


def check_extents(extents: list[float], hours: list[HourSlot]) -> None:
    """Raise ``ValueError`` unless ``extents`` can be drawn over ``hours``:
    one extent in [0, 1] per hour, for 3..10 hours."""
    if len(extents) != len(hours):
        raise ValueError(
            f"positions and hours differ in length: {len(extents)} != {len(hours)}"
        )
    if not MIN_SAMPLES <= len(hours) <= MAX_SAMPLES:
        raise ValueError(
            f"a chart displays {MIN_SAMPLES}..{MAX_SAMPLES} hours, got {len(hours)}"
        )
    _checks.within("extent", extents, 0, 1, slack=1e-9)


def place_anchor(
    index: int,
    hour: HourSlot,
    extent: float,
    n: int,
    style: ChartStyle,
    dims: ChartDimensions,
) -> tuple[Anchor, tuple[Glyph, ...]]:
    """The anchor ``index`` of ``n`` and the glyphs it carries at
    ``extent``; they depend on nothing else, so animation frames reuse
    them while the extent holds."""
    height = dims.chart_height
    slot = height / n
    t = (index + 0.5) / n
    point = (trunk_x(style, dims, t), height * t)
    if style.anchoring is Anchoring.ALTERNATED:
        side = LEFT if index % 2 == 0 else RIGHT
    else:
        side = RIGHT
    anchor = Anchor(hour, point, side)
    if style.decoration is Decoration.RING:
        return anchor, (_ring_glyph(index, point, extent, style, dims, slot),)
    paths = _right_paths(point, extent, style, dims, slot)
    sides = (RIGHT, LEFT) if style.anchoring is Anchoring.TWO_SIDED else (side,)
    return anchor, tuple(
        Glyph(
            index,
            style.decoration,
            extent,
            glyph_side,
            _left_paths(paths, point[0], style) if glyph_side == LEFT else paths,
        )
        for glyph_side in sides
    )


def _right_paths(point, extent, style, dims, slot) -> tuple[GlyphPath, ...]:
    """A side decoration's paths as drawn to the right of its anchor; the
    left one is their mirror image."""
    if style.decoration is Decoration.LEAF:
        return _leaf_paths(point, extent, style, dims)
    if style.decoration is Decoration.BAMBOO:
        return _bamboo_paths(point, extent, dims, slot)
    return _bar_paths(point, extent, dims, slot)


def _left_paths(paths, axis_x, style) -> tuple[GlyphPath, ...]:
    """The mirror image of a right-hand decoration's paths.  A leaf's blade
    is mirrored once and its midrib is the mirrored blade's prefix, as on
    the right, so the serializer formats the shared points once."""
    if style.decoration is Decoration.LEAF:
        return _leaf_from_blade(_mirror(paths[-1], axis_x))
    return tuple(_mirror(path, axis_x) for path in paths)


def _mirror(path: GlyphPath, axis_x: float) -> GlyphPath:
    twice = 2 * axis_x
    return GlyphPath(tuple([(twice - x, y) for x, y in path.points]), path.closed)


def _bar_paths(point, extent, dims, slot) -> tuple[GlyphPath, ...]:
    ax, ay = point
    length = dims.extent_cm(extent)
    half = BAR_THICKNESS_RATIO * slot / 2
    return (_rect(ax, ay, length, half),)


def _rect(ax, ay, length, half) -> GlyphPath:
    """The closed rectangle ``length`` cm right of ``(ax, ay)``, ``half`` cm each way of it."""
    return GlyphPath(
        ((ax, ay - half), (ax + length, ay - half), (ax + length, ay + half), (ax, ay + half)),
        closed=True,
    )


def _bamboo_paths(point, extent, dims, slot) -> tuple[GlyphPath, ...]:
    """A growing stick with node ticks and small static leaflets; only the
    stick encodes the value."""
    ax, ay = point
    length = dims.extent_cm(extent)
    half = BAR_THICKNESS_RATIO * slot * 0.35
    paths = [_rect(ax, ay, length, half)]
    tick = half * 0.45
    for u in (1 / 3, 2 / 3):
        x = ax + length * u
        paths.append(GlyphPath(((x, ay - half - tick), (x, ay + half + tick))))
    size = BAMBOO_LEAFLET_SIZE
    for u, direction in ((0.35, 1.0), (0.7, -1.0)):
        x = ax + length * u
        base = ay + direction * half
        paths.append(
            GlyphPath(
                (
                    (x, base),
                    (x + 0.45 * size, base + direction * size),
                    (x - 0.2 * size, base + direction * 0.6 * size),
                ),
                closed=True,
            )
        )
    return tuple(paths)


def _leaf_paths(point, extent, style, dims) -> tuple[GlyphPath, ...]:
    """Midrib plus blade.  The midrib starts horizontal at the anchor and
    curls downward along an Archimedean-style spiral whose total curl angle
    shrinks linearly to zero at full extent; under growth animation there is
    no curl and only the length scales.  The shares of the length and the
    blade's width profile come from the ``_LEAF_*`` tables."""
    ax, ay = point
    length = dims.extent_cm(extent)
    if style.animation is Animation.UNFURL:
        curl = LEAF_MAX_CURL * (1.0 - extent)
    else:
        curl = 0.0

    # The angles are -curl * u * u, left to right: -curl * (u * u) rounds
    # otherwise.
    cos, sin, neg = math.cos, math.sin, -curl
    ds = length / LEAF_SAMPLES
    midrib = [(ax, ay)]
    x, y = ax, ay
    for u_mid in _LEAF_U_MID:
        angle = neg * u_mid * u_mid
        x += ds * cos(angle)
        y += ds * sin(angle)
        midrib.append((x, y))

    width = LEAF_WIDTH_RATIO * length
    lower = []
    for (mx, my), u, profile in zip(midrib, _LEAF_U, _LEAF_SIN_PI_U):
        angle = neg * u * u
        w = width * profile
        lower.append((mx + w * sin(angle), my - w * cos(angle)))
    lower.reverse()
    return _leaf_from_blade(GlyphPath(tuple(midrib + lower), closed=True))


def _leaf_from_blade(blade: GlyphPath) -> tuple[GlyphPath, GlyphPath]:
    """Midrib and blade: the blade's outline runs out along the midrib's
    points, the same point objects, and back along its lower edge."""
    return (GlyphPath(blade.points[:LEAF_SAMPLES + 1]), blade)


def _ring_glyph(index, point, extent, style, dims, slot) -> Glyph:
    """An expanding ring, drawn concentric with the trunk so the scene stays
    symmetric about the anchor.  Its unit circle comes from ``_RING_COS``
    and ``_RING_SIN``."""
    ax, ay = point
    rx = dims.extent_cm(extent) / 2
    ry = RING_THICKNESS_RATIO * slot / 2
    pts = tuple([(ax + rx * c, ay + ry * s) for c, s in zip(_RING_COS, _RING_SIN)])
    return Glyph(index, Decoration.RING, extent, RIGHT, (GlyphPath(pts, closed=True),))


def parse_style(spec: str) -> ChartStyle:
    """Parse ``decoration,anchoring,trunk[,animation]``; the animation
    defaults to unfurl for leaves and growth otherwise."""
    parts = [p.strip().lower() for p in spec.split(",")]
    if len(parts) not in (3, 4):
        raise UnsupportedStyleError(
            f"style must be 'decoration,anchoring,trunk[,animation]', got {spec!r}"
        )
    try:
        decoration = Decoration(parts[0])
        anchoring = Anchoring(parts[1])
        trunk = TrunkForm(parts[2])
        if len(parts) == 4:
            animation = Animation(parts[3])
        else:
            animation = Animation.UNFURL if decoration is Decoration.LEAF else Animation.GROWTH
    except ValueError as exc:
        raise UnsupportedStyleError(f"unknown style component in {spec!r}: {exc}") from None
    return ChartStyle(trunk, anchoring, decoration, animation)
