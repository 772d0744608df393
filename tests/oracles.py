"""Independent reference implementations the tests check against.

These deliberately take a different route than the library code: the
segmentation oracle classifies every sample in place instead of walking
monotone runs, the encoding oracles work on exact integers / decimals
instead of floats, the simulator oracle rebuilds the frozen controller
snapshot with ``dataclasses.replace`` on every submit and tick instead of
advancing the mutable simulator core (each snapshot's log holds the events
of the call that made it, as the simulator's does), the event-log oracle
serializes every event whole instead of reusing the text of each distinct
event head, and the frames oracle lays out and serializes every frame
whole, formatting each coordinate through ``round``, instead of reusing
per-anchor glyph text, the trunk oracle evaluates the trunk's offset and
sine at every sample instead of reading the sines from a table, and the
leaf layout oracle builds a leaf's midrib and blade as separate point
tuples and mirrors every path of a left-hand leaf on its own, instead of
mirroring the blade once and sharing its midrib prefix, and the ring
oracle takes the cosine and sine of every sample's angle instead of
reading them from a table.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from decimal import ROUND_HALF_UP, Decimal

from plantchart.device import (
    _EPS,
    DEFAULT_TICK,
    EVENT_STOP,
    MOTOR_BOARDS,
    BoardState,
    ControllerState,
    LogEvent,
    PendingCommand,
    SimulationError,
    position_to_steps,
)
from plantchart.motion import LEAF_COUNT, FrameTimeline, Modality, MotionCommand, MotionPlan
from plantchart.protocol import Frame, Opcode, decode_frame, encode_frame
from plantchart.render import (
    CURVE_AMPLITUDE_RATIO,
    CURVE_PERIODS,
    DEFAULT_DIMENSIONS,
    LEAF_MAX_CURL,
    LEAF_SAMPLES,
    LEAF_WIDTH_RATIO,
    LEFT,
    RIGHT,
    RING_SAMPLES,
    RING_THICKNESS_RATIO,
    TRUNK_SAMPLES,
    Anchoring,
    Animation,
    ChartScene,
    Decoration,
    Glyph,
    GlyphPath,
    TrunkForm,
    layout_extents,
)
from plantchart.series import FIRST_HOUR
from plantchart.svg import (
    DEFAULT_CANVAS,
    GLYPH_FILL,
    GLYPH_STROKE,
    LABEL_FILL,
    MARGIN_RATIO,
    TRUNK_STROKE,
    _timeline_extents,
)


def brute_force_variations(rates) -> list[tuple[int, int, int]]:
    """Local-extrema scan over the raw samples; returns (start, peak, end)
    index triples.

    Conventions: an extremum is anchored at the first sample of its plateau;
    the series boundaries are minima (index 0 opens the first variation and
    doubles as its peak when the series opens on a fall; the last index
    closes the final variation).  A flat series has no variation.
    """
    n = len(rates)
    if all(r == rates[0] for r in rates):
        return []

    points: list[tuple[int, str]] = []
    for i in range(n):
        if i > 0 and rates[i] == rates[i - 1]:
            continue  # not the first sample of its plateau
        value = rates[i]
        left = next((rates[j] for j in range(i - 1, -1, -1) if rates[j] != value), None)
        right = next((rates[j] for j in range(i + 1, n) if rates[j] != value), None)
        if (left is None or left < value) and (right is None or right < value):
            points.append((i, "max"))
        if (left is None or left > value) and (right is None or right > value):
            points.append((n - 1 if right is None else i, "min"))
    if points[0] == (0, "max"):
        points.insert(0, (0, "min"))
    if points[-1][1] == "max":
        points.append((n - 1, "min"))

    triples = []
    for k in range(0, len(points) - 2, 2):
        assert points[k][1] == "min" and points[k + 1][1] == "max"
        triples.append((points[k][0], points[k + 1][0], points[k + 2][0]))
    return triples


def relative_position_from_thousandths(k: int) -> int:
    """The peak-relative bin table on the exact ratio k/1000."""
    assert 0 <= k <= 1000
    if k == 1000:
        return 10
    if k <= 100:
        return 0
    if k <= 200:
        return 3
    if k <= 500:
        return 4
    if k <= 800:
        return 5
    if k <= 900:
        return 6
    return 7


def absolute_position_from_percent(k: int) -> int:
    """Half-up rounding of (k/100)*10 done in exact decimal arithmetic."""
    scaled = Decimal(k) / Decimal(10)
    return int(scaled.quantize(Decimal(1), rounding=ROUND_HALF_UP))


def six_step_from_percent(k: int) -> int:
    """Enumerated thresholds of the six-position unfurl scale."""
    for step, threshold in enumerate((0, 20, 40, 60, 80, 100)):
        if k <= threshold:
            return step
    raise AssertionError(f"percent {k} out of range")


def _set_motor_power(boards: tuple[BoardState, ...], on: bool) -> tuple[BoardState, ...]:
    """``boards`` with every motor board's power flag set to ``on``."""
    return tuple(replace(b, powered=on) if b.board_id < MOTOR_BOARDS else b for b in boards)


def reference_tick(ctrl: ControllerState, dt: float) -> ControllerState:
    """The per-tick simulator :func:`plantchart.device.tick` must match:
    advance by ``dt`` seconds, dispatch due commands, move powered channels
    toward their targets, emit sensor events, and gate the relay off once
    everything is idle, rebuilding every frozen snapshot on the way.  The
    snapshot's log holds this tick's own events."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    boards = list(ctrl.boards)
    events: list[LogEvent] = []
    relay_on = ctrl.relay_on
    new_clock = ctrl.clock + dt

    # Commands beginning inside this tick window dispatch now; the portion
    # of the tick before their start time is withheld from their motion
    # budget (a negative carry), so completion stays within one tick of the
    # planned schedule.
    due = [p for p in ctrl.pending if p.dispatch_time < new_clock - _EPS]
    pending = tuple(p for p in ctrl.pending if p.dispatch_time >= new_clock - _EPS)
    if due and not relay_on:
        relay_on = True
        boards = list(_set_motor_power(tuple(boards), True))
        events.append(LogEvent(due[0].dispatch_time, None, "relay", (("on", True),)))
    for item in due:
        cmd = item.command
        board_id, channel_id = divmod(cmd.leaf, 2)
        board = boards[board_id]
        channel = board.channels[channel_id]
        target = position_to_steps(cmd.target, channel.steps_full_range)
        request = Frame(
            board_id,
            Opcode.SET_TARGET,
            bytes((channel_id, target >> 8, target & 0xFF)),
        )
        received = decode_frame(encode_frame(request))  # around the ring and back
        events.append(
            LogEvent(
                item.dispatch_time,
                board_id,
                "set_target",
                (
                    ("leaf", cmd.leaf),
                    ("channel", channel_id),
                    ("from_step", channel.current_step),
                    ("target_step", target),
                ),
            )
        )
        withheld = max(0.0, item.dispatch_time - ctrl.clock)
        channel = replace(
            channel, target_step=target, step_carry=-withheld * ctrl.step_rate
        )
        channels = list(board.channels)
        channels[channel_id] = channel
        boards[board_id] = replace(board, channels=tuple(channels))
        ack = decode_frame(encode_frame(Frame(received.board_id, Opcode.ACK,
                                              bytes((channel_id,)))))
        events.append(
            LogEvent(item.dispatch_time, ack.board_id, "ack", (("leaf", cmd.leaf),))
        )
    for board_id in range(MOTOR_BOARDS):
        board = boards[board_id]
        if not board.powered:
            continue  # unpowered channels hold position exactly
        channels = list(board.channels)
        changed = False
        for channel_id, channel in enumerate(channels):
            if not channel.moving:
                continue
            budget = ctrl.step_rate * dt + channel.step_carry
            remaining = abs(channel.target_step - channel.current_step)
            steps = min(int(budget), remaining)
            if steps == 0:
                channels[channel_id] = replace(channel, step_carry=budget)
                changed = True
                continue
            direction = 1 if channel.target_step > channel.current_step else -1
            new_step = channel.current_step + direction * steps
            reached = new_step == channel.target_step
            channels[channel_id] = replace(
                channel,
                current_step=new_step,
                rotation_count=channel.rotation_count + steps,
                step_carry=0.0 if reached else budget - steps,
            )
            changed = True
            leaf = board_id * 2 + channel_id
            if new_step == 0:
                event = Frame(board_id, Opcode.EVENT, bytes((channel_id, EVENT_STOP)))
                decode_frame(encode_frame(event))
                events.append(
                    LogEvent(new_clock, board_id, "stop_sensor", (("leaf", leaf),))
                )
            if reached:
                events.append(
                    LogEvent(
                        new_clock,
                        board_id,
                        "target_reached",
                        (("leaf", leaf), ("step", new_step)),
                    )
                )
        if changed:
            boards[board_id] = replace(board, channels=tuple(channels))

    still_moving = any(ch.moving for b in boards[:MOTOR_BOARDS] for ch in b.channels)
    if relay_on and not still_moving and not pending:
        relay_on = False
        boards = list(_set_motor_power(tuple(boards), False))
        events.append(LogEvent(new_clock, None, "relay", (("on", False),)))

    return replace(
        ctrl,
        boards=tuple(boards),
        relay_on=relay_on,
        clock=new_clock,
        pending=pending,
        event_log=tuple(events),
    )


def reference_events_to_ndjson(events) -> str:
    """The NDJSON event log :func:`plantchart.device.events_to_ndjson` must
    write: one ``json.dumps`` with sorted keys of a fresh record per event."""
    lines = [
        json.dumps({"t": e.t, "board": e.board, "kind": e.kind, "detail": dict(e.detail)},
                   sort_keys=True)
        for e in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def reference_submit_plan(ctrl: ControllerState, plan: MotionPlan) -> ControllerState:
    """The snapshot :func:`plantchart.device.submit_plan` must return: each
    command pending from the clock plus its start time and, when the plan
    has commands, the relay and motor boards switched on.  Its log holds
    the relay's switching on, if the plan switched it."""
    if ctrl.busy:
        raise SimulationError("a plan is already executing")
    for cmd in plan.commands:
        if not 0 <= cmd.leaf < LEAF_COUNT:
            raise SimulationError(f"plan references unknown leaf {cmd.leaf}")
    if not plan.commands:
        return replace(ctrl, event_log=())
    pending = tuple(PendingCommand(ctrl.clock + cmd.start_time, cmd) for cmd in plan.commands)
    if ctrl.relay_on:
        return replace(ctrl, pending=pending, event_log=())
    relay = LogEvent(ctrl.clock, None, "relay", (("on", True),))
    return replace(ctrl, boards=_set_motor_power(ctrl.boards, True), relay_on=True,
                   pending=pending, event_log=(relay,))


def reference_run_plan(
    ctrl: ControllerState, plan: MotionPlan, dt: float = DEFAULT_TICK
) -> ControllerState:
    """Submit ``plan`` with :func:`reference_submit_plan` and apply
    :func:`reference_tick` until it has fully played out (all targets
    reached and the plan's total duration elapsed).  The snapshot's log
    joins the submit's events and every tick's."""
    ctrl = reference_submit_plan(ctrl, plan)
    events = list(ctrl.event_log)
    start = ctrl.clock
    deadline = plan.total_duration + (len(plan.commands) + 2) * dt + 1.0
    while ctrl.pending or ctrl.busy or ctrl.clock - start + _EPS < plan.total_duration:
        if ctrl.clock - start > deadline:
            raise SimulationError("plan failed to complete in simulated time")
        ctrl = reference_tick(ctrl, dt)
        events += ctrl.event_log
    return replace(ctrl, event_log=tuple(events))


def reference_plan(targets, current, profile, leaf_indices=None) -> MotionPlan:
    """The plan :func:`plantchart.motion.plan_for_profile` must return, as
    two planners, one per modality.  A physical leaf moves for a time
    proportional to its travel and an unchanged one is skipped; a graphical
    hour always takes ``per_rate_frame_time``.  The hours run one after
    another.  Inputs are assumed valid."""
    leaves = list(range(len(targets)) if leaf_indices is None else leaf_indices)
    commands = []
    clock = 0.0
    if profile.modality is Modality.PHYSICAL:
        for leaf, a, b in zip(leaves, current, targets):
            delta = abs(b - a)
            if delta == 0:
                continue
            duration = delta / 10 * profile.steps_full_range[leaf] / profile.step_rate
            commands.append(MotionCommand(leaf, a, b, clock, duration))
            clock += duration
    else:
        for leaf, a, b in zip(leaves, current, targets):
            commands.append(MotionCommand(leaf, a, b, clock, profile.per_rate_frame_time))
            clock += profile.per_rate_frame_time
    total = max((c.start_time + c.duration for c in commands), default=0.0)
    return MotionPlan(profile.name, tuple(commands), total)


def reference_render_frames(
    source,
    hours,
    style,
    dims=DEFAULT_DIMENSIONS,
    canvas=DEFAULT_CANVAS,
    fps=4.0,
    initial_positions=None,
    full_extension=None,
) -> list[str]:
    """The documents :func:`plantchart.svg.render_frames` must return: each
    frame laid out and serialized on its own."""
    if isinstance(source, FrameTimeline):
        rows = _timeline_extents(source, len(hours), full_extension)
    else:
        rows = _reference_plan_extents(source, hours, fps, initial_positions)
    return [reference_render_svg(layout_extents(row, hours, style, dims), canvas)
            for row in rows]


def _reference_plan_extents(plan, hours, fps, initial_positions):
    """Every leaf's extent at every frame time, rescanning the leaf's
    commands from the first one each time."""
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


def reference_render_svg(scene, canvas=DEFAULT_CANVAS) -> str:
    """One whole document per scene, line by line, every coordinate through
    :func:`reference_fmt`."""
    width, height = canvas
    if width <= 0 or height <= 0:
        raise ValueError(f"canvas must have positive area, got {canvas}")
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

    def path_d(path):
        cmds = []
        for i, point in enumerate(path.points):
            x, y = project(point)
            cmds.append(f"{'M' if i == 0 else 'L'} {reference_fmt(x)} {reference_fmt(y)}")
        if path.closed:
            cmds.append("Z")
        return " ".join(cmds)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<path d="{path_d(scene.trunk)}" fill="none" '
        f'stroke="{TRUNK_STROKE}" stroke-width="{reference_fmt(0.16 * scene.slot * scale)}" '
        'stroke-linecap="round"/>',
    ]
    for glyph in scene.glyphs:
        for path in glyph.paths:
            if path.closed:
                lines.append(
                    f'<path d="{path_d(path)}" fill="{GLYPH_FILL}" stroke="{GLYPH_STROKE}" '
                    f'stroke-width="{reference_fmt(0.03 * scene.slot * scale)}"/>'
                )
            else:
                lines.append(
                    f'<path d="{path_d(path)}" fill="none" stroke="{GLYPH_STROKE}" '
                    f'stroke-width="{reference_fmt(0.05 * scene.slot * scale)}"/>'
                )
    font = reference_fmt(0.34 * scene.slot * scale)
    for anchor in scene.anchors:
        x, y = project(anchor.point)
        lines.append(
            f'<text x="{reference_fmt(x)}" y="{reference_fmt(y)}" font-size="{font}" '
            f'font-family="sans-serif" text-anchor="middle" dominant-baseline="middle" '
            f'fill="{LABEL_FILL}">{anchor.hour}H</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def reference_fmt(value: float) -> str:
    """Three decimals by ``round`` first; adding 0.0 turns -0.0 into 0.0."""
    return f"{round(value, 3) + 0.0:.3f}"


def reference_trunk(style, dims) -> GlyphPath:
    """The trunk :func:`plantchart.render.layout_extents` must lay out: one
    point per sample, its offset and height evaluated whole at each one."""

    def x(t):
        if style.trunk is TrunkForm.STRAIGHT:
            return 0.0
        amplitude = CURVE_AMPLITUDE_RATIO * dims.chart_height
        return amplitude * math.sin(2 * math.pi * CURVE_PERIODS * t)

    height = dims.chart_height
    return GlyphPath(tuple((x(k / TRUNK_SAMPLES), height * k / TRUNK_SAMPLES)
                           for k in range(TRUNK_SAMPLES + 1)))


def reference_ring_glyph(index, point, extent, dims, slot) -> Glyph:
    """The glyph :func:`plantchart.render.place_anchor` must return for a
    ring anchor at ``point``, with its unit circle evaluated at each sample."""
    ax, ay = point
    rx = dims.extent_cm(extent) / 2
    ry = RING_THICKNESS_RATIO * slot / 2
    points = tuple(
        (ax + rx * math.cos(2 * math.pi * k / RING_SAMPLES),
         ay + ry * math.sin(2 * math.pi * k / RING_SAMPLES))
        for k in range(RING_SAMPLES)
    )
    return Glyph(index, Decoration.RING, extent, RIGHT, (GlyphPath(points, closed=True),))


def reference_leaf_glyphs(index, point, side, extent, style, dims) -> tuple[Glyph, ...]:
    """The glyphs :func:`plantchart.render.place_anchor` must return for a
    leaf anchor at ``point`` on ``side``."""
    paths = _reference_leaf_paths(point, extent, style, dims)
    sides = (RIGHT, LEFT) if style.anchoring is Anchoring.TWO_SIDED else (side,)
    return tuple(
        Glyph(
            index,
            Decoration.LEAF,
            extent,
            glyph_side,
            tuple(_reference_mirror(path, point[0]) for path in paths)
            if glyph_side == LEFT else paths,
        )
        for glyph_side in sides
    )


def _reference_mirror(path, axis_x):
    return GlyphPath(tuple((2 * axis_x - x, y) for x, y in path.points), path.closed)


def _reference_leaf_paths(point, extent, style, dims):
    ax, ay = point
    length = dims.extent_cm(extent)
    if style.animation is Animation.UNFURL:
        curl = LEAF_MAX_CURL * (1.0 - extent)
    else:
        curl = 0.0

    n = LEAF_SAMPLES
    ds = length / n
    midrib = [(ax, ay)]
    x, y = ax, ay
    for k in range(n):
        u_mid = (k + 0.5) / n
        angle = -curl * u_mid * u_mid
        x += ds * math.cos(angle)
        y += ds * math.sin(angle)
        midrib.append((x, y))

    width = LEAF_WIDTH_RATIO * length
    blade_lower = []
    for k, (mx, my) in enumerate(midrib):
        u = k / n
        angle = -curl * u * u
        w = width * math.sin(math.pi * u)
        blade_lower.append((mx + w * math.sin(angle), my - w * math.cos(angle)))
    blade = GlyphPath(tuple(midrib) + tuple(reversed(blade_lower)), closed=True)
    return (GlyphPath(tuple(midrib)), blade)


def glyph_extent_measure(scene: ChartScene, glyph: Glyph) -> float:
    """The geometric quantity that encodes the data: outline arc length for
    leaves, reach from the anchor for bars and bamboo, diameter for rings."""
    primary = glyph.paths[0]
    if glyph.decoration is Decoration.LEAF:
        return primary.arc_length()
    if glyph.decoration is Decoration.RING:
        xs = [p[0] for p in primary.points]
        return max(xs) - min(xs)
    ax = scene.anchors[glyph.anchor_index].point[0]
    return max(abs(x - ax) for x, _ in primary.points)
