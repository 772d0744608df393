"""Timed actuation plans for physical devices and graphical animations.

One sequential planner serves every device: the hours actuate strictly one
after another, in hour order, and only an hour's duration depends on the
modality.  Physical devices move each shape for a time proportional to the
travelled distance: a leaf covering ``d`` of its 10 positions takes
``d/10 * steps / step_rate`` seconds, and an unchanged leaf is skipped.
Graphical devices animate every hour for ``per_rate_frame_time`` seconds.

The modality also fixes the reset rule between two displayed variations:
a graphical (screen) device wipes every leaf back to 0 first unless all are
there already; a physical (shape-changing) device moves directly.

Plans are immutable values; they serialize to JSON for replay and
golden-file testing.
"""

from __future__ import annotations

import enum
import json
import math
import random
from dataclasses import dataclass, fields, replace

from . import _checks
from .encoder import POSITION_MAX, POSITION_MIN, LeafPosition
from .series import FIRST_HOUR

LEAF_COUNT = 10
#: The last hour a device leaf shows; a later hour maps past the last leaf.
MAX_DEVICE_HOUR = FIRST_HOUR + LEAF_COUNT - 1
STEPS_MIN = 185
STEPS_MAX = 230
STEPS_DEFAULT = 216
#: Most frames one animation may have, whether a plan sampled at a frame
#: rate or a low-fidelity timeline.  A 10-hour PLANTSCREEN wipe plus show
#: lasts 40 s, which at 60 fps is 2,400 frames: it still renders.
MAX_FRAMES = 3000


class Modality(enum.Enum):
    PHYSICAL = "physical"
    GRAPHICAL = "graphical"


@dataclass(frozen=True)
class DeviceProfile:
    """Calibration and timing parameters of one display device."""

    name: str
    modality: Modality
    steps_full_range: tuple[int, ...] = (STEPS_DEFAULT,) * LEAF_COUNT
    step_rate: float = 120.0
    per_rate_frame_time: float = 2.0

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name):
            raise ValueError(f"name must be a non-empty string, got {_checks.quote(self.name)}")
        if not isinstance(self.modality, Modality):
            raise ValueError(f"modality must be a Modality, got {_checks.quote(self.modality)}")
        try:
            object.__setattr__(self, "steps_full_range", tuple(self.steps_full_range))
        except TypeError:
            raise ValueError("steps_full_range must be a list of step counts") from None
        if len(self.steps_full_range) != LEAF_COUNT:
            raise ValueError(
                f"steps_full_range must hold {LEAF_COUNT} step counts, "
                f"got {len(self.steps_full_range)}"
            )
        for i, steps in enumerate(self.steps_full_range):
            _checks.number_in(f"steps_full_range[{i}]", steps, STEPS_MIN, STEPS_MAX)
        for name in ("step_rate", "per_rate_frame_time"):
            _checks.positive(name, getattr(self, name))

    def calibrated(self, seed: int) -> "DeviceProfile":
        """A copy with per-leaf step counts drawn uniformly from the
        manual-adjustment range, reproducibly from ``seed``."""
        rng = random.Random(seed)
        steps = tuple(rng.randint(STEPS_MIN, STEPS_MAX) for _ in self.steps_full_range)
        return replace(self, steps_full_range=steps)


def leaf_for_hour(hour: int) -> int:
    """The leaf showing ``hour``: hour 8 drives leaf 0, one leaf per hour.
    Hours past :data:`MAX_DEVICE_HOUR` map past the device's last leaf."""
    return hour - FIRST_HOUR


# The physical step rates are calibrated so that full 10-hour and 8-hour
# unfurl sequences both land within one second of the measured 19/14 s
# (leaf device) and 12/8 s (ring device) display totals.
PLANTFORM = DeviceProfile("plantform", Modality.PHYSICAL, step_rate=118.0)
CAIRNFORM = DeviceProfile("cairnform", Modality.PHYSICAL, step_rate=194.0)
PLANTSCREEN = DeviceProfile("plantscreen", Modality.GRAPHICAL)
CAIRNSCREEN = DeviceProfile("cairnscreen", Modality.GRAPHICAL)

BUILTIN_PROFILES = {p.name: p for p in (PLANTFORM, CAIRNFORM, PLANTSCREEN, CAIRNSCREEN)}


@dataclass(frozen=True)
class MotionCommand:
    leaf: int
    source: LeafPosition
    target: LeafPosition
    start_time: float
    duration: float


@dataclass(frozen=True)
class MotionPlan:
    """An ordered, per-leaf non-overlapping schedule of position changes."""

    profile: str
    commands: tuple[MotionCommand, ...]
    total_duration: float

    def __post_init__(self):
        object.__setattr__(self, "commands", tuple(self.commands))
        _checks.finite("total_duration", self.total_duration)
        previous = None
        per_leaf_end: dict[int, float] = {}
        for index, cmd in enumerate(self.commands):
            try:  # the message names the command only once a check fails
                _checks.an_int("leaf", cmd.leaf)
                _checks.number_in("source", cmd.source, POSITION_MIN, POSITION_MAX)
                _checks.number_in("target", cmd.target, POSITION_MIN, POSITION_MAX)
                _checks.finite("start_time", cmd.start_time)
                _checks.non_negative("duration", cmd.duration)
            except ValueError as exc:
                leaf = f" (leaf {cmd.leaf})" if _checks.is_int(cmd.leaf) else ""
                raise ValueError(f"command {index}{leaf}: {exc}") from None
            if previous is not None and cmd.start_time < previous:
                raise ValueError("commands must be sorted by start_time")
            previous = cmd.start_time
            if cmd.start_time < per_leaf_end.get(cmd.leaf, 0.0) - 1e-9:
                raise ValueError(f"overlapping commands for leaf {cmd.leaf}")
            per_leaf_end[cmd.leaf] = cmd.start_time + cmd.duration
        expected = max((c.start_time + c.duration for c in self.commands), default=0.0)
        if abs(self.total_duration - expected) > 1e-9:
            raise ValueError(
                f"total_duration {self.total_duration} != last command end {expected}"
            )

    @property
    def targets(self) -> dict[int, LeafPosition]:
        return {cmd.leaf: cmd.target for cmd in self.commands}


def _check_vectors(targets, current, leaf_indices) -> list[int]:
    if len(targets) != len(current):
        raise ValueError(
            f"targets and current differ in length: {len(targets)} != {len(current)}"
        )
    if len(targets) > LEAF_COUNT:
        raise ValueError(f"at most {LEAF_COUNT} leaves, got {len(targets)}")
    for vec in (targets, current):
        _checks.within("position", vec, POSITION_MIN, POSITION_MAX)
    if leaf_indices is None:
        return list(range(len(targets)))
    leaf_indices = list(leaf_indices)
    if len(leaf_indices) != len(targets):
        raise ValueError("leaf_indices must match the target vector length")
    _checks.within("leaf index", leaf_indices, 0, LEAF_COUNT - 1)
    return leaf_indices


def plan_for_profile(
    targets: list[LeafPosition],
    current: list[LeafPosition],
    profile: DeviceProfile,
    leaf_indices: list[int] | None = None,
) -> MotionPlan:
    """The sequential plan from ``current`` to ``targets``, each hour timed
    by the rule of the profile's modality (see the module docstring)."""
    leaves = _check_vectors(targets, current, leaf_indices)
    physical = profile.modality is Modality.PHYSICAL
    commands = []
    clock = 0.0
    for leaf, a, b in zip(leaves, current, targets):
        if not physical:
            duration = profile.per_rate_frame_time
        elif a == b:
            continue
        else:
            duration = abs(b - a) / 10 * profile.steps_full_range[leaf] / profile.step_rate
        commands.append(MotionCommand(leaf, a, b, clock, duration))
        clock += duration
    # Durations are >= 0, so the last command ends latest: at ``clock``.
    return MotionPlan(profile.name, tuple(commands), clock)


def transition_plan(
    current: list[LeafPosition],
    nxt: list[LeafPosition],
    profile: DeviceProfile,
    leaf_indices: list[int] | None = None,
) -> MotionPlan:
    """Plan the move from one displayed variation to the next by the reset
    rule of the profile's modality: a graphical profile first wipes every
    leaf to 0 unless all are furled; a physical one moves directly."""
    if not (profile.modality is Modality.GRAPHICAL and any(current)):
        return plan_for_profile(nxt, current, profile, leaf_indices)
    zeros = [0] * len(current)
    wipe = plan_for_profile(zeros, current, profile, leaf_indices)
    show = plan_for_profile(nxt, zeros, profile, leaf_indices)
    shifted = tuple(
        replace(c, start_time=c.start_time + wipe.total_duration) for c in show.commands
    )
    total = max((c.start_time + c.duration for c in wipe.commands + shifted), default=0.0)
    return MotionPlan(profile.name, wipe.commands + shifted, total)


@dataclass(frozen=True)
class TimelineFrame:
    timestamp: float
    extensions: tuple[float, ...]


@dataclass(frozen=True)
class FrameTimeline:
    """Equally spaced animation frames carrying per-channel extensions."""

    frames: tuple[TimelineFrame, ...]
    tick: float

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        for i in range(1, len(self.frames)):
            if self.frames[i].timestamp <= self.frames[i - 1].timestamp:
                raise ValueError("frame timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def span(self) -> float:
        return self.frames[-1].timestamp if self.frames else 0.0


def lowfi_timeline(
    extension_delta: float, tick_step: float = 20.0, tick: float = 0.32
) -> FrameTimeline:
    """Frames of the low-fidelity stepping rule: the extension grows by
    ``tick_step`` points every ``tick`` seconds, the last partial increment
    still getting its own frame."""
    return lowfi_series_timeline([extension_delta], tick_step, tick)


def lowfi_series_timeline(
    extension_deltas: list[float], tick_step: float = 20.0, tick: float = 0.32
) -> FrameTimeline:
    """Multi-channel variant of :func:`lowfi_timeline`: every channel steps
    together, each clamped at its own target extension.  Deltas must be
    finite numbers >= 0, ``tick_step`` and ``tick`` finite numbers > 0 (a
    ``bool`` is not one), and the timeline at most :data:`MAX_FRAMES`
    frames long; anything else raises ``ValueError`` before a frame is made."""
    if not all(map(_checks.is_finite, extension_deltas)):
        raise ValueError("extension deltas must be finite numbers")
    if any(d < 0 for d in extension_deltas):
        raise ValueError("extension deltas must be non-negative")
    _checks.positive("tick_step", tick_step)
    _checks.positive("tick", tick)
    peak = max(extension_deltas, default=0)
    if peak / tick_step > MAX_FRAMES:  # the frame count, its ceiling, is then above it too
        raise ValueError(
            f"a delta of {peak} in steps of {tick_step} is more than {MAX_FRAMES} frames")
    count = math.ceil(peak / tick_step)
    frames = tuple(
        TimelineFrame(
            (k + 1) * tick,
            tuple(min(d, (k + 1) * tick_step) for d in extension_deltas),
        )
        for k in range(count)
    )
    return FrameTimeline(frames, tick)


def plan_to_json(plan: MotionPlan) -> str:
    payload = {
        "profile": plan.profile,
        "commands": [
            {
                "leaf": c.leaf,
                "from": c.source,
                "to": c.target,
                "start_time": c.start_time,
                "duration": c.duration,
            }
            for c in plan.commands
        ],
        "total_duration": plan.total_duration,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def plan_from_json(text: str) -> MotionPlan:
    """Parse a plan document (:func:`plan_to_json`'s shape).  A missing or
    mistyped field raises ``ValueError`` naming it; :class:`MotionPlan`
    checks the values."""
    payload = _json_object(text)
    commands = _field(payload, "commands")
    if not isinstance(commands, list):
        raise ValueError(f"commands must be a list, got {type(commands).__name__}")
    names = ("leaf", "from", "to", "start_time", "duration")
    parsed = []
    for index, command in enumerate(commands):
        where = f"commands[{index}]"
        if not isinstance(command, dict):
            raise ValueError(f"{where} must be an object, got {type(command).__name__}")
        parsed.append(MotionCommand(*(_field(command, name, where + ".") for name in names)))
    return MotionPlan(_field(payload, "profile"), tuple(parsed), _field(payload, "total_duration"))


def _field(document: dict, name: str, where: str = ""):
    try:
        return document[name]
    except KeyError:
        raise ValueError(f"missing field {where}{name}") from None


def _json_object(text: str) -> dict:
    """``text`` parsed as a JSON object; anything else raises ``ValueError``."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object")
    return payload


def profile_from_json(text: str) -> DeviceProfile:
    """Parse a custom profile document (the builtin profiles' JSON shape).
    A field that :class:`DeviceProfile` does not have raises ``ValueError``
    naming it, as does a ``modality`` that is not a :class:`Modality`'s
    value; an absent ``modality`` is physical."""
    payload = _json_object(text)
    known = {f.name for f in fields(DeviceProfile)}
    for name in payload:
        if name not in known:
            raise ValueError(f"unknown field {_checks.quote(name)}")
    modality = _checks.one_of("modality", payload.get("modality", "physical"),
                              [m.value for m in Modality])
    return DeviceProfile(**{**payload, "name": payload.get("name"),
                            "modality": Modality(modality)})
