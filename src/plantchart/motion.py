"""Timed actuation plans for physical devices and graphical animations.

Two timing regimes coexist.  Physical devices move each shape for a time
proportional to the travelled distance (smaller changes animate faster):
a leaf covering ``d`` of its 10 positions takes ``d/10 * steps / step_rate``
seconds.  Graphical devices animate every hour for a constant time
(``per_rate_frame_time``) regardless of the travelled distance.  In both
regimes the hours actuate strictly one after another, in hour order.

Profiles also fix the reset policy used between two displayed variations:
screen devices wipe everything back to position 0 first, shape-changing
devices move directly to the next targets.

Plans are immutable values; they serialize to JSON for replay and
golden-file testing.
"""

from __future__ import annotations

import enum
import json
import math
import random
from dataclasses import dataclass, replace

from .encoder import POSITION_MAX, POSITION_MIN, LeafPosition

LEAF_COUNT = 10
STEPS_MIN = 185
STEPS_MAX = 230
STEPS_DEFAULT = 216


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
    reset_before_next_variation: bool = False

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name):
            raise ValueError(f"name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.reset_before_next_variation, bool):
            raise ValueError(
                "reset_before_next_variation must be true or false, "
                f"got {self.reset_before_next_variation!r}"
            )
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
            if not (_is_number(steps) and STEPS_MIN <= steps <= STEPS_MAX):
                raise ValueError(
                    f"steps_full_range[{i}] = {steps!r} out of range "
                    f"[{STEPS_MIN}, {STEPS_MAX}]"
                )
        for name in ("step_rate", "per_rate_frame_time"):
            value = getattr(self, name)
            if not (_is_finite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")

    def calibrated(self, seed: int) -> "DeviceProfile":
        """A copy with per-leaf step counts drawn uniformly from the
        manual-adjustment range, reproducibly from ``seed``."""
        rng = random.Random(seed)
        steps = tuple(rng.randint(STEPS_MIN, STEPS_MAX) for _ in self.steps_full_range)
        return replace(self, steps_full_range=steps)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return _is_number(value) and math.isfinite(value)


# The physical step rates are calibrated so that full 10-hour and 8-hour
# unfurl sequences both land within one second of the measured 19/14 s
# (leaf device) and 12/8 s (ring device) display totals.
PLANTFORM = DeviceProfile("plantform", Modality.PHYSICAL, step_rate=118.0)
CAIRNFORM = DeviceProfile("cairnform", Modality.PHYSICAL, step_rate=194.0)
PLANTSCREEN = DeviceProfile(
    "plantscreen", Modality.GRAPHICAL, reset_before_next_variation=True
)
CAIRNSCREEN = DeviceProfile(
    "cairnscreen", Modality.GRAPHICAL, reset_before_next_variation=True
)

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
        if not _is_finite(self.total_duration):
            raise ValueError(f"total_duration must be a finite number, got {self.total_duration!r}")
        previous = None
        per_leaf_end: dict[int, float] = {}
        for index, cmd in enumerate(self.commands):
            for name in ("start_time", "duration"):
                if not _is_finite(getattr(cmd, name)):
                    raise ValueError(f"command {index} (leaf {cmd.leaf}): {name} must be "
                                     f"a finite number, got {getattr(cmd, name)!r}")
            if cmd.duration < 0:
                raise ValueError(f"command {index} (leaf {cmd.leaf}): duration must be "
                                 f">= 0, got {cmd.duration!r}")
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
        for p in vec:
            if not POSITION_MIN <= p <= POSITION_MAX:
                raise ValueError(f"position {p} out of range [0, 10]")
    if leaf_indices is None:
        return list(range(len(targets)))
    leaf_indices = list(leaf_indices)
    if len(leaf_indices) != len(targets):
        raise ValueError("leaf_indices must match the target vector length")
    for leaf in leaf_indices:
        if not 0 <= leaf < LEAF_COUNT:
            raise ValueError(f"leaf index {leaf} out of range [0, {LEAF_COUNT - 1}]")
    return leaf_indices


def plan_physical(
    targets: list[LeafPosition],
    current: list[LeafPosition],
    profile: DeviceProfile,
    leaf_indices: list[int] | None = None,
) -> MotionPlan:
    """Rate-proportional sequential plan: each leaf moves for a time
    proportional to its position change; unchanged leaves are skipped."""
    leaves = _check_vectors(targets, current, leaf_indices)
    commands = []
    clock = 0.0
    for leaf, a, b in zip(leaves, current, targets):
        delta = abs(b - a)
        if delta == 0:
            continue
        duration = delta / 10 * profile.steps_full_range[leaf] / profile.step_rate
        commands.append(MotionCommand(leaf, a, b, clock, duration))
        clock += duration
    total = max((c.start_time + c.duration for c in commands), default=0.0)
    return MotionPlan(profile.name, tuple(commands), total)


def plan_graphical(
    targets: list[LeafPosition],
    current: list[LeafPosition],
    profile: DeviceProfile,
    leaf_indices: list[int] | None = None,
) -> MotionPlan:
    """Constant-time sequential plan: every displayed hour takes
    ``per_rate_frame_time`` seconds regardless of the position change."""
    leaves = _check_vectors(targets, current, leaf_indices)
    commands = []
    clock = 0.0
    for leaf, a, b in zip(leaves, current, targets):
        commands.append(MotionCommand(leaf, a, b, clock, profile.per_rate_frame_time))
        clock += profile.per_rate_frame_time
    total = max((c.start_time + c.duration for c in commands), default=0.0)
    return MotionPlan(profile.name, tuple(commands), total)


def plan_for_profile(
    targets: list[LeafPosition],
    current: list[LeafPosition],
    profile: DeviceProfile,
    leaf_indices: list[int] | None = None,
) -> MotionPlan:
    if profile.modality is Modality.PHYSICAL:
        return plan_physical(targets, current, profile, leaf_indices)
    return plan_graphical(targets, current, profile, leaf_indices)


def transition_plan(
    current: list[LeafPosition],
    nxt: list[LeafPosition],
    profile: DeviceProfile,
    leaf_indices: list[int] | None = None,
) -> MotionPlan:
    """Plan the move from one displayed variation to the next, honouring the
    profile's reset policy (wipe to 0 first, or move directly)."""
    if not profile.reset_before_next_variation:
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
    if extension_delta < 0:
        raise ValueError("extension_delta must be non-negative")
    count = math.ceil(extension_delta / tick_step)
    frames = tuple(
        TimelineFrame((k + 1) * tick, (min(extension_delta, (k + 1) * tick_step),))
        for k in range(count)
    )
    return FrameTimeline(frames, tick)


def lowfi_series_timeline(
    extension_deltas: list[float], tick_step: float = 20.0, tick: float = 0.32
) -> FrameTimeline:
    """Multi-channel variant of :func:`lowfi_timeline`: every channel steps
    together, each clamped at its own target extension."""
    if any(d < 0 for d in extension_deltas):
        raise ValueError("extension deltas must be non-negative")
    count = max((math.ceil(d / tick_step) for d in extension_deltas), default=0)
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
    payload = json.loads(text)
    commands = tuple(
        MotionCommand(c["leaf"], c["from"], c["to"], c["start_time"], c["duration"])
        for c in payload["commands"]
    )
    return MotionPlan(payload["profile"], commands, payload["total_duration"])


def profile_from_json(text: str) -> DeviceProfile:
    """Parse a custom profile document (the builtin profiles' JSON shape)."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object")
    return DeviceProfile(
        name=payload.get("name"),
        modality=Modality(payload.get("modality", "physical")),
        steps_full_range=payload.get("steps_full_range", [STEPS_DEFAULT] * LEAF_COUNT),
        step_rate=payload.get("step_rate", 120.0),
        per_rate_frame_time=payload.get("per_rate_frame_time", 2.0),
        reset_before_next_variation=payload.get("reset_before_next_variation", False),
    )
