"""Deterministic simulator of the shape-changing display mechatronics.

The simulated hardware is a coordinator driving a ring of six boards over
the framed serial protocol: boards 0..4 each move two leaf channels
(stepper + endless screw + pulling cable), board 5 holds the LED cluster.
The event log records each dispatched command (``set_target``, ``ack``)
and each stop-sensor hit; the frames these take on the ring are specified
in :mod:`plantchart.protocol`.  A relay gates power to the motor boards;
the coordinator and the LEDs stay powered.  Because the screws retain
cable tension, unpowered channels hold their position exactly.

The simulator is a single state machine advanced by explicit ticks.  Its
physical state lives in one private mutable core, :class:`_Core`: per-leaf
lists of step counters, targets, full ranges, rotations and sub-step
carries, the board power flags, the relay, the clock, the step rate and
the pending commands.  The core keeps no log: an advance returns the
``(t, board, kind, detail)`` tuples it logged.  A long-lived owner, such as
:class:`.serve.ForecastService`, keeps one core and its own log and builds a
frozen :class:`ControllerState` snapshot only when one is read.
:func:`run_plan`, :func:`tick` and :func:`submit_plan` keep the frozen API:
each builds a core from a snapshot, acts on it and returns the core's
snapshot, whose ``event_log`` is the tuple of that call's own events; the
calls' tuples joined are the whole log.  :func:`tick` and :func:`run_plan`
share one advance loop, so a plan stepped with :func:`tick` ends in the
same state and log bytes as :func:`run_plan`.  The loop works on locals
and writes them back to the core only when it completes, so a run that
raises leaves the core as it was and logs nothing.

The loop runs the ticks in windows that end where the next command
dispatches.  Within a window the leaves do not interact, so each moving
leaf runs through the whole window on its own.  Every tick still takes its
own float steps: the clock adds ``dt`` once a tick, and a leaf's budget is
``step_rate * dt`` plus its carry, once a tick.  Event times and sub-step
carries are therefore the same as when the ticks run one at a time.

Between its events a leaf runs in stretches, which count no steps.  A
tick's budget ``b + rest`` is at least 0 once the carry ``rest`` is in
``[0, 1)`` and ``b = step_rate * dt`` is positive, and for a budget at
least 0, ``budget % 1.0`` has the same bits as ``budget - int(budget)``:
both are exact.  So a stretch tick is ``rest = (b + rest) % 1.0`` alone.
Over ``k`` ticks from carry ``r0`` to ``rest`` the steps taken sum to
``r0 + k*b + E - rest``, where ``E`` is the sum of the ``k`` additions'
roundings; with ``k`` and the steps of a stretch bounded (see
``_STRETCH_STEPS``), ``|E|`` is below ``2**-22``, so the steps are that sum
rounded to the nearest integer.  A stretch runs ``k = (guard - 1 - r0) /
b`` ticks, floored, where ``guard`` is the steps to the next arrival or
stop-sensor landing.  Its steps are at most ``r0 + k*b + E``, which exceeds
``guard - 1`` by far less than a step if at all, so an integer count of
them is at most ``guard - 1`` and no event falls inside a stretch.  The
ticks at and around each event run one at a time, as do those with a
carry outside ``[0, 1)``.
"""

from __future__ import annotations

import json
import marshal
import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, islice, repeat, starmap
from typing import NamedTuple

from . import _checks
from .encoder import POSITION_MAX, POSITION_MIN, LeafPosition
from .motion import LEAF_COUNT, DeviceProfile, MotionCommand, MotionPlan

MOTOR_BOARDS = 5
LED_BOARD = 5
EVENT_STOP = 0x00

DEFAULT_TICK = 0.01
#: Most ticks one :func:`run_plan` may take.  A full ten-leaf plan needs
#: about 2,000 at the default tick; a plan past this bound (a near-zero
#: step rate, a tiny tick) is refused before it starts.
MAX_TICKS = 10**7
#: Most ticks one window of the advance loop runs, which bounds its clock
#: list; longer waits and motions take several windows.
_WINDOW = 4096
#: Most steps one stretch of the advance loop may take.  A stretch of k
#: ticks, k at most ``_WINDOW + 2``, adds k budgets that sum to less than
#: ``2**30 + k``; each add rounds by at most ``2**-53`` of its sum, so the
#: roundings total less than ``2**-22`` steps.  A longer travel takes
#: several stretches.
_STRETCH_STEPS = 2**30
#: Most steps a leaf's full range may span: a ``set_target`` frame carries
#: the target step in 16 bits, and targets run from 0 to the full range.
STEPS_FULL_RANGE_MAX = 0xFFFF
_EPS = 1e-9


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class LeafChannel:
    """One stepper-driven pulling mechanism with its two IR sensors."""

    current_step: int
    target_step: int
    steps_full_range: int
    rotation_count: int = 0
    step_carry: float = 0.0  # sub-step motion budget carried between ticks

    @property
    def stop_sensor_active(self) -> bool:
        return self.current_step == 0

    @property
    def moving(self) -> bool:
        return self.current_step != self.target_step


@dataclass(frozen=True)
class BoardState:
    board_id: int
    channels: tuple[LeafChannel, ...]
    powered: bool


#: The LED board: always powered, with no leaf channels.
_LED = BoardState(LED_BOARD, (), powered=True)


class LogEvent(NamedTuple):
    """One entry of the event log.  The advance loop logs plain 4-tuples
    of these fields, in this order; a snapshot's ``event_log`` yields them
    as ``LogEvent`` values.  Being a tuple, a ``LogEvent`` compares equal
    to a plain tuple of the same fields."""

    t: float
    board: int | None
    kind: str
    detail: tuple[tuple[str, object], ...]


class _EventLog(Sequence):
    """A read-only view of the first ``length`` entries of the event list of
    a :class:`.serve.ForecastService`, which only appends to it, so the view
    never changes and costs the same to make at any length of the list.  It
    yields :class:`LogEvent` values and behaves as the tuple of them: it
    equals that tuple and hashes alike, a slice of it is a tuple, and ``+``
    with a tuple, in either order, gives a tuple."""

    __slots__ = ("_entries", "_length")

    def __init__(self, entries: list, length: int):
        self._entries = entries
        self._length = length

    def _prefix(self) -> Iterator[tuple]:
        return islice(self._entries, self._length)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        positions = range(self._length)[index]
        if isinstance(positions, range):
            return tuple(map(LogEvent._make, map(self._entries.__getitem__, positions)))
        return LogEvent._make(self._entries[positions])

    def __iter__(self) -> Iterator[LogEvent]:
        return map(LogEvent._make, self._prefix())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _EventLog)):
            return NotImplemented
        return tuple(self._prefix()) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self._prefix()))

    def __add__(self, other):
        if not isinstance(other, (tuple, _EventLog)):
            return NotImplemented
        return (*self, *other)

    def __radd__(self, other):
        if not isinstance(other, tuple):
            return NotImplemented
        return (*other, *self)

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class PendingCommand:
    dispatch_time: float
    command: MotionCommand


@dataclass(frozen=True)
class ControllerState:
    """A frozen snapshot of the controller.  ``event_log``, which the
    simulator never reads, holds :class:`LogEvent` values: from
    :func:`run_plan`, :func:`tick` or :func:`submit_plan`, the tuple of that
    call's own events; from a :class:`.serve.ForecastService`, a read-only
    view of the service's whole log, which costs the same at any length."""

    boards: tuple[BoardState, ...]
    relay_on: bool
    clock: float
    step_rate: float
    event_log: Sequence[LogEvent] = ()
    pending: tuple[PendingCommand, ...] = ()

    @property
    def busy(self) -> bool:
        return bool(self.pending) or any(
            ch.moving for b in self.boards[:MOTOR_BOARDS] for ch in b.channels
        )


def _round_half_up(value: float) -> int:
    return math.floor(value + 0.5)


def position_to_steps(position: LeafPosition, steps_full_range: int) -> int:
    return _round_half_up(position / 10 * steps_full_range)


def initial_state(
    profile: DeviceProfile, positions: list[LeafPosition] | None = None
) -> ControllerState:
    """A powered-down controller; ``positions`` preloads the leaves (useful
    for replay and testing), default fully furled.  Each position must be
    an int in [0, 10]."""
    if positions is None:
        positions = [0] * LEAF_COUNT
    if len(positions) != LEAF_COUNT:
        raise ValueError(f"expected {LEAF_COUNT} leaf positions, got {len(positions)}")
    for i, position in enumerate(positions):
        _checks.an_int(f"positions[{i}]", position, POSITION_MIN, POSITION_MAX)
    full_range = profile.steps_full_range
    steps = [position_to_steps(p, n) for p, n in zip(positions, full_range)]
    boards = _boards([False] * MOTOR_BOARDS, steps, steps, full_range,
                     [0] * LEAF_COUNT, [0.0] * LEAF_COUNT)
    return ControllerState(boards, relay_on=False, clock=0.0, step_rate=profile.step_rate)


def _boards(powered, current, target, full_range, rotations, carry) -> tuple[BoardState, ...]:
    """The six boards of a snapshot from one power flag per motor board and
    per-leaf channel values: leaf ``2*b + c`` is channel ``c`` of board ``b``."""
    channels = list(map(LeafChannel, current, target, full_range, rotations, carry))
    pairs = zip(channels[0::2], channels[1::2])
    return (*map(BoardState, range(MOTOR_BOARDS), pairs, powered), _LED)


def _steps_to_position(step: int, steps_full_range: int) -> LeafPosition:
    return _round_half_up(step / steps_full_range * 10)


def _channels(ctrl: ControllerState) -> list[LeafChannel]:
    """The leaf channels of ``ctrl``, by leaf."""
    return [channel for board in ctrl.boards[:MOTOR_BOARDS] for channel in board.channels]


def _full_ranges(channels: list[LeafChannel]) -> list[int]:
    """Each channel's full range, refused with a ``ValueError`` naming the
    leaf when it is outside ``[1, STEPS_FULL_RANGE_MAX]``."""
    full_range = [channel.steps_full_range for channel in channels]
    for leaf, steps in enumerate(full_range):
        _checks.number_in(f"steps_full_range of leaf {leaf}", steps, 1, STEPS_FULL_RANGE_MAX)
    return full_range


def leaf_positions(ctrl: ControllerState) -> list[LeafPosition]:
    """Per-leaf discrete positions read back from the step counters.  A
    snapshot with a leaf's full range outside ``[1, STEPS_FULL_RANGE_MAX]``
    is refused, as the simulator refuses it."""
    channels = _channels(ctrl)
    current = [channel.current_step for channel in channels]
    return list(map(_steps_to_position, current, _full_ranges(channels)))


class _Core:
    """The simulator's mutable physical state, one value per leaf or board
    in plain lists: leaf ``2*b + c`` is channel ``c`` of motor board ``b``.
    ``pending`` holds ``(dispatch_time, command)`` pairs in dispatch order,
    as a plan queues them.  The core keeps no log and never reads a
    snapshot's.  A snapshot whose full range for a leaf is outside ``[1,
    STEPS_FULL_RANGE_MAX]`` is refused, since some target on it would not
    fit a ``set_target`` frame."""

    __slots__ = ("current", "target", "full_range", "rotations", "carry", "powered",
                 "relay_on", "clock", "step_rate", "pending")

    def __init__(self, ctrl: ControllerState):
        channels = _channels(ctrl)
        self.current = [channel.current_step for channel in channels]
        self.target = [channel.target_step for channel in channels]
        self.full_range = _full_ranges(channels)
        self.rotations = [channel.rotation_count for channel in channels]
        self.carry = [channel.step_carry for channel in channels]
        self.powered = [board.powered for board in ctrl.boards[:MOTOR_BOARDS]]
        self.relay_on = ctrl.relay_on
        self.clock = ctrl.clock
        self.step_rate = ctrl.step_rate
        self.pending = [(item.dispatch_time, item.command) for item in ctrl.pending]

    def snapshot(self, event_log: Sequence[LogEvent]) -> ControllerState:
        """The core's state, carrying ``event_log``."""
        boards = _boards(self.powered, self.current, self.target, self.full_range,
                         self.rotations, self.carry)
        return ControllerState(boards, self.relay_on, self.clock, self.step_rate, event_log,
                               tuple(starmap(PendingCommand, self.pending)))

    def positions(self) -> list[LeafPosition]:
        """:func:`leaf_positions` of the core."""
        return list(map(_steps_to_position, self.current, self.full_range))

    def run(self, plan: MotionPlan, dt: float) -> list[tuple]:
        """:func:`run_plan` on the core, returning the events it logged.  A
        budget or deadline that is not finite is refused before any tick."""
        check_dt(dt)
        budget_per_tick = _budget_per_tick(self.step_rate, dt)
        deadline = plan.total_duration + (len(plan.commands) + 2) * dt + 1.0
        if not math.isfinite(deadline):
            raise SimulationError(f"a tick of {dt} s puts the plan's deadline out of range")
        if not deadline / dt <= MAX_TICKS:
            raise SimulationError(
                f"plan would take more than {MAX_TICKS} ticks of {dt} s to complete"
            )
        return _advance(self, dt, budget_per_tick, plan.total_duration, deadline,
                        _queue(self, plan))


def _logged(events: list[tuple]) -> tuple[LogEvent, ...]:
    return tuple(map(LogEvent._make, events))


def submit_plan(ctrl: ControllerState, plan: MotionPlan) -> ControllerState:
    """Queue a plan for execution: the relay is energized and each command
    will be dispatched when its start time arrives.  The relay stays on
    until nothing is pending or moving."""
    core = _Core(ctrl)
    core.relay_on, core.powered, core.pending, events = _queue(core, plan)
    return core.snapshot(_logged(events))


def _queue(core: _Core, plan: MotionPlan) -> tuple:
    """The relay, power flags, pending commands and new events that
    submitting ``plan`` makes, without changing the core.  A plan with
    commands energizes the relay; it stays on until nothing is pending
    or moving."""
    if core.pending or core.current != core.target:
        raise SimulationError("a plan is already executing")
    for cmd in plan.commands:
        if not 0 <= cmd.leaf < LEAF_COUNT:
            raise SimulationError(f"plan references unknown leaf {cmd.leaf}")
    clock = core.clock
    pending = [(clock + cmd.start_time, cmd) for cmd in plan.commands]
    if not pending or core.relay_on:
        return core.relay_on, core.powered, pending, []
    relay = (clock, None, "relay", (("on", True),))
    return True, [True] * MOTOR_BOARDS, pending, [relay]


def check_dt(dt: float) -> float:
    """Return ``dt`` if it is a finite number of seconds > 0, which a ``bool``
    is not; raise ``ValueError`` naming the tick otherwise."""
    return _checks.positive("tick", dt)


def _budget_per_tick(step_rate: float, dt: float) -> float:
    """``step_rate * dt``, the steps a leaf may take in a tick, if finite."""
    budget = step_rate * dt
    if not _checks.is_finite(budget):
        raise SimulationError(f"motion budget per tick (step rate {step_rate} x tick {dt} s)"
                              " is not finite")
    return budget


def tick(ctrl: ControllerState, dt: float) -> ControllerState:
    """Advance the simulation by ``dt`` seconds: dispatch due commands, move
    powered channels toward their targets, emit sensor events, and gate the
    relay off once everything is idle."""
    check_dt(dt)
    core = _Core(ctrl)
    return core.snapshot(_logged(_advance(core, dt, _budget_per_tick(core.step_rate, dt))))


def run_plan(
    ctrl: ControllerState, plan: MotionPlan, dt: float = DEFAULT_TICK
) -> ControllerState:
    """Submit ``plan`` and tick until it has fully played out (all targets
    reached and the plan's total duration elapsed).  The ticks run inside
    this call, which returns one snapshot; a plan whose deadline would take
    more than :data:`MAX_TICKS` ticks is refused before the first one."""
    core = _Core(ctrl)
    return core.snapshot(_logged(core.run(plan, dt)))


def _advance(
    core: _Core,
    dt: float,
    budget_per_tick: float,
    duration: float | None = None,
    deadline: float = math.inf,
    submitted: tuple | None = None,
) -> list[tuple]:
    """Tick ``core`` forward, ``budget_per_tick`` steps of motion budget a
    tick, and return the events logged.  ``submitted``, from :func:`_queue`,
    replaces the relay, power flags and pending commands before the first
    tick, and its events come ahead of the ticks' own.

    With ``duration`` None this is exactly one tick.  Otherwise ticks run
    until nothing is pending or moving and ``duration`` has elapsed; the
    run fails once a tick would start with the clock past ``deadline``.

    The ticks run in windows: a window starts at a tick and ends before
    the next tick that dispatches a command, or after :data:`_WINDOW`
    ticks.  Commands dispatch only in a window's first tick, so inside it
    the leaves do not interact and each leaf runs its whole window in one
    loop.  The clock list of a window repeats the per-tick ``clock + dt``
    additions, and each leaf repeats the per-tick ``budget_per_tick +
    carry`` additions, so the state and the log bytes do not depend on how
    the ticks are grouped into windows or calls.  A leaf's run between its
    events is a stretch: each of its ticks is ``rest = (budget_per_tick +
    rest) % 1.0`` alone, and the steps of the stretch are read back once
    from its first and last carry, as the module docstring shows.  Ticks
    with an event, or with a carry outside ``[0, 1)``, count their steps
    one tick at a time.
    Events go out by tick, then by leaf, with the relay last.  ``pending``
    is in dispatch order, so the commands due in a tick are the head of
    what is left.
    """
    step_rate = core.step_rate
    current = core.current[:]
    target = core.target[:]
    rotations = core.rotations[:]
    carry = core.carry[:]
    full_range = core.full_range
    relay_on, powered, pending, events = submitted or (
        core.relay_on, core.powered, core.pending, [])
    moving = [leaf for leaf in range(len(current)) if current[leaf] != target[leaf]]
    clock = start = core.clock
    queued = len(pending)
    dispatched = 0

    def elapsed(c: float) -> float:
        return c - start + _EPS

    while duration is None or dispatched < queued or moving or elapsed(clock) < duration:
        # Commands beginning inside this tick dispatch now; the portion of
        # the tick before their start time is withheld from their motion
        # budget (a negative carry), so completion stays within one tick of
        # the planned schedule.
        due_before = _due_before(clock + dt)
        if dispatched < queued and pending[dispatched][0] < due_before:
            while dispatched < queued and pending[dispatched][0] < due_before:
                dispatch_time, command = pending[dispatched]
                dispatched += 1
                leaf = command.leaf
                board_id, channel_id = divmod(leaf, 2)
                steps = position_to_steps(command.target, full_range[leaf])
                events.append((
                    dispatch_time,
                    board_id,
                    "set_target",
                    (
                        ("leaf", leaf),
                        ("channel", channel_id),
                        ("from_step", current[leaf]),
                        ("target_step", steps),
                    ),
                ))
                withheld = max(0.0, dispatch_time - clock)
                target[leaf] = steps
                carry[leaf] = -withheld * step_rate
                events.append((dispatch_time, board_id, "ack", (("leaf", leaf),)))
            moving = [leaf for leaf in range(len(current)) if current[leaf] != target[leaf]]

        # The window's length is a guess at the ticks up to the next
        # dispatch, or up to the last arrival and ``duration``; a short
        # guess only splits the run into more windows.
        if duration is None:
            n = 1
        else:
            if dispatched < queued:
                horizon = pending[dispatched][0] - clock
            else:
                farthest = max((abs(target[leaf] - current[leaf]) for leaf in moving), default=0)
                travel_time = farthest / step_rate if step_rate > 0 else math.inf
                horizon = max(duration - (clock - start), travel_time)
            n = int(min(_WINDOW, max(0.0, horizon / dt))) + 2
        clocks = list(accumulate(repeat(dt, n), initial=clock))
        if dispatched < queued:
            n = bisect_right(clocks, pending[dispatched][0], 2, n + 1,
                             key=_due_before) - 1

        marks = []  # (tick, leaf, kind): 0 stop sensor, 1 target reached, 2 relay off
        quiet = 1  # ticks after which no leaf moves
        still = []
        for leaf in moving:
            if not powered[leaf >> 1]:
                still.append(leaf)  # unpowered channels hold position exactly
                continue
            step, goal, rest = current[leaf], target[leaf], carry[leaf]
            up = goal > step
            remaining = travel = abs(goal - step)
            at_zero = goal if up else -goal  # ``remaining`` when the step count is 0
            j = 0
            while j < n:
                if budget_per_tick > 0 and 0.0 <= rest < 1.0:
                    # A stretch: k ticks that end at least one step short
                    # of the next arrival or stop-sensor landing.
                    guard = remaining - at_zero if 0 < at_zero < remaining else remaining
                    k = int(min(n - j, (min(guard, _STRETCH_STEPS) - 1 - rest) / budget_per_tick))
                    if k > 0:
                        start_rest = rest
                        for _ in repeat(None, k):
                            rest = (budget_per_tick + rest) % 1.0
                        remaining -= round(start_rest + k * budget_per_tick - rest)
                        j += k
                        continue
                budget = budget_per_tick + rest
                steps = int(budget)
                if steps >= remaining:  # min(int(budget), remaining) is the rest: arrival
                    if not at_zero:
                        marks.append((j, leaf, 0))
                    marks.append((j, leaf, 1))
                    remaining, rest = 0, 0.0
                    quiet = max(quiet, j + 1)
                    break
                if steps:
                    remaining -= steps
                    if remaining == at_zero:
                        marks.append((j, leaf, 0))
                    rest = budget - steps
                else:
                    rest = budget
                j += 1
            else:
                still.append(leaf)
            moved = travel - remaining
            current[leaf] = step + moved if up else step - moved
            rotations[leaf] += moved
            carry[leaf] = rest
        moving = still

        if not moving and dispatched == queued:
            if relay_on:
                relay_on = False
                powered = [False] * MOTOR_BOARDS
                marks.append((quiet - 1, len(current), 2))
            if duration is not None:
                n = min(n, bisect_left(clocks, duration, quiet, n + 1, key=elapsed))
        if clocks[n - 1] - start > deadline:
            raise SimulationError("plan failed to complete in simulated time")

        for j, leaf, kind in sorted(marks):
            t = clocks[j + 1]
            if kind == 2:
                events.append((t, None, "relay", (("on", False),)))
                continue
            board_id = leaf >> 1
            if kind == 0:
                events.append((t, board_id, "stop_sensor", (("leaf", leaf),)))
            else:
                events.append((t, board_id, "target_reached",
                               (("leaf", leaf), ("step", current[leaf]))))
        clock = clocks[n]
        if duration is None:
            break

    core.current, core.target, core.rotations, core.carry = current, target, rotations, carry
    core.powered, core.relay_on, core.clock = powered, relay_on, clock
    core.pending = pending[dispatched:]
    return events


def _due_before(new_clock: float) -> float:
    """A command dispatches in the tick ending at ``new_clock`` when its
    dispatch time is below this."""
    return new_clock - _EPS


def events_to_ndjson(events: Iterable[tuple]) -> str:
    """Serialize the event log, ``(t, board, kind, detail)`` tuples such as
    :class:`LogEvent` values, as newline-delimited JSON records.

    Each line is ``json.dumps`` with sorted keys of the record ``{"t": t,
    "board": board, "kind": kind, "detail": dict(detail)}``.  A log repeats
    few distinct ``(board, kind, detail)`` heads, so each head's text, the
    line up to the time, is made once per call and the time's ``repr``
    appended to it.  Heads are keyed on their :mod:`marshal` bytes, which
    tell apart values that compare equal but serialize differently (``1``,
    ``1.0``, ``True``); marshal refuses anything but plain built-in values.
    An event whose head marshal refuses, or whose time is not a finite
    float, is serialized whole.
    """
    heads: dict[bytes, str] = {}
    lines = []
    last_t = t_text = None
    for t, board, kind, detail in events:
        try:  # version 2 has no back-references, which depend on refcounts
            key = marshal.dumps((board, kind, detail), 2)
        except ValueError:
            key = None
        if key is None or type(t) is not float or not math.isfinite(t):
            lines.append(_record_json(t, board, kind, detail) + "\n")
            continue
        head = heads.get(key)
        if head is None:
            # "t" sorts last, so the line ends in '"t": 0.0}'; cut "0.0}".
            head = heads[key] = _record_json(0.0, board, kind, detail)[:-4]
        if t is not last_t:  # the events of one tick share their time
            last_t, t_text = t, float.__repr__(t) + "}\n"
        lines.append(head + t_text)
    return "".join(lines)


def _record_json(t, board, kind, detail) -> str:
    record = {"t": t, "board": board, "kind": kind, "detail": dict(detail)}
    return json.dumps(record, sort_keys=True)
