"""Deterministic simulator of the shape-changing display mechatronics.

The simulated hardware is a coordinator driving a ring of six boards over
the framed serial protocol: boards 0..4 each move two leaf channels
(stepper + endless screw + pulling cable), board 5 holds the LED cluster.
Messages travel around the ring and loop back to the coordinator.  A relay
gates power to the motor boards; the coordinator and the LEDs stay powered.
Because the screws retain cable tension, unpowered channels hold their
position exactly.

The simulator is a single state machine advanced by explicit ticks.  Every
operation returns a fresh :class:`ControllerState`; one advancing context
owns the latest state while readers are free to inspect older snapshots and
the append-only event log.  :func:`tick` advances one tick; :func:`run_plan`
runs all the ticks of a plan internally, on plain per-leaf values, and
returns one snapshot.  Both share one advance loop, so a plan stepped with
:func:`tick` ends in the same state and log bytes as :func:`run_plan`.

The loop runs the ticks in windows that end where the next command
dispatches.  Within a window the leaves do not interact, so each moving
leaf runs through the whole window on its own.  Every tick still takes its
own float steps: the clock adds ``dt`` once a tick, and a leaf's budget is
``step_rate * dt`` plus its carry, once a tick.  Event times and sub-step
carries are therefore the same as when the ticks run one at a time.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate, repeat

from .encoder import LeafPosition
from .motion import LEAF_COUNT, DeviceProfile, MotionCommand, MotionPlan
from .protocol import Frame, Opcode, decode_frame, encode_frame

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
    led_color: str | None = None  # LED cluster boards only; held constant


@dataclass(frozen=True)
class LogEvent:
    t: float
    board: int | None
    kind: str
    detail: tuple[tuple[str, object], ...]

    def as_record(self) -> dict:
        return {"t": self.t, "board": self.board, "kind": self.kind,
                "detail": dict(self.detail)}


@dataclass(frozen=True)
class PendingCommand:
    dispatch_time: float
    command: MotionCommand


@dataclass(frozen=True)
class ControllerState:
    boards: tuple[BoardState, ...]
    relay_on: bool
    clock: float
    step_rate: float
    event_log: tuple[LogEvent, ...] = ()
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
    for replay and testing), default fully furled."""
    if positions is None:
        positions = [0] * LEAF_COUNT
    if len(positions) != LEAF_COUNT:
        raise ValueError(f"expected {LEAF_COUNT} leaf positions, got {len(positions)}")
    boards = []
    for board_id in range(MOTOR_BOARDS):
        channels = []
        for ch in range(2):
            leaf = board_id * 2 + ch
            steps = position_to_steps(positions[leaf], profile.steps_full_range[leaf])
            channels.append(
                LeafChannel(
                    current_step=steps,
                    target_step=steps,
                    steps_full_range=profile.steps_full_range[leaf],
                )
            )
        boards.append(BoardState(board_id, tuple(channels), powered=False))
    boards.append(BoardState(LED_BOARD, (), powered=True, led_color="green"))
    return ControllerState(
        boards=tuple(boards), relay_on=False, clock=0.0, step_rate=profile.step_rate
    )


def leaf_positions(ctrl: ControllerState) -> list[LeafPosition]:
    """Per-leaf discrete positions read back from the step counters."""
    positions = []
    for board in ctrl.boards[:MOTOR_BOARDS]:
        for channel in board.channels:
            positions.append(
                _round_half_up(channel.current_step / channel.steps_full_range * 10)
            )
    return positions


def submit_plan(ctrl: ControllerState, plan: MotionPlan) -> ControllerState:
    """Queue a plan for execution: the relay is energized and each command
    will be dispatched as a SET_TARGET frame when its start time arrives."""
    if ctrl.busy:
        raise SimulationError("a plan is already executing")
    for cmd in plan.commands:
        if not 0 <= cmd.leaf < LEAF_COUNT:
            raise SimulationError(f"plan references unknown leaf {cmd.leaf}")
    if not plan.commands:
        return ctrl
    pending = tuple(
        PendingCommand(ctrl.clock + cmd.start_time, cmd) for cmd in plan.commands
    )
    events = ctrl.event_log
    relay_on = ctrl.relay_on
    boards = ctrl.boards
    if not relay_on:
        relay_on = True
        boards = _set_motor_power(boards, True)
        events = events + (LogEvent(ctrl.clock, None, "relay", (("on", True),)),)
    return replace(ctrl, boards=boards, relay_on=relay_on, pending=pending, event_log=events)


def check_dt(dt: float) -> float:
    """Return ``dt`` if it is a finite number of seconds above zero."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"tick must be a finite number of seconds > 0, got {dt}")
    return dt


def tick(ctrl: ControllerState, dt: float) -> ControllerState:
    """Advance the simulation by ``dt`` seconds: dispatch due commands, move
    powered channels toward their targets, emit sensor events, and gate the
    relay off once everything is idle."""
    return _advance(ctrl, check_dt(dt))


def power_gate(ctrl: ControllerState) -> ControllerState:
    """De-energize the relay (and the motor boards) when nothing is moving;
    the coordinator and the LED board stay powered."""
    moving = any(ch.moving for b in ctrl.boards[:MOTOR_BOARDS] for ch in b.channels)
    if moving or not ctrl.relay_on:
        return ctrl
    return replace(
        ctrl,
        relay_on=False,
        boards=_set_motor_power(ctrl.boards, False),
        event_log=ctrl.event_log + (LogEvent(ctrl.clock, None, "relay", (("on", False),)),),
    )


def run_plan(
    ctrl: ControllerState, plan: MotionPlan, dt: float = DEFAULT_TICK
) -> ControllerState:
    """Submit ``plan`` and tick until it has fully played out (all targets
    reached and the plan's total duration elapsed).  The ticks run inside
    this call, which returns one snapshot; a plan whose deadline would take
    more than :data:`MAX_TICKS` ticks is refused before the first one."""
    check_dt(dt)
    deadline = plan.total_duration + (len(plan.commands) + 2) * dt + 1.0
    if not deadline / dt <= MAX_TICKS:
        raise SimulationError(
            f"plan would take more than {MAX_TICKS} ticks of {dt} s to complete"
        )
    return _advance(submit_plan(ctrl, plan), dt, plan.total_duration, deadline)


def _advance(
    ctrl: ControllerState,
    dt: float,
    duration: float | None = None,
    deadline: float = math.inf,
) -> ControllerState:
    """Tick ``ctrl`` forward on plain per-leaf locals and pack one snapshot.

    With ``duration`` None this is exactly one tick.  Otherwise ticks run
    until nothing is pending or moving and ``duration`` has elapsed; the
    run fails once a tick would start with the clock past ``deadline``.

    The ticks run in windows: a window starts at a tick and ends before
    the next tick that dispatches a command, or after :data:`_WINDOW`
    ticks.  Commands dispatch only in a window's first tick, so inside it
    the leaves do not interact and each leaf runs its whole window in one
    loop.  The clock list of a window repeats the per-tick ``clock + dt``
    additions, and each leaf repeats the per-tick ``budget_per_tick +
    carry`` and ``budget - steps`` steps, so the snapshot and the log bytes
    do not depend on how the ticks are grouped into windows or calls.
    Events go out by tick, then by leaf, with the relay last.  ``pending``
    is in dispatch order, as :func:`submit_plan` queues it, so the
    commands due in a tick are the head of what is left.
    """
    step_rate = ctrl.step_rate
    budget_per_tick = step_rate * dt
    if not math.isfinite(budget_per_tick):
        raise SimulationError(
            f"motion budget per tick (step rate {step_rate} x tick {dt} s) is not finite"
        )
    motor = ctrl.boards[:MOTOR_BOARDS]
    powered = [board.powered for board in motor]
    channels = [channel for board in motor for channel in board.channels]
    current = [channel.current_step for channel in channels]
    target = [channel.target_step for channel in channels]
    rotations = [channel.rotation_count for channel in channels]
    carry = [channel.step_carry for channel in channels]
    moving = [leaf for leaf, channel in enumerate(channels) if channel.moving]
    relay_on = ctrl.relay_on
    clock = start = ctrl.clock
    pending = ctrl.pending
    queued = len(pending)
    dispatched = 0
    events: list[LogEvent] = []

    def elapsed(c: float) -> float:
        return c - start + _EPS

    while duration is None or dispatched < queued or moving or elapsed(clock) < duration:
        # Commands beginning inside this tick dispatch now; the portion of
        # the tick before their start time is withheld from their motion
        # budget (a negative carry), so completion stays within one tick of
        # the planned schedule.
        due_before = _due_before(clock + dt)
        if dispatched < queued and pending[dispatched].dispatch_time < due_before:
            if not relay_on:
                relay_on = True
                powered = [True] * len(motor)
                events.append(LogEvent(pending[dispatched].dispatch_time, None,
                                       "relay", (("on", True),)))
            while dispatched < queued and pending[dispatched].dispatch_time < due_before:
                item = pending[dispatched]
                dispatched += 1
                leaf = item.command.leaf
                board_id, channel_id = divmod(leaf, 2)
                steps = position_to_steps(item.command.target,
                                          channels[leaf].steps_full_range)
                request = Frame(
                    board_id,
                    Opcode.SET_TARGET,
                    bytes((channel_id, steps >> 8, steps & 0xFF)),
                )
                received = decode_frame(encode_frame(request))  # around the ring and back
                events.append(
                    LogEvent(
                        item.dispatch_time,
                        board_id,
                        "set_target",
                        (
                            ("leaf", leaf),
                            ("channel", channel_id),
                            ("from_step", current[leaf]),
                            ("target_step", steps),
                        ),
                    )
                )
                withheld = max(0.0, item.dispatch_time - clock)
                target[leaf] = steps
                carry[leaf] = -withheld * step_rate
                ack = decode_frame(encode_frame(Frame(received.board_id, Opcode.ACK,
                                                      bytes((channel_id,)))))
                events.append(
                    LogEvent(item.dispatch_time, ack.board_id, "ack", (("leaf", leaf),))
                )
            moving = [leaf for leaf in range(len(current)) if current[leaf] != target[leaf]]

        # The window's length is a guess at the ticks up to the next
        # dispatch, or up to the last arrival and ``duration``; a short
        # guess only splits the run into more windows.
        if duration is None:
            n = 1
        else:
            if dispatched < queued:
                horizon = pending[dispatched].dispatch_time - clock
            else:
                farthest = max((abs(target[leaf] - current[leaf]) for leaf in moving), default=0)
                travel_time = farthest / step_rate if step_rate > 0 else math.inf
                horizon = max(duration - (clock - start), travel_time)
            n = int(min(_WINDOW, max(0.0, horizon / dt))) + 2
        clocks = list(accumulate(repeat(dt, n), initial=clock))
        if dispatched < queued:
            n = bisect_right(clocks, pending[dispatched].dispatch_time, 2, n + 1,
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
            for j in range(n):
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
                powered = [False] * len(motor)
                marks.append((quiet - 1, len(current), 2))
            if duration is not None:
                n = min(n, bisect_left(clocks, duration, quiet, n + 1, key=elapsed))
        if clocks[n - 1] - start > deadline:
            raise SimulationError("plan failed to complete in simulated time")

        for j, leaf, kind in sorted(marks):
            t = clocks[j + 1]
            if kind == 2:
                events.append(LogEvent(t, None, "relay", (("on", False),)))
                continue
            board_id = leaf >> 1
            if kind == 0:
                event = Frame(board_id, Opcode.EVENT, bytes((leaf & 1, EVENT_STOP)))
                decode_frame(encode_frame(event))
                events.append(LogEvent(t, board_id, "stop_sensor", (("leaf", leaf),)))
            else:
                events.append(LogEvent(t, board_id, "target_reached",
                                       (("leaf", leaf), ("step", current[leaf]))))
        clock = clocks[n]
        if duration is None:
            break

    packed = iter(
        LeafChannel(step, goal, channel.steps_full_range, count, rest)
        for channel, step, goal, count, rest in zip(channels, current, target, rotations, carry)
    )
    boards = tuple(
        replace(board, channels=tuple(next(packed) for _ in board.channels), powered=on)
        for board, on in zip(motor, powered)
    )
    return replace(
        ctrl,
        boards=boards + ctrl.boards[MOTOR_BOARDS:],
        relay_on=relay_on,
        clock=clock,
        pending=pending[dispatched:],
        event_log=ctrl.event_log + tuple(events),
    )


def _due_before(new_clock: float) -> float:
    """A command dispatches in the tick ending at ``new_clock`` when its
    dispatch time is below this."""
    return new_clock - _EPS


def events_to_ndjson(events: tuple[LogEvent, ...]) -> str:
    """Serialize the event log as newline-delimited JSON records."""
    lines = [json.dumps(e.as_record(), sort_keys=True) for e in events]
    return "\n".join(lines) + ("\n" if lines else "")


def _set_motor_power(boards: tuple[BoardState, ...], on: bool) -> tuple[BoardState, ...]:
    updated = [
        replace(b, powered=on) if b.board_id < MOTOR_BOARDS else b for b in boards
    ]
    return tuple(updated)
