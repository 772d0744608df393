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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

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
    run fails once the clock passes ``deadline``.  Each tick repeats the
    same float steps (clock, motion budget, carry), so the snapshot and the
    log bytes do not depend on how many ticks one call runs.  ``pending``
    is in dispatch order, as :func:`submit_plan` queues it, so the commands
    due in a tick are the head of what is left.
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

    while duration is None or dispatched < queued or moving or (
        clock - start + _EPS < duration
    ):
        if clock - start > deadline:
            raise SimulationError("plan failed to complete in simulated time")
        new_clock = clock + dt

        # Commands beginning inside this tick window dispatch now; the portion
        # of the tick before their start time is withheld from their motion
        # budget (a negative carry), so completion stays within one tick of the
        # planned schedule.
        due_before = new_clock - _EPS
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

        reached = False
        for leaf in moving:
            board_id = leaf >> 1
            if not powered[board_id]:
                continue  # unpowered channels hold position exactly
            budget = budget_per_tick + carry[leaf]
            step, goal = current[leaf], target[leaf]
            steps = min(int(budget), abs(goal - step))
            if steps == 0:
                carry[leaf] = budget
                continue
            step = step + steps if goal > step else step - steps
            current[leaf] = step
            rotations[leaf] += steps
            if step == 0:
                event = Frame(board_id, Opcode.EVENT, bytes((leaf & 1, EVENT_STOP)))
                decode_frame(encode_frame(event))
                events.append(LogEvent(new_clock, board_id, "stop_sensor", (("leaf", leaf),)))
            if step == goal:
                carry[leaf] = 0.0
                reached = True
                events.append(LogEvent(new_clock, board_id, "target_reached",
                                       (("leaf", leaf), ("step", step))))
            else:
                carry[leaf] = budget - steps
        if reached:
            moving = [leaf for leaf in moving if current[leaf] != target[leaf]]

        if relay_on and not moving and dispatched == queued:
            relay_on = False
            powered = [False] * len(motor)
            events.append(LogEvent(new_clock, None, "relay", (("on", False),)))
        clock = new_clock
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


def events_to_ndjson(events: tuple[LogEvent, ...]) -> str:
    """Serialize the event log as newline-delimited JSON records."""
    lines = [json.dumps(e.as_record(), sort_keys=True) for e in events]
    return "\n".join(lines) + ("\n" if lines else "")


def _set_motor_power(boards: tuple[BoardState, ...], on: bool) -> tuple[BoardState, ...]:
    updated = [
        replace(b, powered=on) if b.board_id < MOTOR_BOARDS else b for b in boards
    ]
    return tuple(updated)
