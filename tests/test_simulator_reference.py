"""The simulator against its frozen-snapshot reference (``oracles``).

``device.run_plan``, ``device.tick`` and ``ForecastService`` advance the
mutable simulator core; the reference rebuilds every dataclass on every
tick.  Both must end in equal controller states and byte-identical NDJSON
event logs, ours written by ``device.events_to_ndjson`` and the
reference's by its oracle.
"""

import json
import math
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_events_to_ndjson, reference_run_plan, reference_tick
from strategies import grid_series
from plantchart import device
from plantchart.encoder import EncodingMode
from plantchart.motion import (
    BUILTIN_PROFILES,
    CAIRNFORM,
    PLANTFORM,
    PLANTSCREEN,
    Modality,
    MotionCommand,
    MotionPlan,
    plan_for_profile,
    transition_plan,
)
from plantchart.protocol import Frame, Opcode, decode_frame, encode_frame
from plantchart.serve import ForecastService, plan_variation
from plantchart.series import load_series, segment_variations


def assert_same_run(ours, reference):
    assert ours == reference
    assert (
        device.events_to_ndjson(ours.event_log).encode()
        == reference_events_to_ndjson(reference.event_log).encode()
    )


def stepped_run(ctrl, plan, dt, tick):
    """Play ``plan`` with one ``tick`` call per tick, under ``run_plan``'s
    loop condition, joining the calls' logs; also returns the most commands
    dispatched in one tick."""
    ctrl = device.submit_plan(ctrl, plan)
    log = ctrl.event_log
    start = ctrl.clock
    most = 0
    while ctrl.busy or ctrl.clock - start + device._EPS < plan.total_duration:
        ctrl = tick(ctrl, dt)
        log += ctrl.event_log
        most = max(most, sum(e.kind == "set_target" for e in ctrl.event_log))
    return replace(ctrl, event_log=log), most


def criterion5_corpus():
    """The 1000 (profile, current, plan, dt) rounds of acceptance criterion 5."""
    rng = random.Random(0xCAFE)
    for round_index in range(1000):
        seed = rng.randint(0, 2**31)
        base = (PLANTFORM, CAIRNFORM, PLANTSCREEN)[round_index % 3]
        profile = base.calibrated(seed)
        plan_rng = random.Random(seed)
        current = [plan_rng.randint(0, 10) for _ in range(10)]
        targets = [plan_rng.randint(0, 10) for _ in range(10)]
        dt = 0.05 if base is PLANTSCREEN else 0.02
        yield profile, current, plan_for_profile(targets, current, profile), dt


def test_criterion5_corpus_matches_the_reference():
    for profile, current, plan, dt in criterion5_corpus():
        start = device.initial_state(profile, current)
        assert_same_run(device.run_plan(start, plan, dt), reference_run_plan(start, plan, dt))


def forecast_stream(seed, count=12):
    """Forecast payloads of 3..10 hours inside 8..18, rates on a 0.1 grid so
    days hold one or more variations; every fifth one is malformed."""
    rng = random.Random(seed)
    payloads = []
    for k in range(count):
        if k % 5 == 4:
            payloads.append(rng.choice(['{"samples": [', '{"samples": [{"hour": 9}]}']))
            continue
        length = rng.randint(3, 10)
        first = rng.randint(8, 18 - length + 1)
        samples = [{"hour": first + i, "rate": rng.randint(0, 10) / 10} for i in range(length)]
        payloads.append(json.dumps({"samples": samples}))
    return payloads


def reference_service(profile, payloads):
    """Play ``payloads`` the way ``ForecastService.handle_payload`` does, on
    reference snapshots: each variation planned from ``leaf_positions`` of
    the last snapshot and played by ``reference_run_plan``.  Returns the
    last snapshot, carrying the runs' logs joined, the outcomes, the
    rejection reasons and the variations displayed."""
    ctrl = device.initial_state(profile)
    log = ()
    outcomes, rejected, displayed = [], [], 0
    for payload in payloads:
        try:
            series = load_series(payload)
            for variation in segment_variations(series):
                current = device.leaf_positions(ctrl)
                plan = plan_variation(series, variation, EncodingMode.PEAK_RELATIVE, profile,
                                      current)
                ctrl = reference_run_plan(ctrl, plan, device.DEFAULT_TICK)
                log += ctrl.event_log
                displayed += 1
        except (ValueError, device.SimulationError) as exc:
            rejected.append(str(exc))
            outcomes.append(False)
        else:
            outcomes.append(True)
    return replace(ctrl, event_log=log), outcomes, rejected, displayed


@pytest.mark.parametrize("profile", [PLANTFORM, CAIRNFORM, PLANTSCREEN], ids=lambda p: p.name)
def test_service_stream_matches_the_reference(profile):
    payloads = forecast_stream(hash(profile.name) & 0xFFFF)
    ours = ForecastService(profile)
    our_outcomes = [ours.handle_payload(p) for p in payloads]
    reference, outcomes, rejected, displayed = reference_service(profile, payloads)
    assert our_outcomes == outcomes
    assert any(outcomes) and not all(outcomes)
    assert ours.displayed == displayed > len(payloads) // 2
    assert list(ours.rejected) == rejected
    assert_same_run(ours.controller, reference)
    assert ours.event_log_ndjson() == reference_events_to_ndjson(reference.event_log)


@pytest.mark.parametrize("dt", [0.3, 1.8])
def test_large_ticks_dispatch_several_commands_and_match(dt):
    rng = random.Random(int(dt * 10))
    most = 0
    for profile in (PLANTFORM, CAIRNFORM, PLANTSCREEN):
        ours = reference = device.initial_state(profile)
        for _ in range(4):
            nxt = [rng.randint(0, 10) for _ in range(10)]
            plan = transition_plan(device.leaf_positions(ours), nxt, profile)
            stepped, crowded = stepped_run(ours, plan, dt, device.tick)
            ours = device.run_plan(ours, plan, dt)
            reference = reference_run_plan(reference, plan, dt)
            assert_same_run(ours, reference)
            assert_same_run(stepped, ours)
            most = max(most, crowded)
    assert most >= 2  # several commands did dispatch inside one tick


@pytest.mark.parametrize("dt", [0.01, 0.05, 1.8])
def test_tick_by_tick_matches_run_plan(dt):
    rng = random.Random(7)
    for profile in (PLANTFORM, CAIRNFORM, PLANTSCREEN):
        ours = device.initial_state(profile, [rng.randint(0, 10) for _ in range(10)])
        for _ in range(2):
            nxt = [rng.randint(0, 10) for _ in range(10)]
            plan = transition_plan(device.leaf_positions(ours), nxt, profile)
            stepped, _ = stepped_run(ours, plan, dt, device.tick)
            ours = device.run_plan(ours, plan, dt)
            assert_same_run(stepped, ours)


def test_a_snapshot_resumes_tick_by_tick():
    """Stopping mid-plan (non-zero carries, commands still queued) and going
    on with ``tick`` gives the reference's states at every tick."""
    profile = PLANTFORM.calibrated(11)
    plan = plan_for_profile([7, 3, 10, 0, 5, 9, 1, 4, 8, 2], [0] * 10, profile)
    ours = reference = device.submit_plan(device.initial_state(profile), plan)
    ours_log = ref_log = ours.event_log
    mid_plan = 0
    while reference.busy:
        ours = device.tick(ours, 0.013)
        reference = reference_tick(reference, 0.013)
        assert ours == reference
        ours_log += ours.event_log
        ref_log += reference.event_log
        carrying = any(ch.step_carry for b in ours.boards for ch in b.channels)
        mid_plan += bool(ours.pending) and carrying
    assert mid_plan > 100
    assert_same_run(replace(ours, event_log=ours_log), replace(reference, event_log=ref_log))


physical_or_graphical = st.sampled_from(sorted(BUILTIN_PROFILES.values(), key=lambda p: p.name))
positions = st.lists(st.integers(min_value=0, max_value=10), min_size=10, max_size=10)


@st.composite
def profiles(draw):
    profile = draw(physical_or_graphical).calibrated(draw(st.integers(0, 2**31)))
    if profile.modality is Modality.PHYSICAL:
        profile = replace(profile, step_rate=draw(st.floats(min_value=40.0, max_value=400.0)))
    else:
        profile = replace(profile, per_rate_frame_time=draw(st.floats(min_value=0.1, max_value=2.0)))
    return profile


@settings(max_examples=60, deadline=None)
@given(
    profile=profiles(),
    current=positions,
    first=positions,
    second=positions,
    dt=st.floats(min_value=0.003, max_value=1.8),
)
def test_chained_plans_match_the_reference(profile, current, first, second, dt):
    """Short graphical frame times make plans the motors cannot keep up
    with; both simulators must then fail the same way."""

    def outcome(run_plan, ctrl, plan):
        try:
            return run_plan(ctrl, plan, dt)
        except device.SimulationError as exc:
            return str(exc)

    ours = reference = device.initial_state(profile, current)
    for nxt in (first, second):
        plan = transition_plan(device.leaf_positions(ours), nxt, profile)
        ours = outcome(device.run_plan, ours, plan)
        reference = outcome(reference_run_plan, reference, plan)
        if isinstance(reference, str):
            assert ours == reference
            return
        assert_same_run(ours, reference)


@settings(max_examples=40, deadline=None)
@given(
    profile=profiles(),
    targets=st.lists(positions, min_size=2, max_size=4),
    dt=st.floats(min_value=0.003, max_value=1.8),
)
def test_chained_calls_log_what_one_service_logs(profile, targets, dt):
    """Each ``run_plan`` returns its own events: joined, they are the bytes
    that a service playing the same plans writes, and a plan refused
    leaves both where they were."""
    service = ForecastService(profile, tick=dt)
    ctrl = device.initial_state(profile)
    log = ()
    for nxt in targets:
        plan = transition_plan(device.leaf_positions(ctrl), nxt, profile)
        try:
            ctrl = device.run_plan(ctrl, plan, dt)
        except device.SimulationError as exc:
            with pytest.raises(device.SimulationError) as refused:
                service.play(plan)
            assert str(refused.value) == str(exc)
            continue
        service.play(plan)
        log += ctrl.event_log
    assert device.events_to_ndjson(log).encode() == service.event_log_ndjson().encode()
    assert replace(service.controller, event_log=()) == replace(ctrl, event_log=())


def assert_plan_matches_reference(ctrl, plan, dt):
    """``run_plan`` and ``tick`` stepping both end where the reference does."""
    reference = reference_run_plan(ctrl, plan, dt)
    assert_same_run(device.run_plan(ctrl, plan, dt), reference)
    assert_same_run(stepped_run(ctrl, plan, dt, device.tick)[0], reference)
    return reference


def staggered_plan(dt, offset, ticks=(1, 37, 74, 111, 148)):
    """Leaves 0..4 each unfurl two positions, starting ``offset`` off the
    tick multiples ``k * dt``."""
    commands = [
        MotionCommand(leaf, 0, 2, k * dt + offset, 36 * dt) for leaf, k in enumerate(ticks)
    ]
    return MotionPlan("plantform", commands, max(c.start_time + c.duration for c in commands))


def clustered_plan(dt, k=20):
    """Five leaves whose start times straddle one tick boundary."""
    offsets = (-2e-9, -5e-10, 0.0, 5e-10, 2e-9)
    commands = [
        MotionCommand(leaf, 0, 3, k * dt + off, 0.5) for leaf, off in zip(range(5, 10), offsets)
    ]
    return MotionPlan("plantform", commands, max(c.start_time + c.duration for c in commands))


@pytest.mark.parametrize("offset", [0.0, 5e-10, -5e-10, 2e-9, -2e-9])
@pytest.mark.parametrize("dt", [0.01, 0.013])
def test_dispatch_times_near_tick_boundaries(dt, offset):
    ctrl = device.initial_state(PLANTFORM)
    ctrl = assert_plan_matches_reference(ctrl, staggered_plan(dt, offset), dt)
    assert_plan_matches_reference(ctrl, clustered_plan(dt), dt)


def test_a_leaf_retargeted_while_still_moving():
    # Leaf 0 needs ~1.8 s for 0 -> 10 but is sent back to 2 after 0.5 s.
    plan = MotionPlan("plantform", (
        MotionCommand(0, 0, 10, 0.0, 0.5),
        MotionCommand(1, 0, 4, 0.25, 0.3),
        MotionCommand(0, 10, 2, 0.5, 0.7),
    ), 1.2)
    ctrl = device.initial_state(PLANTFORM)
    for dt in (0.01, 0.07):
        assert_plan_matches_reference(ctrl, plan, dt)


@pytest.mark.parametrize("dt", [0.01, 0.3])
def test_a_last_command_to_the_current_step_gates_the_relay_in_its_dispatch_tick(dt):
    ctrl = device.initial_state(PLANTFORM, [0, 5, 0, 0, 0, 0, 0, 0, 0, 0])
    plan = MotionPlan("plantform", (
        MotionCommand(0, 0, 1, 0.0, 0.2),
        MotionCommand(1, 5, 5, 1.0, 0.1),
    ), 1.1)
    ours = assert_plan_matches_reference(ctrl, plan, dt)
    last_ack = max(i for i, e in enumerate(ours.event_log) if e.kind == "ack")
    relay_off = ours.event_log[last_ack + 1]
    assert relay_off.kind == "relay" and relay_off.t > 1.0
    alone = MotionPlan("plantform", (MotionCommand(1, 5, 5, 0.0, 0.1),), 0.1)
    assert_plan_matches_reference(ctrl, alone, dt)


@pytest.mark.parametrize("step_rate, dt", [
    (118.0, 0.005),  # 0.59 steps per tick
    (40.0, 0.01),  # 0.4 steps per tick
    (118.0, 1.0),  # 118 steps per tick
    (400.0, 0.5),  # 200 steps per tick
])
def test_motion_budgets_below_one_and_above_a_hundred_steps_per_tick(step_rate, dt):
    profile = replace(PLANTFORM.calibrated(5), step_rate=step_rate)
    ctrl = device.initial_state(profile, [3, 0, 10, 7, 0, 1, 9, 2, 5, 10])
    for nxt in ([0, 10, 4, 7, 0, 6, 0, 2, 10, 1], [10, 0, 0, 3, 8, 6, 1, 9, 0, 0]):
        plan = transition_plan(device.leaf_positions(ctrl), nxt, profile)
        ctrl = assert_plan_matches_reference(ctrl, plan, dt)


def test_waits_and_motions_longer_than_many_thousand_ticks():
    # At dt 1e-4 the first second is a wait of 10^4 ticks, and 0 -> 10 on
    # PLANTFORM moves for ~1.8 s, ~18,000 ticks at 0.0118 steps a tick.
    dt = 1e-4
    plan = MotionPlan("plantform", (
        MotionCommand(3, 0, 10, 1.0, 1.9),
        MotionCommand(4, 0, 1, 2.9, 0.2),
    ), 3.1)
    assert_plan_matches_reference(device.initial_state(PLANTFORM), plan, dt)


def hand_built(step, target, carry, step_rate=118.0, powered=True):
    """A PLANTFORM controller with nothing pending whose leaf 0 is at
    ``step`` on its way to ``target`` with sub-step ``carry``; powered, it
    is mid-plan, as a plan stopped between ticks leaves it."""
    ctrl = device.initial_state(PLANTFORM)
    board = ctrl.boards[0]
    first = replace(board.channels[0], current_step=step, target_step=target, step_carry=carry)
    boards = (replace(board, channels=(first, *board.channels[1:])), *ctrl.boards[1:])
    boards = tuple(replace(b, powered=powered) if b.board_id < device.MOTOR_BOARDS else b
                   for b in boards)
    return replace(ctrl, boards=boards, relay_on=powered, step_rate=step_rate)


def assert_ticks_match_reference(ctrl, dt, most=200):
    """``tick`` and ``reference_tick`` agree at every tick until the
    reference is idle, for at most ``most`` ticks, and their joined logs
    have the same bytes; returns the reference's last state with its
    joined log."""
    ours = reference = ctrl
    ours_log = ref_log = ()
    for _ in range(most):
        ours, reference = device.tick(ours, dt), reference_tick(reference, dt)
        assert ours == reference
        ours_log += ours.event_log
        ref_log += reference.event_log
        if not reference.busy:
            break
    ours, reference = replace(ours, event_log=ours_log), replace(reference, event_log=ref_log)
    assert_same_run(ours, reference)
    return reference


@pytest.mark.parametrize("start", [-50, -37, -12])
def test_a_leaf_below_zero_logs_the_stop_sensor_on_its_way_up(start):
    # At 1.18 steps a tick, leaf 0 crosses step 0 in the middle of a
    # window; the sensor mark must not be skipped with the ticks around it.
    ctrl = hand_built(start, start, 0.0, powered=False)
    plan = MotionPlan("plantform", (MotionCommand(0, 0, 5, 0.0, 1.0),), 1.0)
    reference = assert_plan_matches_reference(ctrl, plan, 0.01)
    sensed = [e.t for e in reference.event_log if e.kind == "stop_sensor"]
    reached = [e.t for e in reference.event_log if e.kind == "target_reached"]
    assert len(sensed) == 1 and sensed[0] < reached[0]


@pytest.mark.parametrize("carry", [-3.0, -0.5, 0.0, 1.0, 5.0])
@pytest.mark.parametrize("step, target", [(3, -4), (-7, 9), (40, 2)])
def test_mid_plan_carries_match_the_reference(carry, step, target):
    assert_ticks_match_reference(hand_built(step, target, carry), 0.01)


@pytest.mark.parametrize("step, target", [(3, 9), (40, 2)])
def test_an_unpowered_leaf_holds_still_on_its_way(step, target):
    ctrl = hand_built(step, target, 0.25, powered=False)
    ours = assert_ticks_match_reference(ctrl, 0.01, most=20)
    assert ours.boards[0].channels[0] == ctrl.boards[0].channels[0]


def test_a_subnormal_budget_per_tick_matches_the_reference():
    dt = 1e-8
    ctrl = hand_built(0, 100, 0.0, step_rate=1e-300)
    assert 0 < ctrl.step_rate * dt < sys.float_info.min
    ours = reference = ctrl
    for _ in range(2):
        ours, reference = device.tick(ours, dt), reference_tick(reference, dt)
        assert ours == reference


@pytest.mark.parametrize("step", [0, -3])
@pytest.mark.parametrize("edge", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("nudge", [-1, 0, 1])
def test_budgets_at_the_edge_of_a_stretch_match_the_reference(step, edge, nudge):
    # From carry 0.25, a tick's budget lands just under, on or just over
    # ``edge`` steps; at the next event ``guard - 1`` is 2 (the stop sensor,
    # from step -3) or 3 (arrival at step 4, from step 0).
    budget = edge - 0.25
    for _ in range(abs(nudge)):
        budget = math.nextafter(budget, nudge * math.inf)
    assert_ticks_match_reference(hand_built(step, 4, 0.25, step_rate=budget), 1.0)


def test_a_travel_far_beyond_2_to_the_30_steps_matches_the_reference():
    # Leaf 0 runs 2**32 steps at about 3e8 a tick.  Dispatch carries a
    # 16-bit target, so only a snapshot can hold a travel this long.
    reference = assert_ticks_match_reference(hand_built(0, 2**32 + 5, 0.0, step_rate=3e8 + 0.37),
                                             1.0)
    assert reference.boards[0].channels[0].current_step == 2**32 + 5


def with_full_ranges(ctrl, ranges):
    """``ctrl`` with leaf ``i``'s full range set to ``ranges[i]``."""
    return replace(ctrl, boards=tuple(
        replace(board, channels=tuple(
            replace(channel, steps_full_range=ranges[2 * board.board_id + c])
            for c, channel in enumerate(board.channels)))
        for board in ctrl.boards))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from([-5, 0, 1, 65535, 65536, 2**17]) | st.integers(1, 65535),
             min_size=10, max_size=10),
    st.lists(st.integers(0, 10), min_size=10, max_size=10),
)
def test_every_set_target_logged_encodes_as_a_frame(ranges, targets):
    # A snapshot whose full range puts a target outside the frame's 16 bits
    # is refused, naming the first such leaf, before anything is dispatched.
    ctrl = replace(with_full_ranges(device.initial_state(PLANTFORM), ranges), step_rate=1e6)
    plan = MotionPlan("plantform", tuple(
        MotionCommand(leaf, 0, target, 0.0, 0.1) for leaf, target in enumerate(targets)), 0.1)
    bad = [leaf for leaf, steps in enumerate(ranges)
           if not 1 <= steps <= device.STEPS_FULL_RANGE_MAX]
    if bad:
        with pytest.raises(ValueError, match=f"steps_full_range of leaf {bad[0]} "):
            device.run_plan(ctrl, plan)
        return
    for event in device.run_plan(ctrl, plan).event_log:
        if event.kind == "set_target":
            detail = dict(event.detail)
            step = detail["target_step"]
            frame = Frame(event.board, Opcode.SET_TARGET,
                          bytes((detail["channel"], step >> 8, step & 0xFF)))
            assert decode_frame(encode_frame(frame)) == frame


@pytest.mark.parametrize("steps", [-5, 0, 65536, 2**17])
def test_leaf_positions_refuses_a_full_range_the_simulator_refuses(steps):
    ranges = list(PLANTFORM.steps_full_range)
    ranges[3] = steps
    ctrl = with_full_ranges(device.initial_state(PLANTFORM), ranges)
    with pytest.raises(ValueError) as refused:
        device.tick(ctrl, device.DEFAULT_TICK)
    with pytest.raises(ValueError, match="steps_full_range of leaf 3 ") as read:
        device.leaf_positions(ctrl)
    assert str(read.value) == str(refused.value)


def forecast_payload(series):
    return json.dumps({"samples": [{"hour": hour, "rate": rate}
                                   for hour, rate in zip(series.hours, series.rates)]})


payloads = st.one_of(grid_series().map(forecast_payload),
                     st.sampled_from(['{"samples": [', '{"samples": [{"hour": 9}]}']))


@settings(max_examples=40, deadline=None)
@given(
    profile=st.sampled_from([PLANTFORM, CAIRNFORM, PLANTSCREEN]),
    before=st.lists(payloads, min_size=1, max_size=4),
    after=st.lists(payloads, min_size=1, max_size=4),
    targets=positions,
    data=st.data(),
)
def test_a_snapshot_keeps_the_log_it_held_when_taken(profile, before, after, targets, data):
    """A snapshot's log is a view of the service's growing log; later
    payloads must not show in it, and it must act as the tuple it held."""
    service = ForecastService(profile)
    for payload in before:
        service.handle_payload(payload)
    snapshot = service.controller
    held = tuple(snapshot.event_log)
    assert all(type(event) is device.LogEvent for event in held)
    for payload in after:
        service.handle_payload(payload)
    log, n = snapshot.event_log, len(held)
    later = tuple(service.controller.event_log)[n:]

    assert len(log) == n
    for i in range(-n, n):
        assert type(log[i]) is device.LogEvent and log[i] == held[i]
    for i in (-n - 1, n):
        with pytest.raises(IndexError):
            log[i]
    for cut in data.draw(st.lists(st.slices(n + 2), max_size=4)):
        assert type(log[cut]) is tuple and log[cut] == held[cut]
    assert list(log) == list(held)
    assert log == held and held == log and not log != held
    assert hash(log) == hash(held)
    assert log + later == held + later and type(log + later) is tuple
    assert later + log == later + held and type(later + log) is tuple
    assert (log == list(held)) is False and (list(held) == log) is False
    for other in (list(held), 1):
        with pytest.raises(TypeError):
            log + other
        with pytest.raises(TypeError):
            other + log
    assert repr(log) == repr(held)
    assert snapshot == replace(snapshot, event_log=held)
    assert hash(snapshot) == hash(replace(snapshot, event_log=held))

    logged = service.event_log_ndjson()
    plan = transition_plan(device.leaf_positions(snapshot), targets, profile)
    assert_same_run(device.run_plan(snapshot, plan),
                    reference_run_plan(snapshot, plan, device.DEFAULT_TICK))
    assert service.event_log_ndjson() == logged
