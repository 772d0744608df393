"""The simulator against its frozen-snapshot reference (``oracles``).

``device.run_plan`` and ``device.tick`` advance plain per-leaf values; the
reference rebuilds every dataclass on every tick.  Both must end in equal
controller states and byte-identical NDJSON event logs.
"""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_run_plan, reference_tick
from plantchart import device
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
from plantchart.serve import ForecastService


def assert_same_run(ours, reference):
    assert ours == reference
    assert (
        device.events_to_ndjson(ours.event_log).encode()
        == device.events_to_ndjson(reference.event_log).encode()
    )


def stepped_run(ctrl, plan, dt, tick):
    """Play ``plan`` with one ``tick`` call per tick, under ``run_plan``'s
    loop condition; also returns the most commands dispatched in one tick."""
    ctrl = device.submit_plan(ctrl, plan)
    start = ctrl.clock
    most = 0
    while ctrl.busy or ctrl.clock - start + device._EPS < plan.total_duration:
        before = len(ctrl.event_log)
        ctrl = tick(ctrl, dt)
        most = max(most, sum(e.kind == "set_target" for e in ctrl.event_log[before:]))
    return ctrl, most


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


@pytest.mark.parametrize("profile", [PLANTFORM, CAIRNFORM, PLANTSCREEN], ids=lambda p: p.name)
def test_service_stream_matches_the_reference(profile, monkeypatch):
    payloads = forecast_stream(hash(profile.name) & 0xFFFF)

    def play():
        service = ForecastService(profile)
        outcomes = [service.handle_payload(p) for p in payloads]
        return service, outcomes

    ours, our_outcomes = play()
    monkeypatch.setattr(device, "run_plan", reference_run_plan)
    reference, reference_outcomes = play()
    assert our_outcomes == reference_outcomes
    assert any(our_outcomes) and not all(our_outcomes)
    assert ours.displayed == reference.displayed > len(payloads) // 2
    assert ours.rejected == reference.rejected
    assert_same_run(ours.controller, reference.controller)
    assert ours.event_log_ndjson() == reference.event_log_ndjson()


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
    mid_plan = 0
    while reference.busy:
        ours = device.tick(ours, 0.013)
        reference = reference_tick(reference, 0.013)
        assert ours == reference
        carrying = any(ch.step_carry for b in ours.boards for ch in b.channels)
        mid_plan += bool(ours.pending) and carrying
    assert mid_plan > 100
    assert_same_run(ours, reference)


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


def test_power_gate_with_commands_pending_then_tick():
    """Gating the relay off before the first dispatch makes ``tick`` take
    the relay-on branch when the command comes due."""
    plan = MotionPlan("plantform", (
        MotionCommand(2, 0, 6, 0.05, 0.8),
        MotionCommand(7, 0, 3, 0.9, 0.4),
    ), 1.3)
    ours = reference = device.power_gate(device.submit_plan(device.initial_state(PLANTFORM), plan))
    assert not ours.relay_on and ours.pending
    while reference.busy:
        ours = device.tick(ours, 0.02)
        reference = reference_tick(reference, 0.02)
        assert ours == reference
        if ours.pending:
            ours = reference = device.power_gate(ours)
    assert_same_run(ours, reference)
    relay_on = [e for e in ours.event_log if e.kind == "relay" and e.detail == (("on", True),)]
    assert len(relay_on) >= 2
