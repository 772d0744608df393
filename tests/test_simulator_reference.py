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
