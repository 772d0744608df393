import copy
import math
import random
import re

import pytest

from plantchart import device
from plantchart.device import (
    ControllerState,
    SimulationError,
    events_to_ndjson,
    initial_state,
    leaf_positions,
    run_plan,
    submit_plan,
    tick,
)
from plantchart.motion import (
    CAIRNFORM,
    PLANTFORM,
    PLANTSCREEN,
    DeviceProfile,
    Modality,
    plan_for_profile,
)

BENCH = DeviceProfile("bench", Modality.PHYSICAL, step_rate=120.0)


def moving_channels(ctrl):
    return [
        (b.board_id, i)
        for b in ctrl.boards[:5]
        for i, ch in enumerate(b.channels)
        if ch.moving
    ]


class TestTick:
    def test_full_unfurl_in_one_large_tick(self):
        ctrl = initial_state(BENCH)
        plan = plan_for_profile([10], [0], BENCH)
        ctrl = submit_plan(ctrl, plan)
        ctrl = tick(ctrl, 1.8)
        channel = ctrl.boards[0].channels[0]
        assert channel.current_step == 216
        assert channel.rotation_count == 216

    def test_tick_on_idle_device_changes_nothing(self):
        ctrl = initial_state(PLANTFORM)
        after = tick(ctrl, 0.5)
        assert leaf_positions(after) == leaf_positions(ctrl)
        assert after.event_log == ()
        assert not after.relay_on

    def test_stop_sensor_fires_when_step_zero_reached(self):
        positions = [0] * 10
        positions[0] = 5  # 108 steps out
        ctrl = initial_state(BENCH, positions)
        plan = plan_for_profile([0] + [0] * 9, positions, BENCH)
        ctrl = run_plan(ctrl, plan, dt=0.01)
        stops = [e for e in ctrl.event_log if e.kind == "stop_sensor"]
        assert len(stops) == 1
        expected = 108 / 120
        assert abs(stops[0].t - expected) <= 0.01 + 1e-9

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ValueError):
            tick(initial_state(BENCH), 0.0)

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf, True])
    def test_tick_and_run_plan_reject_dt_that_is_not_finite_and_positive(self, dt):
        with pytest.raises(ValueError):
            tick(initial_state(BENCH), dt)
        with pytest.raises(ValueError):
            run_plan(initial_state(BENCH), plan_for_profile([10], [0], BENCH), dt)


class TestBoundedWork:
    def test_near_zero_step_rate_is_refused_before_the_first_tick(self):
        slow = DeviceProfile("slow", Modality.PHYSICAL, step_rate=1e-300)
        with pytest.raises(SimulationError, match="ticks"):
            run_plan(initial_state(slow), plan_for_profile([10], [0], slow))

    @pytest.mark.parametrize("step_rate, message", [
        pytest.param(118.0, "motion budget per tick (step rate 118.0 x tick 1e+308 s) "
                     "is not finite", id="budget"),
        pytest.param(1.0, "a tick of 1e+308 s puts the plan's deadline out of range",
                     id="deadline"),
    ])
    def test_a_huge_tick_is_refused_for_its_own_cause(self, step_rate, message):
        # Both budget and deadline overflow at step rate 118; at step rate 1
        # only the deadline does.
        profile = DeviceProfile("huge", Modality.PHYSICAL, step_rate=step_rate)
        with pytest.raises(SimulationError) as info:
            run_plan(initial_state(profile), plan_for_profile([10], [0], profile), 1e308)
        assert str(info.value) == message

    def test_tick_too_small_for_the_plan_is_refused(self):
        plan = plan_for_profile([10], [0], BENCH)
        assert (plan.total_duration + 4e-7) / 1e-7 > device.MAX_TICKS
        with pytest.raises(SimulationError, match="ticks"):
            run_plan(initial_state(BENCH), plan, dt=1e-7)


class TestPowerGating:
    def test_motor_boards_unpowered_after_targets_reached(self):
        ctrl = run_plan(initial_state(BENCH), plan_for_profile([5] * 10, [0] * 10, BENCH))
        assert not ctrl.relay_on
        assert all(not b.powered for b in ctrl.boards[:5])
        assert ctrl.boards[5].powered  # LED board stays on

    def test_relay_stays_on_mid_motion(self):
        ctrl = initial_state(BENCH)
        ctrl = submit_plan(ctrl, plan_for_profile([10], [0], BENCH))
        ctrl = tick(ctrl, 0.5)
        assert ctrl.relay_on

    def test_relay_reenergizes_before_the_first_step(self):
        first = run_plan(initial_state(BENCH), plan_for_profile([4], [0], BENCH))
        assert not first.relay_on
        second = run_plan(first, plan_for_profile([8], [4], BENCH))
        log = first.event_log + second.event_log
        relay_events = [e for e in log if e.kind == "relay"]
        assert [dict(e.detail)["on"] for e in relay_events] == [True, False, True, False]
        second_on = relay_events[2]
        first_frame_after = next(
            e for e in log if e.kind == "set_target" and e.t >= second_on.t
        )
        assert second_on.t <= first_frame_after.t

    def test_no_channel_moves_while_unpowered(self):
        ctrl = initial_state(BENCH)
        ctrl = submit_plan(ctrl, plan_for_profile([10, 7], [0, 0], BENCH))
        previous = ctrl
        for _ in range(600):
            ctrl = tick(ctrl, 0.01)
            for before, after in zip(previous.boards[:5], ctrl.boards[:5]):
                for ch_before, ch_after in zip(before.channels, after.channels):
                    if ch_before.current_step != ch_after.current_step:
                        assert before.powered, "channel moved on an unpowered board"
            previous = ctrl
        assert leaf_positions(ctrl)[:2] == [10, 7]


class TestSubmitPlan:
    def test_empty_plan_touches_nothing(self):
        ctrl = initial_state(BENCH)
        after = submit_plan(ctrl, plan_for_profile([0], [0], BENCH))
        assert after.event_log == ()
        assert not after.relay_on

    def test_one_command_plan_logs_one_set_target_and_one_ack(self):
        ctrl = run_plan(initial_state(BENCH), plan_for_profile([10], [0], BENCH))
        kinds = [e.kind for e in ctrl.event_log]
        assert kinds.count("set_target") == 1
        assert kinds.count("ack") == 1

    def test_frames_follow_plan_order(self):
        plan = plan_for_profile([3, 0, 8, 0, 5, 0, 0, 0, 0, 1], [0] * 10, BENCH)
        ctrl = run_plan(initial_state(BENCH), plan)
        logged = [dict(e.detail)["leaf"] for e in ctrl.event_log if e.kind == "set_target"]
        assert logged == [c.leaf for c in plan.commands]

    def test_unknown_leaf_rejected(self):
        plan = plan_for_profile([5], [0], BENCH, leaf_indices=[9])
        bad = plan.commands[0].__class__(12, 0, 5, 0.0, 1.0)
        bad_plan = plan.__class__(plan.profile, (bad,), 1.0)
        with pytest.raises(SimulationError):
            submit_plan(initial_state(BENCH), bad_plan)

    def test_busy_device_rejects_a_second_plan(self):
        ctrl = submit_plan(initial_state(BENCH), plan_for_profile([10], [0], BENCH))
        ctrl = tick(ctrl, 0.1)
        with pytest.raises(SimulationError):
            submit_plan(ctrl, plan_for_profile([5], [0], BENCH))

    def test_run_plan_on_a_busy_snapshot_is_refused_and_leaves_it_as_it_was(self):
        ctrl = submit_plan(initial_state(BENCH), plan_for_profile([10], [0], BENCH))
        ctrl = tick(ctrl, 0.1)
        before = copy.deepcopy(ctrl)
        with pytest.raises(SimulationError, match="^a plan is already executing$"):
            run_plan(ctrl, plan_for_profile([5], [0], BENCH))
        assert ctrl == before and ctrl.busy


class TestEndStateAgreement:
    @pytest.mark.parametrize("profile", [PLANTFORM, CAIRNFORM, PLANTSCREEN])
    def test_plan_targets_are_reached(self, profile):
        rng = random.Random(hash(profile.name) & 0xFFFF)
        current = [rng.randint(0, 10) for _ in range(10)]
        targets = [rng.randint(0, 10) for _ in range(10)]
        ctrl = initial_state(profile, current)
        plan = plan_for_profile(targets, current, profile)
        ctrl = run_plan(ctrl, plan, dt=0.02)
        assert leaf_positions(ctrl) == targets

    def test_elapsed_time_matches_total_duration(self):
        plan = plan_for_profile([10] * 10, [0] * 10, PLANTFORM)
        ctrl = run_plan(initial_state(PLANTFORM), plan, dt=0.01)
        assert plan.total_duration - 1e-9 <= ctrl.clock <= plan.total_duration + 0.01 + 1e-9

    def test_graphical_plan_runs_out_its_clock(self):
        plan = plan_for_profile([5] * 4, [0] * 4, PLANTSCREEN)
        ctrl = run_plan(initial_state(PLANTSCREEN), plan, dt=0.05)
        assert ctrl.clock == pytest.approx(plan.total_duration, abs=0.05 + 1e-9)


class TestConservation:
    def test_rotation_counts_accumulate_all_travel(self):
        ctrl = initial_state(BENCH)
        first = plan_for_profile([10, 4] + [0] * 8, [0] * 10, BENCH)
        ctrl = run_plan(ctrl, first, dt=0.01)
        second = plan_for_profile([2, 8] + [0] * 8, [10, 4] + [0] * 8, BENCH)
        ctrl = run_plan(ctrl, second, dt=0.01)
        ch0 = ctrl.boards[0].channels[0]
        ch1 = ctrl.boards[0].channels[1]
        full = ch0.steps_full_range
        expected0 = abs(device.position_to_steps(10, full)) + abs(
            device.position_to_steps(10, full) - device.position_to_steps(2, full)
        )
        expected1 = device.position_to_steps(4, full) + (
            device.position_to_steps(8, full) - device.position_to_steps(4, full)
        )
        assert ch0.rotation_count == expected0
        assert ch1.rotation_count == expected1


class TestDeterminism:
    def test_same_seed_yields_byte_identical_logs(self):
        def run(seed):
            profile = PLANTFORM.calibrated(seed)
            rng = random.Random(seed)
            targets = [rng.randint(0, 10) for _ in range(10)]
            ctrl = run_plan(initial_state(profile), plan_for_profile(targets, [0] * 10, profile), dt=0.01)
            return events_to_ndjson(ctrl.event_log)

        assert run(1234).encode() == run(1234).encode()
        assert run(1234) != run(99)

    def test_ndjson_records_have_the_wire_shape(self):
        ctrl = run_plan(initial_state(BENCH), plan_for_profile([3], [0], BENCH))
        import json

        lines = events_to_ndjson(ctrl.event_log).strip().split("\n")
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"t", "board", "kind", "detail"}


class TestLeafPositions:
    def test_extremes(self):
        ctrl = initial_state(BENCH, [0, 10] + [0] * 8)
        assert leaf_positions(ctrl)[:2] == [0, 10]

    @pytest.mark.parametrize("bad", [11, -1, True, 2.5, math.nan])
    def test_preloaded_positions_must_be_ints_from_0_to_10(self, bad):
        message = rf"^positions\[3\] must be an int in \[0, 10\], got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            initial_state(BENCH, [0, 0, 0, bad] + [0] * 6)

    def test_preloaded_positions_must_number_ten(self):
        with pytest.raises(ValueError, match="^expected 10 leaf positions, got 9$"):
            initial_state(BENCH, [0] * 9)

    def test_midpoint_rounds_half_up(self):
        ctrl = initial_state(BENCH)
        board = ctrl.boards[0]
        channel = board.channels[0]
        midway = channel.__class__(108, 108, 216, 0, 0.0)
        patched = board.__class__(0, (midway, board.channels[1]), board.powered)
        ctrl = ControllerState(
            (patched,) + ctrl.boards[1:], ctrl.relay_on, ctrl.clock, ctrl.step_rate
        )
        assert leaf_positions(ctrl)[0] == 5

    def test_stop_sensor_tracks_step_zero(self):
        ctrl = initial_state(BENCH, [0, 3] + [0] * 8)
        ch0, ch1 = ctrl.boards[0].channels
        assert ch0.stop_sensor_active
        assert not ch1.stop_sensor_active
