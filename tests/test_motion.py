import pytest
from hypothesis import given, strategies as st

from strategies import position_vectors
from plantchart.motion import (
    CAIRNFORM,
    PLANTFORM,
    PLANTSCREEN,
    DeviceProfile,
    Modality,
    MotionCommand,
    MotionPlan,
    lowfi_series_timeline,
    lowfi_timeline,
    plan_from_json,
    plan_graphical,
    plan_physical,
    plan_to_json,
    transition_plan,
)


class TestPlanPhysical:
    def test_full_unfurl_sequence_hits_the_leaf_device_total(self):
        plan = plan_physical([10] * 10, [0] * 10, PLANTFORM)
        assert 18.0 <= plan.total_duration <= 20.0

    def test_eight_hour_full_sequence(self):
        plan = plan_physical([10] * 8, [0] * 8, PLANTFORM)
        assert 13.0 <= plan.total_duration <= 15.0

    def test_ring_device_totals(self):
        assert 11.0 <= plan_physical([10] * 10, [0] * 10, CAIRNFORM).total_duration <= 13.0
        assert 7.0 <= plan_physical([10] * 8, [0] * 8, CAIRNFORM).total_duration <= 9.0

    def test_no_change_means_empty_plan(self):
        plan = plan_physical([3, 5, 7], [3, 5, 7], PLANTFORM)
        assert plan.commands == ()
        assert plan.total_duration == 0.0

    def test_single_full_unfurl_duration(self):
        profile = DeviceProfile("bench", Modality.PHYSICAL, step_rate=120.0)
        plan = plan_physical([10], [0], profile)
        assert plan.total_duration == pytest.approx(216 / 120)

    def test_commands_are_sequential_in_hour_order(self):
        plan = plan_physical([5, 0, 10], [0, 0, 0], PLANTFORM)
        assert [c.leaf for c in plan.commands] == [0, 2]
        assert plan.commands[1].start_time == pytest.approx(plan.commands[0].duration)

    def test_hour_aligned_leaf_indices(self):
        plan = plan_physical([10, 5], [0, 0], PLANTFORM, leaf_indices=[2, 3])
        assert [c.leaf for c in plan.commands] == [2, 3]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            plan_physical([1, 2], [0], PLANTFORM)

    @given(position_vectors(), position_vectors())
    def test_duration_monotone_in_total_travel(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        zeros = [0] * n
        travel_a, travel_b = sum(a), sum(b)
        plan_a = plan_physical(a, zeros, PLANTFORM)
        plan_b = plan_physical(b, zeros, PLANTFORM)
        if travel_a <= travel_b:
            assert plan_a.total_duration <= plan_b.total_duration + 1e-9


class TestPlanGraphical:
    def test_ten_hours_take_twenty_seconds(self):
        plan = plan_graphical([10] * 10, [0] * 10, PLANTSCREEN)
        assert plan.total_duration == pytest.approx(20.0)

    def test_eight_hours_take_sixteen_seconds(self):
        plan = plan_graphical([10] * 8, [0] * 8, PLANTSCREEN)
        assert plan.total_duration == pytest.approx(16.0)

    def test_zero_hours(self):
        plan = plan_graphical([], [], PLANTSCREEN)
        assert plan.total_duration == 0.0

    @given(position_vectors())
    def test_duration_depends_only_on_hour_count(self, targets):
        zeros = [0] * len(targets)
        moving = plan_graphical(targets, zeros, PLANTSCREEN)
        idle = plan_graphical(zeros, zeros, PLANTSCREEN)
        assert moving.total_duration == idle.total_duration
        assert moving.total_duration == pytest.approx(2.0 * len(targets))


class TestTransitionPlan:
    def test_screen_profile_starts_with_a_zero_pass(self):
        current = [10, 5, 3, 0, 0, 0, 0, 0, 0, 0]
        nxt = [0, 0, 4, 4, 10, 4, 0, 0, 0, 0]
        plan = transition_plan(current, nxt, PLANTSCREEN)
        wipe = plan.commands[: len(current)]
        assert all(c.target == 0 for c in wipe)
        show = plan.commands[len(current):]
        assert [c.target for c in show] == nxt
        # every leaf lands on 0 exactly once during the transition
        for leaf in range(len(current)):
            zero_landings = [c for c in plan.commands if c.leaf == leaf and c.target == 0]
            assert len(zero_landings) >= 1
            assert zero_landings[0].start_time < show[0].start_time + 1e-9

    def test_physical_profile_with_no_change_is_empty(self):
        current = [4, 4, 0]
        plan = transition_plan(current, list(current), PLANTFORM)
        assert plan.commands == ()

    def test_physical_profile_moves_directly(self):
        current = [10, 5, 0]
        nxt = [0, 5, 10]
        plan = transition_plan(current, nxt, PLANTFORM)
        assert all(c.target != 0 or c.source > 0 for c in plan.commands)
        assert [(c.leaf, c.source, c.target) for c in plan.commands] == [
            (0, 10, 0),
            (2, 0, 10),
        ]

    def test_reset_policy_passes_through_zero_exactly_once(self):
        current = [10, 7, 2]
        nxt = [3, 8, 1]
        plan = transition_plan(current, nxt, PLANTSCREEN)
        for leaf in range(3):
            commands = [c for c in plan.commands if c.leaf == leaf]
            assert [c.target for c in commands].count(0) == 1


class TestLowfiTimeline:
    def test_100_points_take_five_frames_over_1_6_seconds(self):
        timeline = lowfi_timeline(100.0)
        assert len(timeline) == 5
        assert timeline.span == pytest.approx(1.6)
        assert [f.extensions[0] for f in timeline.frames] == [20, 40, 60, 80, 100]

    def test_zero_delta_is_empty(self):
        assert len(lowfi_timeline(0.0)) == 0

    def test_partial_step_still_gets_a_frame(self):
        timeline = lowfi_timeline(30.0)
        assert len(timeline) == 2
        assert [f.extensions[0] for f in timeline.frames] == [20, 30]

    def test_frame_spacing_is_the_tick(self):
        timeline = lowfi_timeline(100.0, tick=0.32)
        stamps = [f.timestamp for f in timeline.frames]
        for a, b in zip(stamps, stamps[1:]):
            assert b - a == pytest.approx(0.32)

    def test_multi_channel_clamps_each_target(self):
        timeline = lowfi_series_timeline([100.0, 30.0, 0.0])
        assert len(timeline) == 5
        assert timeline.frames[1].extensions == (40.0, 30.0, 0.0)
        assert timeline.frames[-1].extensions == (100.0, 30.0, 0.0)


class TestPlanSerialization:
    def test_json_round_trip(self):
        plan = plan_physical([0, 3, 10, 5], [0, 0, 0, 0], PLANTFORM)
        again = plan_from_json(plan_to_json(plan))
        assert again == plan

    def test_json_is_deterministic(self):
        plan = plan_physical([1, 2, 3], [0, 0, 0], CAIRNFORM)
        assert plan_to_json(plan) == plan_to_json(plan)

    def test_plan_validation_rejects_unsorted_commands(self):
        plan = plan_physical([5, 5], [0, 0], PLANTFORM)
        swapped = (plan.commands[1], plan.commands[0])
        with pytest.raises(ValueError):
            MotionPlan(plan.profile, swapped, plan.total_duration)

    def test_plan_validation_rejects_overlapping_leaf_commands(self):
        a = plan_physical([5], [0], PLANTFORM).commands[0]
        b = a.__class__(a.leaf, a.target, 0, a.start_time + a.duration / 2, a.duration)
        with pytest.raises(ValueError):
            MotionPlan("plantform", (a, b), b.start_time + b.duration)

    @pytest.mark.parametrize("command, message", [
        (MotionCommand(0, 0, 5, float("nan"), 1.0), "start_time must be a finite number, got nan"),
        (MotionCommand(0, 0, 5, float("inf"), 1.0), "start_time must be a finite number, got inf"),
        (MotionCommand(0, 0, 5, 0.0, float("nan")), "duration must be a finite number, got nan"),
        (MotionCommand(0, 0, 5, 0.0, float("inf")), "duration must be a finite number, got inf"),
        (MotionCommand(0, 0, 5, 0.0, -1.0), "duration must be >= 0, got -1.0"),
    ])
    def test_plan_validation_rejects_bad_command_times(self, command, message):
        first = MotionCommand(3, 0, 2, 0.0, 0.5)
        with pytest.raises(ValueError, match=f"^command 1 \\(leaf 0\\): {message}$"):
            MotionPlan("plantform", (first, command), 1.0)

    @pytest.mark.parametrize("total", [float("nan"), float("inf"), -float("inf")])
    def test_plan_validation_rejects_a_total_duration_that_is_not_finite(self, total):
        with pytest.raises(ValueError, match="^total_duration must be a finite number"):
            MotionPlan("plantform", (MotionCommand(0, 0, 5, 0.0, 1.0),), total)

    def test_plan_json_with_nan_start_time_is_rejected(self):
        text = plan_to_json(plan_physical([0, 3], [0, 0], PLANTFORM)).replace(
            '"start_time": 0.0', '"start_time": NaN')
        with pytest.raises(ValueError, match="command 0 \\(leaf 1\\): start_time"):
            plan_from_json(text)
