import json
import re

import pytest
from hypothesis import example, given, strategies as st

import plantchart.motion as motion

from oracles import reference_plan
from strategies import position_vectors
from plantchart._checks import quote
from plantchart.motion import (
    CAIRNFORM,
    LEAF_COUNT,
    MAX_FRAMES,
    PLANTFORM,
    PLANTSCREEN,
    STEPS_MAX,
    STEPS_MIN,
    DeviceProfile,
    FrameTimeline,
    Modality,
    MotionCommand,
    MotionPlan,
    TimelineFrame,
    lowfi_series_timeline,
    lowfi_timeline,
    plan_for_profile,
    plan_from_json,
    plan_to_json,
    profile_from_json,
    transition_plan,
)


class TestPlanPhysical:
    def test_full_unfurl_sequence_hits_the_leaf_device_total(self):
        plan = plan_for_profile([10] * 10, [0] * 10, PLANTFORM)
        assert 18.0 <= plan.total_duration <= 20.0

    def test_eight_hour_full_sequence(self):
        plan = plan_for_profile([10] * 8, [0] * 8, PLANTFORM)
        assert 13.0 <= plan.total_duration <= 15.0

    def test_ring_device_totals(self):
        assert 11.0 <= plan_for_profile([10] * 10, [0] * 10, CAIRNFORM).total_duration <= 13.0
        assert 7.0 <= plan_for_profile([10] * 8, [0] * 8, CAIRNFORM).total_duration <= 9.0

    def test_no_change_means_empty_plan(self):
        plan = plan_for_profile([3, 5, 7], [3, 5, 7], PLANTFORM)
        assert plan.commands == ()
        assert plan.total_duration == 0.0

    def test_single_full_unfurl_duration(self):
        profile = DeviceProfile("bench", Modality.PHYSICAL, step_rate=120.0)
        plan = plan_for_profile([10], [0], profile)
        assert plan.total_duration == pytest.approx(216 / 120)

    def test_commands_are_sequential_in_hour_order(self):
        plan = plan_for_profile([5, 0, 10], [0, 0, 0], PLANTFORM)
        assert [c.leaf for c in plan.commands] == [0, 2]
        assert plan.commands[1].start_time == pytest.approx(plan.commands[0].duration)

    def test_hour_aligned_leaf_indices(self):
        plan = plan_for_profile([10, 5], [0, 0], PLANTFORM, leaf_indices=[2, 3])
        assert [c.leaf for c in plan.commands] == [2, 3]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            plan_for_profile([1, 2], [0], PLANTFORM)

    @pytest.mark.parametrize("targets, current, leaves, message", [
        ([11], [0], None, r"^position 11 out of range \[0, 10\]$"),
        ([1], [True], None, r"^position True out of range \[0, 10\]$"),
        ([True], [True], None, r"^position True out of range \[0, 10\]$"),
        ([5], [0], [10], r"^leaf index 10 out of range \[0, 9\]$"),
        ([5], [0], [True], r"^leaf index True out of range \[0, 9\]$"),
        ([1] * 11, [0] * 11, None, "^at most 10 leaves, got 11$"),
        ([1, 2], [0, 0], [0], "^leaf_indices must match the target vector length$"),
    ])
    def test_a_position_or_leaf_index_out_of_range_is_refused(self, targets, current, leaves,
                                                              message):
        with pytest.raises(ValueError, match=message):
            plan_for_profile(targets, current, PLANTFORM, leaves)

    @given(position_vectors(), position_vectors())
    def test_duration_monotone_in_total_travel(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        zeros = [0] * n
        travel_a, travel_b = sum(a), sum(b)
        plan_a = plan_for_profile(a, zeros, PLANTFORM)
        plan_b = plan_for_profile(b, zeros, PLANTFORM)
        if travel_a <= travel_b:
            assert plan_a.total_duration <= plan_b.total_duration + 1e-9


class TestPlanGraphical:
    def test_ten_hours_take_twenty_seconds(self):
        plan = plan_for_profile([10] * 10, [0] * 10, PLANTSCREEN)
        assert plan.total_duration == pytest.approx(20.0)

    def test_eight_hours_take_sixteen_seconds(self):
        plan = plan_for_profile([10] * 8, [0] * 8, PLANTSCREEN)
        assert plan.total_duration == pytest.approx(16.0)

    def test_zero_hours(self):
        plan = plan_for_profile([], [], PLANTSCREEN)
        assert plan.total_duration == 0.0

    @given(position_vectors())
    def test_duration_depends_only_on_hour_count(self, targets):
        zeros = [0] * len(targets)
        moving = plan_for_profile(targets, zeros, PLANTSCREEN)
        idle = plan_for_profile(zeros, zeros, PLANTSCREEN)
        assert moving.total_duration == idle.total_duration
        assert moving.total_duration == pytest.approx(2.0 * len(targets))


@st.composite
def planner_inputs(draw):
    """A profile of either modality with calibrated step counts and float
    rates, targets and current positions in 0..10, and optionally
    hour-aligned leaf indices."""
    profile = DeviceProfile(
        "drawn",
        draw(st.sampled_from(Modality)),
        steps_full_range=draw(st.lists(st.integers(STEPS_MIN, STEPS_MAX),
                                       min_size=LEAF_COUNT, max_size=LEAF_COUNT)),
        step_rate=draw(st.floats(0.01, 1e4)),
        per_rate_frame_time=draw(st.floats(0.001, 100.0)),
    )
    n = draw(st.integers(0, LEAF_COUNT))
    positions = st.lists(st.integers(0, 10), min_size=n, max_size=n)
    targets, current = draw(positions), draw(positions)
    leaves = draw(st.none() | st.lists(st.integers(0, LEAF_COUNT - 1),
                                       min_size=n, max_size=n, unique=True))
    return targets, current, profile, leaves


@given(planner_inputs())
def test_plan_for_profile_matches_the_reference_planners(inputs):
    assert plan_for_profile(*inputs) == reference_plan(*inputs)


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

    def test_a_custom_graphical_profile_wipes_as_plantscreen_does(self):
        custom = profile_from_json('{"name": "s", "modality": "graphical"}')
        plan = transition_plan([3] * 10, [5] * 10, custom)
        assert len(plan.commands) == 20
        assert plan.commands == transition_plan([3] * 10, [5] * 10, PLANTSCREEN).commands

    @given(position_vectors(), st.sampled_from(list(motion.BUILTIN_PROFILES.values())))
    @example([0, 0, 4, 4, 10, 4, 0, 0, 0, 0], PLANTSCREEN)
    def test_a_furled_device_moves_directly(self, nxt, profile):
        zeros = [0] * len(nxt)
        assert transition_plan(zeros, nxt, profile) == plan_for_profile(nxt, zeros, profile)


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


    @pytest.mark.parametrize("args, kwargs, message", [
        ((float("inf"),), {}, "^extension deltas must be finite numbers$"),
        ((float("nan"),), {}, "^extension deltas must be finite numbers$"),
        ((1e308,), {"tick_step": 1e-10}, f"more than {MAX_FRAMES} frames$"),
        ((MAX_FRAMES * 20.0 + 1.0,), {}, f"more than {MAX_FRAMES} frames$"),
        ((100.0,), {"tick_step": 0.0}, "^tick_step must be a finite number > 0, got 0.0$"),
        ((100.0,), {"tick_step": -20.0}, "^tick_step must be a finite number > 0, got -20.0$"),
        ((100.0,), {"tick_step": float("nan")}, "^tick_step must be a finite number > 0"),
        ((100.0,), {"tick_step": float("inf")}, "^tick_step must be a finite number > 0"),
        ((100.0,), {"tick": float("nan")}, "^tick must be a finite number > 0, got nan$"),
        ((100.0,), {"tick": float("inf")}, "^tick must be a finite number > 0, got inf$"),
        ((100.0,), {"tick": 0}, "^tick must be a finite number > 0, got 0$"),
        ((100.0,), {"tick": -1}, "^tick must be a finite number > 0, got -1$"),
    ])
    def test_lowfi_timeline_refuses_before_making_a_frame(self, args, kwargs, message):
        with pytest.raises(ValueError, match=message):
            lowfi_timeline(*args, **kwargs)

    def test_frame_timestamps_must_increase(self):
        frames = (TimelineFrame(0.32, (20.0,)), TimelineFrame(0.32, (40.0,)))
        with pytest.raises(ValueError, match="^frame timestamps must be strictly increasing$"):
            FrameTimeline(frames, 0.32)

    def test_multi_channel_refuses_a_negative_or_infinite_delta(self):
        with pytest.raises(ValueError, match="^extension deltas must be non-negative$"):
            lowfi_series_timeline([100.0, -1.0])
        with pytest.raises(ValueError, match="^extension deltas must be finite numbers$"):
            lowfi_series_timeline([100.0, float("inf")])

    def test_the_frame_limit_is_motions(self):
        assert motion.MAX_FRAMES == MAX_FRAMES
        assert len(lowfi_timeline(MAX_FRAMES * 20.0)) == MAX_FRAMES


class TestPlanSerialization:
    def test_json_round_trip(self):
        plan = plan_for_profile([0, 3, 10, 5], [0, 0, 0, 0], PLANTFORM)
        again = plan_from_json(plan_to_json(plan))
        assert again == plan

    def test_json_is_deterministic(self):
        plan = plan_for_profile([1, 2, 3], [0, 0, 0], CAIRNFORM)
        assert plan_to_json(plan) == plan_to_json(plan)

    def test_plan_validation_rejects_unsorted_commands(self):
        plan = plan_for_profile([5, 5], [0, 0], PLANTFORM)
        swapped = (plan.commands[1], plan.commands[0])
        with pytest.raises(ValueError):
            MotionPlan(plan.profile, swapped, plan.total_duration)

    def test_plan_validation_rejects_overlapping_leaf_commands(self):
        a = plan_for_profile([5], [0], PLANTFORM).commands[0]
        b = a.__class__(a.leaf, a.target, 0, a.start_time + a.duration / 2, a.duration)
        with pytest.raises(ValueError):
            MotionPlan("plantform", (a, b), b.start_time + b.duration)

    @pytest.mark.parametrize("command, message", [
        (MotionCommand(0, 0, 5, float("nan"), 1.0), "start_time must be a finite number, got nan"),
        (MotionCommand(0, 0, 5, float("inf"), 1.0), "start_time must be a finite number, got inf"),
        (MotionCommand(0, 0, 5, 0.0, float("nan")), "duration must be a finite number, got nan"),
        (MotionCommand(0, 0, 5, 0.0, float("inf")), "duration must be a finite number, got inf"),
        (MotionCommand(0, 0, 5, 0.0, -1.0), "duration must be >= 0, got -1.0"),
        (MotionCommand(0, -1, 5, 0.0, 1.0), r"source must be a number in \[0, 10\], got -1"),
        (MotionCommand(0, 0, -1, 0.0, 1.0), r"target must be a number in \[0, 10\], got -1"),
        (MotionCommand(0, 0, 11, 0.0, 1.0), r"target must be a number in \[0, 10\], got 11"),
        (MotionCommand(0, 0, 10000, 0.0, 1.0),
         r"target must be a number in \[0, 10\], got 10000"),
        (MotionCommand(0, 0, float("nan"), 0.0, 1.0),
         r"target must be a number in \[0, 10\], got nan"),
        (MotionCommand(0, True, 5, 0.0, 1.0), r"source must be a number in \[0, 10\], got True"),
        (MotionCommand(0, "5", 5, 0.0, 1.0), r"source must be a number in \[0, 10\], got '5'"),
        (MotionCommand(0, 0, None, 0.0, 1.0), r"target must be a number in \[0, 10\], got None"),
    ])
    def test_plan_validation_rejects_bad_command_times(self, command, message):
        first = MotionCommand(3, 0, 2, 0.0, 0.5)
        with pytest.raises(ValueError, match=f"^command 1 \\(leaf 0\\): {message}$"):
            MotionPlan("plantform", (first, command), 1.0)

    def test_plan_validation_rejects_a_total_duration_past_the_last_command(self):
        with pytest.raises(ValueError, match="^total_duration 2.0 != last command end 1.0$"):
            MotionPlan("plantform", (MotionCommand(0, 0, 5, 0.0, 1.0),), 2.0)

    @pytest.mark.parametrize("total", [float("nan"), float("inf"), -float("inf")])
    def test_plan_validation_rejects_a_total_duration_that_is_not_finite(self, total):
        with pytest.raises(ValueError, match="^total_duration must be a finite number"):
            MotionPlan("plantform", (MotionCommand(0, 0, 5, 0.0, 1.0),), total)

    def test_plan_json_with_a_target_out_of_range_is_rejected(self):
        text = plan_to_json(plan_for_profile([0, 3], [0, 0], PLANTFORM)).replace(
            '"to": 3', '"to": -1')
        with pytest.raises(ValueError, match="command 0 \\(leaf 1\\): target must be a number"):
            plan_from_json(text)

    @pytest.mark.parametrize("text, message", [
        ("{}", "^missing field commands$"),
        ("[]", "^expected a JSON object$"),
        ('{"commands": 5}', "^commands must be a list, got int$"),
        ('{"commands": [5]}', r"^commands\[0\] must be an object, got int$"),
        ('{"commands": [{"leaf": 0}]}', r"^missing field commands\[0\].from$"),
        ('{"commands": []}', "^missing field profile$"),
        ('{"commands": [], "profile": "p"}', "^missing field total_duration$"),
    ])
    def test_a_malformed_plan_document_names_its_field(self, text, message):
        with pytest.raises(ValueError, match=message):
            plan_from_json(text)

    @pytest.mark.parametrize("leaf", [True, 1.5, "a", [0]])
    def test_a_plan_document_whose_leaf_is_not_an_int_is_rejected(self, leaf):
        document = json.loads(plan_to_json(plan_for_profile([3], [0], PLANTFORM)))
        document["commands"][0]["leaf"] = leaf
        with pytest.raises(ValueError, match=f"^command 0: leaf must be an int, got "
                                             f"{re.escape(repr(leaf))}$"):
            plan_from_json(json.dumps(document))

    def test_plan_json_with_nan_start_time_is_rejected(self):
        text = plan_to_json(plan_for_profile([0, 3], [0, 0], PLANTFORM)).replace(
            '"start_time": 0.0', '"start_time": NaN')
        with pytest.raises(ValueError, match="command 0 \\(leaf 1\\): start_time"):
            plan_from_json(text)


class TestProfileFromJson:
    def test_a_document_with_only_a_name_takes_the_profile_defaults(self):
        assert profile_from_json('{"name": "x"}') == DeviceProfile("x", Modality.PHYSICAL)

    def test_a_document_setting_every_field_equals_the_profile_of_its_values(self):
        steps = list(range(STEPS_MIN, STEPS_MIN + LEAF_COUNT))
        text = json.dumps({
            "name": "bench",
            "modality": "graphical",
            "steps_full_range": steps,
            "step_rate": 99.5,
            "per_rate_frame_time": 1.25,
        })
        assert profile_from_json(text) == DeviceProfile(
            "bench", Modality.GRAPHICAL, tuple(steps), 99.5, 1.25)

    @pytest.mark.parametrize("field", ["steprate", "reset_before_next_variation",
                                       pytest.param("x" * 200, id="x*200")])
    def test_a_field_the_profile_does_not_have_is_refused_naming_it(self, field):
        with pytest.raises(ValueError) as info:
            profile_from_json(json.dumps({"name": "x", field: 5}))
        assert str(info.value) == f"unknown field {quote(field)}"

    @pytest.mark.parametrize("modality", [
        "hydraulic", "PHYSICAL", None, 1, pytest.param(["physical"], id="list"),
        pytest.param("m" * 200, id="m*200")])
    def test_a_document_modality_that_is_no_modality_value_is_refused_naming_it(self, modality):
        with pytest.raises(ValueError) as info:
            profile_from_json(json.dumps({"name": "x", "modality": modality}))
        assert str(info.value) == (
            f"modality must be one of 'physical', 'graphical', got {quote(modality)}")

    @pytest.mark.parametrize("modality", ["physical", None])
    def test_a_modality_that_is_not_a_modality_is_refused(self, modality):
        with pytest.raises(ValueError, match=f"^modality must be a Modality, got {modality!r}$"):
            DeviceProfile("x", modality)
