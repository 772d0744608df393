import json
import threading
import tracemalloc
from dataclasses import replace

import pytest

from plantchart import device
from plantchart.encoder import EncodingMode
from plantchart.fixtures import get_fixture
from plantchart.motion import (
    CAIRNSCREEN,
    PLANTFORM,
    PLANTSCREEN,
    DeviceProfile,
    Modality,
    MotionCommand,
    MotionPlan,
    transition_plan,
)
from plantchart.serve import (
    REJECTIONS_KEPT,
    FeedClosed,
    FileFeed,
    ForecastService,
    device_targets,
    plan_variation,
    run_service,
)
from plantchart.series import load_series, segment_variations
from strategies import MISSHAPEN_DOCUMENTS, UNPARSABLE_DOCUMENTS


def payload_for(anchors=(8, 12, 17)):
    start, peak, end = anchors
    samples = []
    for hour in range(start, end + 1):
        if hour <= peak:
            rate = (hour - start) / (peak - start) if peak > start else 1.0
        else:
            rate = (end - hour) / (end - peak)
        samples.append({"hour": hour, "rate": rate})
    return json.dumps({"samples": samples})


class TestDeviceTargets:
    def test_hour_aligned_spread(self):
        series = load_series(payload_for((10, 12, 14)))
        targets = device_targets(series, [0, 4, 10, 4, 0])
        assert targets == [0, 0, 0, 4, 10, 4, 0, 0, 0, 0]

    def test_evening_hour_with_zero_position_is_dropped(self):
        series = load_series(payload_for((10, 14, 18)))
        positions = [0, 4, 4, 5, 10, 5, 4, 3, 0]
        targets = device_targets(series, positions)
        assert len(targets) == 10
        assert targets[2:] == positions[:-1]

    def test_evening_hour_with_nonzero_position_is_an_error(self):
        series = load_series(payload_for((10, 14, 18)))
        positions = [0, 4, 4, 5, 10, 5, 4, 3, 1]
        with pytest.raises(ValueError):
            device_targets(series, positions)


class TestPlanVariation:
    def test_without_current_only_the_variation_leaves_move_from_furled(self):
        series = get_fixture("online1-leaf-one-curvy").series()  # 10..18
        (variation,) = segment_variations(series)
        plan = plan_variation(series, variation, EncodingMode.PEAK_RELATIVE, PLANTSCREEN)
        assert [c.leaf for c in plan.commands] == list(range(2, 10))
        assert all(c.source == 0 for c in plan.commands)

    def test_with_current_all_ten_leaves_are_planned(self):
        series = get_fixture("online1-leaf-one-curvy").series()
        (variation,) = segment_variations(series)
        plan = plan_variation(series, variation, EncodingMode.PEAK_RELATIVE, PLANTSCREEN,
                              [0] * 10)
        assert [c.leaf for c in plan.commands] == list(range(10))

    def test_raised_leaves_transition_through_the_reset_policy(self):
        series = get_fixture("plantform-monday").series()
        (variation,) = segment_variations(series)
        plan = plan_variation(series, variation, EncodingMode.PEAK_RELATIVE, PLANTSCREEN,
                              [3] * 10)
        wipe = plan.commands[:10]
        assert all(c.target == 0 for c in wipe)
        assert plan.targets == dict(enumerate([0, 4, 4, 5, 10, 5, 5, 4, 3, 0]))

    @pytest.mark.parametrize("current", [None, [0] * 10])
    def test_a_raised_hour_past_17_is_refused(self, current):
        series = load_series(payload_for((14, 18, 18)))
        (variation,) = segment_variations(series)
        with pytest.raises(ValueError, match="hour 18 carries position 10"):
            plan_variation(series, variation, EncodingMode.PEAK_RELATIVE, PLANTFORM, current)


class TestForecastService:
    def test_one_payload_executes_one_plan(self):
        service = ForecastService(PLANTFORM, tick=0.05)
        assert service.handle_payload(payload_for())
        assert service.displayed == 1
        positions = device.leaf_positions(service.controller)
        assert positions == [0, 4, 4, 5, 10, 5, 5, 4, 3, 0]
        assert "set_target" in service.event_log_ndjson()

    def test_malformed_payload_rejected_service_stays_up(self):
        service = ForecastService(PLANTFORM, tick=0.05)
        assert not service.handle_payload("{not json")
        assert service.rejected
        assert service.handle_payload(payload_for())
        assert service.displayed == 1

    def test_a_huge_bad_value_gives_a_short_reason(self):
        service = ForecastService(PLANTFORM, tick=0.05)
        huge = json.dumps({"samples": [{"hour": 8, "rate": "9" * 1_000_000}]})
        assert not service.handle_payload(huge)
        (reason,) = service.rejected
        assert reason.startswith("samples[0].rate: ") and len(reason) < 200

    def test_rejected_keeps_the_latest_reasons_and_counts_them_all(self):
        service = ForecastService(PLANTFORM, tick=0.05)
        for k in range(REJECTIONS_KEPT + 5):  # rates 2, 3, ... are out of range
            assert not service.handle_payload(json.dumps({"samples": [{"hour": 8, "rate": k + 2}]}))
        assert service.handle_payload(payload_for())
        assert (service.rejections, service.accepted) == (REJECTIONS_KEPT + 5, 1)
        assert len(service.rejected) == REJECTIONS_KEPT
        assert service.rejected[0] == "samples[0].rate: rate 7 out of range [0.0, 1.0]"
        assert service.rejected[-1] == (
            f"samples[0].rate: rate {REJECTIONS_KEPT + 6} out of range [0.0, 1.0]")

    @pytest.mark.parametrize("name", sorted(UNPARSABLE_DOCUMENTS))
    def test_unparsable_payload_is_a_document_rejection(self, name):
        document, reason = UNPARSABLE_DOCUMENTS[name]
        service = ForecastService(PLANTFORM, tick=0.05)
        assert not service.handle_payload(document)
        assert service.handle_payload(payload_for().encode())
        (rejection,) = service.rejected
        assert rejection.startswith("document: ") and reason in rejection
        assert (service.accepted, service.displayed) == (1, 1)

    def test_a_misshapen_payload_is_rejected_with_its_message(self):
        service = ForecastService(PLANTFORM, tick=0.05)
        for document, message in MISSHAPEN_DOCUMENTS.values():
            assert service.handle_payload(document) is False
            assert service.rejected[-1] == message
        assert service.rejections == len(MISSHAPEN_DOCUMENTS)
        assert service.handle_payload(payload_for())

    def test_back_to_back_payloads_transition_from_previous_state(self):
        service = ForecastService(PLANTFORM, tick=0.05)
        service.handle_payload(payload_for((8, 12, 17)))
        first_log_len = len(service.controller.event_log)
        service.handle_payload(payload_for((10, 16, 17)))
        # physical profile: direct transition, no wipe to zero in between
        new_events = service.controller.event_log[first_log_len:]
        targets = [
            dict(e.detail)["target_step"] for e in new_events if e.kind == "set_target"
        ]
        assert targets  # something moved
        positions = device.leaf_positions(service.controller)
        assert positions == device_targets(
            load_series(payload_for((10, 16, 17))),
            [0, 3, 4, 4, 5, 6, 10, 0],
        )

    def test_screen_profile_resets_between_payloads(self):
        service = ForecastService(PLANTSCREEN, tick=0.5)
        service.handle_payload(payload_for((8, 12, 17)))
        before = len(service.controller.event_log)
        service.handle_payload(payload_for((10, 16, 17)))
        new_events = service.controller.event_log[before:]
        sets = [dict(e.detail) for e in new_events if e.kind == "set_target"]
        wipe, show = sets[:10], sets[10:]
        # the transition opens with an all-zero pass over every leaf
        assert all(d["target_step"] == 0 for d in wipe)
        assert sorted(d["leaf"] for d in wipe) == list(range(10))
        assert any(d["target_step"] > 0 for d in show)

    def test_multi_variation_payload_displays_each_in_turn(self):
        doc = {
            "samples": [
                {"hour": 8, "rate": 0.0},
                {"hour": 9, "rate": 0.6},
                {"hour": 10, "rate": 0.2},
                {"hour": 11, "rate": 0.8},
                {"hour": 12, "rate": 0.0},
            ]
        }
        service = ForecastService(PLANTFORM, tick=0.05)
        assert service.handle_payload(json.dumps(doc))
        assert service.displayed == 2

    def test_tick_must_be_finite_and_positive(self):
        with pytest.raises(ValueError):
            ForecastService(PLANTFORM, tick=float("nan"))
        with pytest.raises(ValueError):
            ForecastService(PLANTFORM, tick=True)

    @pytest.mark.parametrize("mode", ["relative", "absolute", None])
    def test_mode_must_be_an_encoding_mode(self, mode):
        with pytest.raises(ValueError, match=f"^mode must be an EncodingMode, got {mode!r}$"):
            ForecastService(PLANTFORM, mode=mode)

    def test_simulation_failures_are_rejections(self, tmp_path):
        path = tmp_path / "feed.ndjson"
        path.write_text(payload_for() + "\n" + payload_for((9, 11, 13)) + "\n")
        slow = DeviceProfile("slow", Modality.PHYSICAL, step_rate=1e-300)
        service = ForecastService(slow)
        accepted = run_service(service, FileFeed(path), max_messages=2, poll_timeout=0.01)
        assert accepted == 0
        assert len(service.rejected) == 2
        assert all("ticks" in reason for reason in service.rejected)
        assert service.controller == device.initial_state(slow)
        assert service.event_log_ndjson() == ""

    def test_a_plan_that_fails_mid_run_leaves_the_device_as_it_was(self):
        # Motors at one step a second keep up with a slow hand-made plan
        # but not with the short frame times of a graphical plan.
        quick = DeviceProfile("quick", Modality.GRAPHICAL, step_rate=1.0,
                              per_rate_frame_time=0.1)
        service = ForecastService(quick, tick=0.5)
        service.play(MotionPlan("quick", (MotionCommand(0, 0, 1, 0.0, 30.0),), 30.0))
        before, log = service.controller, service.event_log_ndjson()
        assert device.leaf_positions(before)[0] == 1
        assert not service.handle_payload(payload_for())
        assert service.rejected[-1] == "plan failed to complete in simulated time"
        assert service.controller == before
        assert service.event_log_ndjson() == log
        # The next plan starts from the state before the refused one.
        back = MotionPlan("quick", (MotionCommand(0, 1, 0, 0.0, 30.0),), 30.0)
        service.play(back)
        played = device.run_plan(before, back, 0.5)
        assert service.controller == replace(played,
                                             event_log=before.event_log + played.event_log)

    @staticmethod
    def long_running_service():
        """A PLANTFORM service past 20,000 log events, just after a play."""
        service = ForecastService(PLANTFORM)
        days = [payload_for((8, 12, 17)), payload_for((9, 10, 16))]
        while len(service.controller.event_log) < 20_000:
            assert service.handle_payload(days[service.accepted % 2])
        assert service.handle_payload(days[service.accepted % 2])
        return service

    def test_a_controller_read_allocates_the_same_at_any_uptime(self):
        # At 8 bytes a log entry, a copy of a 20,000-event log alone would
        # allocate 160 kB; the snapshot shares the log instead.
        service = self.long_running_service()
        tracemalloc.start()
        try:
            ctrl = service.controller
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ctrl.event_log) > 20_000
        assert peak < 32_000

    def test_a_stateless_call_allocates_the_same_at_any_uptime(self):
        # The core that run_plan builds reads none of the snapshot's log, and
        # the snapshot it returns holds the plan's own events alone.
        snapshot = self.long_running_service().controller
        assert len(snapshot.event_log) > 20_000
        positions = device.leaf_positions(snapshot)
        plan = transition_plan(positions, [positions[0] ^ 1, *positions[1:]], PLANTFORM)
        tracemalloc.start()
        try:
            ctrl = device.run_plan(snapshot, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [e.kind for e in ctrl.event_log] == [
            "relay", "set_target", "ack", "target_reached", "relay"]
        assert peak < 32_000

    def test_absolute_mode_service(self):
        service = ForecastService(CAIRNSCREEN, EncodingMode.ABSOLUTE_LINEAR, tick=0.5)
        assert service.handle_payload(payload_for((8, 12, 17)))
        positions = device.leaf_positions(service.controller)
        assert positions[4] == 10  # the peak rate is 1.0 either way


class TestFeeds:
    def test_file_feed_reads_whole_lines_in_order(self, tmp_path):
        path = tmp_path / "feed.ndjson"
        path.write_text(payload_for((8, 12, 17)) + "\n" + payload_for((9, 11, 13)) + "\n")
        feed = FileFeed(path)
        assert json.loads(feed.poll())["samples"][0]["hour"] == 8
        assert json.loads(feed.poll())["samples"][0]["hour"] == 9
        assert feed.poll() is None

    def test_file_feed_skips_incomplete_trailing_line(self, tmp_path):
        path = tmp_path / "feed.ndjson"
        path.write_text(payload_for() + "\n" + '{"partial":')
        feed = FileFeed(path)
        assert feed.poll() is not None
        assert feed.poll() is None
        with path.open("a") as handle:
            handle.write(' 1}\n')
        assert feed.poll() is not None

    def test_file_feed_skips_thousands_of_blank_lines(self, tmp_path):
        path = tmp_path / "feed.ndjson"
        path.write_text("\n" * 4000 + "  \n" * 1000 + payload_for() + "\n")
        service = ForecastService(PLANTFORM, tick=0.1)
        accepted = run_service(service, FileFeed(path), max_messages=1, poll_timeout=0.01)
        assert accepted == 1

    def test_run_service_over_a_mixed_stream(self, tmp_path):
        path = tmp_path / "feed.ndjson"
        path.write_text(payload_for() + "\ngarbage\n")
        service = ForecastService(PLANTFORM, tick=0.1)
        accepted = run_service(service, FileFeed(path), max_messages=2, poll_timeout=0.01)
        assert accepted == 1
        assert service.displayed == 1
        assert len(service.rejected) == 1

    def test_unparsable_lines_are_rejected_between_served_ones(self, tmp_path):
        path = tmp_path / "feed.ndjson"
        bad = [UNPARSABLE_DOCUMENTS[name][0] for name in sorted(UNPARSABLE_DOCUMENTS)]
        lines = [payload_for().encode(), *bad, payload_for((9, 11, 13)).encode()]
        path.write_bytes(b"\n".join(lines) + b"\n")
        service = ForecastService(PLANTFORM, tick=0.1)
        assert run_service(service, FileFeed(path), poll_timeout=0, max_idle_polls=1) == 2
        assert service.displayed == 2
        assert len(service.rejected) == 3
        assert all(reason.startswith("document: ") for reason in service.rejected)

    def test_run_service_stops_when_idle(self, tmp_path):
        path = tmp_path / "feed.ndjson"
        path.write_text(payload_for() + "\n")
        service = ForecastService(PLANTFORM, tick=0.1)
        accepted = run_service(
            service, FileFeed(path), poll_timeout=0.01, max_idle_polls=2
        )
        assert accepted == 1

    def test_idle_feed_is_polled_with_a_positive_timeout(self):
        class SilentFeed:
            def __init__(self):
                self.timeouts = []

            def poll(self, timeout=0.0):
                self.timeouts.append(timeout)
                return None

        feed = SilentFeed()
        service = ForecastService(PLANTFORM, tick=0.1)
        assert run_service(service, feed, poll_timeout=0, max_idle_polls=8) == 0
        assert len(feed.timeouts) == 8
        assert feed.timeouts[0] == 0
        assert all(0 < t <= 1.0 for t in feed.timeouts[1:]), feed.timeouts

    def test_run_service_returns_when_the_feed_closes(self):
        class ClosingFeed:
            def __init__(self):
                self.payloads = [payload_for().encode()]
                self.closed = False

            def poll(self, timeout=0.0):
                if self.closed:
                    pytest.fail("the feed was polled again after it closed")
                if self.payloads:
                    return self.payloads.pop()
                self.closed = True
                raise FeedClosed

        feed = ClosingFeed()
        service = ForecastService(PLANTFORM, tick=0.1)
        assert run_service(service, feed) == 1
        assert feed.closed

    @pytest.mark.parametrize("poll_timeout", [float("nan"), float("inf"), -1.0, True])
    def test_a_poll_timeout_that_is_not_a_finite_number_from_0_is_refused(self, poll_timeout):
        class ClosedFeed:
            def poll(self, timeout=0.0):
                raise FeedClosed

        service = ForecastService(PLANTFORM, tick=0.1)
        with pytest.raises(ValueError, match="^poll_timeout must be "):
            run_service(service, ClosedFeed(), poll_timeout=poll_timeout, max_idle_polls=1)

    def test_threaded_publisher(self, tmp_path):
        path = tmp_path / "feed.ndjson"

        def publish_later():
            with path.open("a") as handle:
                handle.write(payload_for((12, 14, 15)) + "\n")

        timer = threading.Timer(0.05, publish_later)
        timer.start()
        service = ForecastService(PLANTFORM, tick=0.1)
        accepted = run_service(service, FileFeed(path), max_messages=1, poll_timeout=0.05)
        timer.join()
        assert accepted == 1
