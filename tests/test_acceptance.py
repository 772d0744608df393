"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion with its runtime.  Every tolerance is pinned here;
nothing is deferred to later calibration.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

from oracles import brute_force_variations, relative_position_from_thousandths
from plantchart import device
from plantchart.encoder import EncodingMode, encode_relative, encode_series
from plantchart.fixtures import ANCHOR_TABLE_ROWS, FIXTURES
from plantchart.motion import (
    CAIRNFORM,
    PLANTFORM,
    PLANTSCREEN,
    lowfi_timeline,
    plan_for_profile,
)
from plantchart.protocol import ChecksumError, Frame, Opcode, decode_frame, encode_frame
from plantchart.render import Anchoring, Decoration, glyph_extent_measure, layout
from plantchart.series import ForecastSeries, segment_variations
from plantchart.svg import GALLERY_STYLES, design_space_gallery, render_svg

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL "
              f"({time.perf_counter() - start:.2f} s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed <= budget_s else "FAIL (over time budget)"
    print(f"ACCEPTANCE {number} ({title}): {verdict} ({elapsed:.2f} s)")
    assert elapsed <= budget_s, f"criterion {number} exceeded {budget_s} s"


def test_criterion_1_encoding_table_exactness():
    with criterion(1, "encoding table exactness", 1.0):
        for k in range(1001):
            ratio = k / 1000
            assert encode_relative(ratio, 1.0) == relative_position_from_thousandths(k), (
                f"ratio {ratio} mis-binned"
            )


def test_criterion_2_fixture_anchors():
    with criterion(2, "fixture anchors", 1.0):
        assert len(ANCHOR_TABLE_ROWS) == 17
        for name in ANCHOR_TABLE_ROWS:
            fixture = FIXTURES[name]
            variations = segment_variations(fixture.series())
            got = [(v.start, v.peak, v.end) for v in variations]
            assert got == [fixture.anchors], f"{name}: {got} != {fixture.anchors}"


def test_criterion_3_segmentation_oracle():
    with criterion(3, "segmentation oracle", 30.0):
        rng = random.Random(0x5EED)
        mismatches = 0
        for _ in range(100_000):
            length = rng.randint(3, 10)
            rates = tuple(rng.randint(0, 10) / 10 for _ in range(length))
            series = ForecastSeries(hours=tuple(range(8, 8 + length)), rates=rates)
            got = [
                (v.start - 8, v.peak - 8, v.end - 8) for v in segment_variations(series)
            ]
            if got != brute_force_variations(rates):
                mismatches += 1
        assert mismatches == 0


def test_criterion_4_timing_totals():
    with criterion(4, "timing totals", 5.0):
        expectations = [
            (PLANTSCREEN, 10, 20.0),
            (PLANTFORM, 10, 19.0),
            (CAIRNFORM, 10, 12.0),
            (PLANTSCREEN, 8, 16.0),
            (PLANTFORM, 8, 14.0),
            (CAIRNFORM, 8, 8.0),
        ]
        for profile, hour_count, target in expectations:
            plan = plan_for_profile([10] * hour_count, [0] * hour_count, profile)
            assert abs(plan.total_duration - target) <= 1.0, (
                f"{profile.name} {hour_count}h: {plan.total_duration:.2f} s "
                f"not within {target} +/- 1 s"
            )
            # the simulator plays the plan out in the same time, one tick slack
            dt = 0.05
            ctrl = device.run_plan(device.initial_state(profile), plan, dt=dt)
            assert plan.total_duration - 1e-9 <= ctrl.clock <= plan.total_duration + dt + 1e-9
            assert device.leaf_positions(ctrl)[:hour_count] == [10] * hour_count


def test_criterion_5_simulator_laws():
    with criterion(5, "simulator laws", 60.0):
        rng = random.Random(0xCAFE)
        for round_index in range(1000):
            seed = rng.randint(0, 2**31)
            base = (PLANTFORM, CAIRNFORM, PLANTSCREEN)[round_index % 3]
            profile = base.calibrated(seed)
            plan_rng = random.Random(seed)
            current = [plan_rng.randint(0, 10) for _ in range(10)]
            targets = [plan_rng.randint(0, 10) for _ in range(10)]
            dt = 0.05 if base is PLANTSCREEN else 0.02
            plan = plan_for_profile(targets, current, profile)

            def run():
                ctrl = device.initial_state(profile, current)
                return device.run_plan(ctrl, plan, dt=dt)

            ctrl = run()

            # end positions equal targets
            assert device.leaf_positions(ctrl) == targets, seed

            # rotation counts equal the travelled step deltas
            for leaf in range(10):
                channel = ctrl.boards[leaf // 2].channels[leaf % 2]
                full = profile.steps_full_range[leaf]
                expected = abs(
                    device.position_to_steps(targets[leaf], full)
                    - device.position_to_steps(current[leaf], full)
                )
                assert channel.rotation_count == expected, seed

            # stop sensor fires exactly when a channel arrives at step 0
            sets = [dict(e.detail) for e in ctrl.event_log if e.kind == "set_target"]
            expected_stops = sum(
                1 for d in sets if d["target_step"] == 0 and d["from_step"] > 0
            )
            stops = [e for e in ctrl.event_log if e.kind == "stop_sensor"]
            assert len(stops) == expected_stops, seed
            for board in ctrl.boards[:5]:
                for channel in board.channels:
                    assert channel.stop_sensor_active == (channel.current_step == 0)

            # byte-identical logs across two runs with the same seed
            if round_index % 10 == 0:
                again = run()
                assert (
                    device.events_to_ndjson(ctrl.event_log).encode()
                    == device.events_to_ndjson(again.event_log).encode()
                ), seed

            # no motion while unpowered (tick-by-tick audit on a subsample)
            if round_index % 100 == 0:
                audit = device.submit_plan(device.initial_state(profile, current), plan)
                previous = audit
                guard = 0
                while previous.busy and guard < 100_000:
                    audit = device.tick(previous, dt)
                    for before, after in zip(previous.boards[:5], audit.boards[:5]):
                        for ch_b, ch_a in zip(before.channels, after.channels):
                            if ch_b.current_step != ch_a.current_step:
                                assert before.powered, seed
                    previous = audit
                    guard += 1


def test_criterion_6_protocol_roundtrip():
    with criterion(6, "protocol roundtrip", 5.0):
        rng = random.Random(0xBEEF)
        opcodes = list(Opcode)
        for index in range(10_000):
            if index == 0:
                payload = b""
            elif index == 1:
                payload = bytes(rng.randrange(256) for _ in range(255))
            else:
                payload = bytes(
                    rng.randrange(256) for _ in range(rng.randint(0, 255))
                )
            frame = Frame(rng.randrange(256), rng.choice(opcodes), payload)
            wire = encode_frame(frame)
            assert decode_frame(wire) == frame

            corrupted = bytearray(wire)
            corrupted[-1] ^= 1 << rng.randrange(8)
            try:
                decode_frame(bytes(corrupted))
                raise AssertionError("corrupted checksum accepted")
            except ChecksumError:
                pass


def test_criterion_7_scene_invariants():
    with criterion(7, "scene invariants", 30.0):
        rng = random.Random(0xD1CE)
        hours = list(range(8, 18))
        for style in GALLERY_STYLES:
            for sample in range(100):
                positions = [rng.randint(0, 10) for _ in hours]
                scene = layout(positions, hours, style)

                # label completeness
                assert [a.hour for a in scene.anchors] == hours
                if sample % 20 == 0:
                    doc = render_svg(scene)
                    assert doc.count("<text") == len(hours)

                # extent monotonicity
                measures = {}
                for glyph in scene.glyphs:
                    measures.setdefault(positions[glyph.anchor_index], []).append(
                        glyph_extent_measure(scene, glyph)
                    )
                ordered = sorted(measures)
                for p, q in zip(ordered, ordered[1:]):
                    assert max(measures[p]) < min(measures[q]), style.label()

                # two-sided mirror symmetry within 1e-6
                if style.anchoring is Anchoring.TWO_SIDED:
                    assert _mirror_mismatch(scene) <= 1e-6, style.label()

                # strict alternation
                if style.anchoring is Anchoring.ALTERNATED:
                    sides = [a.side for a in scene.anchors]
                    assert all(a != b for a, b in zip(sides, sides[1:]))

                # excessive-unfurl guard at full extent
                if style.decoration is Decoration.LEAF:
                    full = layout([10] * len(hours), hours, style)
                    for glyph in full.glyphs:
                        anchor_y = full.anchors[glyph.anchor_index].point[1]
                        top = max(y for path in glyph.paths for _, y in path.points)
                        assert top <= anchor_y + 1e-9, style.label()


def test_criterion_8_render_determinism():
    with criterion(8, "render determinism", 30.0):
        first = design_space_gallery()
        second = design_space_gallery()
        assert [doc for _, doc in first] == [doc for _, doc in second]
        for style, doc in first:
            golden = GOLDEN_DIR / f"{style.label()}.svg"
            assert golden.exists(), f"missing golden file {golden.name}"
            assert doc.encode() == golden.read_bytes(), (
                f"{golden.name} drifted from the golden bytes"
            )


def test_criterion_9_lowfi_animation():
    with criterion(9, "low-fi animation", 1.0):
        timeline = lowfi_timeline(100.0, tick_step=20.0, tick=0.32)
        assert len(timeline) == 5
        assert timeline.span == 1.6
        assert [f.extensions[0] for f in timeline.frames] == [20.0, 40.0, 60.0, 80.0, 100.0]
        stamps = [f.timestamp for f in timeline.frames]
        assert stamps == [0.32 * k for k in range(1, 6)]


def _mirror_mismatch(scene) -> float:
    """Worst distance from each anchor's glyph points, reflected across the
    vertical through the anchor, to the nearest original point.

    A point's exact partner is the point at the same path and point index
    in the opposite-side glyph of its anchor.  Where the reflection lies
    within 1e-6 of that partner, that distance stands in for the full
    nearest-point scan: the nearest point is no farther, so the verdict
    against the 1e-6 bound is the same.  Only the other points, ring points
    among them (a ring has no opposite-side glyph), cost a full scan."""
    worst = 0.0
    for index, anchor in enumerate(scene.anchors):
        glyphs = [glyph for glyph in scene.glyphs if glyph.anchor_index == index]
        points = [p for glyph in glyphs for path in glyph.paths for p in path.points]
        for glyph in glyphs:
            partner = next((g for g in glyphs if g.side != glyph.side), None)
            for k, path in enumerate(glyph.paths):
                twin = partner.paths[k].points if partner and k < len(partner.paths) else ()
                for j, (x, y) in enumerate(path.points):
                    rx = 2 * anchor.point[0] - x
                    if j < len(twin):
                        distance = math.hypot(rx - twin[j][0], y - twin[j][1])
                        if distance <= 1e-6:
                            worst = max(worst, distance)
                            continue
                    nearest = min(math.hypot(rx - ox, y - oy) for ox, oy in points)
                    worst = max(worst, nearest)
    return worst
