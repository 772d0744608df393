"""A wrong expected output makes each check fail."""

import json
import shutil

import gen
import pytest
import workloads as wl
from plantchart import render, serve
from plantchart.motion import PLANTFORM

GOLDEN = wl.GOLDEN_DIR


def test_gallery_matches_golden():
    assert wl.check_gallery(GOLDEN) == 10


def test_gallery_check_fails_on_a_changed_golden_byte(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    victim = sorted(golden.iterdir())[3]
    data = bytearray(victim.read_bytes())
    data[-10] ^= 1
    victim.write_bytes(bytes(data))
    with pytest.raises(wl.CheckFailed, match=victim.name):
        wl.check_gallery(golden)


def _serve(stream):
    service = serve.ForecastService(PLANTFORM)
    accepted = sum(service.handle_payload(p.line) for p in stream)
    return service, accepted


def test_serve_check_passes_and_fails_on_a_wrong_field_path():
    stream = gen.serve_stream(4, n=30)
    service, accepted = _serve(stream)
    from plantchart import device

    positions = device.leaf_positions(service.controller)
    wl.check_serve(stream, service.rejected, accepted, service.displayed, positions)
    k = next(i for i, p in enumerate(stream) if p.fault)
    wrong = list(stream)
    wrong[k] = gen.Payload(stream[k].line, None, stream[k].fault, "samples[99].hour")
    with pytest.raises(wl.CheckFailed, match="samples"):
        wl.check_serve(wrong, service.rejected, accepted, service.displayed, positions)
    with pytest.raises(wl.CheckFailed, match="final leaf positions"):
        wl.check_serve(stream, service.rejected, accepted, service.displayed,
                       [p + 1 for p in positions])


def test_event_log_check_fails_on_time_going_back_and_relay_left_on():
    good = [{"t": 0.0, "kind": "relay", "detail": {"on": True}, "board": None},
            {"t": 1.0, "kind": "relay", "detail": {"on": False}, "board": None}]
    text = "".join(json.dumps(r) + "\n" for r in good)
    assert wl.relay_on_seconds(wl.check_event_log(text)) == 1.0
    with pytest.raises(wl.CheckFailed, match="decreases"):
        wl.check_event_log("".join(json.dumps(r) + "\n" for r in reversed(good)))
    with pytest.raises(wl.CheckFailed, match="relay"):
        wl.check_event_log(json.dumps(good[0]) + "\n")


def test_frames_check_fails_on_a_wrong_last_frame():
    bench = wl.FramesPlantscreen(None, "test")
    animation = next(a for a in gen.frames_deck(1) if a.refusal is None)
    targets, docs = bench.animate(animation, wl._Calls(None))
    scene = render.layout(targets, animation.hours, bench.style, bench.dims)
    wl.check_frames(animation, docs, wl._render_svg(scene))
    with pytest.raises(wl.CheckFailed, match="last frame"):
        wl.check_frames(animation, docs, docs[0])
    with pytest.raises(wl.CheckFailed, match="frames for"):
        wl.check_frames(animation, docs[:-1], docs[-2])


def test_chart_check_fails_on_a_wrong_path_count():
    from plantchart.svg import GALLERY_STYLES, render_svg

    style = GALLERY_STYLES[7]
    doc = render_svg(render.layout([0, 4, 10, 5], [9, 10, 11, 12], style))
    wl.check_chart(style, 4, doc)
    with pytest.raises(wl.CheckFailed, match="paths"):
        wl.check_chart(style, 5, doc)
