"""The generator: same seed, same bytes; days segment as they were built."""

import json

import gen
import pytest
from plantchart.encoder import encode_series
from plantchart.series import ForecastDocumentError, load_series, segment_variations


@pytest.mark.parametrize("make", [gen.serve_stream, gen.frames_deck, gen.charts_deck])
def test_same_seed_same_deck(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


@pytest.mark.parametrize("make, shape", [
    (gen.frames_deck, lambda a: (len(a.hours), a.refusal)),
    (gen.charts_deck, lambda c: (len(c.hours), c.style_index)),
])
def test_variants_share_the_deck_shape(make, shape):
    first, second = make(7, 0), make(7, 1)
    assert first != second
    assert [shape(x) for x in first] == [shape(x) for x in second]
    assert [shape(x) for x in first] != [shape(x) for x in make(8, 0)]


def test_same_seed_same_stream_bytes():
    lines = [p.line for p in gen.serve_stream(3)]
    assert lines == [p.line for p in gen.serve_stream(3)]
    assert all("\n" not in line for line in lines)


def test_days_segment_into_the_variations_they_were_built_from():
    for payload in gen.serve_stream(11):
        if payload.day is None:
            continue
        day = payload.day
        series = load_series(payload.line)
        found = segment_variations(series)
        assert [(v.start, v.peak, v.end) for v in found] == [
            (v.start, v.peak, v.end) for v in day.variations
        ]
        for built, variation in zip(day.variations, found):
            assert encode_series(series, variation) == day.positions(built)


def test_every_malformed_payload_names_its_field():
    stream = gen.serve_stream(5)
    faults = [p for p in stream if p.fault]
    assert len(faults) == len(stream) // gen.MALFORMED_EVERY
    assert {p.fault for p in faults} == set(gen.MALFORMED_KINDS)
    for payload in faults:
        with pytest.raises(ForecastDocumentError) as info:
            load_series(payload.line)
        assert info.value.path == payload.fault_path


def test_refused_inputs_are_kept():
    deck = gen.frames_deck(2)
    reasons = {a.refusal for a in deck}
    assert "shorter than the 3-hour chart minimum" in reasons
    assert None in reasons
    refused_at_18 = [p for p in gen.serve_stream(2) if p.day and not p.displayed_targets()[1]]
    assert refused_at_18


def test_describe_reports_traffic_dimensions():
    dims = gen.describe("serve-plantform", 1)
    assert dims["malformed_share"] == pytest.approx(0.1)
    assert set(dims["window_hours"]) == set(gen.WINDOWS)
    assert set(dims["variations_per_day"]) <= set(gen.VARIATION_COUNTS)
    charts = gen.describe("charts-gallery", 1)
    assert len(set(charts["style_mix"].values())) == 1
    json.dumps(gen.describe("frames-plantscreen", 1))
