import codecs
import math
import random

import pytest
from hypothesis import given, settings

HUGE = "9" * 1_000_000

from strategies import MISSHAPEN_DOCUMENTS, UNPARSABLE_DOCUMENTS, grid_series
from oracles import brute_force_variations
from plantchart._checks import QUOTE_LIMIT
from plantchart.fixtures import interpolate_series
from plantchart.series import (
    ForecastDocumentError,
    ForecastSeries,
    Variation,
    load_series,
    peak_hour,
    read_series,
    segment_variations,
    slope_ranges,
    storage_advice,
)
from plantchart.serve import FileFeed


def series_of(rates, start=8):
    return ForecastSeries(
        hours=tuple(range(start, start + len(rates))), rates=tuple(rates)
    )


def anchor_triples(series):
    return [(v.start, v.peak, v.end) for v in segment_variations(series)]


class TestSegmentVariations:
    def test_unimodal_workday(self):
        # 10-hour day rising 8:00 -> 12:00 then falling to 17:59
        series = interpolate_series(8, 12, 17)
        assert anchor_triples(series) == [(8, 12, 17)]

    def test_all_zero_series_has_no_variation(self):
        assert segment_variations(series_of([0.0] * 10)) == []

    def test_flat_nonzero_series_has_no_variation(self):
        assert segment_variations(series_of([0.4] * 5)) == []

    def test_bimodal_series(self):
        # minima at 8, 12, 17; maxima at 10, 15
        rates = [0.0, 0.5, 1.0, 0.6, 0.2, 0.5, 0.7, 0.9, 0.4, 0.0]
        assert anchor_triples(series_of(rates)) == [(8, 10, 12), (12, 15, 17)]

    def test_monotone_rise_peaks_at_the_end(self):
        assert anchor_triples(series_of([0.0, 0.5, 1.0])) == [(8, 10, 10)]

    def test_monotone_fall_peaks_at_the_start(self):
        assert anchor_triples(series_of([1.0, 0.5, 0.0])) == [(8, 8, 10)]

    def test_peak_plateau_anchors_at_first_hour(self):
        assert anchor_triples(series_of([0.0, 1.0, 1.0, 0.0])) == [(8, 9, 11)]

    def test_boundary_minimum_is_shared(self):
        variations = segment_variations(series_of([0.0, 1.0, 0.0, 1.0, 0.0]))
        assert [(v.start, v.peak, v.end) for v in variations] == [(8, 9, 10), (10, 11, 12)]
        assert variations[0].rates[-1] == variations[1].rates[0]

    def test_variations_carry_the_series_rates(self):
        series = series_of([0.2, 0.8, 0.1, 0.6, 0.3])
        first, second = segment_variations(series)
        assert first.rates == (0.2, 0.8, 0.1)
        assert second.rates == (0.1, 0.6, 0.3)


class TestTiling:
    @given(grid_series())
    def test_variations_tile_the_series(self, series):
        variations = segment_variations(series)
        if not variations:
            assert len(set(series.rates)) == 1
            return
        assert variations[0].start == series.hours[0]
        assert variations[-1].end == series.hours[-1]
        for prev, nxt in zip(variations, variations[1:]):
            assert prev.end == nxt.start
        covered = []
        for v in variations:
            covered.extend(v.hours if v is variations[0] else v.hours[1:])
        assert covered == list(series.hours)

    @given(grid_series())
    def test_idempotence_on_single_variations(self, series):
        for variation in segment_variations(series):
            if len(variation.rates) < 3:
                continue  # too short to stand alone as a series
            sub = ForecastSeries(hours=variation.hours, rates=variation.rates)
            again = segment_variations(sub)
            assert [(v.start, v.peak, v.end) for v in again] == [
                (variation.start, variation.peak, variation.end)
            ]


class TestOracleEquivalence:
    @given(grid_series())
    @settings(max_examples=300)
    def test_matches_brute_force_scanner(self, series):
        expected = brute_force_variations(series.rates)
        got = [
            (series.hours.index(v.start), series.hours.index(v.peak), series.hours.index(v.end))
            for v in segment_variations(series)
        ]
        assert got == expected

    def test_exhaustive_short_series(self):
        # every grid series of length 3 (11^3 of them)
        for a in range(11):
            for b in range(11):
                for c in range(11):
                    rates = (a / 10, b / 10, c / 10)
                    series = series_of(rates)
                    got = [
                        (v.start - 8, v.peak - 8, v.end - 8)
                        for v in segment_variations(series)
                    ]
                    assert got == brute_force_variations(rates), rates

    def test_random_sample(self):
        rng = random.Random(7)
        for _ in range(5000):
            length = rng.randint(3, 10)
            rates = tuple(rng.randint(0, 10) / 10 for _ in range(length))
            series = series_of(rates)
            got = [
                (v.start - 8, v.peak - 8, v.end - 8) for v in segment_variations(series)
            ]
            assert got == brute_force_variations(rates), rates


class TestTaskOracles:
    def test_peak_hour_of_the_monday_variation(self):
        (variation,) = segment_variations(interpolate_series(8, 12, 17))
        assert peak_hour(variation) == 12

    def test_peak_hour_short_evening_variation(self):
        (variation,) = segment_variations(interpolate_series(15, 16, 17))
        assert peak_hour(variation) == 16

    def test_peak_hour_is_first_argmax(self):
        (variation,) = segment_variations(series_of([0.0, 1.0, 1.0, 0.0]))
        assert peak_hour(variation) == 9
        assert variation.rates.index(max(variation.rates)) == peak_hour(variation) - variation.start

    @given(grid_series())
    def test_peak_hour_equals_argmax(self, series):
        for v in segment_variations(series):
            assert v.rates[v.peak - v.start] == max(v.rates)
            # earliest occurrence within the variation's plateau of the max
            first = v.start + v.rates.index(max(v.rates))
            assert peak_hour(v) == first

    def test_slope_ranges(self):
        (variation,) = segment_variations(interpolate_series(8, 11, 15))
        assert slope_ranges(variation) == ((8, 11), (11, 15))

    def test_slope_ranges_empty_ascending(self):
        variation = Variation(start=10, peak=10, end=13, rates=(1.0, 0.6, 0.3, 0.0))
        ranges = slope_ranges(variation)
        assert ranges.ascending is None
        assert ranges.descending == (10, 13)

    def test_slope_ranges_short_afternoon(self):
        (variation,) = segment_variations(interpolate_series(12, 14, 15))
        assert slope_ranges(variation) == ((12, 14), (14, 15))

    def test_storage_advice(self):
        (variation,) = segment_variations(interpolate_series(10, 16, 17))
        assert storage_advice(variation) == (16, 10)

    def test_storage_advice_degenerate_rise(self):
        variation = Variation(start=8, peak=8, end=9, rates=(0.9, 0.1))
        assert storage_advice(variation) == (8, 8)

    def test_storage_advice_bambhisto_row(self):
        (variation,) = segment_variations(interpolate_series(13, 16, 17))
        assert storage_advice(variation) == (16, 13)


class TestVariationInvariants:
    def test_rejects_unordered_anchors(self):
        with pytest.raises(ValueError):
            Variation(start=10, peak=9, end=12, rates=(0.0, 0.5, 1.0, 0.0))

    def test_rejects_fall_before_peak(self):
        with pytest.raises(ValueError):
            Variation(start=8, peak=10, end=11, rates=(0.5, 0.2, 1.0, 0.0))

    def test_rejects_rise_after_peak(self):
        with pytest.raises(ValueError):
            Variation(start=8, peak=9, end=11, rates=(0.0, 1.0, 0.2, 0.4))

    def test_rejects_rates_that_do_not_span_the_hours(self):
        with pytest.raises(ValueError, match=r"^rates length 2 does not span hours 8\.\.10$"):
            Variation(start=8, peak=9, end=10, rates=(0.0, 1.0))

    def test_rejects_a_peak_hour_without_the_maximum_rate(self):
        # A NaN at the peak passes both slope checks, but it is not the maximum.
        with pytest.raises(ValueError, match="^peak hour must carry the maximum rate$"):
            Variation(start=8, peak=9, end=10, rates=(0.0, math.nan, 0.5))

    def test_series_hours_and_rates_must_match_in_length(self):
        with pytest.raises(ValueError, match="^hours and rates differ in length: 3 != 2$"):
            ForecastSeries(hours=(8, 9, 10), rates=(0.1, 0.2))


class TestLoadSeries:
    def test_csv_roundtrip(self):
        doc = "hour,rate\n" + "\n".join(f"{h},{(h - 8) / 10}" for h in range(8, 18))
        series = load_series(doc)
        assert len(series) == 10
        assert series.hours[0] == 8
        assert series.rates[2] == pytest.approx(0.2)

    def test_json_roundtrip(self):
        doc = (
            '{"date": "2024-06-03", "samples": ['
            '{"hour": 8, "rate": 0.0}, {"hour": 9, "rate": 0.5}, {"hour": 10, "rate": 1.0}]}'
        )
        series = load_series(doc)
        assert series.date == "2024-06-03"
        assert series.rates == (0.0, 0.5, 1.0)

    def test_rate_out_of_range_names_the_sample(self):
        doc = "hour,rate\n8,0.1\n9,1.3\n10,0.2"
        with pytest.raises(ForecastDocumentError) as err:
            load_series(doc)
        assert err.value.path == "samples[1].rate"
        assert "1.3" in str(err.value)

    def test_non_contiguous_hours(self):
        doc = "hour,rate\n8,0.1\n9,0.2\n11,0.3"
        with pytest.raises(ForecastDocumentError) as err:
            load_series(doc)
        assert err.value.path == "samples[2].hour"

    def test_hour_out_of_range(self):
        doc = "hour,rate\n6,0.1\n7,0.2\n8,0.3"
        with pytest.raises(ForecastDocumentError) as err:
            load_series(doc)
        assert "samples[0].hour" == err.value.path

    def test_too_short(self):
        with pytest.raises(ForecastDocumentError):
            load_series("hour,rate\n8,0.1\n9,0.2")

    def test_bad_header(self):
        with pytest.raises(ForecastDocumentError) as err:
            load_series("h,r\n8,0.1\n9,0.2\n10,0.3")
        assert err.value.path == "header"

    def test_malformed_json(self):
        with pytest.raises(ForecastDocumentError):
            load_series('{"samples": [')

    @pytest.mark.parametrize("name", sorted(UNPARSABLE_DOCUMENTS))
    def test_unparsable_document_is_a_document_error(self, name):
        document, reason = UNPARSABLE_DOCUMENTS[name]
        with pytest.raises(ForecastDocumentError) as err:
            load_series(document)
        assert err.value.path == "document"
        assert reason in str(err.value)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_csv_lines_may_end_in_any_newline(self, newline):
        doc = newline.join(["hour,rate", "8,0.1", "9,0.6", "10,0.2"]).encode()
        assert load_series(doc).rates == (0.1, 0.6, 0.2)

    @pytest.mark.parametrize("text", [
        "hour,rate\n8,0.1\n9,0.6\n10,0.2\n",
        '{"samples": [{"hour": 8, "rate": 0.1}, {"hour": 9, "rate": 0.6}, '
        '{"hour": 10, "rate": 0.2}]}',
    ], ids=["csv", "json"])
    def test_a_byte_order_mark_is_not_part_of_the_document(self, tmp_path, text):
        """Spreadsheets export "CSV UTF-8" with a leading byte-order mark."""
        marked = codecs.BOM_UTF8 + text.encode()
        path = tmp_path / "forecast"
        path.write_bytes(marked)
        loaded = [load_series(marked), read_series(path)]
        if "\n" not in text:  # a feed carries one document per line
            path.write_bytes(marked + b"\n")
            loaded.append(load_series(FileFeed(path).poll()))
        assert loaded == [load_series(text)] * len(loaded)

    @pytest.mark.parametrize("document, path", [
        pytest.param(f'{{"samples": [{{"hour": 8, "rate": "{HUGE}"}}]}}', "samples[0].rate",
                     id="rate-text"),
        pytest.param(f'{{"samples": [{{"hour": 8, "rate": ["{HUGE}"]}}]}}', "samples[0].rate",
                     id="rate-list"),
        pytest.param(f'{{"samples": [{{"hour": "{HUGE}", "rate": 0.5}}]}}', "samples[0].hour",
                     id="hour-text"),
        pytest.param(f'{{"samples": [{{"hour": {"9" * 4000}, "rate": 0.5}}]}}',
                     "samples[0].hour", id="hour-4000-digits"),
        pytest.param(f'{{"date": ["{HUGE}"], "samples": []}}', "date", id="date-list"),
        # A CSV field holds at most 131,072 characters.
        pytest.param("hour,rate\n8," + "x" * 100_000, "samples[0].rate", id="csv-rate"),
        pytest.param("hour,rate\n" + "x" * 100_000 + ",0.5", "samples[0].hour", id="csv-hour"),
        pytest.param("hour," + ",".join(["9" * 100_000] * 10), "header", id="csv-header"),
    ])
    def test_a_huge_bad_value_is_quoted_in_part(self, document, path):
        with pytest.raises(ForecastDocumentError) as err:
            load_series(document)
        assert err.value.path == path
        message = str(err.value)
        assert message.startswith(f"{path}: ")
        assert len(message) <= len(path) + QUOTE_LIMIT + 60
        assert "..." in message

    @pytest.mark.parametrize("document, message", [
        ("hour,rate\n8,0.1\n9,1.3\n10,0.2", "samples[1].rate: rate 1.3 out of range [0.0, 1.0]"),
        ('{"samples": [{"hour": 8, "rate": "high"}]}', "samples[0].rate: expected a number, got 'high'"),
        ('{"samples": [{"hour": 7.5, "rate": 0.5}]}',
         "samples[0].hour: expected an integer hour, got 7.5"),
        ('{"samples": [{"hour": 99, "rate": 0.5}]}', "samples[0].hour: hour 99 out of range [8, 18]"),
        ('{"date": 20240603, "samples": []}', "date: expected a string, got 20240603"),
        ("h,r\n8,0.1", "header: expected 'hour,rate', got 'h,r'"),
        # Text that opens with "{" parses to an object or not at all.
        pytest.param("{} []", "document: invalid JSON: Extra data: line 1 column 4 (char 3)",
                     id="json-object-then-a-list"),
        *(pytest.param(*case, id=name) for name, case in MISSHAPEN_DOCUMENTS.items()),
    ])
    def test_a_short_bad_value_is_quoted_whole(self, document, message):
        with pytest.raises(ForecastDocumentError) as err:
            load_series(document)
        assert str(err.value) == message

    def test_an_integer_past_the_digit_limit_is_a_document_error(self):
        with pytest.raises(ForecastDocumentError) as err:
            load_series(f'{{"samples": [{{"hour": 8, "rate": {HUGE}}}]}}')
        assert err.value.path == "document"
        assert str(err.value).startswith("document: invalid JSON: Exceeds the limit")
