import random

import pytest
from hypothesis import given, strategies as st

from oracles import (
    absolute_position_from_percent,
    relative_position_from_thousandths,
    six_step_from_percent,
)
from plantchart.encoder import (
    EncodingMode,
    FlatVariationError,
    encode_absolute,
    encode_relative,
    encode_series,
    encode_six_step,
    position_rate_interval,
)
from plantchart.fixtures import interpolate_series
from plantchart.series import ForecastSeries, Variation, segment_variations

EMITTABLE_RELATIVE = (0, 3, 4, 5, 6, 7, 10)


class TestEncodeRelative:
    @pytest.mark.parametrize(
        "rate,peak,expected",
        [
            (0.60, 0.60, 10),  # the peak itself
            (0.00, 0.80, 0),
            (0.12, 0.80, 3),  # ratio 0.15
            (0.40, 0.80, 4),  # ratio 0.5, upper edge of its bin
            (0.56, 0.80, 5),  # ratio 0.7
            (0.68, 0.80, 6),  # ratio 0.85
            (0.76, 0.80, 7),  # ratio 0.95
            (0.08, 0.80, 0),  # ratio 0.1, still the first bin
        ],
    )
    def test_bin_table(self, rate, peak, expected):
        assert encode_relative(rate, peak) == expected

    def test_all_thousandth_ratios_match_the_table(self):
        for k in range(1001):
            assert encode_relative(k / 1000, 1.0) == relative_position_from_thousandths(k), k

    def test_flat_variation_rejected(self):
        with pytest.raises(FlatVariationError, match="^peak rate is zero"):
            encode_relative(0.0, 0.0)

    def test_rate_above_peak_rejected(self):
        with pytest.raises(ValueError, match="^rate 0.9 exceeds peak rate 0.8$"):
            encode_relative(0.9, 0.8)

    @pytest.mark.parametrize("rate, peak, message", [
        (float("nan"), 1.0, r"^rate nan out of range \[0.0, 1.0\]$"),
        (-0.5, 1.0, r"^rate -0.5 out of range \[0.0, 1.0\]$"),
        (0.5, float("nan"), "^peak rate must be a finite number, got nan$"),
        (0.5, float("inf"), "^peak rate must be a finite number, got inf$"),
        (float("inf"), float("inf"), "^peak rate must be a finite number, got inf$"),
        (True, 1.0, r"^rate True out of range \[0.0, 1.0\]$"),
        (0.5, True, "^peak rate must be a finite number, got True$"),
    ])
    def test_rate_outside_zero_to_a_finite_peak_rejected(self, rate, peak, message):
        with pytest.raises(ValueError, match=message):
            encode_relative(rate, peak)

    def test_near_peak_tolerance(self):
        assert encode_relative(1.0 - 1e-12, 1.0) == 10
        assert encode_relative(1.0 - 1e-6, 1.0) == 7

    @given(st.integers(0, 1000), st.integers(1, 10))
    def test_monotone_in_rate_for_fixed_peak(self, k, peak_tenths):
        peak = peak_tenths / 10
        rate = k / 1000 * peak
        higher = min(peak, rate + 0.01 * peak)
        assert encode_relative(rate, peak) <= encode_relative(higher, peak)


class TestEncodeAbsolute:
    @pytest.mark.parametrize("rate,expected", [(1.0, 10), (0.0, 0), (0.46, 5)])
    def test_examples(self, rate, expected):
        assert encode_absolute(rate) == expected

    def test_all_percent_values_match_decimal_half_up(self):
        for k in range(101):
            assert encode_absolute(k / 100) == absolute_position_from_percent(k), k

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_absolute(1.2)
        with pytest.raises(ValueError, match=r"^rate True out of range \[0.0, 1.0\]$"):
            encode_absolute(True)


class TestEncodeSixStep:
    @pytest.mark.parametrize("rate,expected", [(0.0, 0), (1.0, 5), (0.5, 3)])
    def test_examples(self, rate, expected):
        assert encode_six_step(rate) == expected

    def test_all_percent_values_match_enumerated_thresholds(self):
        for k in range(101):
            assert encode_six_step(k / 100) == six_step_from_percent(k), k

    @pytest.mark.parametrize("rate", [1.2, -0.1, float("nan"), True])
    def test_out_of_range(self, rate):
        with pytest.raises(ValueError, match=rf"^rate {rate!r} out of range \[0.0, 1.0\]$"):
            encode_six_step(rate)


class TestEncodeSeries:
    def test_unimodal_positions_rise_through_the_bins(self):
        series = interpolate_series(8, 12, 17)
        (variation,) = segment_variations(series)
        positions = encode_series(series, variation, EncodingMode.PEAK_RELATIVE)
        assert positions == [0, 4, 4, 5, 10, 5, 5, 4, 3, 0]
        assert set(positions) <= set(EMITTABLE_RELATIVE)

    def test_flat_zero_series_encodes_all_zero_absolute(self):
        series = ForecastSeries(hours=(8, 9, 10), rates=(0.0, 0.0, 0.0))
        assert [encode_absolute(r) for r in series.rates] == [0, 0, 0]

    def test_each_variation_peak_maps_to_10(self):
        rates = (0.0, 0.6, 0.2, 0.8, 0.0)
        series = ForecastSeries(hours=tuple(range(8, 13)), rates=rates)
        first, second = segment_variations(series)
        first_pos = encode_series(series, first, EncodingMode.PEAK_RELATIVE)
        second_pos = encode_series(series, second, EncodingMode.PEAK_RELATIVE)
        # each variation normalizes by its own peak
        assert first_pos[1] == 10
        assert second_pos[3] == 10
        # hours outside the displayed variation stay furled
        assert first_pos[3] == first_pos[4] == 0
        assert second_pos[0] == second_pos[1] == 0

    def test_peak_emphasis_exactly_at_peak_rate(self):
        series = interpolate_series(8, 12, 17)
        (variation,) = segment_variations(series)
        positions = encode_series(series, variation)
        for hour, rate, position in zip(series.hours, series.rates, positions):
            if rate == variation.peak_rate:
                assert position == 10
            else:
                assert position != 10

    def test_foreign_variation_rejected(self):
        series = interpolate_series(8, 12, 17)
        other = segment_variations(interpolate_series(9, 13, 17))[0]
        with pytest.raises(ValueError):
            encode_series(series, other)

    def test_a_variation_outside_the_series_is_refused(self):
        series = ForecastSeries(hours=(8, 9, 10), rates=(0.0, 0.5, 0.0))
        outside = Variation(start=9, peak=10, end=11, rates=(0.5, 1.0, 0.0))
        with pytest.raises(ValueError, match=r"^variation 9\.\.11 lies outside the series$"):
            encode_series(series, outside)

    @pytest.mark.parametrize("mode", ["absolute", "six-step", None])
    def test_a_mode_that_is_not_an_encoding_mode_is_refused(self, mode):
        series = ForecastSeries(hours=(8, 9, 10), rates=(0.0, 0.5, 0.0))
        (variation,) = segment_variations(series)
        message = f"^mode must be an EncodingMode, got {mode!r}$"
        with pytest.raises(ValueError, match=message):
            encode_series(series, variation, mode)
        with pytest.raises(ValueError, match=message):
            position_rate_interval(0, mode)

    def test_absolute_mode_ignores_the_peak(self):
        series = ForecastSeries(hours=(8, 9, 10), rates=(0.0, 0.5, 0.0))
        (variation,) = segment_variations(series)
        assert encode_series(series, variation, EncodingMode.ABSOLUTE_LINEAR) == [0, 5, 0]


class TestPositionRateInterval:
    def test_bin_example(self):
        assert position_rate_interval(4) == (0.2, 0.5)

    def test_peak_interval_is_a_point(self):
        assert position_rate_interval(10) == (1.0, 1.0)

    def test_unreachable_positions_error(self):
        for p in (1, 2, 8, 9):
            with pytest.raises(ValueError):
                position_rate_interval(p)

    @pytest.mark.parametrize("position, mode", [
        (False, EncodingMode.PEAK_RELATIVE),
        (True, EncodingMode.ABSOLUTE_LINEAR),
        (True, EncodingMode.SIX_STEP),
    ])
    def test_a_bool_is_not_a_position(self, position, mode):
        with pytest.raises(ValueError):
            position_rate_interval(position, mode)

    def test_relative_intervals_partition_the_unit_range(self):
        intervals = [position_rate_interval(p) for p in EMITTABLE_RELATIVE]
        intervals.sort()
        assert intervals[0][0] == 0.0
        assert intervals[-1][1] == 1.0
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert hi1 == lo2

    def test_encoded_ratio_lands_in_its_interval(self):
        rng = random.Random(42)
        for _ in range(10_000):
            ratio = rng.random()
            position = encode_relative(ratio, 1.0)
            lo, hi = position_rate_interval(position)
            if position == 10:
                assert abs(ratio - 1.0) <= 1e-9
            elif position == 0:
                assert lo <= ratio <= hi
            else:
                assert lo < ratio <= hi or (position == 7 and lo < ratio < 1.0)

    def test_round_trip_midpoints(self):
        for p in EMITTABLE_RELATIVE:
            lo, hi = position_rate_interval(p)
            assert encode_relative((lo + hi) / 2, 1.0) == p

    def test_absolute_round_trip_midpoints(self):
        for p in range(11):
            lo, hi = position_rate_interval(p, EncodingMode.ABSOLUTE_LINEAR)
            assert encode_absolute((lo + hi) / 2) == p

    def test_six_step_round_trip_midpoints(self):
        for s in range(6):
            lo, hi = position_rate_interval(s, EncodingMode.SIX_STEP)
            assert encode_six_step((lo + hi) / 2) == s
