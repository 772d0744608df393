"""The summary arithmetic of ``scripts/bench_pairs.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]


def test_quartiles_follow_the_suite():
    s = bench_pairs.summarize(PARENT, [4.0] * 10, "lower")
    assert s["parent"] == (2.75, 5.5, 8.25) and s["change"] == (4.0, 4.0, 4.0)


def test_a_lower_is_better_gain_past_the_spread_is_claimed():
    change = [v - 6.0 for v in PARENT]
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 10 and s["pairs"] == 10
    assert s["change"] == (-3.25, -0.5, 2.25)
    assert s["change_pct"] == pytest.approx(-6.0 / 5.5 * 100)
    assert s["beyond_spread"] and s["claim"]


def test_a_gap_inside_the_parent_spread_is_not_claimed():
    change = [v - 5.0 for v in PARENT]  # 5.0 is under the spread of 8.25 - 2.75
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 10 and not s["beyond_spread"] and not s["claim"]


def test_eight_wins_of_ten_are_not_claimed():
    change = [v - 6.0 for v in PARENT[:8]] + [v + 1.0 for v in PARENT[8:]]
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 8 and s["beyond_spread"] and not s["claim"]


def test_direction_and_ties():
    higher = bench_pairs.summarize(PARENT, [v + 6.0 for v in PARENT], "higher")
    assert higher["wins"] == 10 and higher["claim"]
    worse = bench_pairs.summarize(PARENT, [v + 6.0 for v in PARENT], "lower")
    assert worse["wins"] == 0 and worse["beyond_spread"] and not worse["claim"]
    tied = bench_pairs.summarize(PARENT, list(PARENT), "lower")
    assert tied["wins"] == 0 and tied["change_pct"] == 0.0 and not tied["beyond_spread"]


def test_fewer_pairs_than_the_protocol_are_not_claimed():
    assert bench_pairs.PAIRS == 10
    few = bench_pairs.summarize(PARENT[:3], [v - 6.0 for v in PARENT[:3]], "lower")
    assert few["wins"] == 3 and few["beyond_spread"] and not few["claim"]
    one = bench_pairs.summarize([5.0], [1.0], "lower")
    assert one["wins"] == 1 and one["beyond_spread"] and not one["claim"]
