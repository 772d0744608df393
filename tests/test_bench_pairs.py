"""The summary arithmetic of ``scripts/bench_pairs.py`` on fixed numbers,
and its interleaved run on the working tree against itself."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

import plantchart.svg

ROOT = Path(__file__).resolve().parents[1]
_PATH = ROOT / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def side_modules() -> dict:
    """The package's and the benchmark's modules now in ``sys.modules``."""
    return {name: module for name, module in sys.modules.items()
            if bench_pairs._side_module(name)}


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


def test_the_tree_interleaved_with_itself_agrees_and_reads_a_ratio_near_one():
    before = side_modules()
    run = bench_pairs.interleave(ROOT, ROOT, "charts-gallery", seed=2, pairs=3)
    assert len(run.parent_ns) == len(run.change_ns) == 3
    q1, median, q3 = run.ratio
    assert q1 <= median <= q3 and 0.7 < median < 1 / 0.7
    assert 0 <= run.wins <= 3
    # Each side ran modules of its own, and the test's are back in place.
    parent, change = run.modules
    assert parent["plantchart.svg"] is not change["plantchart.svg"]
    assert plantchart.svg not in (parent["plantchart.svg"], change["plantchart.svg"])
    assert {"workloads", "gen", "spans", "plantchart.motion"} <= set(parent) & set(change)
    assert sys.modules["plantchart.svg"] is plantchart.svg
    assert side_modules() == before


def test_sides_whose_outcomes_differ_are_refused(tmp_path):
    other = tmp_path / "other"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, other / part,
                        ignore=shutil.ignore_patterns("__pycache__", "results", "tests"))
    workloads = other / "perfbench" / "workloads.py"
    text = workloads.read_text(encoding="utf-8")
    assert text.count('"refused": 0, "points": 0}') == 1
    workloads.write_text(text.replace('"refused": 0, "points": 0}', '"refused": 0, "points": 1}'),
                         encoding="utf-8")
    before = side_modules()
    with pytest.raises(ValueError, match="the sides disagree"):
        bench_pairs.interleave(ROOT, other, "charts-gallery", pairs=1)
    assert side_modules() == before
