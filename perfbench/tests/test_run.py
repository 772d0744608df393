"""The command line: percentiles, a short traced run, and refusal to run
without the package source."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent.parent


def test_percentile_and_tail_level():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.tail_level(100) == 90.0
    assert run.tail_level(250) == 95.0
    assert run.tail_level(1000) == 99.0
    assert run.tail_level(40) == 75.0
    assert run.tail_level(12) == 50.0


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_short_traced_run_reports_every_per_layer_metric():
    out = _run(BENCH.parent, "--workload", "charts-gallery", "--seed", "3",
               "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in bench["per_layer"]]
    assert result["metrics"]["svg.render_svg.calls"]["value"] > 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "charts-gallery", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_log_growth_divides_out_the_simulated_time():
    # Late ops that simulate twice as long and take twice as long: no growth.
    assert run.log_growth([10, 10, 20, 20], [1.0, 1.0, 2.0, 2.0]) == 1.0
    assert run.log_growth([10, 10, 30, 30], [1.0, 1.0, 2.0, 2.0]) == 1.5
