#!/usr/bin/env python3
"""Benchmark of the plantchart package: one seeded workload per process.

    python3 perfbench/run.py --workload serve-plantform --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run repeats passes over seeded decks of one shape until
``--seconds`` would be exceeded, checks every output of every pass, takes
each op's fastest time over the passes, scales the times to a reference host
speed, and prints a report whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
passes alternate between untraced and traced, and the metrics are the
per-layer ones, the tracing overhead among them.  ``perfbench/README.md``
describes every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Fresh interpreters timed for ``setup_s``: half before the passes, half
# after them, so a short slow spell of the host moves only some of them.
SETUP_PROBES = 16
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# Host-speed reference: end-to-end times are scaled by this over the best
# time of ``reference_loop`` in the same process, i.e. reported at the speed
# of a host that runs the loop in 2.5 ms.
REFERENCE_LOOP_NS = 2_500_000
REFERENCE_REPS = 10


@dataclass(frozen=True)
class _Cell:
    step: int
    carry: float


def reference_loop() -> int:
    """Fixed pure-Python work of the kinds the package does: frozen
    dataclasses rebuilt in tuples, a growing tuple, float math and number
    formatting.  It calls nothing in the package."""
    cells = tuple(_Cell(i, 0.0) for i in range(10))
    log: tuple = ()
    for k in range(200):
        cells = tuple(replace(c, step=c.step + 1, carry=c.carry + 0.5) for c in cells)
        if k % 4 == 0:
            log = log + (k,)
    text = " ".join(f"{math.sin(i / 7) * 100:.3f}" for i in range(600))
    return len(log) + len(text) + sum(c.step for c in cells)


def reference_ns() -> int:
    """Best time of the reference loop over a few repetitions."""
    best = None
    for _ in range(REFERENCE_REPS):
        start = time.perf_counter_ns()
        reference_loop()
        took = time.perf_counter_ns() - start
        best = took if best is None else min(best, took)
    return best


# Set-up of each workload: import the package and build what the first op
# needs.
SETUP = {
    "serve-plantform": "from plantchart import motion, serve\n"
                       "serve.ForecastService(motion.PLANTFORM)\n"
                       "serve.FileFeed('stream.ndjson')\n",
    "frames-plantscreen": "from plantchart import render\n"
                          "render.parse_style('leaf,two-sided,curvy')\n"
                          "render.DEVICE_DIMENSIONS['plantscreen']\n",
    "charts-gallery": "from plantchart import render, svg\n"
                      "svg.GALLERY_STYLES\n"
                      "render.DEVICE_DIMENSIONS['plantform']\n",
}
# Times the set-up in a fresh interpreter, then the reference loop in the
# same interpreter, and prints both.
_PROBE = ("import sys, time\n"
          "start = time.perf_counter()\n"
          "sys.path.insert(0, sys.argv[1])\n"
          "exec(sys.argv[2], {})\n"
          "took = time.perf_counter() - start\n"
          "sys.path.insert(0, sys.argv[3])\n"
          "from run import reference_ns\n"
          "print(took, reference_ns())\n")


def setup_probes(workload: str, count: int) -> list[tuple[float, float]]:
    """Set-up times of ``count`` fresh interpreters, each as measured and
    scaled by the reference loop timed in that interpreter."""
    probes = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), SETUP[workload], str(Path(__file__).parent)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        took, reference = out.stdout.split()[-2:]
        probes.append((float(took), float(took) * REFERENCE_LOOP_NS / int(reference)))
    return probes


def percentile(sorted_values: list, p: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def tail_level(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            return p
    return 50.0


class Best:
    """Each op's fastest time over a set of passes of one deck shape, the
    sum of those times, and the time of the fastest whole pass."""

    def __init__(self, results, expect):
        for r in results[1:]:
            expect(r.refused == results[0].refused, "passes disagree on which ops are refused")
        self.op_ns = [min(times) for times in zip(*(r.op_ns for r in results))]
        self.refused = results[0].refused
        self.wall_s = (sum(self.op_ns) + min(r.extra_ns for r in results)) / 1e9
        self.whole_pass_s = min(r.wall_ns for r in results) / 1e9

    def latencies(self) -> list[int]:
        """Ascending op times; refused ops are left out."""
        return sorted(t for t, refused in zip(self.op_ns, self.refused) if not refused)


def run_passes(workload, seed: int, seconds: float, trace: bool):
    """Passes until the next one would overrun ``seconds``; with tracing,
    untraced and traced passes alternate.  The reference loop runs before
    every pass; returns its best time too."""
    from spans import Tracer

    untraced, traced, reference = [], [], []
    start = time.perf_counter()
    while True:
        tracing = trace and len(untraced) > len(traced)
        reference.append(reference_ns())
        began = time.perf_counter()
        deck = workload.deck(seed, len(untraced) + len(traced))
        result = workload.run_pass(deck, Tracer() if tracing else None)
        (traced if tracing else untraced).append(result)
        took = time.perf_counter() - began
        enough = traced if trace else untraced
        if enough and time.perf_counter() - start + took > seconds:
            return untraced, traced, min(reference)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "plantchart" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'plantchart'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = wl.WORKLOADS[args.workload](workdir, tag)
    try:
        return report(args, wl, workload)
    except wl.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.cleanup()


def report(args, wl, workload) -> int:
    import gen

    dims = json.dumps(gen.describe(args.workload, args.seed))
    print(f"workload {args.workload} seed {args.seed}: {dims}")

    probes = setup_probes(args.workload, SETUP_PROBES // 2)
    untraced, traced, reference = run_passes(workload, args.seed, args.seconds, bool(args.trace))
    probes += setup_probes(args.workload, SETUP_PROBES - SETUP_PROBES // 2)
    scale = REFERENCE_LOOP_NS / reference
    passes = untraced + traced
    if workload.same_deck_every_pass:
        for result in passes[1:]:
            wl.expect(result.exact == passes[0].exact,
                      "two passes over the same deck simulated differently")
    checked = workload.check_once(passes[0])
    if passes[0].exact:
        print("exact: " + json.dumps(passes[0].exact, sort_keys=True))

    outcome = passes[0].outcome
    meant = outcome["ops"] - outcome.get("malformed", 0)
    best = Best(untraced, wl.expect)
    ops = best.latencies()
    level = tail_level(len(ops))
    host = {
        "setup_s": statistics.median(measured for measured, _ in probes),
        "op_p50_ms": percentile(ops, 50) / 1e6,
        "op_tail_ms": percentile(ops, level) / 1e6,
        "ops_per_s": outcome["ops"] / best.wall_s,
    }
    e2e = {name: value / scale if name == "ops_per_s" else value * scale
           for name, value in host.items()}
    e2e["setup_s"] = statistics.median(scaled for _, scaled in probes)
    e2e["peak_rss_mb"] = wl.peak_rss_mb()
    extras = {
        "frames_per_s": outcome.get("frames", 0) / best.wall_s,
        "sim_speed": passes[0].exact.get("sim_s", 0.0) / best.wall_s,
        "failed_ratio": outcome["refused"] / meant,
        "ops_per_s.whole_pass": outcome["ops"] / best.whole_pass_s,
    }
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; op times are each op's "
          f"best over the untraced passes")
    print(f"reference loop best {reference / 1e6:.4f} ms; times scaled by {scale:.4f}")
    print("unscaled: " + json.dumps(host))
    print(f"op_tail_ms is p{level:g} of {len(ops)} ops; {outcome['refused']} of {meant} ops "
          f"meant to succeed were refused")
    if passes[0].op_sim_s:
        extras["serve.log_growth"] = log_growth(best.op_ns, passes[0].op_sim_s)
        print(f"host time per simulated second, last quarter of the stream over the first: "
              f"{extras['serve.log_growth']:.3f}")
    print("workload metrics: " + json.dumps(extras, sort_keys=True))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        metrics = layer_metrics(wl, workload, best, traced, checked)
        metrics.update(extras)
        names = {m["name"] for m in bench["per_layer"]}
        wl.expect(set(metrics) <= names, f"unlisted per-layer metrics {set(metrics) - names}")
        values = {m["name"]: (metrics.get(m["name"], 0), m["unit"]) for m in bench["per_layer"]}
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
        min(traced, key=lambda r: r.wall_ns).tracer.write(spans_path)
        print(f"spans of the fastest traced pass: {spans_path.relative_to(ROOT)}")
    else:
        values = {m["name"]: (e2e[m["name"]], m["unit"]) for m in bench["end_to_end"]}
    print(json.dumps({
        "correct": True,
        "attempted": sum(len(r.op_ns) for r in passes),
        "failed": 0,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }))
    return 0


def log_growth(op_ns: list[int], op_sim_s: list[float]) -> float:
    """Host time per simulated second over the last quarter of the ops,
    over the same for the first quarter.  Dividing by simulated time takes
    out the mix of window lengths, so what remains is the cost of the
    longer event log late in the stream."""
    quarter = len(op_ns) // 4
    early = sum(op_ns[:quarter]) / sum(op_sim_s[:quarter])
    late = sum(op_ns[-quarter:]) / sum(op_sim_s[-quarter:])
    return late / early


def layer_metrics(wl, workload, untraced_best, traced, checked) -> dict:
    """Per-layer numbers of the fastest traced pass, and the tracing
    overhead: best-of-passes time traced over untraced."""
    from spans import Totals, summarize

    fastest = min(traced, key=lambda r: r.wall_ns)
    totals = summarize(fastest.tracer.spans)
    none = Totals(0, 0, 0, 0)
    out = {}
    for span in ("device.run_plan", "series.load", "series.segment", "encoder.encode",
                 "motion.plan", "render.layout", "svg.render_svg"):
        out[f"{span}.calls"] = totals.get(span, none).calls
        out[f"{span}.busy_ms"] = totals.get(span, none).busy_ns / 1e6

    def ms(span, kind):
        return getattr(totals.get(span, none), kind) / 1e6

    out["series.rejects"] = totals.get("series.load", none).errors
    out["serve.feed.poll_ms"] = ms("serve.feed.poll", "busy_ns")
    out["serve.handle.self_ms"] = ms("serve.handle", "self_ns")
    out["serve.log_write_ms"] = ms("serve.log_write", "busy_ns")
    out["svg.render_frames.self_ms"] = ms("svg.render_frames", "self_ns")
    out["motion.commands"] = fastest.tracer.counts.get("motion.plan", 0)
    out["svg.bytes"] = fastest.tracer.counts.get("svg.render_svg", 0)
    out.update(workload.layer_extras(fastest, checked))
    ticks = out.get("device.ticks", 0)
    out["device.us_per_tick"] = out["device.run_plan.busy_ms"] * 1e3 / ticks if ticks else 0.0
    out["motion.display_err_s"] = wl.display_error_s()
    traced_best = Best(traced, wl.expect)
    out["trace.overhead_pct"] = 100 * (traced_best.wall_s / untraced_best.wall_s - 1)
    return out


if __name__ == "__main__":
    sys.exit(main())
