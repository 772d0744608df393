#!/usr/bin/env python3
"""Run every workload, its output checks and its traced run in one command,
over several seeds, and report each metric's median and quartiles.

    python3 perfbench/suite.py                       # seed 1, untraced and traced
    python3 perfbench/suite.py --seeds 10 --sets 2 --out perfbench/results/steadiness.json

Every workload of ``BENCHMARK.json`` runs for its ``run_seconds``, each run
in its own process (``run.py``); the traced run uses the first seed.  The
spread of a metric is the distance between its first and third quartile over
the seeds, as a share of the median; it is compared with the metric's bound
in ``BENCHMARK.json``.  The times ``run.py`` reports are scaled to a
reference host speed; the unscaled times it prints are summarized next to
them, so the two spreads can be compared.  With ``--sets 2`` the seeds run
twice, and the second set's medians and the exact simulated statistics of
every seed are compared with the first's.  Exits nonzero when a run fails,
its checks fail, or a spread or drift is over its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for key in ("exact", "unscaled"):
        found = [line for line in lines if line.startswith(f"{key}: ")]
        result[key] = json.loads(found[0][len(key) + 2:]) if found else {}
    result["report"] = lines[:-1]
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        stats = quartiles(values)
        stats["bound"] = metric.get("bound")
        stats["values"] = values
        out[metric["name"]] = stats
    return out


def summarize_unscaled(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["unscaled"]:
        values = [r["unscaled"][name] for r in runs]
        out[name] = {**quartiles(values), "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1, help="seeds 1..N")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--out", type=Path, help="write the report here (JSON)")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = list(range(1, args.seeds + 1))
    report = {"seconds": seconds, "seeds": seeds, "python": sys.version.split()[0],
              "workloads": {}}
    failures = []
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            runs = []
            for seed in seeds:
                began = time.perf_counter()
                runs.append(run(workload, seed, seconds, 0))
                values = {k: round(v["value"], 6) for k, v in runs[-1]["metrics"].items()}
                print(f"{workload} seed {seed} ({time.perf_counter() - began:.1f} s): "
                      f"{json.dumps(values)}", flush=True)
            sets.append(runs)
        entry = {"sets": [summarize(runs, bench["end_to_end"]) for runs in sets],
                 "unscaled": [summarize_unscaled(runs) for runs in sets],
                 "exact": [[r["exact"] for r in runs] for runs in sets]}
        for number, (summary, unscaled) in enumerate(zip(entry["sets"], entry["unscaled"]), 1):
            for name, stats in summary.items():
                steady = stats["spread"] <= stats["bound"] / 3
                print(f"  set {number} {name:12} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                      f"q3 {stats['q3']:.6g}  spread {stats['spread']:.3f}  bound {stats['bound']}"
                      f"{'' if steady else '  UNSTEADY'}")
                if stats["spread"] > stats["bound"]:
                    failures.append(f"{workload} set {number} {name}: spread "
                                    f"{stats['spread']:.3f} over bound")
            for name, stats in unscaled.items():
                print(f"  set {number} {name:12} unscaled median {stats['median']:.6g}  "
                      f"spread {stats['spread']:.3f}")
        if args.sets == 2:
            entry["drift"] = {}
            for metric in bench["end_to_end"]:
                a = entry["sets"][0][metric["name"]]["median"]
                b = entry["sets"][1][metric["name"]]["median"]
                worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                entry["drift"][metric["name"]] = worse
                print(f"  {metric['name']:12} second set worse by {worse:+.3f} (bound {metric['bound']})")
                if worse > metric["bound"]:
                    failures.append(f"{workload} {metric['name']}: second set worse by {worse:.3f}")
            same = entry["exact"][0] == entry["exact"][1]
            entry["exact_identical"] = same
            print(f"  exact simulated statistics identical between sets: {same}")
            if not same:
                failures.append(f"{workload}: exact statistics differ between sets")
        traced = run(workload, seeds[0], seconds, 1)
        entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_report"] = traced["report"]
        print(f"  traced seed {seeds[0]}: " + json.dumps(entry["traced"]))
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
