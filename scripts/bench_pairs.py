#!/usr/bin/env python3
"""Compare two revisions on one benchmark workload in alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload charts-gallery

Both revisions are exported with ``git archive`` into a temporary directory,
and each export's ``perfbench/suite.py`` runs its ``perfbench/run.py`` with
``PYTHONDONTWRITEBYTECODE=1``, so no run reads bytecode that another left.
There are :data:`PAIRS` pairs of runs, each as long as the parent's
``BENCHMARK.json`` says.  Pair ``k`` runs seed ``k`` on both sides; odd pairs
run the parent first and even pairs the change first, so a slow spell of the
host falls on both.

For each end-to-end metric of the parent's ``BENCHMARK.json`` the report gives
each side's median and quartiles, by the suite's quantile rule, the pairs the
change won, and whether the medians lie further apart than the parent's
quartile spread.  A gain is claimed only over :data:`PAIRS` pairs or more,
when the change wins at least 9 pairs in 10 and its median is better by more
than that spread.  The report also says whether both sides printed the same
``exact:`` line on every seed.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Pairs of runs per comparison, and the fewest that a claim rests on.
PAIRS = 10


def load_suite(root: Path):
    """``perfbench/suite.py`` of the tree at ``root``; its ``run`` runs that tree."""
    spec = importlib.util.spec_from_file_location(f"suite_{root.name}",
                                                  root / "perfbench" / "suite.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    return suite


quartiles = load_suite(ROOT).quartiles


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over the pairs: ``parent[k]`` and ``change[k]`` come from
    pair ``k``; ``better`` is ``"lower"`` or ``"higher"``."""
    sign = 1 if better == "higher" else -1
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    beyond = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
    pairs = len(parent)
    return {
        "parent": (p["q1"], p["median"], p["q3"]),
        "change": (c["q1"], c["median"], c["q3"]),
        "wins": wins,
        "pairs": pairs,
        "change_pct": (100 * (c["median"] - p["median"]) / p["median"]
                       if p["median"] else float("inf")),
        "beyond_spread": beyond,
        "claim": (pairs >= PAIRS and beyond and sign * (c["median"] - p["median"]) > 0
                  and 10 * wins >= 9 * pairs),
    }


def export(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    into.mkdir()
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return into


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)

    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        suites = {side: load_suite(export(rev, Path(tmp, side)))
                  for side, rev in (("parent", args.parent), ("change", args.change))}
        bench = json.loads(Path(tmp, "parent", "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = bench["run_seconds"]
        results = {"parent": [], "change": []}
        same_exact = True
        for seed in range(1, PAIRS + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            exact = {}
            for side in order:
                result = suites[side].run(args.workload, seed, seconds, 0)
                results[side].append({k: m["value"] for k, m in result["metrics"].items()})
                exact[side] = result["exact"]
            same_exact = same_exact and exact["parent"] == exact["change"]
            print(f"pair {seed} ({order[0]} first): "
                  + json.dumps({side: {k: round(v, 6) for k, v in results[side][-1].items()}
                                for side in ("parent", "change")}), flush=True)

    print(f"{args.workload}: {PAIRS} pairs of {seconds:g} s runs, {args.parent} -> {args.change}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        s = summarize([r[name] for r in results["parent"]], [r[name] for r in results["change"]],
                      metric["better"])
        (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
        print(f"  {name:12} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} "
              f"[{c1:.6g}, {c3:.6g}]  {s['change_pct']:+.1f} %  wins {s['wins']}/{s['pairs']}  "
              f"beyond parent spread: {'yes' if s['beyond_spread'] else 'no'}"
              f"{'  CLAIM HOLDS' if s['claim'] else ''}")
    print(f"  exact lines identical on every seed: {'yes' if same_exact else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
