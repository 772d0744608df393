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

    python3 scripts/bench_pairs.py PARENT CHANGE --workload serve-plantform --interleave

With ``--interleave`` both exports run in this one process instead, pass by
pass.  Each export's ``perfbench/workloads.py`` is loaded against that
export's ``src/plantchart``, and before each of a side's passes that side's
``plantchart`` modules and its ``workloads``, ``gen`` and ``spans`` are put
in ``sys.modules``, where the package's lazy imports find them.  There are
:data:`INTERLEAVED_PAIRS` pairs of passes.  Pair ``k`` runs the deck of seed 1
and variant ``k`` on both sides, the parent first in even pairs and the
change first in odd ones, after one unrecorded warm-up pair.  Both
sides' ``exact`` and ``outcome`` must agree on every pass, or nothing is
reported.  The report gives the paired op-p50 ratio, change over parent,
with its median and quartiles and the pairs the change won.  It reports op
times only: ``setup_s`` and ``peak_rss_mb`` need a process per side.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: Pairs of runs per comparison, and the fewest that a claim rests on.
PAIRS = 10
#: Pairs of passes of an interleaved comparison.
INTERLEAVED_PAIRS = 20
#: The benchmark's own modules, besides the package's, that a side loads.
BENCH_MODULES = ("workloads", "gen", "spans")


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


def _side_module(name: str) -> bool:
    return name in BENCH_MODULES or name == "plantchart" or name.startswith("plantchart.")


def _take_side_modules() -> dict:
    """Remove the package's and the benchmark's modules from ``sys.modules``
    and return them."""
    return {name: sys.modules.pop(name) for name in [n for n in sys.modules if _side_module(n)]}


class Side:
    """One tree's workload, loaded from its own ``perfbench/workloads.py``
    and ``src/plantchart`` as modules of their own."""

    def __init__(self, root: Path, workload: str, workdir: Path, tag: str):
        sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
        try:
            wl = importlib.import_module("workloads")
        finally:
            del sys.path[:2]
        self.modules = _take_side_modules()
        if workload not in wl.WORKLOADS:
            raise SystemExit(f"unknown workload {workload!r}; "
                             f"choose from {', '.join(wl.WORKLOADS)}")
        self.workload = wl.WORKLOADS[workload](workdir, tag)

    def run_pass(self, seed: int, variant: int):
        """One untraced pass over deck ``(seed, variant)``, with this side's
        modules, and only its, in ``sys.modules``."""
        _take_side_modules()
        sys.modules.update(self.modules)
        try:
            result = self.workload.run_pass(self.workload.deck(seed, variant), None)
        finally:
            self.modules.update(_take_side_modules())  # any module a call imported
        return result


def op_p50_ns(result) -> int:
    """The pass's median op time by ``run.py``'s nearest-rank rule, refused
    ops left out."""
    ops = sorted(t for t, refused in zip(result.op_ns, result.refused) if not refused)
    return ops[max(0, math.ceil(len(ops) / 2) - 1)]


class Interleaved(NamedTuple):
    parent_ns: list[int]  # op p50 of each recorded pass
    change_ns: list[int]
    ratio: tuple[float, float, float]  # change over parent, paired: q1, median, q3
    wins: int
    modules: tuple[dict, dict]  # each side's modules, by name


def interleave(parent: Path, change: Path, workload: str, seed: int = 1,
               pairs: int = INTERLEAVED_PAIRS) -> Interleaved:
    """``pairs`` pairs of passes of ``workload``, the trees ``parent`` and
    ``change`` alternating in this process, after one warm-up pair.
    Raises ``ValueError`` when the two sides' ``exact`` or ``outcome``
    differ on a pass.  ``sys.modules`` and ``sys.path`` are as they were
    afterwards."""
    saved, path = _take_side_modules(), sys.path[:]
    try:
        with tempfile.TemporaryDirectory(prefix="bench-interleave-") as tmp:
            sides = (Side(parent, workload, Path(tmp), "parent"),
                     Side(change, workload, Path(tmp), "change"))
            try:
                times = ([], [])
                for k in range(-1, pairs):
                    order = (0, 1) if k % 2 == 0 else (1, 0)
                    results = [None, None]
                    for i in order:
                        results[i] = sides[i].run_pass(seed, max(k, 0))
                    a, b = results
                    if (a.exact, a.outcome) != (b.exact, b.outcome):
                        raise ValueError(f"pass {k}: the sides disagree: exact {a.exact} != "
                                         f"{b.exact} or outcome {a.outcome} != {b.outcome}")
                    if k >= 0:
                        times[0].append(op_p50_ns(a))
                        times[1].append(op_p50_ns(b))
            finally:
                for side in sides:
                    side.workload.cleanup()
    finally:
        _take_side_modules()
        sys.modules.update(saved)
        sys.path[:] = path
    ratios = [c / p for p, c in zip(*times)]
    q = quartiles(ratios)
    return Interleaved(times[0], times[1], (q["q1"], q["median"], q["q3"]),
                       sum(r < 1 for r in ratios), (sides[0].modules, sides[1].modules))


def main_interleaved(args, parent: Path, change: Path) -> int:
    try:
        run = interleave(parent, change, args.workload)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    q1, median, q3 = run.ratio
    pairs = len(run.parent_ns)
    p, c = quartiles(run.parent_ns), quartiles(run.change_ns)
    print(f"{args.workload}: {pairs} interleaved pairs of passes, seed 1, "
          f"{args.parent} -> {args.change}")
    print(f"  op_p50_ms    parent {p['median'] / 1e6:.6g} [{p['q1'] / 1e6:.6g}, "
          f"{p['q3'] / 1e6:.6g}]  change {c['median'] / 1e6:.6g} [{c['q1'] / 1e6:.6g}, "
          f"{c['q3'] / 1e6:.6g}]  unscaled")
    print(f"  paired ratio change/parent: median {median:.4f} [{q1:.4f}, {q3:.4f}]  "
          f"{100 * (median - 1):+.1f} %  wins {run.wins}/{pairs}")
    print("  exact and outcome equal on every pass: yes")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--interleave", action="store_true",
                        help="alternate the two revisions pass by pass in this process")
    args = parser.parse_args(argv)

    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {side: export(rev, Path(tmp, side))
                 for side, rev in (("parent", args.parent), ("change", args.change))}
        if args.interleave:
            sys.dont_write_bytecode = True
            return main_interleaved(args, roots["parent"], roots["change"])
        suites = {side: load_suite(root) for side, root in roots.items()}
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
