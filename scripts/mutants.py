#!/usr/bin/env python3
"""Run Tier-1 against each named source mutation and report which it kills.

    python3 scripts/mutants.py                  # every mutant, on HEAD
    python3 scripts/mutants.py NAME [NAME ...]  # only these

Each mutant in :data:`MUTANTS` is one exact text replacement in one file,
whose text occurs exactly once in it (``tests/test_mutants.py`` checks this
at HEAD, so the table cannot rot unseen).  HEAD is exported with ``git
archive`` into a fresh temporary directory per run, one copy at a time,
and Tier-1 runs there with ``-x``, ``PYTHONDONTWRITEBYTECODE=1`` and no
pytest cache, less the table's own test.  The unmutated copy runs first: a
mutant counts as killed only if that clean run passed.  Each line then
gives a mutant's name, killed or survived, the wall time and the first
failing test.  The exit status is 1 if the clean run failed or a mutant
survived.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export  # noqa: E402

#: Tier-1 with ``-x``.  ``tests/test_mutants.py`` is left out: in a mutated
#: copy the mutation's text is gone, so it would kill every mutant itself.
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "--ignore=tests/test_mutants.py"]

DEVICE = "src/plantchart/device.py"
MOTION = "src/plantchart/motion.py"
SERIES = "src/plantchart/series.py"
SERVE = "src/plantchart/serve.py"
RENDER = "src/plantchart/render.py"
SVG = "src/plantchart/svg.py"
CHECKS = "src/plantchart/_checks.py"
CLI = "src/plantchart/cli.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str


MUTANTS = (
    # The simulator loop: stretches between events, and unpowered leaves.
    Mutant("stretch-one-tick-too-long", DEVICE,
           "(min(guard, _STRETCH_STEPS) - 1 - rest) / budget_per_tick))",
           "(min(guard, _STRETCH_STEPS) - 1 - rest) / budget_per_tick)) + 1"),
    Mutant("stretch-guard-ignores-the-stop-sensor", DEVICE,
           "guard = remaining - at_zero if 0 < at_zero < remaining else remaining",
           "guard = remaining"),
    Mutant("stretch-steps-truncated", DEVICE,
           "remaining -= round(start_rest", "remaining -= int(start_rest"),
    Mutant("unpowered-leaf-moves", DEVICE, "if not powered[leaf >> 1]:", "if False:"),
    # Dispatch, checks and the event log.
    Mutant("dispatch-without-epsilon", DEVICE,
           "return new_clock - _EPS", "return new_clock"),
    Mutant("full-range-max-plus-one", DEVICE,
           "steps, 1, STEPS_FULL_RANGE_MAX)", "steps, 1, STEPS_FULL_RANGE_MAX + 1)"),
    Mutant("log-head-keyed-by-value", DEVICE,
           "key = marshal.dumps((board, kind, detail), 2)", "key = (board, kind, detail)"),
    Mutant("log-head-fallback-dropped", DEVICE,
           "except ValueError:\n            key = None", "except TypeError:\n            key = None"),
    Mutant("log-view-sees-later-events", DEVICE,
           "return islice(self._entries, self._length)", "return iter(self._entries)"),
    Mutant("core-shares-the-snapshot-log", DEVICE,
           "self.events = list(ctrl.event_log)",
           'self.events = getattr(ctrl.event_log, "_entries", None) or list(ctrl.event_log)'),
    Mutant("checks-take-a-bool-for-a-number", CHECKS,
           "def is_number(value) -> bool:\n"
           "    return isinstance(value, (int, float)) and type(value) is not bool",
           "def is_number(value) -> bool:\n"
           "    return isinstance(value, (int, float))"),
    # The reset rule, the hour-to-leaf rule, the document readers and the feed loop.
    Mutant("transition-wipes-a-furled-device", MOTION,
           "if not (profile.modality is Modality.GRAPHICAL and any(current)):",
           "if profile.modality is not Modality.GRAPHICAL:"),
    Mutant("reset-ignores-the-modality", MOTION,
           "if not (profile.modality is Modality.GRAPHICAL and any(current)):",
           "if not any(current):"),
    Mutant("unknown-profile-field-accepted", MOTION, "if name not in known:", "if False:"),
    Mutant("bom-not-stripped", SERIES, 'document.decode("utf-8-sig")', 'document.decode("utf-8")'),
    Mutant("input-and-fixture-both-accepted", CLI, "if args.fixture and args.input:", "if False:"),
    Mutant("csv-row-width-unchecked", SERIES, "if len(row) != 2:", "if len(row) > 2:"),
    Mutant("json-sample-object-unchecked", SERIES,
           "if not isinstance(sample, dict):", "if False:"),
    Mutant("json-sample-hour-unchecked", SERIES, 'if "hour" not in sample:', "if False:"),
    Mutant("service-polls-a-closed-feed", SERVE,
           "except FeedClosed:\n            break", "except FeedClosed:\n            continue"),
    Mutant("hour-past-17-not-refused", SERVE, "elif position != 0:", "elif False:"),
    # Layout and SVG: tables, caches and the checks of a frameless source.
    Mutant("trunk-memo-untyped", RENDER,
           "lru_cache(maxsize=TRUNK_MEMO_SIZE, typed=True)",
           "lru_cache(maxsize=TRUNK_MEMO_SIZE, typed=False)"),
    Mutant("trunk-memo-unbounded", RENDER,
           "lru_cache(maxsize=TRUNK_MEMO_SIZE, typed=True)",
           "lru_cache(maxsize=None, typed=True)"),
    Mutant("ring-table-shifted", RENDER,
           "math.cos(2 * math.pi * k / RING_SAMPLES)",
           "math.cos(2 * math.pi * (k + 1) / RING_SAMPLES)"),
    Mutant("svg-prefix-adds-a-lineto-to-nothing", SVG,
           "_text(rest, x0, y0, scale) if rest else prev_text",
           "_text(rest, x0, y0, scale)"),
    Mutant("zero-frames-skip-checks", SVG,
           "first = extent_rows[0] if extent_rows else [0.0] * len(hours)",
           "if not extent_rows:\n        return iter(())\n    first = extent_rows[0]"),
    Mutant("trunk-text-keyed-by-projection-alone", SVG,
           "_trunk_d = functools.lru_cache(maxsize=TRUNK_CACHE_SIZE)(_path_d)",
           "_trunk_d = functools.lru_cache(maxsize=TRUNK_CACHE_SIZE)("
           "lambda path, *at: _path_d(_first.setdefault(at, path), *at))\n_first = {}"),
)


class Outcome(NamedTuple):
    failed: bool
    seconds: float
    first_failure: str


def tier1(tree: Path) -> Outcome:
    """Tier-1 with ``-x`` in ``tree``: whether it failed, its wall time and
    the first failing test's node id."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    start = time.monotonic()
    run = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                         capture_output=True, text=True)
    seconds = time.monotonic() - start
    failures = [line.split()[1] for line in run.stdout.splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    return Outcome(run.returncode != 0, seconds, failures[0] if failures else "")


def mutate(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: its text occurs {text.count(mutant.old)} times "
                         f"in {mutant.path}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant | None) -> Outcome:
    """Tier-1 on a fresh export of HEAD, with ``mutant`` made if given."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = export("HEAD", Path(tmp, "tree"))
        if mutant is not None:
            mutate(tree, mutant)
        return tier1(tree)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME")
    args = parser.parse_args(argv)
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutant {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] or list(MUTANTS)
    clean = run(None)
    print(f"{'clean':38} {'FAILED' if clean.failed else 'passed':8} {clean.seconds:7.1f} s  "
          f"{clean.first_failure}", flush=True)
    if clean.failed:
        return 1
    survived = 0
    for mutant in chosen:
        outcome = run(mutant)
        survived += not outcome.failed
        print(f"{mutant.name:38} {'killed' if outcome.failed else 'SURVIVED':8} "
              f"{outcome.seconds:7.1f} s  {outcome.first_failure}", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
