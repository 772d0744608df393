#!/usr/bin/env python3
"""Run Tier-1 against each named source mutation and report which it kills.

    python3 scripts/mutants.py                  # every mutant, on HEAD
    python3 scripts/mutants.py NAME [NAME ...]  # only these

Each mutant in :data:`MUTANTS` is one exact text replacement in one file,
whose text occurs exactly once in it, and names its killer: the node id of
a test that fails on it.  ``tests/test_mutants.py`` checks at HEAD that
the text occurs once and that the killer names a test function of its
file; a killer whose parametrize id is stale collects no test, which this
script reports as an error of the table, so the table cannot rot unseen.  HEAD is exported with ``git archive`` into a
fresh temporary directory per run, one copy at a time, and tests run there
with ``-x``, ``PYTHONDONTWRITEBYTECODE=1`` and no pytest cache.  The
unmutated copy runs the whole of Tier-1 first, less the table's own test:
a mutant counts as killed only if that clean run passed.  In a mutated
copy the killer runs first; if it fails, the mutant is killed.  Otherwise
the whole of Tier-1 runs there, as in the clean copy, so a mutant that
survives has passed all of Tier-1.  Each line then gives a mutant's name,
killed or survived, the wall time, whether the killer alone killed it, and
the first failing test.  The exit status is 1 if the clean run failed or a
mutant survived.
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

PYTEST = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
#: Tier-1.  ``tests/test_mutants.py`` is left out: in a mutated copy the
#: mutation's text is gone, so it would kill every mutant itself.
TIER1 = ["--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
#: pytest's exit statuses for a usage error, such as a node id it does not
#: find, and for no test collected.
NO_TEST = (4, 5)

DEVICE = "src/plantchart/device.py"
MOTION = "src/plantchart/motion.py"
SERIES = "src/plantchart/series.py"
SERVE = "src/plantchart/serve.py"
RENDER = "src/plantchart/render.py"
SVG = "src/plantchart/svg.py"
CHECKS = "src/plantchart/_checks.py"
CLI = "src/plantchart/cli.py"
PACKAGE = "src/plantchart/__init__.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    killer: str  # the node id of a test that fails on the mutant


#: Killers shared by several mutants.
DAY_DIGESTS = "tests/test_cli_digests.py::test_cli_output_matches_pinned_digests[day]"
LOG_BYTES = "tests/test_event_log.py::test_same_bytes_as_the_reference"
SHORT_BAD_VALUE = "tests/test_series.py::TestLoadSeries::test_a_short_bad_value_is_quoted_whole"
CHAINED_CALLS = "tests/test_simulator_reference.py::test_chained_calls_log_what_one_service_logs"
STATIC_CHARTS = ("tests/test_lazy_imports.py::"
                 "test_a_process_that_draws_static_charts_loads_no_pipeline")

MUTANTS = (
    # The simulator loop: stretches between events, and unpowered leaves.
    Mutant("stretch-one-tick-too-long", DEVICE,
           "(min(guard, _STRETCH_STEPS) - 1 - rest) / budget_per_tick))",
           "(min(guard, _STRETCH_STEPS) - 1 - rest) / budget_per_tick)) + 1",
           "tests/test_acceptance.py::test_criterion_4_timing_totals"),
    Mutant("stretch-guard-ignores-the-stop-sensor", DEVICE,
           "guard = remaining - at_zero if 0 < at_zero < remaining else remaining",
           "guard = remaining",
           "tests/test_simulator_reference.py::"
           "test_a_leaf_below_zero_logs_the_stop_sensor_on_its_way_up[-50]"),
    Mutant("stretch-steps-truncated", DEVICE,
           "remaining -= round(start_rest", "remaining -= int(start_rest", DAY_DIGESTS),
    Mutant("unpowered-leaf-moves", DEVICE, "if not powered[leaf >> 1]:", "if False:",
           "tests/test_simulator_reference.py::test_an_unpowered_leaf_holds_still_on_its_way[3-9]"),
    # Dispatch, checks and the event log.
    Mutant("dispatch-without-epsilon", DEVICE,
           "return new_clock - _EPS", "return new_clock", DAY_DIGESTS),
    Mutant("full-range-max-plus-one", DEVICE,
           "steps, 1, STEPS_FULL_RANGE_MAX)", "steps, 1, STEPS_FULL_RANGE_MAX + 1)",
           "tests/test_simulator_reference.py::test_every_set_target_logged_encodes_as_a_frame"),
    Mutant("deadline-unchecked", DEVICE, "if not math.isfinite(deadline):", "if False:",
           "tests/test_device.py::TestBoundedWork::test_a_huge_tick_is_refused_for_its_own_cause"
           "[deadline]"),
    Mutant("stateless-call-returns-the-callers-log", DEVICE,
           "return core.snapshot(_logged(core.run(plan, dt)))",
           "return core.snapshot((*ctrl.event_log, *_logged(core.run(plan, dt))))",
           CHAINED_CALLS),
    Mutant("log-head-keyed-by-value", DEVICE,
           "key = marshal.dumps((board, kind, detail), 2)", "key = (board, kind, detail)",
           LOG_BYTES),
    Mutant("log-head-fallback-dropped", DEVICE,
           "except ValueError:\n            key = None", "except TypeError:\n            key = None",
           LOG_BYTES),
    Mutant("log-view-sees-later-events", DEVICE,
           "return islice(self._entries, self._length)", "return iter(self._entries)",
           "tests/test_serve.py::TestForecastService::"
           "test_a_plan_that_fails_mid_run_leaves_the_device_as_it_was"),
    Mutant("play-drops-the-runs-events", SERVE,
           "self._events += self._core.run(plan, self.tick)",
           "self._core.run(plan, self.tick)", CHAINED_CALLS),
    Mutant("checks-take-a-bool-for-a-number", CHECKS,
           "def is_number(value) -> bool:\n"
           "    return isinstance(value, (int, float)) and type(value) is not bool",
           "def is_number(value) -> bool:\n"
           "    return isinstance(value, (int, float))",
           "tests/test_encoder.py::TestPositionRateInterval::"
           "test_a_bool_is_not_a_position[False-EncodingMode.PEAK_RELATIVE]"),
    # The reset rule, the profile reader, the hour-to-leaf rule, the
    # document readers and the feed loop.
    Mutant("transition-wipes-a-furled-device", MOTION,
           "if not (profile.modality is Modality.GRAPHICAL and any(current)):",
           "if profile.modality is not Modality.GRAPHICAL:", DAY_DIGESTS),
    Mutant("reset-ignores-the-modality", MOTION,
           "if not (profile.modality is Modality.GRAPHICAL and any(current)):",
           "if not any(current):", DAY_DIGESTS),
    Mutant("unknown-profile-field-accepted", MOTION, "if name not in known:", "if False:",
           "tests/test_cli.py::TestBadInputs::test_bad_profile_field_exits_2_naming_it"
           "[serve-profile3-unknown field 'reset_before_next_variation']"),
    Mutant("profile-modality-unchecked", CHECKS, "    if value in values:", "    if True:",
           "tests/test_motion.py::TestProfileFromJson::"
           "test_a_document_modality_that_is_no_modality_value_is_refused_naming_it[hydraulic]"),
    Mutant("profile-name-quoted-whole", MOTION,
           "got {_checks.quote(self.name)}", "got {self.name!r}",
           "tests/test_value_rules.py::test_no_rejection_quotes_a_value_with_repr[motion.py]"),
    Mutant("bom-not-stripped", SERIES, 'document.decode("utf-8-sig")', 'document.decode("utf-8")',
           "tests/test_series.py::TestLoadSeries::"
           "test_a_byte_order_mark_is_not_part_of_the_document[csv]"),
    Mutant("input-and-fixture-both-accepted", CLI, "if args.fixture and args.input:", "if False:",
           "tests/test_cli.py::TestBadInputs::"
           "test_exits_with_one_line_and_no_traceback[input-and-fixture]"),
    Mutant("profile-lookup-on-path-is-file", CLI,
           "if os.path.isfile(path):", "if path.is_file():",
           "tests/test_cli.py::TestBadInputs::test_a_huge_argument_exits_2_with_a_short_line"
           "[profile-name-too-long-for-a-file]"),
    Mutant("choice-quoted-whole", CLI,
           "repr(value), _checks.quote(value), 1)", "repr(value), repr(value), 1)",
           "tests/test_cli.py::TestBadInputs::test_a_huge_choice_is_refused_with_a_short_line"
           "[mode]"),
    Mutant("typed-option-quoted-whole", CLI,
           "value: {_checks.quote(text)}", "value: {text!r}",
           "tests/test_cli.py::TestBadInputs::test_a_huge_typed_value_is_refused_with_a_short_line"
           "[simulate--tick]"),
    Mutant("csv-row-width-unchecked", SERIES, "if len(row) != 2:", "if len(row) > 2:",
           SHORT_BAD_VALUE + "[csv-row-of-1]"),
    Mutant("json-sample-object-unchecked", SERIES,
           "if not isinstance(sample, dict):", "if False:",
           SHORT_BAD_VALUE + "[json-sample-not-an-object]"),
    Mutant("json-sample-hour-unchecked", SERIES, 'if "hour" not in sample:', "if False:",
           SHORT_BAD_VALUE + "[json-sample-without-hour]"),
    Mutant("service-polls-a-closed-feed", SERVE,
           "except FeedClosed:\n            break", "except FeedClosed:\n            continue",
           "tests/test_serve.py::TestFeeds::test_run_service_returns_when_the_feed_closes"),
    Mutant("hour-past-17-not-refused", SERVE, "elif position != 0:", "elif False:",
           "tests/test_cli.py::TestSimulate::test_raised_leaf_at_18_exits_3_with_one_line[plan]"),
    # What a process imports: the renderer only where it draws, and no
    # forecast pipeline where it draws static charts.
    Mutant("package-imports-svg-eagerly", PACKAGE,
           "from . import _checks\n", "from . import _checks, svg\n",
           "tests/test_lazy_imports.py::test_a_service_loads_no_renderer"),
    Mutant("cli-imports-render-at-load", CLI,
           "from . import _checks, device, fixtures, serve\n",
           "from . import _checks, device, fixtures, render, serve\n",
           "tests/test_lazy_imports.py::test_only_the_command_that_draws_loads_the_renderer"
           "[simulate]"),
    Mutant("render-imports-the-pipeline", RENDER,
           "from ._checks import MAX_SAMPLES, MIN_SAMPLES, POSITION_MAX, POSITION_MIN\n",
           "from ._checks import POSITION_MAX, POSITION_MIN\n"
           "from .series import MAX_SAMPLES, MIN_SAMPLES, HourSlot\n",
           STATIC_CHARTS),
    Mutant("svg-imports-motion-at-load", SVG,
           "from ._checks import POSITION_MAX, POSITION_MIN\n",
           "from ._checks import POSITION_MAX, POSITION_MIN\n"
           "from .motion import MAX_FRAMES, FrameTimeline, MotionPlan, leaf_for_hour\n",
           STATIC_CHARTS),
    # Layout and SVG: tables, caches and the checks of a frameless source.
    Mutant("trunk-memo-untyped", RENDER,
           "lru_cache(maxsize=TRUNK_MEMO_SIZE, typed=True)",
           "lru_cache(maxsize=TRUNK_MEMO_SIZE, typed=False)",
           "tests/test_render_reference.py::"
           "test_equal_heights_of_another_type_lay_out_their_own_trunk[TrunkForm.STRAIGHT-int-first]"),
    Mutant("trunk-memo-unbounded", RENDER,
           "lru_cache(maxsize=TRUNK_MEMO_SIZE, typed=True)",
           "lru_cache(maxsize=None, typed=True)",
           "tests/test_render_reference.py::test_the_trunks_kept_are_bounded"),
    Mutant("ring-table-shifted", RENDER,
           "math.cos(2 * math.pi * k / RING_SAMPLES)",
           "math.cos(2 * math.pi * (k + 1) / RING_SAMPLES)",
           "tests/test_acceptance.py::test_criterion_7_scene_invariants"),
    Mutant("svg-prefix-adds-a-lineto-to-nothing", SVG,
           "_text(rest, x0, y0, scale) if rest else prev_text",
           "_text(rest, x0, y0, scale)",
           "tests/test_render_reference.py::"
           "test_hand_built_paths_equal_the_reference[canvas0-path-equal-to-the-previous]"),
    Mutant("zero-frames-skip-checks", SVG,
           "first = extent_rows[0] if extent_rows else [0.0] * len(hours)",
           "if not extent_rows:\n        return iter(())\n    first = extent_rows[0]",
           "tests/test_render.py::TestRenderFrames::"
           "test_a_source_with_no_frames_is_still_checked[two-hours-plan-with-no-commands]"),
    Mutant("frames-initial-positions-unchecked", SVG,
           "for i, position in enumerate(initial_positions):", "for i, position in enumerate(()):",
           "tests/test_render.py::TestRenderFrames::"
           "test_bad_initial_positions_are_refused_before_the_first_frame[bool]"),
    Mutant("trunk-text-keyed-by-projection-alone", SVG,
           "_trunk_d = functools.lru_cache(maxsize=TRUNK_CACHE_SIZE)(_path_d)",
           "_trunk_d = functools.lru_cache(maxsize=TRUNK_CACHE_SIZE)("
           "lambda path, *at: _path_d(_first.setdefault(at, path), *at))\n_first = {}",
           "tests/test_acceptance.py::test_criterion_8_render_determinism"),
)


class Outcome(NamedTuple):
    failed: bool
    seconds: float
    first_failure: str
    code: int  # pytest's exit status
    by_killer: bool = False


def pytest(tree: Path, *args: str) -> Outcome:
    """pytest with ``-x`` in ``tree`` on ``args``: whether it failed, its wall
    time and the first failing test's node id."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    start = time.monotonic()
    run = subprocess.run([sys.executable, *PYTEST, *args], cwd=tree, env=env,
                         capture_output=True, text=True)
    seconds = time.monotonic() - start
    failures = [line.partition(" ")[2].split(" - ")[0] for line in run.stdout.splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    return Outcome(run.returncode != 0, seconds, failures[0] if failures else "", run.returncode)


def mutate(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: its text occurs {text.count(mutant.old)} times "
                         f"in {mutant.path}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant | None) -> Outcome:
    """On a fresh export of HEAD: Tier-1, or with ``mutant`` made, its
    killer and then, if the killer passed, Tier-1.  The time is the sum."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = export("HEAD", Path(tmp, "tree"))
        if mutant is None:
            return pytest(tree, *TIER1)
        mutate(tree, mutant)
        first = pytest(tree, mutant.killer)
        if first.code in NO_TEST:
            raise SystemExit(f"{mutant.name}: its killer collects no test: {mutant.killer}")
        if first.failed:
            return first._replace(by_killer=True)
        whole = pytest(tree, *TIER1)
        return whole._replace(seconds=first.seconds + whole.seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME")
    args = parser.parse_args(argv)
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutant {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] or list(MUTANTS)
    began = time.monotonic()
    clean = run(None)
    print(f"{'clean':38} {'FAILED' if clean.failed else 'passed':8} {clean.seconds:7.1f} s  "
          f"{'tier-1':6}  {clean.first_failure}", flush=True)
    if clean.failed:
        return 1
    survived = 0
    for mutant in chosen:
        outcome = run(mutant)
        survived += not outcome.failed
        print(f"{mutant.name:38} {'killed' if outcome.failed else 'SURVIVED':8} "
              f"{outcome.seconds:7.1f} s  {'killer' if outcome.by_killer else 'tier-1':6}  "
              f"{outcome.first_failure}", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} killed in {time.monotonic() - began:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
