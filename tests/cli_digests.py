"""sha256 digests of pinned CLI invocations.

Each case runs ``plantchart.cli.main`` in-process inside a fresh working
directory and digests its exit code, stdout, stderr and every file it
writes, so a refactor that keeps the digests keeps every output byte.
``scripts/generate_golden.py`` writes :data:`TABLE`;
``tests/test_cli_digests.py`` compares against it.  Run as a script, with
``src`` on ``PYTHONPATH``, it compares every case with the table and exits
1 on a mismatch; it needs no pytest, so it checks the declared Python floor:

    PYTHONPATH=src python3.10 tests/cli_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from plantchart import fixtures
from plantchart.cli import main
from plantchart.encoder import EncodingMode
from plantchart.motion import BUILTIN_PROFILES

TABLE = Path(__file__).resolve().parent / "golden" / "cli-digests.json"

# A two-variation day: 9..11 peaking at 10, then 11..18 peaking at 13 and
# ending on a zero at 18:00, the hour the device has no leaf for.
DAY_CSV = "day.csv"
DAY_DOCUMENT = (
    "hour,rate\n9,0.1\n10,0.6\n11,0.2\n12,0.5\n13,0.9\n"
    "14,0.4\n15,0.3\n16,0.2\n17,0.1\n18,0.0\n"
)

# render --frames: online1-leaf-one-curvy ends at 18:00; the others cover a
# physical profile and other styles and dims.
FRAME_CASES = (
    ("online1-leaf-one-curvy", ()),
    ("plantform-wednesday-2", ("--profile", "plantform", "--style", "bamboo,two-sided,curvy")),
    ("cairnscreen-wednesday-3", ("--profile", "cairnscreen", "--style", "ring,two-sided,straight",
                                 "--dims", "cairnscreen", "--fps", "2")),
)

PROFILES = sorted(BUILTIN_PROFILES)
MODES = [mode.value for mode in EncodingMode]


def cases() -> dict[str, dict[str, list[str]]]:
    """Pinned invocations by group, each keyed by a readable case id."""
    names = sorted(fixtures.FIXTURES)
    plan = {
        f"{name} {profile} {mode}": ["plan", "--fixture", name, "--profile", profile, "--mode", mode]
        for name in names for profile in PROFILES for mode in MODES
    }
    simulate = {
        f"{name} {profile}{' all' if every else ''}": [
            "simulate", "--fixture", name, "--profile", profile, "--out", "log.ndjson",
            *(["--all-variations"] if every else []),
        ]
        for name in names for profile in PROFILES for every in (False, True)
    }
    frames = {
        name: ["render", "--fixture", name, "--frames", "frames", *extra]
        for name, extra in FRAME_CASES
    }
    day = {f"encode {mode}": ["encode", DAY_CSV, "--mode", mode] for mode in MODES}
    for profile in PROFILES:
        for mode in MODES:
            day[f"plan {profile} {mode}"] = [
                "plan", DAY_CSV, "--variation-index", "1", "--profile", profile, "--mode", mode]
        for every in (False, True):
            day[f"simulate {profile}{' all' if every else ''}"] = [
                "simulate", DAY_CSV, "--variation-index", "1", "--profile", profile,
                "--out", "log.ndjson", *(["--all-variations"] if every else []),
            ]
    day["render"] = ["render", DAY_CSV, "--variation-index", "1", "--out", "chart.svg"]
    day["render frames"] = ["render", DAY_CSV, "--variation-index", "1", "--frames", "frames"]
    report = {f"segment {name}": ["segment", "--fixture", name] for name in names}
    report["segment day"] = ["segment", DAY_CSV]
    report["fixtures"] = ["fixtures"]
    return {"plan": plan, "simulate": simulate, "frames": frames, "day": day, "report": report}


def run_case(argv: list[str]) -> str:
    """Run one invocation in a fresh directory and digest what it did."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # not contextlib.chdir, which Python 3.10 lacks
        try:
            Path(DAY_CSV).write_text(DAY_DOCUMENT, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            digest = hashlib.sha256(f"exit {code}\n".encode())
            digest.update(f"stdout {out.getvalue()}\nstderr {err.getvalue()}\n".encode())
            for path in sorted(Path(".").rglob("*")):
                if path.is_file() and path.name != DAY_CSV:
                    digest.update(f"file {path.as_posix()}\n".encode())
                    digest.update(path.read_bytes())
            return digest.hexdigest()
        finally:
            os.chdir(home)


def digest_group(group: dict[str, list[str]]) -> dict[str, str]:
    return {case: run_case(argv) for case, argv in group.items()}


def write_table() -> Path:
    table = {name: digest_group(group) for name, group in cases().items()}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return TABLE


def check_table() -> int:
    """Run every case, print each one whose digest differs from the table,
    and return 1 if any did, else 0."""
    pinned = json.loads(TABLE.read_text(encoding="utf-8"))
    total = mismatched = 0
    for name, group in cases().items():
        for case, argv in group.items():
            total += 1
            if run_case(argv) != pinned.get(name, {}).get(case):
                mismatched += 1
                print(f"mismatch: {name}: {case}")
    print(f"{total - mismatched} of {total} digests match {TABLE.name}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(check_table())
