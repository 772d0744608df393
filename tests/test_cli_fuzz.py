"""Argv fuzz of the CLI, run in process.

Each case builds an argv from the real subcommands and flags, with
generated forecast and profile documents, paths that are directories or
lie under a regular file, bytes that are not UTF-8 and deeply nested JSON.
Whatever the argv, ``main`` returns 0, 2, 3 or 4 and raises nothing, and a
non-zero exit prints exactly one line on stderr.  ``--tick``, ``--fps`` and
the generated profiles' rates are bounded so that a run that succeeds stays
short, and a case that takes over the deadline fails; the values that must
be refused are drawn as well.
"""

import contextlib
import io
import json
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from plantchart import fixtures
from plantchart.cli import main
from plantchart.encoder import EncodingMode
from plantchart.motion import BUILTIN_PROFILES
from plantchart.render import DEVICE_DIMENSIONS
from strategies import UNPARSABLE_DOCUMENTS, grid_rate

# Each case runs in a fresh directory holding these entries.
DIRECTORY = "dir"
REGULAR_FILE = "file"  # holds "x\n", which no parser accepts
FORECAST = "forecast"
FEED = "feed.ndjson"
PROFILE = "profile.json"

UNUSABLE_PATHS = [DIRECTORY, REGULAR_FILE, f"{REGULAR_FILE}/x", "missing\nfile"]
BAD_DOCUMENTS = st.one_of(
    st.sampled_from([document for document, _ in UNPARSABLE_DOCUMENTS.values()]),
    st.binary(max_size=40),
)


@st.composite
def forecast_documents(draw) -> bytes:
    """A JSON or CSV forecast, mostly valid; some are flat, have a bad field
    or a length or hour out of range, or are not a forecast at all."""
    if draw(st.integers(0, 5)) == 0:
        return draw(BAD_DOCUMENTS)
    length = draw(st.integers(3, 10))
    start = draw(st.integers(8, 19 - length))
    if draw(st.integers(0, 5)) == 0:
        rates = [draw(grid_rate)] * length
    else:
        rates = draw(st.lists(grid_rate, min_size=length, max_size=length))
    samples = [{"hour": start + i, "rate": rate} for i, rate in enumerate(rates)]
    fault = draw(st.integers(0, 11))
    if fault == 0:
        sample = draw(st.sampled_from(samples))
        field = draw(st.sampled_from(["hour", "rate"]))
        sample[field] = draw(st.sampled_from([1.5, -0.25, "high", None, True, 8.5, 7, 19]))
    elif fault == 1:
        del samples[draw(st.integers(0, length - 1))]
    if draw(st.booleans()):
        return json.dumps({"samples": samples}).encode()
    rows = ["hour,rate", *(f"{s['hour']},{s['rate']}" for s in samples)]
    return "\n".join(rows).encode()


def _bounded(low: float, high: float, refused: list):
    return st.floats(low, high) | st.sampled_from(refused)


PROFILE_FIELDS = {
    "modality": st.sampled_from(["physical", "graphical"] * 2 + ["hydraulic"]),
    "steps_full_range": st.lists(st.integers(10, 400), min_size=10, max_size=10)
    | st.sampled_from([200, [200], ["x"] * 10, [0] * 10]),
    "step_rate": _bounded(50.0, 1000.0, [5e-324, 0, -1, 1e300, "fast"]),
    "per_rate_frame_time": _bounded(0.1, 3.0, [0, -1, 1e300, "slow"]),
    "reset_before_next_variation": st.sampled_from([True, False] * 2 + ["false"]),
}


@st.composite
def profile_documents(draw) -> bytes:
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(BAD_DOCUMENTS | st.just(b"[1, 2]"))
    if kind == 1:  # too slow to finish within the simulator's tick budget
        return b'{"name": "slow", "step_rate": 1e-300}'
    name = draw(st.sampled_from(["custom"] * 4 + ["", None, 7]))
    profile = draw(st.fixed_dictionaries({"name": st.just(name)}, optional=PROFILE_FIELDS))
    return json.dumps(profile).encode()


def _flag(name: str, values) -> st.SearchStrategy[list[str]]:
    """``["name=value"]`` or, as often, nothing.  The ``=`` form keeps a
    value such as ``-5x5`` from being read as an option."""
    return st.just([]) | values.map(lambda value: [f"{name}={value}"])


# Each flag's values repeat the usable ones, so that most cases get past
# argument checks to the pipeline.
INPUT = st.one_of(
    st.sampled_from(sorted(fixtures.FIXTURES)).map(lambda name: ["--fixture", name]),
    st.just([FORECAST]),
    st.sampled_from([[], ["--fixture", "nope"], [FORECAST, "--fixture", "plantform-monday"],
                     *([path] for path in UNUSABLE_PATHS)]),
)
MODE = _flag("--mode", st.sampled_from([mode.value for mode in EncodingMode]))
INDEX = _flag("--variation-index", st.sampled_from(["0", "0", "1", "-1", "3"]))
PROFILE_FLAG = _flag("--profile", st.sampled_from(
    sorted(BUILTIN_PROFILES) + [PROFILE] * 8 + [DIRECTORY, REGULAR_FILE, "nope"]))
TICK = _flag("--tick", st.sampled_from(["0.05", "0.1", "0.5"] * 3 + ["nan", "inf", "0", "-1"]))
OUT = _flag("--out", st.sampled_from(["out.txt", "sub/out.txt"] * 3 + UNUSABLE_PATHS[:3]))


def _argv(command: str, *parts) -> st.SearchStrategy[list[str]]:
    return st.tuples(*parts).map(lambda drawn: [command, *(arg for part in drawn for arg in part)])


ARGV = st.one_of(
    _argv("segment", INPUT),
    _argv("encode", INPUT, MODE, INDEX),
    _argv("plan", INPUT, MODE, INDEX, PROFILE_FLAG, OUT),
    _argv("simulate", INPUT, MODE, INDEX, PROFILE_FLAG, TICK, OUT,
          st.sampled_from([[], ["--all-variations"]])),
    _argv("render", INPUT, MODE, INDEX, PROFILE_FLAG, OUT,
          _flag("--style", st.sampled_from(["leaf,two-sided,curvy", "bar,one-sided,straight",
                                            "bamboo,two-sided,curvy,growth",
                                            "ring,one-sided,straight", "leaf,curvy", "x,y,z"])),
          _flag("--dims", st.sampled_from(sorted(DEVICE_DIMENSIONS) * 2
                                          + ["70,5,10", "nan,1,2", "1,2", "10,5,1", "a,b,c",
                                             "10,-5,-0.8", "1e308,0,1e308", "1e308,0,1"])),
          _flag("--canvas", st.sampled_from(["480x640", "64x64"] * 3
                                            + ["0x0", "-5x5", "480", "axb", "9" * 400 + "x640"])),
          _flag("--frames", st.sampled_from(["frames"] * 4 + UNUSABLE_PATHS[:3])),
          _flag("--fps", st.sampled_from(["0.5", "2"] * 3 + ["0", "-1", "nan", "inf", "1e9"])),
          _flag("--gallery", st.sampled_from(["gallery", f"{REGULAR_FILE}/g"]))),
    _argv("serve", st.sampled_from([FEED] * 8 + UNUSABLE_PATHS).map(lambda p: ["--listen", p]),
          MODE, PROFILE_FLAG, TICK,
          _flag("--log", st.sampled_from(["log.ndjson"] * 3 + UNUSABLE_PATHS[:3])),
          _flag("--max-messages", st.integers(0, 3).map(str)),
          st.just(["--max-idle-polls", "1", "--poll-timeout", "0"])),
    st.just(["fixtures"]),
)


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(argv=ARGV, forecast=forecast_documents(), profile=profile_documents(),
       feed=st.lists(forecast_documents(), max_size=3))
def test_any_argv_exits_0_2_3_or_4_with_one_line_on_failure(argv, forecast, profile, feed):
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path(DIRECTORY).mkdir()
        Path(REGULAR_FILE).write_text("x\n")
        Path(FORECAST).write_bytes(forecast)
        Path(PROFILE).write_bytes(profile)
        Path(FEED).write_bytes(b"".join(line + b"\n" for line in feed))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    if code == 0:
        assert err.getvalue() == ""
    else:
        message = err.getvalue()
        assert message.endswith("\n") and message.count("\n") == 1, message
        assert message.startswith("simulation error: " if code == 4 else "error: "), message
