"""The serve path's fast paths against the code they replaced, kept in
``oracles.py``: the feed that refills from one read delivers the payloads
the per-poll feed delivers, and the combined tests of ``MotionPlan`` and
``encode_relative`` accept, return and refuse as every worded check did,
with the same exception type and message."""

import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test

from oracles import ReferenceFileFeed, reference_check_plan, reference_encode_relative
from plantchart.encoder import encode_relative
from plantchart.motion import MotionCommand, MotionPlan
from plantchart.serve import FEED_CHUNK, FileFeed


class IntSubclass(int):
    pass


class FloatSubclass(float):
    pass


NAN, INF = float("nan"), float("inf")
#: Values a check may be handed that are not plain in-range numbers.
ODD = st.one_of(
    st.booleans(),
    st.sampled_from([NAN, INF, -INF, -0.0, 10**400, -(10**400), 11, -1, 10.000001, -1e-300]),
    st.integers(),
    st.floats(),
    st.integers(-2, 12).map(IntSubclass),
    st.floats(-2, 12).map(FloatSubclass),
    st.sampled_from([None, "5", b"5", [5], (5,), 5j]),
)


def outcome(call):
    """What ``call()`` returned, or the type and text of what it raised."""
    try:
        return ("returned", call())
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return (type(exc), str(exc))


# --- the feed --------------------------------------------------------------

#: Bytes a publisher appends to the feed between polls.
PIECES = st.one_of(
    st.sampled_from([
        b'{"samples": []}\n', b"\n", b"   \t\n", b"\r\n", b"\x0b\x0c\n", b"\xff\xfe\xfd\n",
        b'{"part', b'ial": 1}\n', b"no newline yet", b" \n\n \n",
    ]),
    st.binary(max_size=24),
    # Lines about the chunk's size and longer, some of them incomplete.
    st.tuples(st.sampled_from([FEED_CHUNK - 2, FEED_CHUNK - 1, FEED_CHUNK, FEED_CHUNK + 1,
                               2 * FEED_CHUNK + 5]),
              st.sampled_from([b"\n", b"", b"\nnext"])).map(lambda p: b"L" * p[0] + p[1]),
)


class FeedMachine(RuleBasedStateMachine):
    """A publisher appends to a feed file; after each append, either feed
    may be polled, and each poll of both must return the same payload."""

    def __init__(self):
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="feed-"))
        path = self.directory / "feed.ndjson"  # made by the first append
        self.path = path
        self.feed = FileFeed(path)
        self.reference = ReferenceFileFeed(path)

    @rule(piece=PIECES)
    def append(self, piece):
        with self.path.open("ab") as handle:
            handle.write(piece)

    @rule(polls=st.integers(1, 4))
    def poll(self, polls):
        for _ in range(polls):
            assert self.feed.poll() == self.reference.poll()

    def teardown(self):
        shutil.rmtree(self.directory)


def test_the_feed_delivers_what_the_per_poll_feed_delivers():
    run_state_machine_as_test(
        FeedMachine, settings=settings(max_examples=150, stateful_step_count=30, deadline=None))


@pytest.mark.parametrize("length", [FEED_CHUNK - 1, FEED_CHUNK, 3 * FEED_CHUNK])
def test_a_line_longer_than_the_chunk_is_read_whole(tmp_path, length):
    path = tmp_path / "feed.ndjson"
    line = b"x" * length
    path.write_bytes(b"short\n" + line + b"\nafter\n" + line)
    feed = FileFeed(path)
    assert [feed.poll(), feed.poll(), feed.poll(), feed.poll()] == [b"short", line, b"after", None]
    with path.open("ab") as handle:
        handle.write(b"\n")
    assert (feed.poll(), feed.poll()) == (line, None)


@pytest.mark.parametrize("blank", [pytest.param(b"\n", id="newlines"),
                                   pytest.param(b" \t\r\n", id="whitespace")])
def test_a_chunk_of_blank_lines_alone_is_read_past_in_the_same_poll(tmp_path, blank):
    path = tmp_path / "feed.ndjson"
    blanks = blank * (FEED_CHUNK // len(blank) + 1)
    path.write_bytes(blanks + b"payload\n" + blanks + b"x" * FEED_CHUNK + b"\n")
    feed = FileFeed(path)
    assert (feed.poll(), feed.poll(), feed.poll()) == (b"payload", b"x" * FEED_CHUNK, None)


def test_an_incomplete_line_is_read_again_once_complete(tmp_path):
    path = tmp_path / "feed.ndjson"
    path.write_bytes(b"one\n\n  \ntw")
    feed = FileFeed(path)
    assert (feed.poll(), feed.poll()) == (b"one", None)
    with path.open("ab") as handle:
        handle.write(b"o\nthree\n")
    assert (feed.poll(), feed.poll(), feed.poll()) == (b"two", b"three", None)


# --- the plan and rate checks ----------------------------------------------

FIELDS = ("leaf", "source", "target", "start_time", "duration")


@st.composite
def commands_and_total(draw):
    """A plan's commands as a planner makes them, mostly, with at times a
    start out of order, a leaf repeated or one value replaced by an odd one,
    and its total duration, mostly the last command's end."""
    commands, clock = [], 0.0
    for _ in range(draw(st.integers(0, 5))):
        leaf = draw(st.integers(0, 9))
        source, target = (draw(st.one_of(st.integers(0, 10), st.floats(0, 10))) for _ in "st")
        clock += draw(st.sampled_from([0.0, 0.5, 1.25, -0.5]))
        duration = draw(st.floats(0, 3))
        commands.append(MotionCommand(leaf, source, target, clock, duration))
        clock += duration
    end = max((c.start_time + c.duration for c in commands), default=0.0)
    if commands and draw(st.booleans()):
        index = draw(st.integers(0, len(commands) - 1))
        commands[index] = replace(commands[index], **{draw(st.sampled_from(FIELDS)): draw(ODD)})
    total = draw(st.one_of(st.just(end), st.just(end + 1.0), ODD))
    return commands, total


@given(commands_and_total())
@settings(max_examples=500, deadline=None)
@example(([MotionCommand(True, 0, 5, 0.0, 1.0)], 1.0))
@example(([MotionCommand(0, True, 5, 0.0, 1.0)], 1.0))
@example(([MotionCommand(0, 0, False, 0.0, 1.0)], 1.0))
@example(([MotionCommand(IntSubclass(2), 0, 5, 0.0, 1.0)], 1.0))
@example(([MotionCommand(0, 0, 5, 10**400, 1.0)], 1.0))
@example(([MotionCommand(0, 0, 5, 0, 1)], 1))
@example(([MotionCommand(0, 0, 5, 0.0, NAN)], 1.0))
@example(([MotionCommand(0, 0, 5, FloatSubclass(0.0), 1.0)], 1.0))
def test_a_plan_is_checked_as_every_worded_check_did(case):
    commands, total = case
    made = outcome(lambda: MotionPlan("p", tuple(commands), total))
    expected = outcome(lambda: reference_check_plan(tuple(commands), total))
    if expected[0] == "returned":
        assert made[0] == "returned"
        plan = made[1]
        assert plan.commands == tuple(commands) and plan.total_duration is total
    else:
        assert made == expected


RATES = st.one_of(st.floats(0, 1), st.sampled_from([0.0, 1.0, 0.1, 0.9]), ODD)


@given(RATES, RATES)
@settings(max_examples=1000, deadline=None)
@example(True, 1.0)
@example(0.5, True)
@example(0, 1.0)
@example(0.5, 1)
@example(1.0, 10**400)
@example(NAN, 1.0)
@example(0.5, INF)
@example(FloatSubclass(0.5), 1.0)
@example(-0.0, 1.0)
def test_a_rate_is_encoded_and_refused_as_every_worded_check_did(rate, peak_rate):
    made = outcome(lambda: encode_relative(rate, peak_rate))
    expected = outcome(lambda: reference_encode_relative(rate, peak_rate))
    assert made == expected
    assert type(made[1]) is type(expected[1])
