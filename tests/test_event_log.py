"""The NDJSON event log against its one-record-at-a-time reference.

``device.events_to_ndjson`` serializes each distinct event head once and
appends each event's time to it.  Its output must be the reference's, byte
for byte, for any events, given as ``LogEvent`` values or as the plain
``(t, board, kind, detail)`` tuples the simulator logs: values that compare
equal but serialize differently (``1``, ``1.0``, ``True``) share no head,
and an event the reference cannot serialize fails the same way.
"""

import enum
import math

from hypothesis import example, given, settings, strategies as st

from oracles import reference_events_to_ndjson
from plantchart import device
from plantchart.device import LogEvent, events_to_ndjson
from plantchart.motion import PLANTFORM, plan_for_profile

# Values that compare equal, or hash alike, across types.
CLASHING = [1, 1.0, True, 0, 0.0, -0.0, False, None]
scalars = st.one_of(
    st.sampled_from(CLASHING),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
)
values = st.one_of(
    scalars,
    st.tuples(scalars),  # (1,) == (True,), but they serialize apart
    st.lists(scalars, max_size=2),  # unhashable
    st.sampled_from([b"x", frozenset()]),  # not JSON
)
keys = st.one_of(st.sampled_from(["leaf", "on", "step", "é", 1, True]), st.text(max_size=3))
boards = st.one_of(st.sampled_from([None, 0, 1, 1.0, True]), st.integers(0, 5))
kinds = st.one_of(st.sampled_from(["set_target", "ack", "relay", "päivä", "叶"]), st.text())
details = st.lists(st.tuples(keys, values), max_size=4).map(tuple)
times = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 3, True, 0.01]),
    st.floats(),
)


@st.composite
def event_logs(draw):
    """Events drawn from a few heads and times, so that heads repeat and
    events share one time object, as in a simulator log.  Each event is a
    ``LogEvent`` or a plain 4-tuple, as the simulator logs it."""
    heads = draw(st.lists(st.tuples(boards, kinds, details), min_size=1, max_size=5))
    ts = draw(st.lists(times, min_size=1, max_size=4))
    picks = st.tuples(st.sampled_from(heads), st.sampled_from(ts), st.booleans())
    return tuple(LogEvent(t, *head) if named else (t, *head)
                 for head, t, named in draw(st.lists(picks, max_size=12)))


def outcome(serialize, events):
    try:
        return serialize(events)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class Board(enum.IntEnum):
    ONE = 1


COLLIDING = tuple(LogEvent(0.5, None, "relay", (("on", v),)) for v in (1, 1.0, True, 1))
BOARDS = tuple(LogEvent(0.5, b, "ack", (("leaf", 3),)) for b in (None, 0, 1, 1.0, True, False))
TIMES = tuple(LogEvent(t, 0, "ack", ()) for t in (-0.0, 0.0, math.inf, math.nan, 2, True, 0.25))


@settings(max_examples=300, deadline=None)
@given(event_logs())
@example(())
@example(COLLIDING)
@example(BOARDS)
@example(TIMES)
@example((LogEvent(1.0, 0, "ßeta", (("k", 1), ("k", True), ("ключ", "ü"))),) * 2)
@example((LogEvent(1.0, 0, "ack", (("xs", [1]),)), LogEvent(1.0, 0, "ack", (("xs", [True]),))))
@example((LogEvent(1.0, 0, "ack", (("b", b"x"),)),))
@example(((0.5, None, "relay", (("on", True),)), LogEvent(0.5, None, "relay", (("on", True),))))
@example((LogEvent(0.5, Board.ONE, "ack", (("leaf", 2),)),) * 2)  # marshal refuses the head
def test_same_bytes_as_the_reference(events):
    named = [LogEvent(*event) for event in events]
    assert outcome(events_to_ndjson, events) == outcome(reference_events_to_ndjson, named)


def test_equal_values_of_other_types_keep_their_own_text():
    lines = events_to_ndjson(COLLIDING).splitlines()
    assert [line.split('"on": ')[1].split("}")[0] for line in lines] == ["1", "1.0", "true", "1"]


def test_a_simulator_log_has_the_reference_bytes():
    ctrl = device.initial_state(PLANTFORM)
    log = ()
    for targets in ([10] * 10, [3, 7] * 5, [0] * 10):
        current = device.leaf_positions(ctrl)
        ctrl = device.run_plan(ctrl, plan_for_profile(targets, current, PLANTFORM))
        log += ctrl.event_log
    assert len(log) > 50
    assert events_to_ndjson(log) == reference_events_to_ndjson(log)
