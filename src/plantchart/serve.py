"""Long-running feed mode: forecasts in, actuation out.

Each payload received on the feed is one forecast document (the same JSON
schema the CLI accepts).  The service segments it, encodes every variation,
plans the motion from the device's current state and executes the plans on
the simulated hardware, appending to the device event log.  The profile's
reset rule between two variations lives in :mod:`.motion`.  Malformed
payloads are rejected and the service stays up.

The feed tails a newline-delimited document file, one forecast per line.
It stays decoupled from the simulator: payloads are polled one at a time
and the controller state only advances in the service loop.  A poll with
no line in hand refills: one open and one read of at most
:data:`FEED_CHUNK` bytes take every complete line that is there, and
later polls hand those lines out from memory.  A line longer than the
chunk is still read whole.

:func:`plan_variation` is the one forecast-to-plan step, shared with the
CLI.  Hours map to device leaves by :func:`.motion.leaf_for_hour` alone.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

from . import _checks, device
from .encoder import EncodingDomainError, EncodingMode, check_mode, encode_series
from .motion import (
    LEAF_COUNT,
    MAX_DEVICE_HOUR,
    DeviceProfile,
    MotionPlan,
    leaf_for_hour,
    plan_for_profile,
    transition_plan,
)
from .series import (
    ForecastSeries,
    Variation,
    load_series,
    segment_variations,
)

POLL_QUANTUM = 0.02  # seconds between two reads of an idle feed
#: Most bytes one refill of a :class:`FileFeed` reads, unless a line is longer.
FEED_CHUNK = 1 << 16
#: Most rejection reasons a :class:`ForecastService` keeps, the latest ones.
REJECTIONS_KEPT = 1000


class FeedClosed(Exception):
    """The feed cannot deliver any further payloads."""


class FileFeed:
    """Tails a newline-delimited payload file; one forecast document per
    line (JSON) so payload boundaries are unambiguous.

    The file is only appended to.  A poll hands out the next line of the
    last refill; when none is left, it refills: it reads at most
    :data:`FEED_CHUNK` bytes from the end of the last complete line, and
    takes the complete lines among them.  A line longer than the chunk is
    read on, up to its end.  An incomplete last line is left in the file
    for a later refill, so the feed holds at most one chunk, or one line
    longer than that."""

    def __init__(self, path):
        self.path = path
        self._offset = 0
        self._lines = iter(())

    def poll(self, timeout: float = 0.0) -> bytes | None:
        deadline = time.monotonic() + timeout
        while True:
            line = self._read_line()
            if line is not None:
                return line
            if time.monotonic() >= deadline:
                return None
            time.sleep(min(POLL_QUANTUM, timeout))

    def _read_line(self) -> bytes | None:
        """The next non-blank complete line, skipping blank ones.  Lines are
        bytes, so that one that is not UTF-8 reaches :func:`load_series`,
        which rejects it, and the lines after it are still read."""
        line = next(self._lines, None)
        while line is None:  # a refill that took blank lines alone reads on
            offset = self._offset
            self._lines = self._refill()
            line = next(self._lines, None)
            if self._offset == offset:  # no complete line yet
                break
        return line

    def _refill(self) -> Iterator[bytes]:
        """The non-blank complete lines from the offset on, stripped, and
        the offset moved past them."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                data = handle.read(FEED_CHUNK)
                if len(data) == FEED_CHUNK and b"\n" not in data:
                    data += handle.readline()  # a line longer than the chunk
        except FileNotFoundError:
            return iter(())
        end = data.rfind(b"\n") + 1  # an incomplete write waits for a later refill
        self._offset += end
        return filter(None, map(bytes.strip, data[:end].split(b"\n")))


def device_targets(series: ForecastSeries, positions: list[int]) -> list[int]:
    """Spread per-hour positions over the ten device leaves; leaves with no
    hour in ``series`` stay at 0.  An hour past :data:`MAX_DEVICE_HOUR`
    (17:59) has no leaf, so it must encode 0: a nonzero position there
    raises :class:`.encoder.EncodingDomainError`."""
    targets = [0] * LEAF_COUNT
    for hour, position in zip(series.hours, positions):
        if hour <= MAX_DEVICE_HOUR:
            targets[leaf_for_hour(hour)] = position
        elif position != 0:
            raise EncodingDomainError(
                f"hour {hour} carries position {position} but the device "
                f"has leaves only up to hour {MAX_DEVICE_HOUR}"
            )
    return targets


def plan_variation(
    series: ForecastSeries,
    variation: Variation,
    mode: EncodingMode,
    profile: DeviceProfile,
    current: list[int] | None = None,
) -> MotionPlan:
    """The motion plan that shows one variation of ``series``.

    With ``current`` None, only the variation's own leaves move, starting
    furled.  Given the ten current leaf positions, all ten leaves move from
    there through :func:`.motion.transition_plan`, which owns the profile's
    reset rule.  Raises :class:`.encoder.EncodingDomainError` when an hour
    past 17:59 encodes a nonzero position.
    """
    targets = device_targets(series, encode_series(series, variation, mode))
    if current is None:
        leaves = [leaf_for_hour(hour) for hour in variation.hours if hour <= MAX_DEVICE_HOUR]
        return plan_for_profile([targets[leaf] for leaf in leaves], [0] * len(leaves),
                                profile, leaves)
    return transition_plan(current, targets, profile)


@dataclass
class ForecastService:
    """Drives one simulated device from a stream of forecast payloads.

    The device's state lives in one simulator core that the service keeps
    from payload to payload; :attr:`controller` is its snapshot.  The
    service owns the device's event log, an append-only list of ``(t,
    board, kind, detail)`` tuples that each play extends with the events
    the core returns, and which :meth:`event_log_ndjson` serializes.
    ``rejections`` counts the rejected payloads; ``rejected`` keeps the
    reasons of the latest :data:`REJECTIONS_KEPT` of them, oldest first.
    """

    profile: DeviceProfile
    mode: EncodingMode = EncodingMode.PEAK_RELATIVE
    tick: float = device.DEFAULT_TICK
    accepted: int = field(init=False, default=0)
    displayed: int = field(init=False, default=0)
    rejections: int = field(init=False, default=0)
    rejected: deque[str] = field(
        init=False, default_factory=lambda: deque(maxlen=REJECTIONS_KEPT))

    def __post_init__(self):
        device.check_dt(self.tick)
        check_mode(self.mode)
        self._snapshot = device.initial_state(self.profile)
        self._core = device._Core(self._snapshot)
        self._events: list[tuple] = []

    @property
    def controller(self) -> device.ControllerState:
        """The device's current state, built on the first read after a plan
        was played and shared by the reads until the next one.  Its
        ``event_log`` is a read-only view of the service's log as written so
        far, shared rather than copied, so a read costs the same however
        long the service has run."""
        if self._snapshot is None:
            self._snapshot = self._core.snapshot(device._EventLog(self._events, len(self._events)))
        return self._snapshot

    def handle_payload(self, payload: str | bytes) -> bool:
        """Parse and display one forecast; returns False on rejection."""
        try:
            self.display_series(load_series(payload))
        except (ValueError, device.SimulationError) as exc:
            self.rejections += 1
            self.rejected.append(str(exc))
            return False
        self.accepted += 1
        return True

    def display_series(self, series: ForecastSeries) -> None:
        """Segment, encode, plan and execute every variation in turn."""
        for variation in segment_variations(series):
            current = self._core.positions()
            self.play(plan_variation(series, variation, self.mode, self.profile, current))
            self.displayed += 1

    def play(self, plan: MotionPlan) -> None:
        """Play ``plan`` on the device from its current state.  A plan the
        simulator refuses leaves the device and the log as they were."""
        self._events += self._core.run(plan, self.tick)
        self._snapshot = None

    def event_log_ndjson(self) -> str:
        return device.events_to_ndjson(self._events)


def run_service(
    service: ForecastService,
    feed,
    max_messages: int | None = None,
    poll_timeout: float = 0.2,
    max_idle_polls: int | None = None,
) -> int:
    """Poll the feed until ``max_messages`` payloads were handled (or the
    feed stays silent for ``max_idle_polls`` polls).  Returns
    ``service.accepted``, the payloads the service has accepted so far.
    Poll failures back off, doubling up to one second from at least
    :data:`POLL_QUANTUM`, so an idle feed is never polled in a busy loop,
    even with a zero ``poll_timeout``, which must be a finite number >= 0."""
    _checks.non_negative("poll_timeout", poll_timeout)
    handled = 0
    idle = 0
    backoff = poll_timeout
    while max_messages is None or handled < max_messages:
        try:
            payload = feed.poll(timeout=backoff)
        except FeedClosed:
            break
        if payload is None:
            idle += 1
            backoff = min(1.0, max(POLL_QUANTUM, backoff * 2))
            if max_idle_polls is not None and idle >= max_idle_polls:
                break
            continue
        idle = 0
        backoff = poll_timeout
        handled += 1
        service.handle_payload(payload)
    return service.accepted
