"""Long-running feed mode: forecasts in, actuation out.

Each payload received on the feed is one forecast document (the same JSON
schema the CLI accepts).  The service segments it, encodes every variation,
plans the motion from the device's current state (honouring the profile's
reset policy), and executes the plans on the simulated hardware, appending
to the device event log.  Malformed payloads are rejected and the service
stays up.

Feeds come in two flavours: a file feed that tails a newline-delimited
document file, and an in-process broker with MQTT-style topics (the default
topic is ``plantform/forecast``).  The feed listener stays decoupled from
the simulator: payloads are polled one at a time and the controller state
only advances in the service loop.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass, field

from . import device
from .encoder import EncodingMode, encode_series
from .motion import DeviceProfile, plan_for_profile, transition_plan
from .series import FIRST_HOUR, ForecastDocumentError, ForecastSeries, load_series, segment_variations

DEFAULT_TOPIC = "plantform/forecast"
DEVICE_LEAVES = 10
MAX_DEVICE_HOUR = FIRST_HOUR + DEVICE_LEAVES - 1


class FeedClosed(Exception):
    """The feed cannot deliver any further payloads."""


class Broker:
    """Minimal in-process publish/subscribe hub keyed by topic name."""

    def __init__(self):
        self._subscribers: dict[str, list[queue.SimpleQueue]] = {}

    def subscribe(self, topic: str) -> "BrokerFeed":
        q: queue.SimpleQueue = queue.SimpleQueue()
        self._subscribers.setdefault(topic, []).append(q)
        return BrokerFeed(q)

    def publish(self, topic: str, payload: str) -> int:
        queues = self._subscribers.get(topic, [])
        for q in queues:
            q.put(payload)
        return len(queues)


#: Process-wide broker used by the CLI's ``serve --topic`` mode.
default_broker = Broker()


class BrokerFeed:
    def __init__(self, q: queue.SimpleQueue):
        self._queue = q
        self.closed = False

    def poll(self, timeout: float = 0.0) -> str | None:
        if self.closed:
            raise FeedClosed("subscription closed")
        try:
            return self._queue.get(timeout=timeout) if timeout else self._queue.get_nowait()
        except queue.Empty:
            return None

    def close(self):
        self.closed = True


class FileFeed:
    """Tails a newline-delimited payload file; one forecast document per
    line (JSON) so payload boundaries are unambiguous."""

    def __init__(self, path):
        self.path = path
        self._offset = 0

    def poll(self, timeout: float = 0.0) -> str | None:
        deadline = time.monotonic() + timeout
        while True:
            line = self._read_line()
            if line is not None:
                return line
            if time.monotonic() >= deadline:
                return None
            time.sleep(min(0.02, timeout))

    def _read_line(self) -> str | None:
        """The next non-blank complete line, skipping blank ones."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                handle.seek(self._offset)
                while True:
                    line = handle.readline()
                    if not line.endswith("\n"):
                        return None  # incomplete write; retry later
                    self._offset = handle.tell()
                    stripped = line.strip()
                    if stripped:
                        return stripped
        except FileNotFoundError:
            return None

    def close(self):
        pass


def device_targets(series: ForecastSeries, positions: list[int]) -> list[int]:
    """Spread per-hour positions over the ten device leaves (hour 8 drives
    leaf 0); hours the hardware has no leaf for must encode 0."""
    targets = [0] * DEVICE_LEAVES
    for hour, position in zip(series.hours, positions):
        if hour > MAX_DEVICE_HOUR:
            if position != 0:
                raise ValueError(
                    f"hour {hour} carries position {position} but the device "
                    f"has leaves only up to hour {MAX_DEVICE_HOUR}"
                )
            continue
        targets[hour - FIRST_HOUR] = position
    return targets


@dataclass
class ForecastService:
    """Drives one simulated device from a stream of forecast payloads."""

    profile: DeviceProfile
    mode: EncodingMode = EncodingMode.PEAK_RELATIVE
    tick: float = 0.01
    controller: device.ControllerState = field(init=False)
    displayed: int = field(init=False, default=0)
    rejected: list[str] = field(init=False, default_factory=list)

    def __post_init__(self):
        device.check_dt(self.tick)
        self.controller = device.initial_state(self.profile)

    def handle_payload(self, payload: str) -> bool:
        """Parse and display one forecast; returns False on rejection."""
        try:
            series = load_series(payload)
        except ForecastDocumentError as exc:
            self.rejected.append(str(exc))
            return False
        try:
            self.display_series(series)
        except (ValueError, device.SimulationError) as exc:
            self.rejected.append(str(exc))
            return False
        return True

    def display_series(self, series: ForecastSeries) -> None:
        """Segment, encode, plan and execute every variation in turn."""
        for variation in segment_variations(series):
            positions = encode_series(series, variation, self.mode)
            targets = device_targets(series, positions)
            current = device.leaf_positions(self.controller)
            if any(current):
                plan = transition_plan(current, targets, self.profile)
            else:
                plan = plan_for_profile(targets, current, self.profile)
            self.controller = device.run_plan(self.controller, plan, dt=self.tick)
            self.displayed += 1

    def event_log_ndjson(self) -> str:
        return device.events_to_ndjson(self.controller.event_log)


def run_service(
    service: ForecastService,
    feed,
    max_messages: int | None = None,
    poll_timeout: float = 0.2,
    max_idle_polls: int | None = None,
) -> int:
    """Poll the feed until ``max_messages`` payloads were handled (or the
    feed stays silent for ``max_idle_polls`` polls).  Returns the number of
    accepted payloads.  Poll failures back off, doubling up to one second."""
    accepted = 0
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
            backoff = min(1.0, backoff * 2)
            if max_idle_polls is not None and idle >= max_idle_polls:
                break
            continue
        idle = 0
        backoff = poll_timeout
        handled += 1
        if service.handle_payload(payload):
            accepted += 1
    return accepted
