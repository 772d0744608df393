"""Workday forecast series and their segmentation into energy variations.

A forecast series holds one rate per clock hour of a working day, each rate
being a fraction of the maximum renewable-energy availability.  A series
decomposes into *energy variations*: segments that start at a minimum,
rise to a peak, and fall to the following minimum.  Consecutive variations
share their boundary minimum hour, and the series boundaries themselves
count as minima, so a monotone series still yields one (degenerate)
variation.

Everything here is a plain immutable value; instances can be shared freely
across threads.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import NamedTuple

from . import _checks
from ._checks import MAX_SAMPLES, MIN_SAMPLES, quote

# Rates are dimensionless fractions of the maximum availability.
Rate = float
# Clock hour of the displayed day.  The standard working day runs from
# 8:00 to 17:59; charts may extend one evening slot further (18:59).
HourSlot = int

FIRST_HOUR = 8
LAST_HOUR = 18


class ForecastDocumentError(ValueError):
    """A forecast document failed validation; ``path`` names the bad field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _check_rate(value: float, path: str = "rate") -> float:
    if not _checks.is_number(value):
        raise ForecastDocumentError(path, f"expected a number, got {quote(value)}")
    if not 0.0 <= value <= 1.0:
        raise ForecastDocumentError(path, f"rate {quote(value)} out of range [0.0, 1.0]")
    return float(value)


def _check_hour(value: int, path: str = "hour") -> int:
    if not _checks.is_int(value):
        raise ForecastDocumentError(path, f"expected an integer hour, got {quote(value)}")
    if not FIRST_HOUR <= value <= LAST_HOUR:
        raise ForecastDocumentError(
            path, f"hour {quote(value)} out of range [{FIRST_HOUR}, {LAST_HOUR}]"
        )
    return value


@dataclass(frozen=True)
class ForecastSeries:
    """Hourly availability rates over a contiguous window of the working day."""

    hours: tuple[HourSlot, ...]
    rates: tuple[Rate, ...]
    date: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "hours", tuple(self.hours))
        object.__setattr__(self, "rates", tuple(self.rates))
        if len(self.hours) != len(self.rates):
            raise ValueError(
                f"hours and rates differ in length: {len(self.hours)} != {len(self.rates)}"
            )
        if not MIN_SAMPLES <= len(self.hours) <= MAX_SAMPLES:
            raise ForecastDocumentError(
                "samples", f"expected {MIN_SAMPLES}..{MAX_SAMPLES} samples, got {len(self.hours)}"
            )
        for i, hour in enumerate(self.hours):
            _check_hour(hour, f"samples[{i}].hour")
            if i and hour != self.hours[i - 1] + 1:
                raise ForecastDocumentError(
                    f"samples[{i}].hour",
                    f"hours must be consecutive: expected {self.hours[i - 1] + 1}, got {hour}",
                )
        for i, rate in enumerate(self.rates):
            _check_rate(rate, f"samples[{i}].rate")

    def __len__(self) -> int:
        return len(self.hours)

    def rate_at(self, hour: HourSlot) -> Rate:
        return self.rates[self.hours.index(hour)]


@dataclass(frozen=True)
class Variation:
    """One minimum -> peak -> minimum segment of a series.

    ``rates`` is aligned to the hours ``start..end`` inclusive, rises (weakly)
    up to the peak hour and falls (weakly) after it, and attains its maximum
    at the peak hour.
    """

    start: HourSlot
    peak: HourSlot
    end: HourSlot
    rates: tuple[Rate, ...]

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(self.rates))
        if not self.start <= self.peak <= self.end:
            raise ValueError(f"anchors out of order: {self.start}, {self.peak}, {self.end}")
        if len(self.rates) != self.end - self.start + 1:
            raise ValueError(
                f"rates length {len(self.rates)} does not span hours "
                f"{self.start}..{self.end}"
            )
        k = self.peak - self.start
        for i in range(1, len(self.rates)):
            if i <= k and self.rates[i] < self.rates[i - 1]:
                raise ValueError(f"rates must not fall before the peak (index {i})")
            if i > k and self.rates[i] > self.rates[i - 1]:
                raise ValueError(f"rates must not rise after the peak (index {i})")
        if self.rates[k] != max(self.rates):
            raise ValueError("peak hour must carry the maximum rate")

    @property
    def hours(self) -> tuple[HourSlot, ...]:
        return tuple(range(self.start, self.end + 1))

    @property
    def peak_rate(self) -> Rate:
        return self.rates[self.peak - self.start]


class SlopeRanges(NamedTuple):
    """Hour ranges of rising and falling availability; ``None`` when empty."""

    ascending: tuple[HourSlot, HourSlot] | None
    descending: tuple[HourSlot, HourSlot] | None


class StorageAdvice(NamedTuple):
    recharge: HourSlot
    discharge_start: HourSlot


def segment_variations(series: ForecastSeries) -> list[Variation]:
    """Split a series into its energy variations.

    Plateaus are absorbed into the surrounding monotone run; an extremum is
    anchored at the first hour attaining its value.  The first variation
    always opens at the first hour and the last one always closes at the
    last hour, so the variations tile the series (boundary minima belong to
    both neighbours).  A flat series has no variation.
    """
    rates = series.rates
    n = len(rates)
    moves = [
        (i, 1 if rates[i] > rates[i - 1] else -1)
        for i in range(1, n)
        if rates[i] != rates[i - 1]
    ]
    if not moves:
        return []

    # Merge consecutive same-sign moves into monotone runs; a run ends at the
    # sample reached by its last strict move.
    runs: list[tuple[int, int]] = []
    for index, sign in moves:
        if runs and runs[-1][0] == sign:
            runs[-1] = (sign, index)
        else:
            runs.append((sign, index))

    anchors = [0]
    if runs[0][0] < 0:
        anchors.append(0)  # the series opens on a fall: start doubles as peak
    for k, (sign, end) in enumerate(runs):
        if k < len(runs) - 1:
            anchors.append(end)
        elif sign > 0:
            anchors.extend((end, n - 1))
        else:
            anchors.append(n - 1)

    variations = []
    for k in range(0, len(anchors) - 2, 2):
        s, p, e = anchors[k], anchors[k + 1], anchors[k + 2]
        variations.append(
            Variation(
                start=series.hours[s],
                peak=series.hours[p],
                end=series.hours[e],
                rates=rates[s : e + 1],
            )
        )
    return variations


def peak_hour(variation: Variation) -> HourSlot:
    """Hour of the variation's maximum rate (earliest under ties)."""
    return variation.peak


def slope_ranges(variation: Variation) -> SlopeRanges:
    """The (start, peak) ascending and (peak, end) descending hour ranges."""
    ascending = (variation.start, variation.peak) if variation.start < variation.peak else None
    descending = (variation.peak, variation.end) if variation.peak < variation.end else None
    return SlopeRanges(ascending, descending)


def storage_advice(variation: Variation) -> StorageAdvice:
    """When to recharge storage (the peak) and when discharging may start."""
    return StorageAdvice(recharge=variation.peak, discharge_start=variation.start)


def load_series(document: str | bytes) -> ForecastSeries:
    """Parse a forecast document, either CSV with a ``hour,rate`` header or a
    JSON object ``{"date": ..., "samples": [{"hour": ..., "rate": ...}]}``.
    Bytes are decoded as UTF-8, less a leading byte-order mark.

    Raises :class:`ForecastDocumentError` naming the offending field.
    """
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ForecastDocumentError("document", f"not UTF-8: {exc}") from None
    stripped = document.lstrip()
    if not stripped:
        raise ForecastDocumentError("document", "empty forecast document")
    if stripped.startswith("{"):
        return _load_json(document)
    return _load_csv(document)


def read_series(path) -> ForecastSeries:
    with open(path, "rb") as handle:
        return load_series(handle.read())


def _load_json(document: str) -> ForecastSeries:
    try:
        payload = json.loads(document)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ForecastDocumentError("document", f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ForecastDocumentError("document", "JSON nested too deeply") from None
    # The text opens with "{", so what parsed is an object.
    samples = payload.get("samples")
    if not isinstance(samples, list):
        raise ForecastDocumentError("samples", "expected a list of samples")
    date = payload.get("date")
    if date is not None and not isinstance(date, str):
        raise ForecastDocumentError("date", f"expected a string, got {quote(date)}")
    hours, rates = [], []
    for i, sample in enumerate(samples):
        if not isinstance(sample, dict):
            raise ForecastDocumentError(f"samples[{i}]", "expected an object")
        if "hour" not in sample:
            raise ForecastDocumentError(f"samples[{i}].hour", "missing field")
        if "rate" not in sample:
            raise ForecastDocumentError(f"samples[{i}].rate", "missing field")
        hours.append(_check_hour(sample["hour"], f"samples[{i}].hour"))
        rates.append(_check_rate(sample["rate"], f"samples[{i}].rate"))
    return ForecastSeries(hours, rates, date)


def _load_csv(document: str) -> ForecastSeries:
    # Universal newlines, as a file read in text mode would have.
    reader = csv.reader(io.StringIO(document, newline=None))
    try:
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise ForecastDocumentError("document", f"invalid CSV: {exc}") from None
    if not rows:
        raise ForecastDocumentError("document", "empty forecast document")
    header = [cell.strip().lower() for cell in rows[0]]
    if header != ["hour", "rate"]:
        raise ForecastDocumentError(
            "header", f"expected 'hour,rate', got {quote(','.join(header))}"
        )
    hours, rates = [], []
    for i, row in enumerate(rows[1:]):
        if len(row) != 2:
            raise ForecastDocumentError(f"samples[{i}]", f"expected 2 columns, got {len(row)}")
        try:
            hour = int(row[0].strip())
        except ValueError:
            raise ForecastDocumentError(
                f"samples[{i}].hour", f"expected an integer hour, got {quote(row[0].strip())}"
            ) from None
        try:
            rate = float(row[1].strip())
        except ValueError:
            raise ForecastDocumentError(
                f"samples[{i}].rate", f"expected a number, got {quote(row[1].strip())}"
            ) from None
        hours.append(_check_hour(hour, f"samples[{i}].hour"))
        rates.append(_check_rate(rate, f"samples[{i}].rate"))
    return ForecastSeries(hours, rates)
