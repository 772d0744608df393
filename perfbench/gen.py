"""Seeded workload inputs: forecast days, payload streams, animation and
chart decks.

Every deck is a pure function of its seed, and the expected outcome of every
input is computed here from the construction alone, without calling the
package, so the benchmark's output checks have an oracle of their own.

Days are built from their energy variations.  A day is a window of 3..10
consecutive hours inside 8..18.  Cloud dips split it into 1..4 variations.
Rates rise strictly up to each variation's peak and fall strictly after it,
and the peaks follow a solar envelope, so the package must segment the day
into exactly the variations it was built from.  Inputs the package refuses
are kept:
  * a variation shorter than the 3-hour chart minimum (a 2-hour variation at
    either end of the window) is refused by the frames path;
  * a window reaching 18:00 whose last position is nonzero is refused by the
    10-leaf device in ``serve`` and by the frames path.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

FIRST_HOUR = 8
LAST_HOUR = 18
MAX_DEVICE_HOUR = 17
MIN_CHART_HOURS = 3
WINDOWS = tuple(range(3, 11))
VARIATION_COUNTS = (1, 2, 3, 4)
MALFORMED_EVERY = 10
MALFORMED_KINDS = ("bad-rate", "missing-field", "non-consecutive", "not-json")

SERVE_PAYLOADS = 200
CHARTS_OPS = 320
STYLE_COUNT = 10

# Peak-relative bins of ``plantchart.encoder``: (upper edge, position); the
# peak ratio 1.0 maps to 10.
_RELATIVE_BINS = ((0.1, 0), (0.2, 3), (0.5, 4), (0.8, 5), (0.9, 6), (1.0, 7))


def relative_position(rate: float, peak: float) -> int:
    ratio = rate / peak
    if abs(ratio - 1.0) <= 1e-9:
        return 10
    for upper, position in _RELATIVE_BINS:
        if ratio <= upper:
            return position
    return 7


def solar(hour: int) -> float:
    """Clear-sky availability: sunrise 6:00, sunset 20:00."""
    return math.sin(math.pi * (hour - 6) / 14)


@dataclass(frozen=True)
class Variation:
    start: int
    peak: int
    end: int

    @property
    def hours(self) -> list[int]:
        return list(range(self.start, self.end + 1))


@dataclass(frozen=True)
class Day:
    hours: tuple[int, ...]
    rates: tuple[float, ...]
    variations: tuple[Variation, ...]

    def positions(self, variation: Variation) -> list[int]:
        """Per-hour peak-relative positions of one variation over the whole
        window; hours outside the variation encode 0."""
        peak = self.rates[variation.peak - self.hours[0]]
        return [
            relative_position(rate, peak) if variation.start <= hour <= variation.end else 0
            for hour, rate in zip(self.hours, self.rates)
        ]

    def device_targets(self, variation: Variation) -> list[int] | None:
        """Targets of the ten device leaves (hour 8 drives leaf 0), or None
        when an hour past 17:59 carries a nonzero position."""
        targets = [0] * 10
        for hour, position in zip(self.hours, self.positions(variation)):
            if hour > MAX_DEVICE_HOUR:
                if position:
                    return None
                continue
            targets[hour - FIRST_HOUR] = position
        return targets

    def chart_positions(self) -> list[int]:
        """Whole-day positions relative to the day's highest rate."""
        peak = max(self.rates)
        return [relative_position(rate, peak) for rate in self.rates]

    def document(self, date: str) -> dict:
        return {
            "date": date,
            "samples": [{"hour": h, "rate": r} for h, r in zip(self.hours, self.rates)],
        }


def _dips(length: int, count: int) -> list[int]:
    """Interior boundary indices of ``count`` variations over ``length``
    hours: evenly spread, at least two apart."""
    dips = []
    for i in range(count - 1):
        d = round((i + 1) * (length - 1) / count)
        lo = dips[-1] + 2 if dips else 1
        hi = length - 2 - 2 * (count - 2 - i)
        dips.append(min(max(d, lo), hi))
    return dips


def max_variations(length: int) -> int:
    # Dips sit in 1..length-2, two apart.
    return min(4, 1 + (length - 1) // 2)


def make_day(rng: random.Random, length: int, count: int,
             late: bool | None = None) -> Day:
    """A day of ``length`` hours and ``count`` variations (fewer when the
    window is too short); ``late`` forces the window to end at 18:00 or
    before it, otherwise the start hour is uniform."""
    count = min(count, max_variations(length))
    if late:
        start = LAST_HOUR - length + 1
    else:
        start = rng.randint(FIRST_HOUR, LAST_HOUR - length + (late is None))
    hours = tuple(range(start, start + length))
    bounds = [0, *_dips(length, count), length - 1]
    spans = list(zip(bounds, bounds[1:]))

    peaks = []
    for k, (a, b) in enumerate(spans):
        lo = a if k == 0 else a + 1
        hi = b if k == len(spans) - 1 else b - 1
        best = max(range(lo, hi + 1), key=lambda i: solar(hours[i]))
        peaks.append(min(max(best + rng.choice((-1, 0, 0, 1)), lo), hi))

    rates = [0.0] * length
    for p in peaks:
        rates[p] = round(max(0.2, solar(hours[p]) * rng.uniform(0.55, 1.0)), 3)
    # Boundary minima sit well below the neighbouring peaks.  At the window
    # ends they stay above a tenth of the peak, so an 18:00 end always
    # carries a nonzero position.
    for k, b in enumerate(bounds):
        if b in peaks:
            continue
        neighbours = [rates[peaks[j]] for j in (k - 1, k) if 0 <= j < len(peaks)]
        low = 0.05 if 0 < b < length - 1 else 0.15
        rates[b] = round(min(neighbours) * rng.uniform(low, 0.45), 3)
    for (a, b), p in zip(spans, peaks):
        _fill(rng, rates, a, p)
        _fill(rng, rates, b, p)
    variations = tuple(
        Variation(hours[a], hours[p], hours[b]) for (a, b), p in zip(spans, peaks)
    )
    return Day(hours, tuple(rates), variations)


def _fill(rng: random.Random, rates: list[float], edge: int, peak: int) -> None:
    """Strictly monotone rates from the minimum at ``edge`` to ``peak``."""
    steps = abs(peak - edge)
    if steps < 2:
        return
    low, high = rates[edge], rates[peak]
    cuts = sorted(rng.uniform(0.15, 0.85) for _ in range(steps - 1))
    direction = 1 if peak > edge else -1
    previous = low
    for j, cut in enumerate(cuts, start=1):
        value = round(low + (high - low) * cut, 3)
        value = min(max(value, previous + 0.002), high - 0.002 * (steps - j))
        rates[edge + direction * j] = round(value, 3)
        previous = rates[edge + direction * j]


def _cycle(rng: random.Random, values, n: int) -> list:
    """``n`` draws where every value appears once per round, in seeded order."""
    out = []
    while len(out) < n:
        round_ = list(values)
        rng.shuffle(round_)
        out.extend(round_)
    return out[:n]


def _days(rng: random.Random, n: int) -> list[Day]:
    """Every (window length, variation count) pair once per round."""
    pairs = [(length, count) for length in WINDOWS for count in VARIATION_COUNTS]
    return [make_day(rng, length, count) for length, count in _cycle(rng, pairs, n)]


def _date(k: int) -> str:
    return f"2026-{1 + k // 28 % 12:02d}-{1 + k % 28:02d}"


# --- serve-plantform -------------------------------------------------------


@dataclass(frozen=True)
class Payload:
    line: str
    day: Day | None  # None for a malformed payload
    fault: str | None = None
    fault_path: str | None = None

    def displayed_targets(self) -> tuple[list[list[int]], bool]:
        """Targets of the variations the service shows, in order, and whether
        it accepts the payload (it stops at the first refused variation)."""
        shown = []
        for variation in self.day.variations:
            targets = self.day.device_targets(variation)
            if targets is None:
                return shown, False
            shown.append(targets)
        return shown, True


def _malformed(rng: random.Random, day: Day, kind: str, date: str) -> Payload:
    doc = day.document(date)
    samples = doc["samples"]
    i = rng.randrange(len(samples))
    if kind == "bad-rate":
        samples[i]["rate"] = rng.choice((1.5, -0.25, "high", None))
        path = f"samples[{i}].rate"
    elif kind == "missing-field":
        field = rng.choice(("hour", "rate"))
        del samples[i][field]
        path = f"samples[{i}].{field}"
    elif kind == "non-consecutive":
        i = max(i, 1)
        samples[i]["hour"] = samples[i - 1]["hour"]
        path = f"samples[{i}].hour"
    else:
        text = json.dumps(doc, separators=(",", ":"))
        cut = rng.randrange(1, len(text) - 1)
        return Payload(text[:cut], None, kind, "document")
    return Payload(json.dumps(doc, separators=(",", ":")), None, kind, path)


def serve_stream(seed: int, n: int = SERVE_PAYLOADS) -> list[Payload]:
    """One JSON forecast document per payload; one payload in every
    ``MALFORMED_EVERY`` carries one fault, the kinds taken in turn."""
    rng = random.Random(f"serve-plantform/{seed}")
    blocks = -(-n // MALFORMED_EVERY)
    kinds = _cycle(rng, MALFORMED_KINDS, blocks)
    days = _days(rng, n)
    payloads = []
    for k, day in enumerate(days):
        block, slot = divmod(k, MALFORMED_EVERY)
        if slot == 0:
            bad_slot = rng.randrange(MALFORMED_EVERY)
        if slot == bad_slot:
            payloads.append(_malformed(rng, day, kinds[block], _date(k)))
        else:
            doc = day.document(_date(k))
            payloads.append(Payload(json.dumps(doc, separators=(",", ":")), day))
    return payloads


# --- frames-plantscreen ----------------------------------------------------


@dataclass(frozen=True)
class Animation:
    document: str  # the forecast document the CLI would read
    index: int  # --variation-index
    day: Day
    variation: Variation

    @property
    def hours(self) -> list[int]:
        """Chart hours: the variation's own hours the device has leaves for."""
        return [h for h in self.variation.hours if h <= MAX_DEVICE_HOUR]

    @property
    def targets(self) -> list[int]:
        positions = dict(zip(self.day.hours, self.day.positions(self.variation)))
        return [positions[h] for h in self.hours]

    @property
    def refusal(self) -> str | None:
        """Why the frames path refuses this animation, or None."""
        if self.day.device_targets(self.variation) is None:
            return "nonzero position past 17:59"
        if len(self.hours) < MIN_CHART_HOURS:
            return "shorter than the 3-hour chart minimum"
        return None


def frames_deck(seed: int, variant: int = 0) -> list[Animation]:
    """Every variation of every day, each one animation.

    Each (window length, variation count) pair comes once; half of them, by
    a fixed checkerboard, end at 18:00.  The seed orders the days and the
    ``variant`` draws their rates, so every deck animates the same hour
    counts in the same order and refuses the same ops."""
    shape = random.Random(f"frames-plantscreen/{seed}")
    rng = random.Random(f"frames-plantscreen/{seed}/{variant}")
    pairs = [(n, c, (n + c) % 2 == 0) for n in WINDOWS for c in VARIATION_COUNTS]
    days = [make_day(rng, *triple) for triple in _cycle(shape, pairs, len(pairs))]
    deck = []
    for k, day in enumerate(days):
        doc = json.dumps(day.document(_date(k)), separators=(",", ":"))
        deck.extend(Animation(doc, i, day, v) for i, v in enumerate(day.variations))
    return deck


# --- charts-gallery --------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    positions: tuple[int, ...]
    hours: tuple[int, ...]
    style_index: int  # into plantchart.svg.GALLERY_STYLES


def charts_deck(seed: int, variant: int = 0, n: int = CHARTS_OPS) -> list[Chart]:
    """Every (window length, style) pair equally often, each op a fresh day.
    The seed orders the pairs and the ``variant`` draws the days."""
    shape = random.Random(f"charts-gallery/{seed}")
    rng = random.Random(f"charts-gallery/{seed}/{variant}")
    counts = _cycle(shape, VARIATION_COUNTS, n)
    pairs = [(w, s) for w in WINDOWS for s in range(STYLE_COUNT)]
    order = _cycle(shape, pairs, n)
    deck = []
    for (length, style), count in zip(order, counts):
        day = make_day(rng, length, count)
        deck.append(Chart(tuple(day.chart_positions()), day.hours, style))
    return deck


def describe(workload: str, seed: int) -> dict:
    """Traffic dimensions of one workload's deck."""
    if workload == "serve-plantform":
        stream = serve_stream(seed)
        days = [p.day for p in stream if p.day is not None]
        faults = [p.fault for p in stream if p.fault]
        return {
            "payloads": len(stream),
            "malformed_share": len(faults) / len(stream),
            "malformed_kinds": {k: faults.count(k) for k in MALFORMED_KINDS},
            **_day_dims(days),
        }
    if workload == "frames-plantscreen":
        deck = frames_deck(seed)
        days = list({id(a.day): a.day for a in deck}.values())
        return {
            "animations": len(deck),
            "refused": sum(a.refusal is not None for a in deck),
            "animation_hours": _histogram(len(a.hours) for a in deck),
            **_day_dims(days),
        }
    deck = charts_deck(seed)
    return {
        "charts": len(deck),
        "window_hours": _histogram(len(c.hours) for c in deck),
        "style_mix": _histogram(c.style_index for c in deck),
    }


def _day_dims(days) -> dict:
    return {
        "window_hours": _histogram(len(d.hours) for d in days),
        "variations_per_day": _histogram(len(d.variations) for d in days),
    }


def _histogram(values) -> dict:
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return dict(sorted(counts.items()))
