"""Mapping availability rates to discrete unfurl positions.

Shapes actuate over eleven positions, 0 (fully furled) to 10 (fully
unfurled).  Three encodings are supported:

* ``PEAK_RELATIVE`` -- the rate is first normalized by the peak rate of the
  displayed variation, then binned non-linearly so that starts, peaks and
  ends stand out.  With ``r`` the peak ratio:

      r in [0.0, 0.1] -> 0      r in (0.5, 0.8] -> 5
      r in (0.1, 0.2] -> 3      r in (0.8, 0.9] -> 6
      r in (0.2, 0.5] -> 4      r in (0.9, 1.0) -> 7
                                r = 1.0         -> 10

  Positions 1, 2, 8 and 9 are never emitted in this mode.
* ``ABSOLUTE_LINEAR`` -- half-up rounding of ``rate * 10`` over eleven
  uniform bins (no peak normalization).
* ``SIX_STEP`` -- the coarse six-position scale 0/20/40/60/80/100 %,
  ``step = ceil(rate / 0.2)``.

All functions are pure; concurrent use needs no coordination.
"""

from __future__ import annotations

import enum
import math

from . import _checks
from ._checks import POSITION_MAX, POSITION_MIN
from .series import ForecastSeries, Rate, Variation

LeafPosition = int

# Upper bin edges of the peak-relative table, paired with the emitted
# position.  The peak ratio 1.0 overrides the last bin and maps to 10,
# :data:`POSITION_MAX`.
_RELATIVE_BINS: tuple[tuple[float, int], ...] = (
    (0.1, 0),
    (0.2, 3),
    (0.5, 4),
    (0.8, 5),
    (0.9, 6),
    (1.0, 7),
)
PEAK_RATIO_TOLERANCE = 1e-9


class EncodingMode(enum.Enum):
    PEAK_RELATIVE = "relative"
    ABSOLUTE_LINEAR = "absolute"
    SIX_STEP = "six-step"


def check_mode(mode) -> EncodingMode:
    """Return ``mode`` if it is an :class:`EncodingMode`, which its string
    value is not; raise ``ValueError`` otherwise."""
    if not isinstance(mode, EncodingMode):
        raise ValueError(f"mode must be an EncodingMode, got {_checks.quote(mode)}")
    return mode


class EncodingDomainError(ValueError):
    """A forecast the encoding or the device's leaves cannot show."""


class FlatVariationError(EncodingDomainError):
    """Peak-relative encoding is undefined when the peak rate is zero."""


def encode_relative(rate: Rate, peak_rate: Rate) -> LeafPosition:
    """Encode a rate in ``[0, peak_rate]`` relative to the finite peak rate
    of its variation."""
    if not (type(rate) is float and type(peak_rate) is float
            and 0.0 <= rate <= peak_rate < math.inf and peak_rate > 0.0):
        _check_relative(rate, peak_rate)
    # The ratio is in [0, 1], so one of the bins takes it.
    ratio = rate / peak_rate
    if abs(ratio - 1.0) <= PEAK_RATIO_TOLERANCE:
        return POSITION_MAX
    for upper, position in _RELATIVE_BINS:
        if ratio <= upper:
            return position


def _check_relative(rate: Rate, peak_rate: Rate) -> None:
    """The worded checks of :func:`encode_relative`'s values, in order."""
    if peak_rate <= 0.0:
        raise FlatVariationError("peak rate is zero; flat variations cannot be peak-normalized")
    _checks.finite("peak rate", peak_rate)
    if rate > peak_rate:
        raise ValueError(f"rate {rate} exceeds peak rate {peak_rate}")
    _checks.within("rate", (rate,), 0.0, peak_rate)


def encode_absolute(rate: Rate) -> LeafPosition:
    """Half-up rounding of the rate over eleven uniform bins."""
    _checks.within("rate", (rate,), 0.0, 1.0)
    return math.floor(rate * 10 + 0.5)


def encode_six_step(rate: Rate) -> int:
    """The six-position unfurl scale: 0 and one step per started 20 %."""
    _checks.within("rate", (rate,), 0.0, 1.0)
    if rate <= 0.0:
        return 0
    return math.ceil(rate * 5)


def encode_series(
    series: ForecastSeries,
    variation: Variation,
    mode: EncodingMode = EncodingMode.PEAK_RELATIVE,
) -> list[LeafPosition]:
    """Per-hour positions for one variation of a series.

    Hours outside the variation encode 0.  Peak-relative encoding normalizes
    by the variation's own peak rate.
    """
    check_mode(mode)
    _check_membership(series, variation)
    positions = []
    for hour, rate in zip(series.hours, series.rates):
        if not variation.start <= hour <= variation.end:
            positions.append(0)
        elif mode is EncodingMode.PEAK_RELATIVE:
            positions.append(encode_relative(rate, variation.peak_rate))
        elif mode is EncodingMode.ABSOLUTE_LINEAR:
            positions.append(encode_absolute(rate))
        else:
            positions.append(encode_six_step(rate))
    return positions


def position_rate_interval(
    position: int, mode: EncodingMode = EncodingMode.PEAK_RELATIVE
) -> tuple[float, float]:
    """The ratio interval that encodes to ``position`` under ``mode``.

    Returned as ``(lo, hi)``.  Peak-relative intervals are open below and
    closed above, except ``[0.0, 0.1]`` for position 0, the open ``(0.9,
    1.0)`` for position 7 and the single point ``[1.0, 1.0]`` for position
    10.  Absolute intervals are closed below and open above except the last;
    six-step intervals follow the peak-relative convention.  Together the
    intervals of the emittable positions partition [0, 1].
    """
    if check_mode(mode) is EncodingMode.PEAK_RELATIVE:
        # A bin runs from the previous bin's upper edge; the peak is the point 1.0.
        edges = (0.0, *(upper for upper, _ in _RELATIVE_BINS))
        table = {position: (lo, hi) for lo, (hi, position) in zip(edges, _RELATIVE_BINS)}
        table[POSITION_MAX] = (1.0, 1.0)
        if not (_checks.is_number(position) and position in table):
            raise ValueError(f"position {position} is not emittable in peak-relative mode")
        return table[position]
    if mode is EncodingMode.ABSOLUTE_LINEAR:
        _checks.within("position", (position,), POSITION_MIN, POSITION_MAX)
        lo = max(0.0, (position - 0.5) / 10)
        hi = min(1.0, (position + 0.5) / 10)
        return (lo, hi)
    _checks.within("step", (position,), 0, 5)
    if position == 0:
        return (0.0, 0.0)
    return ((position - 1) * 0.2, position * 0.2)


def _check_membership(series: ForecastSeries, variation: Variation) -> None:
    if variation.start < series.hours[0] or variation.end > series.hours[-1]:
        raise ValueError(
            f"variation {variation.start}..{variation.end} lies outside the series"
        )
    offset = variation.start - series.hours[0]
    span = series.rates[offset : offset + len(variation.rates)]
    if tuple(span) != variation.rates:
        raise ValueError("variation rates do not match the series over its hours")
