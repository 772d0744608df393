"""The package's value rules, which no other module decides: a number is
an ``int`` or a ``float`` and an int an ``int``, but a ``bool`` is neither;
and what "finite", "> 0", ">= 0" and "in [lo, hi]" mean.  A check returns
its value or raises a ``ValueError``, worded here, that names the field
and quotes at most :data:`QUOTE_LIMIT` characters of the value's ``repr``.
That is the contract of every public entry point: a value of the
documented type that breaks a rule raises ``ValueError`` naming the field;
a value of another type may raise ``TypeError``.

The checks run per sample, per command and per frame row, so the number
test of :func:`is_number` is spelt out where it is needed, not called.
Where a value is almost always a plain in-range number, a combined fast
test stands in for the calls: :class:`.motion.MotionPlan` tests each
command's five values, and :func:`.encoder.encode_relative` its rate and
peak, for exact ``int``/``float`` types inside their ranges.  The fast
test only passes what the checks pass; a value that fails it always
reaches the worded checks, in their order, so every refusal keeps its
type and its text.

This module also owns the three ranges that several layers check, so
that a layer can check them without importing the layer that uses them:
a leaf position is in ``POSITION_MIN..POSITION_MAX``, a chart or a
forecast holds ``MIN_SAMPLES..MAX_SAMPLES`` hours, and an hour of the
working day is in ``FIRST_HOUR..LAST_HOUR``.  ``encoder`` and ``series``
re-export them under the same names."""

import math

#: Most characters of a bad value that a rejection message quotes.
QUOTE_LIMIT = 80

#: The leaf positions: furled at 0, fully unfurled at 10.
POSITION_MIN = 0
POSITION_MAX = 10
#: The hours a chart displays and a forecast holds.
MIN_SAMPLES = 3
MAX_SAMPLES = 10
#: The clock hours of a working day: 8:00 to 17:59, and one evening slot
#: (18:59) that a chart may show.
FIRST_HOUR = 8
LAST_HOUR = 18


def quote(value: object) -> str:
    """``repr(value)``, cut to :data:`QUOTE_LIMIT` characters and ``...``."""
    quoted = repr(value)
    return quoted if len(quoted) <= QUOTE_LIMIT else quoted[:QUOTE_LIMIT] + "..."


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and type(value) is not bool


def is_int(value) -> bool:
    return isinstance(value, int) and type(value) is not bool


def is_finite(value) -> bool:
    return isinstance(value, (int, float)) and type(value) is not bool and math.isfinite(value)


def _refuse(name: str, rule: str, value):
    raise ValueError(f"{name} must be {rule}, got {quote(value)}")


def finite(name: str, value):
    return value if is_finite(value) else _refuse(name, "a finite number", value)


def positive(name: str, value):
    return value if is_finite(value) and value > 0 else _refuse(name, "a finite number > 0", value)


def non_negative(name: str, value):
    """Worded as :func:`finite` for a value that is not a finite number."""
    if is_finite(value) and value >= 0:
        return value
    _refuse(name, ">= 0" if is_finite(value) else "a finite number", value)


def number_in(name: str, value, lo, hi):
    if isinstance(value, (int, float)) and type(value) is not bool and lo <= value <= hi:
        return value
    _refuse(name, f"a number in [{lo}, {hi}]", value)


def an_int(name: str, value, lo=None, hi=None) -> int:
    """``value`` if it is an int, ``>= lo`` when ``lo`` is given and
    ``<= hi`` when ``hi`` is given."""
    if (isinstance(value, int) and type(value) is not bool
            and (lo is None or lo <= value) and (hi is None or value <= hi)):
        return value
    rule = ("an int" if lo is None else f"an int >= {lo}" if hi is None
            else f"an int in [{lo}, {hi}]")
    _refuse(name, rule, value)


def one_of(name: str, value, values):
    """``value`` if it equals one of ``values``, which the rule quotes."""
    if value in values:
        return value
    _refuse(name, f"one of {', '.join(map(quote, values))}", value)


def within(subject: str, values, lo, hi, slack: float = 0.0) -> None:
    """Raise ``<subject> <value> out of range [lo, hi]`` at the first of
    ``values`` that is not a number in ``[lo, hi + slack]``."""
    top = hi + slack
    for value in values:
        if type(value) is bool or not isinstance(value, (int, float)) or not lo <= value <= top:
            raise ValueError(f"{subject} {quote(value)} out of range [{lo}, {hi}]")
