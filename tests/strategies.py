"""Hypothesis strategies and bad inputs shared by the test modules."""

from hypothesis import strategies as st

from plantchart.series import ForecastSeries

# Rates on the 11-level grid {0.0, 0.1, ..., 1.0}.
grid_rate = st.integers(min_value=0, max_value=10).map(lambda k: k / 10)


@st.composite
def grid_series(draw, min_length: int = 3, max_length: int = 10) -> ForecastSeries:
    length = draw(st.integers(min_value=min_length, max_value=max_length))
    start = draw(st.integers(min_value=8, max_value=18 - (length - 1)))
    rates = draw(st.lists(grid_rate, min_size=length, max_size=length))
    return ForecastSeries(
        hours=tuple(range(start, start + length)), rates=tuple(rates)
    )


@st.composite
def position_vectors(draw, min_length: int = 3, max_length: int = 10):
    length = draw(st.integers(min_value=min_length, max_value=max_length))
    return draw(
        st.lists(
            st.integers(min_value=0, max_value=10), min_size=length, max_size=length
        )
    )


# One-line documents no parser accepts, each with the text its
# ``document:`` rejection contains.
UNPARSABLE_DOCUMENTS = {
    "non-utf8": (b'{"samples": "\xff"}', "not UTF-8"),
    "json-nested-100k": (b'{"a":' * 100_000 + b"1" + b"}" * 100_000, "JSON nested too deeply"),
    "csv-field-200k": (b"hour," + b"9" * 200_000, "field larger than field limit"),
}

# Documents that parse but have the wrong shape, each with its whole
# rejection message.  Unchecked, each would raise a ``TypeError``, a
# ``KeyError`` or an ``IndexError``, which a service does not catch.
MISSHAPEN_DOCUMENTS = {
    "json-samples-not-a-list": ('{"samples": 5}', "samples: expected a list of samples"),
    "json-sample-not-an-object": ('{"samples": [5]}', "samples[0]: expected an object"),
    "json-sample-without-hour": ('{"samples": [{"rate": 0.5}]}', "samples[0].hour: missing field"),
    "csv-row-of-1": ("hour,rate\n8\n", "samples[0]: expected 2 columns, got 1"),
    "csv-row-of-3": ("hour,rate\n8,0.1,0.2\n", "samples[0]: expected 2 columns, got 3"),
    "csv-separators-only": (",\n,,\n", "document: empty forecast document"),
}
