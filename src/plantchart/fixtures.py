"""Built-in forecast fixtures: the variation tables of the three studies.

Each fixture names one displayed energy variation by its (start, peak, end)
anchors.  The underlying rate curves came from recorded solar-panel
production; only the anchors were published, so the series are rebuilt by
monotone piecewise-linear interpolation from 0.0 at the start, through 1.0
at the peak, back to 0.0 at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _checks
from .series import ForecastSeries

ONLINE_STUDY_1 = "online-study-1"
ONLINE_STUDY_2 = "online-study-2"
USER_STUDY = "user-study"


@dataclass(frozen=True)
class Fixture:
    name: str
    group: str
    start: int
    peak: int
    end: int
    device: str | None = None  # user-study rows only

    @property
    def anchors(self) -> tuple[int, int, int]:
        return (self.start, self.peak, self.end)

    def series(self) -> ForecastSeries:
        return interpolate_series(self.start, self.peak, self.end)


def interpolate_series(start: int, peak: int, end: int) -> ForecastSeries:
    """Linear rise 0 -> 1 over [start, peak], linear fall 1 -> 0 over
    [peak, end]."""
    hours = range(start, end + 1)
    rates = []
    for hour in hours:
        if hour <= peak:
            rates.append(1.0 if peak == start else (hour - start) / (peak - start))
        else:
            rates.append((end - hour) / (end - peak))
    return ForecastSeries(hours=tuple(hours), rates=tuple(rates))


def _fixture_table() -> dict[str, Fixture]:
    rows: list[Fixture] = []

    # First online study: six low-fidelity charts, one variation each.
    for name, anchors in (
        ("online1-bar-one-straight", (8, 11, 15)),
        ("online1-bar-one-curvy", (8, 11, 15)),
        ("online1-bar-alternated-curvy", (8, 11, 15)),
        ("online1-leaf-one-straight", (9, 13, 17)),
        ("online1-leaf-one-curvy", (10, 14, 18)),
        ("online1-leaf-alternated-curvy", (10, 14, 18)),
    ):
        rows.append(Fixture(name, ONLINE_STUDY_1, *anchors))

    # Second online study: three variations per histogram.
    for name, anchors in (
        ("bambhisto-1", (9, 13, 17)),
        ("bambhisto-2", (9, 11, 13)),
        ("bambhisto-3", (13, 16, 17)),
        ("planthisto-1", (10, 14, 17)),
        ("planthisto-2", (9, 12, 14)),
        ("planthisto-3", (14, 16, 17)),
    ):
        rows.append(Fixture(name, ONLINE_STUDY_2, *anchors))

    # Comparative user study: five variations (two day-long, three short)
    # for each of the four devices.
    user_study = {
        "plantscreen": ((8, 13, 17), (10, 15, 17), (8, 10, 11), (11, 12, 13), (13, 14, 17)),
        "plantform": ((8, 12, 17), (10, 16, 17), (8, 9, 12), (12, 14, 15), (15, 16, 17)),
        "cairnscreen": ((8, 14, 17), (10, 13, 17), (8, 11, 12), (12, 13, 14), (14, 15, 17)),
        "cairnform": ((8, 11, 17), (10, 14, 17), (8, 9, 10), (10, 11, 14), (14, 16, 17)),
    }
    day_names = ("monday", "tuesday", "wednesday-1", "wednesday-2", "wednesday-3")
    for device, variations in user_study.items():
        for day, anchors in zip(day_names, variations):
            rows.append(Fixture(f"{device}-{day}", USER_STUDY, *anchors, device=device))

    return {row.name: row for row in rows}


FIXTURES: dict[str, Fixture] = _fixture_table()

# The seventeen table rows the suite must reproduce anchor-for-anchor: both
# online studies plus the physical leaf device's five user-study rows.
ANCHOR_TABLE_ROWS: tuple[str, ...] = tuple(
    name
    for name, fx in FIXTURES.items()
    if fx.group in (ONLINE_STUDY_1, ONLINE_STUDY_2) or fx.device == "plantform"
)


def get_fixture(name: str) -> Fixture:
    try:
        return FIXTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {_checks.quote(name)}; available: {', '.join(sorted(FIXTURES))}"
        ) from None
