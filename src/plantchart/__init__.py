"""Plant-like vertical charts and actuation plans for hourly
renewable-energy forecasts: series segmentation, position encoding, motion
planning, a deterministic hardware simulator, and SVG rendering of the
chart design space.

The names below are re-exported from the module that owns each one, and
each owner is imported on the first read of one of its names (PEP 562).
A process that only plans and simulates, such as ``plantchart serve``,
then never imports ``render`` and ``svg``, which cuts its start-up by
about a quarter.  A process that draws static charts from positions it
is given never imports the forecast pipeline (``series``, ``encoder``
and ``motion``): ``render`` and ``svg`` take their ranges from
``_checks``, and ``svg`` imports ``motion`` only to draw frames.  A name
read once is kept in this module, so later
reads are plain attribute lookups.  ``from plantchart import *`` binds
every name of :data:`__all__`, the five modules included."""

from . import _checks

#: The re-exported names, by the module that owns them.
_EXPORTS = {
    "encoder": (
        "EncodingMode",
        "FlatVariationError",
        "encode_absolute",
        "encode_relative",
        "encode_series",
        "encode_six_step",
        "position_rate_interval",
    ),
    "motion": (
        "BUILTIN_PROFILES",
        "CAIRNFORM",
        "CAIRNSCREEN",
        "PLANTFORM",
        "PLANTSCREEN",
        "DeviceProfile",
        "FrameTimeline",
        "Modality",
        "MotionCommand",
        "MotionPlan",
        "lowfi_series_timeline",
        "lowfi_timeline",
        "plan_for_profile",
        "plan_from_json",
        "plan_to_json",
        "transition_plan",
    ),
    "render": (
        "Anchoring",
        "Animation",
        "ChartDimensions",
        "ChartScene",
        "ChartStyle",
        "Decoration",
        "DEVICE_DIMENSIONS",
        "TrunkForm",
        "UnsupportedStyleError",
        "layout",
        "parse_style",
    ),
    "series": (
        "ForecastDocumentError",
        "ForecastSeries",
        "Variation",
        "load_series",
        "peak_hour",
        "read_series",
        "segment_variations",
        "slope_ranges",
        "storage_advice",
    ),
    "svg": ("design_space_gallery", "iter_frames", "render_frames", "render_svg"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, *_EXPORTS]
__version__ = "0.1.0"


def _submodule(name: str):
    """``plantchart.<name>``, imported as ``from . import <name>`` imports
    it, so that ``-X importtime`` reports it, but without reading an
    attribute of this module."""
    return __import__(name, globals(), level=1)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _submodule(name)  # which binds it here
    if name not in _OWNER:
        raise AttributeError(f"module '{__name__}' has no attribute {_checks.quote(name)}")
    value = getattr(_submodule(_OWNER[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
