"""Plant-like vertical charts and actuation plans for hourly
renewable-energy forecasts: series segmentation, position encoding, motion
planning, a deterministic hardware simulator, and SVG rendering of the
chart design space."""

from .encoder import (
    EncodingMode,
    FlatVariationError,
    encode_absolute,
    encode_relative,
    encode_series,
    encode_six_step,
    position_rate_interval,
)
from .motion import (
    BUILTIN_PROFILES,
    CAIRNFORM,
    CAIRNSCREEN,
    PLANTFORM,
    PLANTSCREEN,
    DeviceProfile,
    FrameTimeline,
    Modality,
    MotionCommand,
    MotionPlan,
    lowfi_series_timeline,
    lowfi_timeline,
    plan_for_profile,
    plan_from_json,
    plan_to_json,
    transition_plan,
)
from .render import (
    Anchoring,
    Animation,
    ChartDimensions,
    ChartScene,
    ChartStyle,
    Decoration,
    DEVICE_DIMENSIONS,
    TrunkForm,
    UnsupportedStyleError,
    layout,
    parse_style,
)
from .series import (
    ForecastDocumentError,
    ForecastSeries,
    Variation,
    load_series,
    peak_hour,
    read_series,
    segment_variations,
    slope_ranges,
    storage_advice,
)
from .svg import design_space_gallery, iter_frames, render_frames, render_svg

__version__ = "0.1.0"
