"""Command-line surface: forecasts in, plans, renders and event logs out.

Exit codes: 0 ok, 2 input error, 3 encoding-domain error, 4 simulation
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import device, fixtures, serve
from .encoder import (
    EncodingMode,
    FlatVariationError,
    encode_absolute,
    encode_series,
    encode_six_step,
)
from .motion import BUILTIN_PROFILES, DeviceProfile, MotionPlan, plan_to_json, profile_from_json
from .render import (
    DEVICE_DIMENSIONS,
    ChartDimensions,
    UnsupportedStyleError,
    layout,
    parse_style,
)
from .series import (
    ForecastDocumentError,
    ForecastSeries,
    Variation,
    read_series,
    segment_variations,
    slope_ranges,
    storage_advice,
)
from .svg import design_space_gallery, render_frames, render_svg

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ENCODING = 3
EXIT_SIMULATION = 4

PROFILE_DIR_ENV = "PLANTCHART_PROFILE_DIR"


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except device.SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plantchart",
        description="Plant-like vertical charts and actuation plans for "
        "hourly renewable-energy forecasts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="split a forecast into energy variations")
    _add_input_args(p)
    p.set_defaults(handler=cmd_segment)

    p = sub.add_parser("encode", help="map rates to discrete leaf positions")
    _add_input_args(p)
    _add_mode_arg(p)
    p.add_argument("--variation-index", type=int, default=0)
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("plan", help="produce a timed motion plan (JSON)")
    _add_input_args(p)
    _add_mode_arg(p)
    p.add_argument("--variation-index", type=int, default=0)
    p.add_argument("--profile", default="plantform")
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=cmd_plan)

    p = sub.add_parser("simulate", help="run a plan on the simulated device")
    _add_input_args(p)
    _add_mode_arg(p)
    p.add_argument("--variation-index", type=int, default=0)
    p.add_argument("--profile", default="plantform")
    p.add_argument("--all-variations", action="store_true",
                   help="display every variation in sequence")
    p.add_argument("--tick", type=float, default=0.01)
    p.add_argument("--out", type=Path, help="event log destination (NDJSON)")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("render", help="render a chart (SVG)")
    _add_input_args(p, required=False)
    _add_mode_arg(p)
    p.add_argument("--variation-index", type=int, default=0)
    p.add_argument("--style", default="leaf,two-sided,curvy")
    p.add_argument("--dims", default="plantform",
                   help="device name or 'height,min_extent,max_extent' in cm")
    p.add_argument("--canvas", default="480x640")
    p.add_argument("--out", type=Path)
    p.add_argument("--frames", type=Path, metavar="DIR",
                   help="write animation frames of the motion plan here")
    p.add_argument("--fps", type=float, default=4.0)
    p.add_argument("--profile", default="plantscreen",
                   help="profile used for --frames plans")
    p.add_argument("--gallery", type=Path, metavar="DIR",
                   help="write the design-space gallery here")
    p.set_defaults(handler=cmd_render)

    p = sub.add_parser("serve", help="show each forecast appended to a file on the "
                       "simulated device")
    p.add_argument("--listen", type=Path, required=True,
                   help="tail forecasts from this file, one JSON document per line")
    _add_mode_arg(p)
    p.add_argument("--profile", default="plantform")
    p.add_argument("--log", type=Path, help="event log destination (NDJSON)")
    p.add_argument("--tick", type=float, default=0.01)
    p.add_argument("--max-messages", type=int)
    p.add_argument("--max-idle-polls", type=int)
    p.add_argument("--poll-timeout", type=float, default=0.2)
    p.set_defaults(handler=cmd_serve)

    p = sub.add_parser("fixtures", help="list the built-in study variations")
    p.set_defaults(handler=cmd_fixtures)

    return parser


def _add_input_args(parser, required: bool = True) -> None:
    parser.add_argument("input", nargs="?", type=Path,
                        help="forecast document (CSV or JSON)")
    parser.add_argument("--fixture", help="use a built-in study variation")
    parser.set_defaults(_input_required=required)


def _add_mode_arg(parser) -> None:
    parser.add_argument(
        "--mode",
        choices=[m.value for m in EncodingMode],
        default=EncodingMode.PEAK_RELATIVE.value,
    )


def _resolve_series(args) -> ForecastSeries:
    if args.fixture and args.input:
        raise CliError("give either an input file or --fixture, not both")
    if args.fixture:
        try:
            return fixtures.get_fixture(args.fixture).series()
        except KeyError as exc:
            raise CliError(str(exc.args[0])) from None
    if not args.input:
        raise CliError("an input file or --fixture is required")
    try:
        return read_series(args.input)
    except FileNotFoundError:
        raise CliError(f"no such file: {args.input}") from None
    except ForecastDocumentError as exc:
        raise CliError(str(exc)) from None


def _resolve_profile(name: str) -> DeviceProfile:
    if name in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[name]
    candidates = [Path(name)]
    profile_dir = os.environ.get(PROFILE_DIR_ENV)
    if profile_dir:
        candidates.append(Path(profile_dir) / f"{name}.json")
        candidates.append(Path(profile_dir) / name)
    for path in candidates:
        if path.is_file():
            try:
                return profile_from_json(path.read_text(encoding="utf-8"))
            except ValueError as exc:  # json.JSONDecodeError is one
                raise CliError(f"invalid profile {path}: {exc}") from None
    raise CliError(
        f"unknown profile {name!r}; built-ins: {', '.join(sorted(BUILTIN_PROFILES))}"
    )


def _resolve_dims(spec: str) -> ChartDimensions:
    if spec in DEVICE_DIMENSIONS:
        return DEVICE_DIMENSIONS[spec]
    parts = spec.split(",")
    if len(parts) != 3:
        raise CliError(
            f"unknown dims {spec!r}; device names: {', '.join(sorted(DEVICE_DIMENSIONS))}"
        )
    try:
        return ChartDimensions(*(float(p) for p in parts))
    except ValueError as exc:
        raise CliError(f"invalid dims {spec!r}: {exc}") from None


def _service(profile: DeviceProfile, args) -> serve.ForecastService:
    try:
        return serve.ForecastService(profile, EncodingMode(args.mode), tick=args.tick)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _pick_variation(variations: list[Variation], index: int) -> Variation:
    if not variations:
        raise CliError("the series is flat: it contains no variation", EXIT_ENCODING)
    if not 0 <= index < len(variations):
        raise CliError(
            f"variation index {index} out of range; the series has {len(variations)}"
        )
    return variations[index]


def _encode_for(series, variation, mode: EncodingMode) -> list[int]:
    try:
        return encode_series(series, variation, mode)
    except FlatVariationError as exc:
        raise CliError(str(exc), EXIT_ENCODING) from None


def _plan_variation(series, variation, args, profile) -> MotionPlan:
    """The CLI's plan: the variation's own leaves, from furled."""
    try:
        return serve.plan_variation(series, variation, EncodingMode(args.mode), profile)
    except ValueError as exc:  # a flat variation or a raised leaf past 17:59
        raise CliError(str(exc), EXIT_ENCODING) from None


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")


def cmd_segment(args) -> int:
    series = _resolve_series(args)
    report = []
    for variation in segment_variations(series):
        ranges = slope_ranges(variation)
        advice = storage_advice(variation)
        report.append(
            {
                "start": variation.start,
                "peak": variation.peak,
                "end": variation.end,
                "hours": list(variation.hours),
                "rates": list(variation.rates),
                "slopes": {
                    "ascending": list(ranges.ascending) if ranges.ascending else None,
                    "descending": list(ranges.descending) if ranges.descending else None,
                },
                "storage_advice": {
                    "recharge": advice.recharge,
                    "discharge_start": advice.discharge_start,
                },
            }
        )
    print(json.dumps({"variations": report}, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_encode(args) -> int:
    series = _resolve_series(args)
    mode = EncodingMode(args.mode)
    variations = segment_variations(series)
    if not variations and mode is not EncodingMode.PEAK_RELATIVE:
        # A flat series still has absolute encodings; there is just no
        # variation to normalize against.
        encode = encode_absolute if mode is EncodingMode.ABSOLUTE_LINEAR else encode_six_step
        positions = [encode(r) for r in series.rates]
    else:
        variation = _pick_variation(variations, args.variation_index)
        positions = _encode_for(series, variation, mode)
    print(
        json.dumps(
            {"hours": list(series.hours), "positions": positions, "mode": mode.value},
            indent=2,
            sort_keys=True,
        )
    )
    return EXIT_OK


def cmd_plan(args) -> int:
    series = _resolve_series(args)
    profile = _resolve_profile(args.profile)
    variation = _pick_variation(segment_variations(series), args.variation_index)
    _emit(plan_to_json(_plan_variation(series, variation, args, profile)), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    series = _resolve_series(args)
    profile = _resolve_profile(args.profile)
    service = _service(profile, args)
    if args.all_variations:
        try:
            service.display_series(series)
        except ValueError as exc:  # a raised leaf past 17:59
            raise CliError(str(exc), EXIT_ENCODING) from None
    else:
        variation = _pick_variation(segment_variations(series), args.variation_index)
        plan = _plan_variation(series, variation, args, profile)
        service.controller = device.run_plan(service.controller, plan, dt=args.tick)
    _emit(service.event_log_ndjson(), args.out)
    if args.out is not None:
        positions = device.leaf_positions(service.controller)
        print(json.dumps({"leaf_positions": positions, "clock": service.controller.clock},
                         sort_keys=True))
    return EXIT_OK


def cmd_render(args) -> int:
    try:
        style = parse_style(args.style)
    except UnsupportedStyleError as exc:
        raise CliError(str(exc)) from None
    dims = _resolve_dims(args.dims)
    try:
        w, h = (int(v) for v in args.canvas.lower().split("x"))
    except ValueError:
        raise CliError(f"invalid canvas {args.canvas!r}, expected WIDTHxHEIGHT") from None
    if w <= 0 or h <= 0:
        raise CliError(f"invalid canvas {args.canvas!r}: width and height must be positive")
    canvas = (w, h)

    if args.gallery is not None:
        args.gallery.mkdir(parents=True, exist_ok=True)
        gallery = design_space_gallery(dims, canvas)
        for style_entry, doc in gallery:
            path = args.gallery / f"{style_entry.label()}.svg"
            path.write_text(doc, encoding="utf-8")
        print(f"wrote {len(gallery)} gallery documents to {args.gallery}")
        return EXIT_OK

    series = _resolve_series(args)
    variation = _pick_variation(segment_variations(series), args.variation_index)

    if args.frames is not None:
        profile = _resolve_profile(args.profile)
        plan = _plan_variation(series, variation, args, profile)
        hours = [h for h in variation.hours if h <= serve.MAX_DEVICE_HOUR]
        try:
            docs = render_frames(plan, hours, style, dims, canvas, fps=args.fps)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        args.frames.mkdir(parents=True, exist_ok=True)
        for i, doc in enumerate(docs):
            (args.frames / f"frame_{i:04d}.svg").write_text(doc, encoding="utf-8")
        print(f"wrote {len(docs)} frames to {args.frames}")
        return EXIT_OK

    positions = _encode_for(series, variation, EncodingMode(args.mode))
    try:
        scene = layout(positions, list(series.hours), style, dims)
    except (ValueError, UnsupportedStyleError) as exc:
        raise CliError(str(exc)) from None
    document = render_svg(scene, canvas)
    _emit(document, args.out)
    return EXIT_OK


def cmd_serve(args) -> int:
    if not (math.isfinite(args.poll_timeout) and args.poll_timeout >= 0):
        raise CliError(f"poll timeout must be a finite number of seconds >= 0, "
                       f"got {args.poll_timeout}")
    profile = _resolve_profile(args.profile)
    service = _service(profile, args)
    try:
        accepted = serve.run_service(
            service,
            serve.FileFeed(args.listen),
            max_messages=args.max_messages,
            poll_timeout=args.poll_timeout,
            max_idle_polls=args.max_idle_polls,
        )
    except KeyboardInterrupt:
        accepted = service.displayed
    finally:
        if args.log is not None:
            _emit(service.event_log_ndjson(), args.log)
    print(
        json.dumps(
            {
                "accepted": accepted,
                "rejected": len(service.rejected),
                "variations_displayed": service.displayed,
                "leaf_positions": device.leaf_positions(service.controller),
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def cmd_fixtures(args) -> int:
    listing = {
        name: {
            "group": fx.group,
            "start": fx.start,
            "peak": fx.peak,
            "end": fx.end,
        }
        for name, fx in sorted(fixtures.FIXTURES.items())
    }
    print(json.dumps(listing, indent=2, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
