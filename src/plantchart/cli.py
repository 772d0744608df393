"""Command-line surface: forecasts in, plans, renders and event logs out.

Exit codes: 0 ok, 2 input error, 3 encoding-domain error, 4 simulation
error.  :func:`main` alone maps an exception to its exit code, by type:
:class:`.device.SimulationError` exits 4, :class:`.encoder.EncodingDomainError`
exits 3, and any other ``ValueError`` or ``OSError`` exits 2.  Each prints one
line on stderr and no traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import _checks, device, fixtures, serve
from .encoder import EncodingDomainError, EncodingMode, encode_series
from .motion import BUILTIN_PROFILES, DeviceProfile, plan_to_json, profile_from_json
from .series import (
    ForecastSeries,
    Variation,
    read_series,
    segment_variations,
    slope_ranges,
    storage_advice,
)

if TYPE_CHECKING:
    from .render import ChartDimensions

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ENCODING = 3
EXIT_SIMULATION = 4

PROFILE_DIR_ENV = "PLANTCHART_PROFILE_DIR"


class CliError(ValueError):
    """A bad argument or input the CLI itself detects."""


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except device.SimulationError as exc:
        message, code = f"simulation error: {exc}", EXIT_SIMULATION
    except (ValueError, OSError) as exc:
        message = f"error: {exc}"
        code = EXIT_ENCODING if isinstance(exc, EncodingDomainError) else EXIT_INPUT
    # A path quoted in the message may hold a newline; the message stays one line.
    print(message.replace("\n", "\\n"), file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a refused choice, of an option or of the
    command, is quoted through :func:`._checks.quote`.  argparse quotes it
    with ``%r`` after any ``type=`` has run, so a ``type=`` cannot bound
    it; the rest of argparse's wording is kept."""

    def _check_value(self, action, value):
        try:
            super()._check_value(action, value)
        except argparse.ArgumentError as exc:
            message = exc.message.replace(repr(value), _checks.quote(value), 1)
            raise argparse.ArgumentError(action, message) from None


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="plantchart",
        description="Plant-like vertical charts and actuation plans for "
        "hourly renewable-energy forecasts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="split a forecast into energy variations")
    _add_input_args(p)
    p.set_defaults(handler=cmd_segment)

    p = sub.add_parser("encode", help="map rates to discrete leaf positions")
    _add_variation_args(p)
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("plan", help="produce a timed motion plan (JSON)")
    _add_variation_args(p)
    p.add_argument("--profile", default="plantform")
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=cmd_plan)

    p = sub.add_parser("simulate", help="run a plan on the simulated device")
    _add_variation_args(p)
    p.add_argument("--profile", default="plantform")
    p.add_argument("--all-variations", action="store_true",
                   help="display every variation in sequence")
    p.add_argument("--tick", type=_float_arg, default=device.DEFAULT_TICK)
    p.add_argument("--out", type=Path, help="event log destination (NDJSON)")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("render", help="render a chart (SVG)")
    _add_variation_args(p)
    p.add_argument("--style", default="leaf,two-sided,curvy")
    p.add_argument("--dims", default="plantform",
                   help="device name or 'height,min_extent,max_extent' in cm")
    p.add_argument("--canvas", default="480x640")
    p.add_argument("--out", type=Path)
    p.add_argument("--frames", type=Path, metavar="DIR",
                   help="write animation frames of the motion plan here")
    p.add_argument("--fps", type=_float_arg, default=4.0)
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
    p.add_argument("--tick", type=_float_arg, default=device.DEFAULT_TICK)
    p.add_argument("--max-messages", type=_int_arg)
    p.add_argument("--max-idle-polls", type=_int_arg)
    p.add_argument("--poll-timeout", type=_float_arg, default=0.2)
    p.set_defaults(handler=cmd_serve)

    p = sub.add_parser("fixtures", help="list the built-in study variations")
    p.set_defaults(handler=cmd_fixtures)

    return parser


def _add_input_args(parser) -> None:
    parser.add_argument("input", nargs="?", type=Path,
                        help="forecast document (CSV or JSON)")
    parser.add_argument("--fixture", help="use a built-in study variation")


def _add_variation_args(parser) -> None:
    _add_input_args(parser)
    _add_mode_arg(parser)
    parser.add_argument("--variation-index", type=_int_arg, default=0)


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


def _resolve_profile(name: str) -> DeviceProfile:
    if name in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[name]
    candidates = [Path(name)]
    profile_dir = os.environ.get(PROFILE_DIR_ENV)
    if profile_dir:
        candidates.append(Path(profile_dir) / f"{name}.json")
        candidates.append(Path(profile_dir) / name)
    for path in candidates:
        # os.path.isfile, unlike Path.is_file, is False for a name the
        # file system refuses as too long.
        if os.path.isfile(path):
            try:
                return profile_from_json(path.read_text(encoding="utf-8"))
            except ValueError as exc:  # json.JSONDecodeError is one
                raise CliError(f"invalid profile {path}: {exc}") from None
    raise CliError(
        f"unknown profile {_checks.quote(name)}; built-ins: {', '.join(sorted(BUILTIN_PROFILES))}"
    )


def _resolve_dims(spec: str) -> ChartDimensions:
    from .render import DEVICE_DIMENSIONS, ChartDimensions

    if spec in DEVICE_DIMENSIONS:
        return DEVICE_DIMENSIONS[spec]
    parts = spec.split(",")
    if len(parts) != 3:
        raise CliError(
            f"unknown dims {_checks.quote(spec)}; "
            f"device names: {', '.join(sorted(DEVICE_DIMENSIONS))}"
        )
    try:
        return ChartDimensions(*map(_float, parts))
    except ValueError as exc:
        raise CliError(f"invalid dims {_checks.quote(spec)}: {exc}") from None


def _typed(convert):
    """An argparse ``type=`` that converts with ``convert`` (``int`` or
    ``float``) and refuses with argparse's own wording, but quoting at most
    :data:`._checks.QUOTE_LIMIT` characters of the value."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {_checks.quote(text)}") from None

    return parse


_int_arg = _typed(int)
_float_arg = _typed(float)


def _float(text: str) -> float:
    """``float(text)``, refused with the message of ``float`` but quoting
    at most :data:`._checks.QUOTE_LIMIT` characters of ``text``."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"could not convert string to float: {_checks.quote(text)}") from None


def _pick_variation(variations: list[Variation], index: int) -> Variation:
    if not variations:
        raise EncodingDomainError("the series is flat: it contains no variation")
    _checks.within("variation index", (index,), 0, len(variations) - 1)
    return variations[index]


def _emit(text: str, out: Path | None) -> None:
    if text and not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")


def cmd_segment(args) -> int:
    series = _resolve_series(args)
    report = [
        {
            **dataclasses.asdict(variation),
            "hours": variation.hours,
            "slopes": slope_ranges(variation)._asdict(),
            "storage_advice": storage_advice(variation)._asdict(),
        }
        for variation in segment_variations(series)
    ]
    print(json.dumps({"variations": report}, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_encode(args) -> int:
    series = _resolve_series(args)
    mode = EncodingMode(args.mode)
    variations = segment_variations(series)
    if not variations and mode is not EncodingMode.PEAK_RELATIVE:
        # A flat series still has absolute encodings; there is just no
        # variation to normalize against, so the whole series is one.
        hours = series.hours
        variation = Variation(hours[0], hours[0], hours[-1], series.rates)
    else:
        variation = _pick_variation(variations, args.variation_index)
    positions = encode_series(series, variation, mode)
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
    plan = serve.plan_variation(series, variation, EncodingMode(args.mode), profile)
    _emit(plan_to_json(plan), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    series = _resolve_series(args)
    profile = _resolve_profile(args.profile)
    service = serve.ForecastService(profile, EncodingMode(args.mode), tick=args.tick)
    if args.all_variations:
        service.display_series(series)
    else:
        variation = _pick_variation(segment_variations(series), args.variation_index)
        service.play(serve.plan_variation(series, variation, service.mode, profile))
    _emit(service.event_log_ndjson(), args.out)
    if args.out is not None:
        positions = device.leaf_positions(service.controller)
        print(json.dumps({"leaf_positions": positions, "clock": service.controller.clock},
                         sort_keys=True))
    return EXIT_OK


def cmd_render(args) -> int:
    # Only this command draws, so only it imports the renderer.
    from .render import layout, parse_style
    from .svg import design_space_gallery, iter_frames, render_svg

    style = parse_style(args.style)
    dims = _resolve_dims(args.dims)
    try:
        w, h = (int(v) for v in args.canvas.lower().split("x"))
    except ValueError:
        raise CliError(
            f"invalid canvas {_checks.quote(args.canvas)}, expected WIDTHxHEIGHT") from None
    canvas = (w, h)

    if args.gallery is not None:
        gallery = design_space_gallery(dims, canvas)
        args.gallery.mkdir(parents=True, exist_ok=True)
        for style_entry, doc in gallery:
            path = args.gallery / f"{style_entry.label()}.svg"
            path.write_text(doc, encoding="utf-8")
        print(f"wrote {len(gallery)} gallery documents to {args.gallery}")
        return EXIT_OK

    series = _resolve_series(args)
    variation = _pick_variation(segment_variations(series), args.variation_index)

    if args.frames is not None:
        profile = _resolve_profile(args.profile)
        plan = serve.plan_variation(series, variation, EncodingMode(args.mode), profile)
        hours = [h for h in variation.hours if h <= serve.MAX_DEVICE_HOUR]
        docs = iter_frames(plan, hours, style, dims, canvas, fps=args.fps)
        args.frames.mkdir(parents=True, exist_ok=True)
        count = 0
        for doc in docs:
            (args.frames / f"frame_{count:04d}.svg").write_text(doc, encoding="utf-8")
            count += 1
        print(f"wrote {count} frames to {args.frames}")
        return EXIT_OK

    positions = encode_series(series, variation, EncodingMode(args.mode))
    scene = layout(positions, list(series.hours), style, dims)
    document = render_svg(scene, canvas)
    _emit(document, args.out)
    return EXIT_OK


def cmd_serve(args) -> int:
    _checks.non_negative("poll timeout", args.poll_timeout)
    profile = _resolve_profile(args.profile)
    service = serve.ForecastService(profile, EncodingMode(args.mode), tick=args.tick)
    if args.log is not None:
        # Opened before the first payload, so that an unusable path fails
        # at once; appending leaves the file as it is until the log is
        # written, at exit.
        args.log.parent.mkdir(parents=True, exist_ok=True)
        open(args.log, "a").close()
    try:
        serve.run_service(
            service,
            serve.FileFeed(args.listen),
            max_messages=args.max_messages,
            poll_timeout=args.poll_timeout,
            max_idle_polls=args.max_idle_polls,
        )
    except KeyboardInterrupt:
        pass
    finally:
        if args.log is not None:
            _emit(service.event_log_ndjson(), args.log)
    print(
        json.dumps(
            {
                "accepted": service.accepted,
                "rejected": service.rejections,
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
