"""The three workloads: one pass over a seeded deck, with its output checks.

A pass runs every op of a deck once and returns the time of each op.  The
checks compare every output with an oracle built from the generator's
construction (see ``gen.py``) and raise :class:`CheckFailed` on the first
mismatch.  Serve replays the same stream on every pass, and its passes must
simulate the same log; frames and charts draw a fresh deck of the same
shape for every pass, so no cache keyed on a whole input is credited for
the repetition.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import gen
from plantchart import device, encoder, motion, protocol, render, serve, series, svg
from plantchart.protocol import Frame, Opcode
from spans import Tracer

_now = time.perf_counter_ns

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"
FRAMES_STYLE = "leaf,two-sided,curvy"
FRAMES_FPS = 4.0
# Simulated full 10-hour and 8-hour unfurl totals quoted in motion.py, in
# seconds, for the leaf device and the ring device.
MEASURED_UNFURL_S = ((motion.PLANTFORM, {10: 19.0, 8: 14.0}), (motion.CAIRNFORM, {10: 12.0, 8: 8.0}))


class CheckFailed(Exception):
    """An output of the package differs from the benchmark's oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class PassResult:
    op_ns: list[int]  # per op of the deck
    refused: list[bool]  # per op: left out of the latency percentiles
    extra_ns: int  # pass time outside the ops (the serve log write)
    outcome: dict[str, int]
    exact: dict = field(default_factory=dict)
    tracer: Tracer | None = None
    op_sim_s: list[float] = field(default_factory=list)  # serve: simulated seconds per op

    @property
    def wall_ns(self) -> int:
        """The pass's time: its ops back to back, plus the serve log write;
        the benchmark's checks between ops are left out."""
        return sum(self.op_ns) + self.extra_ns


# --- serve-plantform -------------------------------------------------------


class _TimedFeed:
    """A feed that times each op from the poll that delivers its payload to
    the next poll, reads the simulated clock at every poll, and closes once
    the whole stream was delivered."""

    def __init__(self, inner, total: int, tracer: Tracer | None, clock):
        self.inner = inner
        self.total = total
        self.tracer = tracer
        self.clock = clock
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.clocks: list[float] = []
        self._op_span = None

    def poll(self, timeout: float = 0.0):
        now = _now()
        self.clocks.append(self.clock())
        if len(self.ends) < len(self.starts):
            self.ends.append(now)
            if self.tracer is not None:
                self.tracer.end(self._op_span, end=now)
        if len(self.starts) == self.total:
            raise serve.FeedClosed("stream delivered")
        self.starts.append(now)
        if self.tracer is None:
            payload = self.inner.poll(timeout)
        else:
            self.tracer.op = len(self.starts) - 1
            self._op_span = self.tracer.begin("serve.op", start=now)
            span = self.tracer.begin("serve.feed.poll")
            payload = self.inner.poll(timeout)
            self.tracer.end(span)
        if payload is None:
            raise CheckFailed(f"the feed delivered nothing at payload {len(self.starts) - 1}")
        return payload


def relay_on_seconds(records: list[dict]) -> float:
    total, since = 0.0, None
    for record in records:
        if record["kind"] == "relay":
            if record["detail"]["on"]:
                since = record["t"]
            elif since is not None:
                total += record["t"] - since
                since = None
    return total


def check_serve(stream: list[gen.Payload], rejected: list[str], accepted: int,
                displayed: int, positions: list[int]) -> dict[str, int]:
    """Outcomes of a stream against the generator's oracle."""
    want_rejected, want_displayed, last = [], 0, [0] * 10
    for payload in stream:
        if payload.day is None:
            want_rejected.append(payload)
            continue
        shown, ok = payload.displayed_targets()
        want_displayed += len(shown)
        last = shown[-1] if shown else last
        if not ok:
            want_rejected.append(payload)
    expect(len(rejected) == len(want_rejected),
           f"{len(rejected)} payloads rejected, expected {len(want_rejected)}")
    for payload, message in zip(want_rejected, rejected):
        if payload.fault is not None:
            expect(message.startswith(payload.fault_path + ":"),
                   f"{payload.fault} payload rejected as {message!r}, expected field "
                   f"{payload.fault_path}")
        else:
            expect("hour 18" in message, f"18:00 refusal reported as {message!r}")
    expect(accepted == len(stream) - len(want_rejected),
           f"{accepted} payloads accepted, expected {len(stream) - len(want_rejected)}")
    expect(displayed == want_displayed,
           f"{displayed} variations displayed, expected {want_displayed}")
    expect(positions == last, f"final leaf positions {positions}, expected {last}")
    malformed = sum(p.fault is not None for p in stream)
    return {"ops": len(stream), "malformed": malformed,
            "refused": len(want_rejected) - malformed, "accepted": accepted,
            "variations": displayed}


def check_event_log(text: str) -> list[dict]:
    """The NDJSON log parses, its time never decreases and the relay ends off."""
    records = [json.loads(line) for line in text.splitlines()]
    times = [r["t"] for r in records]
    expect(all(a <= b for a, b in zip(times, times[1:])), "event log time decreases")
    relays = [r["detail"]["on"] for r in records if r["kind"] == "relay"]
    expect(not relays or relays[-1] is False, "the relay is left on")
    return records


class ServePlantform:
    name = "serve-plantform"
    same_deck_every_pass = True

    def __init__(self, workdir: Path, tag: str):
        self.stream_path = workdir / f"{tag}.stream.ndjson"
        self.log_path = workdir / f"{tag}.log.ndjson"
        self.stream = None

    def deck(self, seed: int, variant: int) -> list[gen.Payload]:
        if self.stream is None:
            self.stream = gen.serve_stream(seed)
            self.stream_path.write_text("".join(p.line + "\n" for p in self.stream),
                                        encoding="utf-8")
        return self.stream

    def cleanup(self) -> None:
        for path in (self.stream_path, self.log_path):
            path.unlink(missing_ok=True)

    def run_pass(self, stream, tracer: Tracer | None) -> PassResult:
        service = serve.ForecastService(motion.PLANTFORM)
        feed = _TimedFeed(serve.FileFeed(self.stream_path), len(stream), tracer,
                          lambda: service.controller.clock)
        with ExitStack() as stack:
            if tracer is not None:
                for owner, attribute, name, measure in (
                    (serve, "load_series", "series.load", None),
                    (serve, "segment_variations", "series.segment", None),
                    (serve, "encode_series", "encoder.encode", None),
                    (serve, "transition_plan", "motion.plan", _commands),
                    (serve, "plan_for_profile", "motion.plan", _commands),
                    (device, "run_plan", "device.run_plan", None),
                    (service, "handle_payload", "serve.handle", None),
                ):
                    stack.enter_context(tracer.patch(owner, attribute, name, measure))
            accepted = serve.run_service(service, feed)
            log_start = _now()
            write = tracer.begin("serve.log_write") if tracer else None
            text = service.event_log_ndjson()
            self.log_path.write_text(text, encoding="utf-8")
            if tracer is not None:
                tracer.end(write)
            end = _now()
        expect(len(feed.starts) == len(stream),
               f"run_service stopped after {len(feed.starts)} of {len(stream)} payloads")
        outcome = check_serve(stream, service.rejected, accepted, service.displayed,
                              device.leaf_positions(service.controller))
        expect(not service.controller.relay_on, "the relay is left on")
        ctrl = service.controller
        data = self.log_path.read_bytes()
        exact = {
            "log_sha256": hashlib.sha256(data).hexdigest(),
            "sim_s": ctrl.clock,
            "device.ticks": round(ctrl.clock / service.tick),
            "device.steps": sum(ch.rotation_count for b in ctrl.boards for ch in b.channels),
            "device.events": len(ctrl.event_log),
        }
        return PassResult([e - s for s, e in zip(feed.starts, feed.ends)], [False] * len(stream),
                          end - log_start, outcome, exact, tracer,
                          [b - a for a, b in zip(feed.clocks, feed.clocks[1:])])

    def check_once(self, result: PassResult) -> dict:
        """Full log checks, made once per run; later passes compare the
        exact statistics, the log's sha256 among them."""
        records = check_event_log(self.log_path.read_text(encoding="utf-8"))
        result.exact["relay_on_s"] = relay_on_seconds(records)
        return {"records": records, "exact": result.exact}

    def layer_extras(self, result: PassResult, checked: dict) -> dict:
        frames = _ring_frames(checked["records"])
        start = _now()
        for frame in frames:
            protocol.decode_frame(protocol.encode_frame(frame))
        took = _now() - start
        return {
            "protocol.frames": len(frames),
            "protocol.roundtrip_us": took / 1e3 / len(frames) if frames else 0.0,
            **{k: v for k, v in checked["exact"].items() if k != "log_sha256"},
            "serve.accepted": result.outcome["accepted"],
            "serve.rejected": result.outcome["malformed"] + result.outcome["refused"],
            "serve.variations": result.outcome["variations"],
        }


def _commands(plan) -> int:
    return len(plan.commands)


def _ring_frames(records: list[dict]) -> list[Frame]:
    """The frames the simulator sends around the ring: a SET_TARGET and its
    ACK per ``set_target`` event, one EVENT per ``stop_sensor`` event."""
    frames = []
    for r in records:
        if r["kind"] == "set_target":
            board, channel = divmod(r["detail"]["leaf"], 2)
            target = r["detail"]["target_step"]
            frames.append(Frame(board, Opcode.SET_TARGET, bytes((channel, target >> 8, target & 0xFF))))
            frames.append(Frame(board, Opcode.ACK, bytes((channel,))))
        elif r["kind"] == "stop_sensor":
            board, channel = divmod(r["detail"]["leaf"], 2)
            frames.append(Frame(board, Opcode.EVENT, bytes((channel, 0))))
    return frames


# --- frames-plantscreen ----------------------------------------------------


def expected_frame_count(animation: gen.Animation) -> int:
    total = motion.PLANTSCREEN.per_rate_frame_time * len(animation.hours)
    return math.ceil(total * FRAMES_FPS - 1e-9)


def check_frames(animation: gen.Animation, docs: list[str], last_expected: str) -> None:
    want = expected_frame_count(animation)
    expect(len(docs) == want, f"{len(docs)} frames for {animation.hours}, expected {want}")
    expect(docs[-1] == last_expected,
           f"last frame of variation {animation.variation} differs from its static chart")


class FramesPlantscreen:
    name = "frames-plantscreen"
    same_deck_every_pass = False

    def __init__(self, workdir: Path, tag: str):
        self.style = render.parse_style(FRAMES_STYLE)
        self.dims = render.DEVICE_DIMENSIONS["plantscreen"]

    def deck(self, seed: int, variant: int) -> list[gen.Animation]:
        return gen.frames_deck(seed, variant)

    def cleanup(self) -> None:
        pass

    def animate(self, animation: gen.Animation, f) -> tuple[list[int], list[str]]:
        """What ``plantchart render --frames --variation-index i`` does for
        one variation, through the calls in ``f``."""
        forecast = f.load(animation.document)
        variation = f.segment(forecast)[animation.index]
        positions = f.encode(forecast, variation, encoder.EncodingMode.PEAK_RELATIVE)
        span = [(h - series.FIRST_HOUR, p) for h, p in zip(forecast.hours, positions)
                if variation.start <= h <= variation.end]
        if any(leaf > 9 and p for leaf, p in span):
            raise ValueError("the device has no leaf for hours past 17:59")
        leaves = [leaf for leaf, _ in span if leaf <= 9]
        targets = [p for leaf, p in span if leaf <= 9]
        plan = f.plan(targets, [0] * len(targets), motion.PLANTSCREEN, leaves)
        hours = [series.FIRST_HOUR + leaf for leaf in leaves]
        return targets, f.frames(plan, hours, self.style, self.dims, fps=FRAMES_FPS)

    def run_pass(self, deck, tracer: Tracer | None) -> PassResult:
        f = _Calls(tracer)
        op_ns, refused = [], []
        outcome = {"ops": len(deck), "refused": 0, "frames": 0, "points": 0}
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.patch(svg, "layout_extents", "render.layout"))
                stack.enter_context(tracer.patch(svg, "render_svg", "svg.render_svg", len))
            for k, animation in enumerate(deck):
                if tracer is not None:
                    tracer.op = k
                    span = tracer.begin("frames.op")
                start = _now()
                try:
                    targets, docs = self.animate(animation, f)
                except ValueError as exc:
                    took = _now() - start
                    if tracer is not None:
                        tracer.end(span, error=True)
                    expect(animation.refusal is not None,
                           f"variation {animation.variation} refused: {exc}")
                    outcome["refused"] += 1
                    op_ns.append(took)
                    refused.append(True)
                    continue
                took = _now() - start
                if tracer is not None:
                    tracer.end(span)
                op_ns.append(took)
                refused.append(False)
                expect(animation.refusal is None,
                       f"variation {animation.variation} rendered, expected a refusal: "
                       f"{animation.refusal}")
                expect(targets == animation.targets,
                       f"targets {targets}, expected {animation.targets}")
                last = render.layout(targets, animation.hours, self.style, self.dims)
                check_frames(animation, docs, _render_svg(last))
                outcome["frames"] += len(docs)
                outcome["points"] += len(docs) * scene_points(last)
        return PassResult(op_ns, refused, 0, outcome, tracer=tracer)

    def check_once(self, result: PassResult) -> dict:
        return {}

    def layer_extras(self, result: PassResult, checked: dict) -> dict:
        return {"render.points": result.outcome["points"]}


class _Calls:
    """The package calls an op makes, each in a span when tracing."""

    def __init__(self, tracer: Tracer | None):
        wrap = (lambda fn, name, measure=None: fn) if tracer is None else tracer.wrap
        self.load = wrap(series.load_series, "series.load")
        self.segment = wrap(series.segment_variations, "series.segment")
        self.encode = wrap(encoder.encode_series, "encoder.encode")
        self.plan = wrap(motion.plan_for_profile, "motion.plan", _commands)
        self.frames = wrap(svg.render_frames, "svg.render_frames")
        self.layout = wrap(render.layout, "render.layout")
        self.render_svg = wrap(svg.render_svg, "svg.render_svg", len)


# Untraced originals, for the checks.
_render_svg = svg.render_svg


def scene_points(scene) -> int:
    return len(scene.trunk.points) + sum(
        len(path.points) for glyph in scene.glyphs for path in glyph.paths
    )


# --- charts-gallery --------------------------------------------------------

# Paths per glyph of each decoration, and glyphs per anchor of each anchoring.
_GLYPH_PATHS = {"bar": 1, "bamboo": 5, "leaf": 2, "ring": 1}


def expected_paths(style, hours: int) -> int:
    sides = 2 if style.anchoring.value == "two-sided" and style.decoration.value != "ring" else 1
    return 1 + hours * sides * _GLYPH_PATHS[style.decoration.value]


def check_chart(style, hours: int, doc: str) -> None:
    want = expected_paths(style, hours)
    expect(doc.startswith("<?xml") and doc.endswith("</svg>\n"), "not a whole SVG document")
    expect(doc.count("<path ") == want,
           f"{style.label()} chart of {hours} hours has {doc.count('<path ')} paths, expected {want}")
    expect(doc.count("<text ") == hours, f"{style.label()} chart lacks hour labels")


def check_gallery(golden_dir: Path) -> int:
    """``design_space_gallery()`` against the golden documents, byte for
    byte; the golden files are only read."""
    gallery = svg.design_space_gallery()
    for style, doc in gallery:
        path = golden_dir / f"{style.label()}.svg"
        expect(path.is_file(), f"missing golden document {path.name}")
        expect(doc.encode() == path.read_bytes(), f"{path.name} differs from its golden bytes")
    return len(gallery)


class ChartsGallery:
    name = "charts-gallery"
    same_deck_every_pass = False

    def __init__(self, workdir: Path, tag: str):
        self.dims = render.DEVICE_DIMENSIONS["plantform"]

    def deck(self, seed: int, variant: int) -> list[gen.Chart]:
        return gen.charts_deck(seed, variant)

    def cleanup(self) -> None:
        pass

    def run_pass(self, deck, tracer: Tracer | None) -> PassResult:
        f = _Calls(tracer)
        op_ns = []
        outcome = {"ops": len(deck), "refused": 0, "points": 0}
        for k, chart in enumerate(deck):
            style = svg.GALLERY_STYLES[chart.style_index]
            if tracer is not None:
                tracer.op = k
                span = tracer.begin("charts.op")
            start = _now()
            scene = f.layout(list(chart.positions), list(chart.hours), style, self.dims)
            doc = f.render_svg(scene)
            op_ns.append(_now() - start)
            if tracer is not None:
                tracer.end(span)
            check_chart(style, len(chart.hours), doc)
            outcome["points"] += scene_points(scene)
        return PassResult(op_ns, [False] * len(op_ns), 0, outcome, tracer=tracer)

    def check_once(self, result: PassResult) -> dict:
        count = check_gallery(GOLDEN_DIR)
        print(f"gallery: {count} documents match tests/golden")
        return {}

    def layer_extras(self, result: PassResult, checked: dict) -> dict:
        return {"render.points": result.outcome["points"]}


WORKLOADS = {w.name: w for w in (ServePlantform, FramesPlantscreen, ChartsGallery)}


def display_error_s() -> float:
    """Largest gap between simulated full-unfurl totals and the measured
    totals quoted in motion.py; the model's only reference."""
    worst = 0.0
    for profile, measured in MEASURED_UNFURL_S:
        for hours, seconds in measured.items():
            plan = motion.plan_for_profile([10] * hours, [0] * hours, profile)
            ctrl = device.run_plan(device.initial_state(profile), plan)
            worst = max(worst, abs(ctrl.clock - seconds))
    return worst


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
