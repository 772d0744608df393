"""The package imports a module on the first read of one of its names: a
process that plans, simulates or serves never imports the renderer
(``render`` and ``svg``), a process that draws static charts imports no
forecast pipeline (``series``, ``encoder`` and ``motion``), a process that
only plans loads no ``series`` or ``encoder``, and the
re-exports are the names and objects they have always been.  The import
tests each run in a fresh interpreter."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plantchart
from oracles import reference_render_frames
from plantchart._checks import QUOTE_LIMIT
from plantchart.motion import PLANTSCREEN, plan_for_profile
from plantchart.svg import GALLERY_STYLES

SRC = Path(__file__).resolve().parents[1] / "src"
RENDERER = ["plantchart.render", "plantchart.svg"]
#: The package's modules that a process drawing static charts loads.
STATIC_CHARTS = ["plantchart", "plantchart._checks", "plantchart.render", "plantchart.svg"]
#: Prints, as the last line, the package's modules that are loaded.
LOADED = ("import json, sys\n"
          "print(json.dumps(sorted(m for m in sys.modules if m.startswith('plantchart'))))\n")
#: The names ``from plantchart import *`` binds, by the module that owns
#: each; the five modules are bound too.
EXPORTS = {
    "encoder": ["EncodingMode", "FlatVariationError", "encode_absolute", "encode_relative",
                "encode_series", "encode_six_step", "position_rate_interval"],
    "motion": ["BUILTIN_PROFILES", "CAIRNFORM", "CAIRNSCREEN", "PLANTFORM", "PLANTSCREEN",
               "DeviceProfile", "FrameTimeline", "Modality", "MotionCommand", "MotionPlan",
               "lowfi_series_timeline", "lowfi_timeline", "plan_for_profile", "plan_from_json",
               "plan_to_json", "transition_plan"],
    "render": ["Anchoring", "Animation", "ChartDimensions", "ChartScene", "ChartStyle",
               "Decoration", "DEVICE_DIMENSIONS", "TrunkForm", "UnsupportedStyleError", "layout",
               "parse_style"],
    "series": ["ForecastDocumentError", "ForecastSeries", "Variation", "load_series", "peak_hour",
               "read_series", "segment_variations", "slope_ranges", "storage_advice"],
    "svg": ["design_space_gallery", "iter_frames", "render_frames", "render_svg"],
}


def fresh(code: str):
    """Run ``code`` in a fresh interpreter that imports the package from
    the source tree, and return the JSON of the last line it prints."""
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_a_service_loads_no_renderer():
    loaded = fresh("from plantchart import motion, serve\n"
                   "serve.ForecastService(motion.PLANTFORM)\n" + LOADED)
    assert "plantchart.serve" in loaded
    assert [name for name in RENDERER if name in loaded] == []


def test_the_planner_loads_no_forecast_reader_or_encoder():
    """``motion`` takes its ranges from ``_checks``, so a process that plans
    or draws frames from positions it is given loads no ``series`` and no
    ``encoder``; ``series`` still has the hour range, as the same objects."""
    loaded = fresh("from plantchart.motion import PLANTSCREEN\n" + LOADED)
    assert loaded == ["plantchart", "plantchart._checks", "plantchart.motion"]
    from plantchart import _checks, motion, series
    hours = (_checks.FIRST_HOUR, _checks.LAST_HOUR)
    assert (series.FIRST_HOUR, series.LAST_HOUR) == hours == (8, 18)
    assert motion.FIRST_HOUR is _checks.FIRST_HOUR


def test_a_process_that_draws_static_charts_loads_no_pipeline():
    """The chart is drawn, so the work is gone and not moved into the
    first call; frames drawn from a plan afterwards are the reference's."""
    hours, targets, current = [8, 9, 10, 11], [10, 3, 0, 6], [0, 5, 4, 0]
    loaded, digests = fresh(
        "import hashlib, json, sys\n"
        "from plantchart import render, svg\n"
        "style = svg.GALLERY_STYLES[7]\n"
        f"svg.render_svg(render.layout({targets!r}, {hours!r}, style))\n"
        "svg.design_space_gallery()\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('plantchart'))\n"
        "from plantchart.motion import PLANTSCREEN, plan_for_profile\n"
        f"plan = plan_for_profile({targets!r}, {current!r}, PLANTSCREEN)\n"
        f"frames = svg.render_frames(plan, {hours!r}, style, fps=2.0,\n"
        f"                           initial_positions={current!r})\n"
        "print(json.dumps([loaded, [hashlib.sha256(f.encode()).hexdigest() for f in frames]]))\n")
    assert loaded == STATIC_CHARTS
    plan = plan_for_profile(targets, current, PLANTSCREEN)
    expected = reference_render_frames(plan, hours, GALLERY_STYLES[7], fps=2.0,
                                       initial_positions=current)
    assert len(expected) > 1
    assert digests == [hashlib.sha256(frame.encode()).hexdigest() for frame in expected]


@pytest.mark.parametrize("argv, renders", [
    pytest.param(["segment", "--fixture", "plantform-monday"], False, id="segment"),
    pytest.param(["encode", "--fixture", "plantform-monday"], False, id="encode"),
    pytest.param(["plan", "--fixture", "plantform-monday"], False, id="plan"),
    pytest.param(["simulate", "--fixture", "plantform-monday"], False, id="simulate"),
    pytest.param(["fixtures"], False, id="fixtures"),
    pytest.param(["serve", "--listen", "FEED", "--max-idle-polls", "1", "--poll-timeout", "0"],
                 False, id="serve"),
    pytest.param(["render", "--fixture", "plantform-monday", "--out", "CHART"], True, id="render"),
])
def test_only_the_command_that_draws_loads_the_renderer(tmp_path, argv, renders):
    (tmp_path / "FEED").write_text("")
    argv = [str(tmp_path / arg) if arg in ("FEED", "CHART") else arg for arg in argv]
    code, loaded = fresh("import contextlib, io, json, sys\n"
                         "from plantchart.cli import main\n"
                         "with contextlib.redirect_stdout(io.StringIO()):\n"
                         f"    code = main({argv!r})\n"
                         "print(json.dumps([code, sorted(sys.modules)]))\n")
    assert code == 0
    assert [name for name in RENDERER if name in loaded] == (RENDERER if renders else [])


def test_the_star_import_binds_each_export_and_module_to_its_owners_object():
    bound, strangers = fresh(
        "import json, sys\n"
        f"exports = {EXPORTS!r}\n"
        "names = {}\n"
        "exec('from plantchart import *', names)\n"
        "del names['__builtins__']\n"
        "owner = {name: module for module, listed in exports.items() for name in listed}\n"
        "strangers = [name for name, value in names.items()\n"
        "             if value is not (sys.modules['plantchart.' + name] if name in exports\n"
        "                              else getattr(sys.modules['plantchart.' + owner[name]], name))]\n"
        "print(json.dumps([sorted(names), strangers]))\n")
    expected = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])
    assert len(expected) == 52
    assert (bound, strangers) == (expected, [])


def test_every_export_is_listed_before_any_is_read():
    loaded, listed = fresh("import json, sys, plantchart\n"
                           "listed = dir(plantchart)\n"
                           "print(json.dumps([sorted(sys.modules), listed]))\n")
    assert [name for name in loaded if name.startswith("plantchart.")] == ["plantchart._checks"]
    assert set(EXPORTS) | {name for names in EXPORTS.values() for name in names} <= set(listed)


def test_the_modules_import_as_before_and_a_name_read_once_is_kept():
    kept, render_bound, svg_bound, read_twice = fresh(
        "import json, sys\n"
        "import plantchart.svg\n"
        "from plantchart import render\n"
        "kept = 'render_svg' in vars(plantchart)\n"
        "first = plantchart.render_svg\n"
        "print(json.dumps([[kept, 'render_svg' in vars(plantchart)],\n"
        "                  render is sys.modules['plantchart.render'],\n"
        "                  plantchart.svg is sys.modules['plantchart.svg'],\n"
        "                  plantchart.render_svg is first is plantchart.svg.render_svg]))\n")
    assert (kept, render_bound, svg_bound, read_twice) == ([False, True], True, True, True)


def test_a_module_is_read_as_an_attribute_without_an_import():
    assert fresh("import json, plantchart\n"
                 "print(json.dumps(plantchart.motion.__name__))\n") == "plantchart.motion"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        plantchart.no_such_name  # noqa: B018
    assert not hasattr(plantchart, "no_such_name")
    with pytest.raises(ImportError):
        from plantchart import no_such_name  # noqa: F401
    with pytest.raises(AttributeError) as refused:
        getattr(plantchart, "n" * 20_000)
    assert len(str(refused.value)) < QUOTE_LIMIT + 50
