import argparse
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import plantchart
from plantchart import cli, fixtures, serve
from plantchart.cli import main
from plantchart.motion import MAX_FRAMES, PLANTFORM
from plantchart._checks import QUOTE_LIMIT
from strategies import UNPARSABLE_DOCUMENTS


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


FLAT_CSV = "hour,rate\n" + "\n".join(f"{h},0.0" for h in range(8, 13))
MONDAY_JSON = json.dumps({"samples": [
    {"hour": h, "rate": r} for h, r in zip(range(8, 18), (0, .3, .5, .6, 1, .6, .5, .3, .2, 0))
]}).encode()
#: Every option that argparse converts to a number, and the number's type.
TYPED_OPTIONS = [
    *((command, "--variation-index", "int") for command in ("encode", "plan", "simulate", "render")),
    ("simulate", "--tick", "float"),
    ("render", "--fps", "float"),
    ("serve", "--tick", "float"),
    ("serve", "--max-messages", "int"),
    ("serve", "--max-idle-polls", "int"),
    ("serve", "--poll-timeout", "float"),
]
TWO_VARIATIONS_JSON = json.dumps({"samples": [
    {"hour": h, "rate": r} for h, r in zip(range(8, 13), (0.0, 0.6, 0.2, 0.8, 0.0))
]})


class TestSegment:
    def test_plantform_monday_fixture(self, run):
        code, out, _ = run("segment", "--fixture", "plantform-monday")
        assert code == 0
        report = json.loads(out)
        (variation,) = report["variations"]
        assert (variation["start"], variation["peak"], variation["end"]) == (8, 12, 17)
        assert variation["storage_advice"] == {"recharge": 12, "discharge_start": 8}
        assert variation["slopes"] == {"ascending": [8, 12], "descending": [12, 17]}

    def test_flat_file_yields_empty_list(self, run, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text(FLAT_CSV)
        code, out, _ = run("segment", str(path))
        assert code == 0
        assert json.loads(out) == {"variations": []}

    def test_malformed_file_exits_2_with_field_path(self, run, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("hour,rate\n8,0.5\n9,1.7\n10,0.1")
        code, _, err = run("segment", str(path))
        assert code == 2
        assert "samples[1].rate" in err

    def test_missing_input(self, run):
        code, _, err = run("segment")
        assert code == 2

    def test_missing_file_with_a_newline_in_its_name_exits_2_with_one_line(self, run, tmp_path):
        path = tmp_path / "missing\nname.csv"
        code, out, err = run("segment", str(path))
        assert code == 2
        assert out == ""
        shown = str(path).replace("\n", "\\n")
        assert err == f"error: no such file: {shown}\n"


class TestEncode:
    def test_peak_hour_maps_to_10(self, run):
        code, out, _ = run("encode", "--fixture", "plantform-monday")
        assert code == 0
        payload = json.loads(out)
        positions = dict(zip(payload["hours"], payload["positions"]))
        assert positions[12] == 10

    def test_zero_hours_encode_zero(self, run):
        code, out, _ = run("encode", "--fixture", "plantform-monday")
        payload = json.loads(out)
        positions = dict(zip(payload["hours"], payload["positions"]))
        assert positions[8] == 0 and positions[17] == 0

    def test_absolute_mode_rounds_half_up(self, run, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("hour,rate\n8,0.0\n9,0.46\n10,0.0")
        code, out, _ = run("encode", str(path), "--mode", "absolute")
        assert code == 0
        assert json.loads(out)["positions"] == [0, 5, 0]

    def test_flat_series_under_relative_mode_exits_3(self, run, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text(FLAT_CSV)
        code, _, err = run("encode", str(path), "--mode", "relative")
        assert code == 3

    def test_flat_series_under_absolute_mode_still_encodes(self, run, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text(FLAT_CSV)
        code, out, _ = run("encode", str(path), "--mode", "absolute")
        assert code == 0
        assert json.loads(out)["positions"] == [0, 0, 0, 0, 0]


class TestPlan:
    def test_plantscreen_ten_hour_fixture_totals_twenty_seconds(self, run):
        code, out, _ = run("plan", "--fixture", "plantform-monday", "--profile", "plantscreen")
        assert code == 0
        plan = json.loads(out)
        assert plan["total_duration"] == pytest.approx(20.0)
        assert plan["profile"] == "plantscreen"

    def test_physical_plan_for_the_same_fixture(self, run):
        code, out, _ = run("plan", "--fixture", "plantform-monday", "--profile", "plantform")
        plan = json.loads(out)
        # only moving leaves get commands; totals follow the travelled distance
        assert len(plan["commands"]) == 8
        assert plan["total_duration"] == pytest.approx(40 / 10 * 216 / 118)

    def test_unknown_profile(self, run):
        code, _, err = run("plan", "--fixture", "plantform-monday", "--profile", "nope")
        assert code == 2
        assert "unknown profile" in err

    def test_custom_profile_from_env_dir(self, run, tmp_path, monkeypatch):
        profile = {
            "name": "bench",
            "modality": "physical",
            "step_rate": 216.0,
        }
        (tmp_path / "bench.json").write_text(json.dumps(profile))
        monkeypatch.setenv("PLANTCHART_PROFILE_DIR", str(tmp_path))
        code, out, _ = run("plan", "--fixture", "plantform-monday", "--profile", "bench")
        assert code == 0
        assert json.loads(out)["profile"] == "bench"

    def test_deterministic_output(self, run):
        _, first, _ = run("plan", "--fixture", "bambhisto-1", "--profile", "cairnform")
        _, second, _ = run("plan", "--fixture", "bambhisto-1", "--profile", "cairnform")
        assert first == second


class TestSimulate:
    def test_end_positions_equal_encoded_targets(self, run, tmp_path):
        log = tmp_path / "events.ndjson"
        code, out, _ = run(
            "simulate", "--fixture", "plantform-monday", "--profile", "plantform",
            "--tick", "0.05", "--out", str(log),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["leaf_positions"] == [0, 4, 4, 5, 10, 5, 5, 4, 3, 0]
        lines = [json.loads(l) for l in log.read_text().strip().split("\n")]
        assert any(rec["kind"] == "set_target" for rec in lines)

    def test_all_variations_sequence(self, run, tmp_path):
        doc = {
            "samples": [
                {"hour": 8, "rate": 0.0},
                {"hour": 9, "rate": 0.6},
                {"hour": 10, "rate": 0.2},
                {"hour": 11, "rate": 0.8},
                {"hour": 12, "rate": 0.0},
            ]
        }
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            "simulate", str(path), "--profile", "plantform", "--all-variations",
            "--tick", "0.05", "--out", str(tmp_path / "log.ndjson"),
        )
        assert code == 0
        # final state shows the second variation
        assert json.loads(out)["leaf_positions"][3] == 10

    @pytest.mark.parametrize("command", ["simulate", "serve"])
    @pytest.mark.parametrize("tick", ["nan", "inf", "0", "-1"])
    def test_bad_tick_exits_2_with_one_line(self, run, tmp_path, command, tick):
        source = ["--fixture", "plantform-monday"] if command == "simulate" else [
            "--listen", str(tmp_path / "feed.ndjson"), "--max-idle-polls", "1"]
        code, out, err = run(command, *source, "--tick", tick)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "tick" in err

    @pytest.mark.parametrize("argv", [
        ["plan"], ["simulate"], ["simulate", "--all-variations"], ["render", "--frames", "frames"],
    ], ids=["plan", "simulate", "simulate-all", "render-frames"])
    def test_raised_leaf_at_18_exits_3_with_one_line(self, run, tmp_path, argv):
        path = tmp_path / "late.csv"
        path.write_text("hour,rate\n14,0.2\n15,0.5\n16,0.8\n17,0.9\n18,1.0\n")
        command, *rest = argv
        rest = [str(tmp_path / arg) if arg == "frames" else arg for arg in rest]
        code, out, err = run(command, str(path), *rest)
        assert code == 3
        assert out == ""
        assert err == "error: hour 18 carries position 10 but the device has leaves only up to hour 17\n"

    def test_ctrl_c_summary_counts_payloads_not_variations(self, run, monkeypatch):
        class InterruptedFeed:
            """Delivers one two-variation payload, then the operator hits Ctrl-C."""

            def __init__(self, path):
                self.payloads = [TWO_VARIATIONS_JSON]

            def poll(self, timeout=0.0):
                if not self.payloads:
                    raise KeyboardInterrupt
                return self.payloads.pop()

        monkeypatch.setattr(serve, "FileFeed", InterruptedFeed)
        code, out, _ = run("serve", "--listen", "feed.ndjson", "--tick", "0.05")
        assert code == 0
        summary = json.loads(out)
        assert (summary["accepted"], summary["variations_displayed"]) == (1, 2)

    @pytest.mark.parametrize("lines", [[], [MONDAY_JSON, b"{bad"]], ids=["idle", "two-payloads"])
    def test_serve_log_replaces_the_file_at_exit(self, run, tmp_path, lines):
        feed, log = tmp_path / "feed.ndjson", tmp_path / "logs" / "events.ndjson"
        feed.write_bytes(b"".join(line + b"\n" for line in lines))
        log.parent.mkdir()
        log.write_text("an older, longer log\n" * 100)
        code, out, _ = run("serve", "--listen", str(feed), "--log", str(log), "--tick", "0.1",
                           "--max-idle-polls", "1", "--poll-timeout", "0")
        assert code == 0
        service = serve.ForecastService(PLANTFORM, tick=0.1)
        for line in lines:
            service.handle_payload(line)
        assert log.read_text(encoding="utf-8") == service.event_log_ndjson()
        assert json.loads(out)["rejected"] == len(lines) // 2

    def test_nan_poll_timeout_exits_2_instead_of_polling_forever(self, run, tmp_path):
        code, out, err = run("serve", "--listen", str(tmp_path / "feed.ndjson"),
                             "--max-idle-polls", "1", "--poll-timeout", "nan")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "poll timeout" in err

    def test_profile_too_slow_to_finish_exits_4_at_once(self, run, tmp_path):
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps({"name": "slow", "step_rate": 1e-300}))
        code, _, err = run("simulate", "--fixture", "plantform-monday", "--profile", str(slow))
        assert code == 4
        assert err.startswith("simulation error:") and err.count("\n") == 1


class TestBadInputs:
    """Probes that once ended in a traceback now exit 2 or 4 with one line."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["segment", "DIR"], id="segment-dir"),
        pytest.param(["plan", "--fixture", "plantform-monday", "--out", "FILE/x"],
                     id="plan-out-under-file"),
        pytest.param(["simulate", "--fixture", "plantform-monday", "--out", "FILE/x"],
                     id="simulate-out-under-file"),
        pytest.param(["render", "--fixture", "plantform-monday", "--out", "FILE/x"],
                     id="render-out-under-file"),
        pytest.param(["render", "--fixture", "plantform-monday", "--frames", "FILE/d"],
                     id="frames-under-file"),
        pytest.param(["render", "--gallery", "FILE/g"], id="gallery-under-file"),
        pytest.param(["serve", "--listen", "DIR"], id="serve-listen-dir"),
        pytest.param(["serve", "--listen", "FILE", "--log", "FILE/l"], id="serve-log-under-file"),
    ])
    def test_unusable_path_exits_2_with_one_line(self, run, tmp_path, argv):
        (tmp_path / "DIR").mkdir()
        (tmp_path / "FILE").write_text("x\n")
        argv = [str(tmp_path / arg) if arg.split("/")[0] in ("DIR", "FILE") else arg
                for arg in argv]
        if argv[0] == "serve":
            argv += ["--max-idle-polls", "1", "--poll-timeout", "0"]
        code, out, err = run(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    def test_unusable_log_path_exits_before_the_feed_is_read(self, run, tmp_path, monkeypatch):
        (tmp_path / "FILE").write_text("x\n")
        feed = tmp_path / "feed.ndjson"
        feed.write_bytes(MONDAY_JSON + b"\n")
        polled = []
        monkeypatch.setattr(serve.FileFeed, "poll", lambda *args, **kwargs: polled.append(args))
        code, out, err = run("serve", "--listen", str(feed), "--log", str(tmp_path / "FILE/l"),
                             "--max-idle-polls", "1", "--poll-timeout", "0")
        assert (code, out, polled) == (2, "", [])
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    def test_an_unknown_fixture_exits_2_naming_the_fixtures(self, run):
        code, out, err = run("plan", "--fixture", "nope")
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown fixture 'nope'; available: ")
        assert err.count("\n") == 1
        assert all(name in err for name in fixtures.FIXTURES)

    def test_a_huge_bad_value_exits_2_with_a_short_line(self, run, tmp_path):
        path = tmp_path / "forecast.json"
        path.write_text(json.dumps({"samples": [{"hour": 8, "rate": "9" * 1_000_000}]}))
        code, out, err = run("segment", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: samples[0].rate: expected a number, got '999")
        assert err.count("\n") == 1 and len(err) < QUOTE_LIMIT + 100

    @pytest.mark.parametrize("name", sorted(UNPARSABLE_DOCUMENTS))
    def test_unparsable_document_exits_2_naming_the_document(self, run, tmp_path, name):
        document, reason = UNPARSABLE_DOCUMENTS[name]
        path = tmp_path / "forecast"
        path.write_bytes(document)
        code, out, err = run("segment", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: document: ") and reason in err and err.count("\n") == 1

    def test_serve_rejects_unparsable_lines_and_serves_the_rest(self, run, tmp_path):
        feed = tmp_path / "feed.ndjson"
        bad = [UNPARSABLE_DOCUMENTS[name][0] for name in sorted(UNPARSABLE_DOCUMENTS)]
        feed.write_bytes(b"\n".join([MONDAY_JSON, *bad, MONDAY_JSON]) + b"\n")
        code, out, err = run("serve", "--listen", str(feed), "--tick", "0.1",
                             "--max-idle-polls", "1", "--poll-timeout", "0")
        assert code == 0
        assert err == ""
        summary = json.loads(out)
        assert (summary["accepted"], summary["rejected"]) == (2, 3)

    @pytest.mark.parametrize("argv, profile, code", [
        pytest.param(["segment", "forecast.csv"], None, 2, id="input-and-fixture"),
        pytest.param(["render", "--canvas", "0x0"], None, 2, id="canvas-0x0"),
        pytest.param(["render", "--gallery", "FRAMES", "--canvas", "0x640"], None, 2,
                     id="gallery-canvas-0x640"),
        pytest.param(["render", "--canvas", "10by20"], None, 2, id="canvas-10by20"),
        pytest.param(["render", "--dims", "1,2"], None, 2, id="dims-two-parts"),
        pytest.param(["render", "--dims", "nan,1,2"], None, 2, id="dims-nan"),
        pytest.param(["render", "--dims", "10,-5,-0.8"], None, 2, id="dims-negative-extents"),
        pytest.param(["render", "--dims", "10,-50,-20"], None, 2, id="dims-negative-scale"),
        pytest.param(["render", "--dims", "1e308,0,1e308"], None, 2, id="dims-world-overflows"),
        pytest.param(["render", "--dims", "1e308,0,1"], None, 2, id="dims-trunk-overflows"),
        pytest.param(["render", "--frames", "FRAMES", "--dims", "1e-320,0,1e-320"], None, 2,
                     id="frames-dims-subnormal"),
        pytest.param(["render", "--canvas", "9" * 400 + "x640"], None, 2,
                     id="canvas-beyond-floats"),
        pytest.param(["render", "--frames", "FRAMES", "--fps", "0"], None, 2, id="fps-0"),
        pytest.param(["render", "--frames", "FRAMES", "--fps", "nan"], None, 2, id="fps-nan"),
        pytest.param(["simulate"], {"name": "s", "step_rate": "fast"}, 2, id="step-rate-text"),
        pytest.param(["plan"], {"name": "s", "per_rate_frame_time": float("inf")}, 2,
                     id="frame-time-inf"),
        pytest.param(["plan"], {"name": "s", "steps_full_range": [200]}, 2, id="one-step-count"),
        pytest.param(["plan"], {"name": "s", "steps_full_range": 200}, 2, id="steps-not-a-list"),
        pytest.param(["plan"], {"name": "s", "steps_full_range": ["x"] * 10}, 2,
                     id="step-count-text"),
        pytest.param(["plan"], ["not", "an", "object"], 2, id="profile-not-an-object"),
        pytest.param(["simulate", "--tick", "1e10"], {"name": "big", "step_rate": 1e300}, 4,
                     id="budget-overflow"),
        # The plan's duration overflows: the profile is at fault, not the encoding.
        pytest.param(["plan"], {"name": "d", "step_rate": 5e-324}, 2, id="plan-overflow"),
        pytest.param(["simulate"], {"name": "d", "step_rate": 5e-324}, 2, id="simulate-overflow"),
        pytest.param(["render", "--frames", "FRAMES"], {"name": "d", "step_rate": 5e-324}, 2,
                     id="frames-overflow"),
    ])
    def test_exits_with_one_line_and_no_traceback(self, run, tmp_path, argv, profile, code):
        argv = [str(tmp_path / "frames") if arg == "FRAMES" else arg for arg in argv]
        if profile is not None:
            path = tmp_path / "profile.json"
            path.write_text(json.dumps(profile))
            argv += ["--profile", str(path)]
        got, out, err = run(*argv, "--fixture", "plantform-monday")
        assert got == code
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "frames").exists()

    @pytest.mark.parametrize("command, profile, message", [
        ("plan", {"step_rate": 100}, "name must be a non-empty string, got None"),
        ("plan", {"name": ["a"]}, "name must be a non-empty string, got ['a']"),
        ("plan", {"name": ""}, "name must be a non-empty string, got ''"),
        ("serve", {"name": "s", "reset_before_next_variation": "false"},
         "unknown field 'reset_before_next_variation'"),
        pytest.param("plan", '{"name":' * 100_000 + '"d"' + "}" * 100_000,
                     "JSON nested too deeply", id="plan-json-nested-100k"),
    ])
    def test_bad_profile_field_exits_2_naming_it(self, run, tmp_path, command, profile, message):
        path = tmp_path / "profile.json"
        path.write_text(profile if isinstance(profile, str) else json.dumps(profile))
        if command == "plan":
            argv = ["plan", "--fixture", "plantform-monday"]
        else:
            argv = ["serve", "--listen", str(tmp_path / "feed.ndjson"),
                    "--poll-timeout", "0", "--max-idle-polls", "1"]
        code, out, err = run(*argv, "--profile", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: invalid profile {path}: {message}\n"

    @pytest.mark.parametrize("argv", [
        pytest.param(["render", "--style", "s" * 20_000], id="style"),
        pytest.param(["render", "--style", "leaf," + "a" * 20_000 + ",curvy"],
                     id="style-component"),
        pytest.param(["render", "--dims", "d" * 20_000], id="dims-name"),
        pytest.param(["render", "--dims", "d" * 20_000 + ",1,2"], id="dims-number"),
        pytest.param(["render", "--canvas", "c" * 20_000], id="canvas"),
        pytest.param(["plan", "--profile", "p" * 250], id="profile-name"),
        # Longer than the file system allows in a file name.
        pytest.param(["plan", "--profile", "p" * 20_000], id="profile-name-too-long-for-a-file"),
    ])
    def test_a_huge_argument_exits_2_with_a_short_line(self, run, argv):
        code, out, err = run(*argv, "--fixture", "plantform-monday")
        assert (code, out) == (2, "")
        assert "..." in err and err.count("\n") == 1 and len(err) < 2 * QUOTE_LIMIT + 100

    @pytest.mark.parametrize("command, option, kind", TYPED_OPTIONS,
                             ids=[f"{c}{o}" for c, o, _ in TYPED_OPTIONS])
    def test_a_huge_typed_value_is_refused_with_a_short_line(self, capsys, command, option, kind):
        with pytest.raises(SystemExit) as exited:
            main([command, option, "x" * 20_000])
        out, err = capsys.readouterr()
        assert (exited.value.code, out) == (2, "")
        assert err.endswith(f" error: argument {option}: invalid {kind} value: "
                            f"'{'x' * (QUOTE_LIMIT - 1)}...\n")
        assert len(err) < 1000

    @pytest.mark.parametrize("command, option, kind", TYPED_OPTIONS,
                             ids=[f"{c}{o}" for c, o, _ in TYPED_OPTIONS])
    def test_a_short_typed_value_is_refused_in_argparse_words(self, capsys, command, option, kind):
        with pytest.raises(SystemExit) as exited:
            main([command, option, "abc"])
        out, err = capsys.readouterr()
        assert (exited.value.code, out) == (2, "")
        assert err.endswith(f"\nplantchart {command}: error: argument {option}: "
                            f"invalid {kind} value: 'abc'\n")

    @pytest.mark.parametrize("argv, argument", [
        pytest.param(["simulate", "--fixture", "plantform-monday", "--mode", "m" * 20_000],
                     "--mode", id="mode"),
        pytest.param(["m" * 20_000], "command", id="command"),
    ])
    def test_a_huge_choice_is_refused_with_a_short_line(self, capsys, argv, argument):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        out, err = capsys.readouterr()
        assert (exited.value.code, out) == (2, "")
        assert f" error: argument {argument}: invalid choice: 'mmm" in err
        assert "..." in err and len(err) < 1000

    @pytest.mark.parametrize("argv, prog, argument, choices", [
        pytest.param(["simulate", "--mode", "abc"], "plantchart simulate", "--mode",
                     ["relative", "absolute", "six-step"], id="mode"),
        pytest.param(["abc"], "plantchart", "command",
                     ["segment", "encode", "plan", "simulate", "render", "serve", "fixtures"],
                     id="command"),
    ])
    def test_a_short_choice_is_refused_in_argparse_words(self, capsys, argv, prog, argument,
                                                         choices):
        """The words are those of a plain argparse parser with the same
        choices, as this Python's argparse puts them."""
        def last_line(parse, args):
            with pytest.raises(SystemExit) as exited:
                parse(args)
            out, err = capsys.readouterr()
            assert (exited.value.code, out) == (2, "")
            return err.splitlines()[-1]

        plain = argparse.ArgumentParser(prog=prog)
        plain.add_argument(argument, choices=choices)
        plain_argv = [argument, "abc"] if argument.startswith("-") else ["abc"]
        line = last_line(main, argv)
        assert line == last_line(plain.parse_args, plain_argv)
        assert line.startswith(f"{prog}: error: argument {argument}: invalid choice: 'abc' ")

    def test_the_typed_options_listed_are_every_typed_option(self):
        (commands,) = [action.choices for action in cli._parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        typed = {(command, action.option_strings[0])
                 for command, parser in commands.items() for action in parser._actions
                 if action.type not in (None, Path) and action.option_strings}
        assert typed == {(command, option) for command, option, _ in TYPED_OPTIONS}

    def test_a_huge_fixture_name_exits_2_with_a_short_line(self, run):
        code, out, err = run("plan", "--fixture", "f" * 20_000)
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown fixture 'fff") and "...; available: " in err
        assert err.count("\n") == 1 and len(err) < QUOTE_LIMIT + 1000

    @pytest.mark.parametrize("profile, message", [
        pytest.param(None, "motion budget per tick (step rate 118.0 x tick 1e+308 s) is not finite",
                     id="budget"),
        pytest.param({"name": "slow1", "step_rate": 1.0},
                     "a tick of 1e+308 s puts the plan's deadline out of range", id="deadline"),
    ])
    def test_a_huge_tick_is_refused_for_its_own_cause(self, run, tmp_path, profile, message):
        argv = ["simulate", "--fixture", "plantform-monday", "--tick", "1e308"]
        if profile is not None:
            path = tmp_path / "profile.json"
            path.write_text(json.dumps(profile))
            argv += ["--profile", str(path)]
        assert run(*argv) == (4, "", f"simulation error: {message}\n")

    def test_a_huge_tick_that_the_deadline_allows_plays(self, run, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"name": "slow1", "step_rate": 1.0}))
        code, out, err = run("simulate", "--fixture", "plantform-monday", "--tick", "1e300",
                             "--profile", str(path))
        assert (code, err) == (0, "")
        assert '"kind": "target_reached"' in out

    @pytest.mark.parametrize("fps", ["1e308", "1e9"])
    def test_too_many_frames_exit_2_before_any_is_drawn(self, tmp_path, fps):
        """Runs the CLI in a child process limited to 20 s and 1 GiB, so
        that an unbounded frame count fails the test instead of hanging it."""
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        env = dict(os.environ, PYTHONPATH=str(Path(plantchart.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "plantchart.cli", "render", "--fixture", "plantform-monday",
             "--frames", str(tmp_path / "frames"), "--fps", fps],
            capture_output=True, text=True, timeout=20, env=env, preexec_fn=limit_memory)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and f"more than {MAX_FRAMES} frames" in proc.stderr
        assert not (tmp_path / "frames").exists()

    def test_frames_of_a_two_hour_variation_exit_2(self, run, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("hour,rate\n8,1.0\n9,0.0\n10,1.0\n11,0.0\n")  # first variation 8..9
        code, out, err = run("render", str(path), "--frames", str(tmp_path / "frames"))
        assert code == 2
        assert out == ""
        assert err == "error: a chart displays 3..10 hours, got 2\n"


class TestRender:
    def test_two_sided_leaf_chart_has_double_glyphs(self, run, tmp_path):
        out_file = tmp_path / "chart.svg"
        code, _, _ = run(
            "render", "--fixture", "plantform-monday",
            "--style", "leaf,two-sided,curvy", "--out", str(out_file),
        )
        assert code == 0
        doc = out_file.read_text()
        assert doc.count("<text") == 10

    def test_same_invocation_twice_is_byte_identical(self, run, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run("render", "--fixture", "bambhisto-2", "--style", "bamboo,two-sided,curvy", "--out", str(a))
        run("render", "--fixture", "bambhisto-2", "--style", "bamboo,two-sided,curvy", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_gallery_emits_at_least_ten_files(self, run, tmp_path):
        gallery_dir = tmp_path / "gallery"
        code, out, _ = run("render", "--gallery", str(gallery_dir))
        assert code == 0
        files = sorted(gallery_dir.glob("*.svg"))
        assert len(files) >= 10

    def test_unsupported_style_combination(self, run):
        code, _, err = run(
            "render", "--fixture", "plantform-monday", "--style", "ring,one-sided,straight"
        )
        assert code == 2
        assert "two-sided" in err

    def test_frames_written_zero_padded(self, run, tmp_path):
        frames_dir = tmp_path / "frames"
        code, _, _ = run(
            "render", "--fixture", "plantform-wednesday-2",
            "--style", "leaf,two-sided,curvy", "--frames", str(frames_dir),
            "--profile", "plantscreen", "--fps", "2",
        )
        assert code == 0
        names = sorted(p.name for p in frames_dir.glob("*.svg"))
        assert names[0] == "frame_0000.svg"
        # 4-hour variation at 2 s/hour sampled at 2 fps
        assert len(names) == 16

    def test_frames_are_written_as_they_are_made(self, run, tmp_path):
        """600 frames, 35.4 MB of documents with about 490 distinct anchor
        pieces: the call's traced peak stays under a quarter of that."""
        frames_dir = tmp_path / "frames"
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            code, out, _ = run(
                "render", "--fixture", "plantform-monday", "--profile", "plantscreen",
                "--style", "leaf,two-sided,curvy", "--frames", str(frames_dir), "--fps", "30",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out == f"wrote 600 frames to {frames_dir}\n"
        total = sum(p.stat().st_size for p in frames_dir.glob("*.svg"))
        assert total > 35_000_000
        assert peak < total / 4


class TestFixturesCommand:
    def test_lists_all_rows(self, run):
        code, out, _ = run("fixtures")
        assert code == 0
        listing = json.loads(out)
        assert len(listing) == 32
        assert listing["plantform-monday"] == {
            "group": "user-study", "start": 8, "peak": 12, "end": 17,
        }
