import json

import pytest

from plantchart.cli import main


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


FLAT_CSV = "hour,rate\n" + "\n".join(f"{h},0.0" for h in range(8, 13))


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

    @pytest.mark.parametrize("argv, profile, code", [
        pytest.param(["render", "--canvas", "0x0"], None, 2, id="canvas-0x0"),
        pytest.param(["render", "--dims", "nan,1,2"], None, 2, id="dims-nan"),
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

    @pytest.mark.parametrize("command, profile, message", [
        ("plan", {"step_rate": 100}, "name must be a non-empty string, got None"),
        ("plan", {"name": ["a"]}, "name must be a non-empty string, got ['a']"),
        ("plan", {"name": ""}, "name must be a non-empty string, got ''"),
        ("serve", {"name": "s", "reset_before_next_variation": "false"},
         "reset_before_next_variation must be true or false, got 'false'"),
    ])
    def test_bad_profile_field_exits_2_naming_it(self, run, tmp_path, command, profile, message):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile))
        if command == "plan":
            argv = ["plan", "--fixture", "plantform-monday"]
        else:
            argv = ["serve", "--listen", str(tmp_path / "feed.ndjson"),
                    "--poll-timeout", "0", "--max-idle-polls", "1"]
        code, out, err = run(*argv, "--profile", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: invalid profile {path}: {message}\n"

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


class TestFixturesCommand:
    def test_lists_all_rows(self, run):
        code, out, _ = run("fixtures")
        assert code == 0
        listing = json.loads(out)
        assert len(listing) == 32
        assert listing["plantform-monday"] == {
            "group": "user-study", "start": 8, "peak": 12, "end": 17,
        }
