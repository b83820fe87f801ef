"""Command-line interface: exit codes, determinism, atomic outputs."""

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uwbpose
from uwbpose.cli import COMMANDS, _accept_exact, _build_parser, main
from uwbpose.core import Deployment, Method, Pose2, predicted_ranges
from uwbpose.preprocess import NamedDeployment

from helpers import ORIGIN_LINE_TAGS

SCENARIO_SMALL = {
    "deployment": {
        "anchors": [[50.0, 0.0], [50.0, 50.0], [0.0, 50.0]],
        "tags": [[3.0, 0.0], [3.0, 3.0]],
        "sigma": 0.1,
    },
    "true_pose": {"theta_deg": 60.0, "t": [0.0, 25.0]},
    "seed": 5,
    "sweep": {
        "axis": "repeat_t",
        "values": [5, 20],
        "trials": 25,
        "estimators": ["uls", "gn-uls"],
    },
}


def _write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestSimulate:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        scenario = _write_scenario(tmp_path, SCENARIO_SMALL)
        out = tmp_path / "result.csv"
        assert main(["simulate", "--scenario", scenario, "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        rows = list(csv.reader(text.splitlines()))
        assert rows[0][0] == "axis_value"
        assert len(rows) == 1 + 2 * 2  # two axis values x two estimators
        captured = capsys.readouterr()
        assert "sqrt_crlb" in captured.out

    def test_byte_identical_across_threads(self, tmp_path):
        scenario = _write_scenario(tmp_path, SCENARIO_SMALL)
        outputs = []
        for threads, name in ((1, "a.csv"), (8, "b.csv")):
            out = tmp_path / name
            code = main(
                ["simulate", "--scenario", scenario, "--out", str(out), "--threads", str(threads)]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_scenario_without_sweep_exits_2_without_output(self, tmp_path, capsys):
        payload = {key: value for key, value in SCENARIO_SMALL.items() if key != "sweep"}
        scenario = _write_scenario(tmp_path, payload)
        out = tmp_path / "result.csv"
        assert main(["simulate", "--scenario", scenario, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {scenario}: scenario has no sweep section\n"

    def test_missing_scenario_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "result.csv"
        code = main(["simulate", "--scenario", str(tmp_path / "nope.json"), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path):
        payload = dict(SCENARIO_SMALL)
        payload["surprise"] = 1
        scenario = _write_scenario(tmp_path, payload)
        assert main(["simulate", "--scenario", scenario, "--out", str(tmp_path / "o.csv")]) == 2

    def test_unobservable_exits_3_without_output(self, tmp_path):
        payload = json.loads(json.dumps(SCENARIO_SMALL))
        payload["deployment"]["anchors"] = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
        scenario = _write_scenario(tmp_path, payload)
        out = tmp_path / "result.csv"
        assert main(["simulate", "--scenario", scenario, "--out", str(out)]) == 3
        assert not out.exists()

    def test_bundled_scenario_loads(self, tmp_path):
        out = tmp_path / "bundled.csv"
        code = main(
            [
                "simulate",
                "--scenario",
                "scenarios/sim_repeatT.scenario",
                "--out",
                str(out),
                "--trials",
                "2",
            ]
        )
        assert code == 0
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
        assert len(rows) == 1 + 4 * 3  # four T values x three estimators


class TestCrlb:
    def test_prints_bound_and_halves_at_quadruple_t(self, capsys):
        assert main(["crlb", "--scenario", "scenarios/crlb_base.scenario"]) == 0
        out1 = capsys.readouterr().out
        assert main(["crlb", "--scenario", "scenarios/crlb_base.scenario", "--repeat-t", "4"]) == 0
        out4 = capsys.readouterr().out

        def grab(text, key):
            for line in text.splitlines():
                if line.startswith(key):
                    return float(line.split(":")[1])
            raise AssertionError(f"{key} not printed")

        assert grab(out4, "sqrt_trace_crlb") == pytest.approx(
            grab(out1, "sqrt_trace_crlb") / 2.0, rel=1e-9
        )

    def test_collinear_scenario_exits_3(self, capsys):
        assert main(["crlb", "--scenario", "scenarios/crlb_collinear.scenario"]) == 3
        assert "not observable" in capsys.readouterr().err

    @pytest.mark.parametrize("tags", ORIGIN_LINE_TAGS.values(), ids=ORIGIN_LINE_TAGS)
    def test_tags_collinear_with_origin_have_a_finite_bound(self, tmp_path, capsys, tags):
        payload = json.loads(json.dumps(SCENARIO_SMALL))
        payload["deployment"]["tags"] = tags.tolist()
        assert main(["crlb", "--scenario", _write_scenario(tmp_path, payload)]) == 0
        (line,) = (line for line in capsys.readouterr().out.splitlines() if line.startswith("sqrt_trace_crlb:"))
        assert 0.0 < float(line.split(":")[1]) < math.inf

    @pytest.mark.parametrize(
        "tags", [[[1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]], ids=["single", "coincident", "zero"]
    )
    def test_fewer_than_two_distinct_tags_exit_3(self, tmp_path, capsys, tags):
        payload = json.loads(json.dumps(SCENARIO_SMALL))
        payload["deployment"]["tags"] = tags
        assert main(["crlb", "--scenario", _write_scenario(tmp_path, payload)]) == 3
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.splitlines() == ["error: deployment not observable: need at least 2 distinct tags"]

    def test_tag_scaling_drops_rotation_trace(self, tmp_path, capsys):
        base = json.loads(json.dumps(SCENARIO_SMALL))
        del base["sweep"]
        scaled = json.loads(json.dumps(base))
        scaled["deployment"]["tags"] = [[6.0, 0.0], [6.0, 6.0]]
        code = main(["crlb", "--scenario", _write_scenario(tmp_path, base, "b.json")])
        assert code == 0
        out_base = capsys.readouterr().out
        code = main(["crlb", "--scenario", _write_scenario(tmp_path, scaled, "s.json")])
        assert code == 0
        out_scaled = capsys.readouterr().out

        def rotation_trace(text):
            for line in text.splitlines():
                if line.startswith("rotation_block_trace"):
                    return float(line.split(":")[1])
            raise AssertionError

        ratio = rotation_trace(out_base) / rotation_trace(out_scaled)
        assert 1.8**2 <= ratio <= 2.2**2


def _write_replay_files(tmp_path, rng=None, sigma=0.05, samples=240, speed=0.3, anchor_count=8, bias=None):
    """Synthetic moving-body dataset: deployment, truth CSV, ranges CSV. The
    ranges of pair (anchor id, tag id) are ``true * (1 + alpha) + beta`` for
    its (alpha, beta) in ``bias``, if given, plus noise if ``rng`` is given."""
    anchors = dict(list({
        "a0": [0.0, 0.0], "a1": [10.0, 0.0], "a2": [10.0, 6.0], "a3": [0.0, 6.0],
        "a4": [5.0, 0.0], "a5": [5.0, 6.0], "a6": [0.0, 3.0], "a7": [10.0, 3.0],
    }.items())[:anchor_count])
    tags = {"t0": [0.4, 0.0], "t1": [0.4, 0.4], "t2": [0.0, 0.4]}
    dep_path = tmp_path / "deployment.json"
    dep_path.write_text(
        json.dumps({"anchors": anchors, "tags": tags, "sigma": sigma}), encoding="utf-8"
    )
    named = NamedDeployment.from_json(dep_path)

    freq = 100.0
    times = np.arange(samples) / freq
    xs = 4.0 + speed * times
    ys = 2.5 + 0.5 * np.sin(0.8 * times)
    yaw_deg = 20.0 + 15.0 * np.sin(0.5 * times)

    truth_path = tmp_path / "truth.csv"
    with open(truth_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "x", "y", "yaw_deg"])
        for k in range(samples):
            writer.writerow([times[k], xs[k], ys[k], yaw_deg[k]])

    ranges_path = tmp_path / "ranges.csv"
    with open(ranges_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "anchor", "tag", "range"])
        for k in range(samples):
            pose = Pose2(math.radians(yaw_deg[k]), [xs[k], ys[k]])
            clean = predicted_ranges(named.deployment, pose)
            for i, tag_id in enumerate(named.tag_ids):
                for m, anchor_id in enumerate(named.anchor_ids):
                    value = clean[i, m]
                    if bias is not None:
                        alpha, beta = bias[anchor_id, tag_id]
                        value = value * (1.0 + alpha) + beta
                    if rng is not None:
                        value += rng.normal(0.0, sigma)
                    writer.writerow([times[k], anchor_id, tag_id, max(value, 0.0)])
    return str(dep_path), str(truth_path), str(ranges_path)


class TestEstimate:
    @pytest.mark.parametrize("method", ["uls", "gn-uls", "dac", "gn-dac"])
    def test_noiseless_replay_exact(self, tmp_path, method):
        # Criterion 01 through the whole replay: noiseless streams with a
        # linear bias of their own per pair, removed by a --bias file, and
        # epochs at the log frequency, so every epoch is a truth row.
        bias = {
            (f"a{j}", f"t{i}"): (0.01 * (j - 2 * i), 0.03 * (i + 1) - 0.02 * j) for i in range(3) for j in range(4)
        }
        dep, truth, ranges = _write_replay_files(tmp_path, samples=200, anchor_count=4, bias=bias)
        per_pair = [{"anchor": a, "tag": g, "alpha": alpha, "beta": beta} for (a, g), (alpha, beta) in bias.items()]
        model = tmp_path / "bias.json"
        model.write_text(json.dumps({"alpha": 0.0, "beta": 0.0, "sigma": 0.05, "per_pair": per_pair}), encoding="utf-8")
        out = tmp_path / "poses.csv"
        code = main(
            ["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(out),
             "--truth", truth, "--bias", str(model), "--rate", "100", "--method", method]
        )
        assert code == 0
        header, *rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
        assert header == ["t", "x", "y", "yaw_deg", "method", "status"]
        with open(truth, encoding="utf-8", newline="") as handle:
            poses = {float(row[0]): list(map(float, row[1:])) for row in list(csv.reader(handle))[1:]}
        assert len(rows) == len(poses) == 200
        for row in rows:
            x, y, yaw_deg = poses[float(row[0])]
            assert row[4:] == [method, "ok"]
            assert math.hypot(float(row[1]) - x, float(row[2]) - y) <= 1e-8
            assert abs(math.remainder(math.radians(float(row[3]) - yaw_deg), math.tau)) <= 1e-8
        summary_rows = list(csv.reader(open(str(out) + ".summary.csv", encoding="utf-8")))
        assert summary_rows[0] == ["method", "position_rmse_cm", "rotation_rmse_deg"]
        assert float(summary_rows[1][1]) <= 1e-6
        assert float(summary_rows[1][2]) <= 1e-6

    def test_gn_refinement_beats_closed_form_on_noisy_replay(self, tmp_path):
        rng = np.random.default_rng(81)
        dep, truth, ranges = _write_replay_files(tmp_path, rng=rng)
        results = {}
        for method in ("uls", "gn-uls"):
            out = tmp_path / f"{method}.csv"
            code = main(
                ["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(out),
                 "--truth", truth, "--method", method]
            )
            assert code == 0
            summary = list(csv.reader(open(str(out) + ".summary.csv", encoding="utf-8")))
            results[method] = (float(summary[1][1]), float(summary[1][2]))
        assert results["gn-uls"][0] < results["uls"][0]
        assert results["gn-uls"][1] < results["uls"][1]

    def test_yaw_offset_shifts_reported_yaw(self, tmp_path):
        dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=40)
        base = tmp_path / "base.csv"
        shifted = tmp_path / "shifted.csv"
        assert main(["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(base)]) == 0
        assert main(
            ["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(shifted),
             "--yaw-offset-deg", "-2.5"]
        ) == 0
        rows_base = list(csv.reader(base.read_text(encoding="utf-8").splitlines()))[1:]
        rows_shift = list(csv.reader(shifted.read_text(encoding="utf-8").splitlines()))[1:]
        for rb, rs in zip(rows_base, rows_shift):
            delta = (float(rs[3]) - float(rb[3])) % 360.0
            assert delta == pytest.approx(357.5, abs=1e-9)

    def test_unknown_anchor_id_exits_2(self, tmp_path):
        dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
        payload = json.loads(open(dep, encoding="utf-8").read())
        del payload["anchors"]["a7"]
        open(dep, "w", encoding="utf-8").write(json.dumps(payload))
        code = main(
            ["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2


    # The grid may not hold more epochs than the log has records; these rates
    # are refused before any grid is built, however large it would be.
    @pytest.mark.parametrize("samples, rate", [(240, "1e300"), (240, "1e308"), (20, "1e4")])
    def test_rate_beyond_the_log_exits_2_without_output(self, tmp_path, capsys, samples, rate):
        dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=samples)
        out = tmp_path / "o.csv"
        argv = ["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(out), "--rate", rate]
        assert main(argv) == 2
        assert not out.exists()
        stdout, err = capsys.readouterr()
        assert stdout == "" and f"rate {float(rate):g} Hz" in err and "Traceback" not in err
        if rate == "1e4":  # 20 samples of 24 pairs over 0.19 s
            assert "needs 1901 epochs, more than the 480 log records" in err

    def test_rate_within_the_log_runs(self, tmp_path):
        dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
        out = tmp_path / "o.csv"
        argv = ["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(out), "--rate", "100"]
        assert main(argv) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 20


class TestCalibrate:
    def test_recovers_injected_bias_and_model_feeds_estimate(self, tmp_path, capsys):
        rng = np.random.default_rng(82)
        dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=200)
        # Re-bias the ranges file: measured = true * 1.02 + 0.05.
        rows = list(csv.reader(open(ranges, encoding="utf-8")))
        with open(ranges, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(rows[0])
            for row in rows[1:]:
                writer.writerow([row[0], row[1], row[2], repr(float(row[3]) * 1.02 + 0.05)])
        model_path = tmp_path / "bias.json"
        code = main(
            ["calibrate", "--ranges", ranges, "--truth", truth, "--deployment", dep,
             "--out", str(model_path)]
        )
        assert code == 0
        model = json.loads(model_path.read_text(encoding="utf-8"))
        assert model["alpha"] == pytest.approx(0.02, abs=1e-6)
        assert model["beta"] == pytest.approx(0.05, abs=1e-6)

        out = tmp_path / "poses.csv"
        code = main(
            ["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(out),
             "--truth", truth, "--bias", str(model_path)]
        )
        assert code == 0
        summary = list(csv.reader(open(str(out) + ".summary.csv", encoding="utf-8")))
        assert float(summary[1][1]) <= 0.1  # centimeters


BAD_NUMERIC_FLAGS = [
    ("estimate", "--window", "0"),
    ("estimate", "--freq", "0"),
    ("estimate", "--freq", "nan"),
    ("estimate", "--vmax", "0"),
    ("estimate", "--rate", "-5"),
    ("estimate", "--rate", "0"),
    ("estimate", "--max-gap", "-1"),
    ("estimate", "--yaw-offset-deg", "nan"),
    ("calibrate", "--window", "0"),
    ("calibrate", "--freq", "-100"),
    ("calibrate", "--vmax", "0"),
]
# The flags estimate and calibrate share take the same values under both.
SHARED_BAD_VALUES = [
    ("--window", "0"), ("--window", "-3"), ("--window", "1.5"), ("--freq", "0"), ("--freq", "nan"),
    ("--freq", "-100"), ("--freq", "inf"), ("--vmax", "0"), ("--vmax", "-1"), ("--vmax", "x"),
]
BAD_NUMERIC_FLAGS += [
    (command, flag, value) for flag, value in SHARED_BAD_VALUES for command in ("estimate", "calibrate")
    if (command, flag, value) not in BAD_NUMERIC_FLAGS
]

BAD_SCENARIO_FLAGS = [
    ("crlb", "--repeat-t", "0"),
    ("crlb", "--repeat-t", "-2"),
    ("simulate", "--threads", "0"),
    ("simulate", "--threads", "-3"),
    ("simulate", "--trials", "0"),
    ("simulate", "--seed", "-1"),
    ("simulate", "--seed", "1.5"),
]

HUGE_INTEGER = "1" + "0" * 400  # beyond the float range
INTEGER_FLAGS = [("crlb", "--repeat-t"), ("simulate", "--trials"), ("simulate", "--seed"), ("simulate", "--threads"),
                 ("estimate", "--window"), ("calibrate", "--window")]


class TestNumericFlags:
    @pytest.mark.parametrize("command, flag", INTEGER_FLAGS, ids=[" ".join(case) for case in INTEGER_FLAGS])
    @pytest.mark.parametrize("joined", [False, True], ids=["separate", "joined"])
    def test_integer_beyond_the_float_range_exits_2(self, capsys, command, flag, joined):
        # argparse refuses the value before any file is read.
        required = [token for name, spec in COMMANDS[command][2].items() if spec.get("required") for token in (name, "f")]
        with pytest.raises(SystemExit) as excinfo:
            main([command, *required, *([f"{flag}={HUGE_INTEGER}"] if joined else [flag, HUGE_INTEGER])])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be an integer" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag, value", BAD_NUMERIC_FLAGS, ids=[" ".join(case) for case in BAD_NUMERIC_FLAGS]
    )
    def test_out_of_range_value_exits_2_without_output(self, tmp_path, capsys, command, flag, value):
        dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
        out = tmp_path / "o.out"
        argv = [command, "--ranges", ranges, "--deployment", dep, "--out", str(out), "--truth", truth]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, flag, value])
        assert excinfo.value.code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag, value",
        BAD_SCENARIO_FLAGS,
        ids=[" ".join(case) for case in BAD_SCENARIO_FLAGS],
    )
    def test_bad_scenario_command_value_exits_2_without_output(
        self, tmp_path, capsys, command, flag, value
    ):
        scenario = _write_scenario(tmp_path, SCENARIO_SMALL)
        out = tmp_path / "o.csv"
        argv = [command, "--scenario", scenario]
        if command == "simulate":
            argv += ["--out", str(out)]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, flag, value])
        assert excinfo.value.code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err

    def test_shared_flags_have_the_same_defaults_under_both_commands(self):
        parser = _build_parser()
        files = ["--ranges", "r.csv", "--deployment", "d.json", "--out", "o"]
        estimate = vars(parser.parse_args(["estimate", *files]))
        calibrate = vars(parser.parse_args(["calibrate", *files, "--truth", "t.csv"]))
        shared = ("ranges", "deployment", "out", "freq", "vmax", "window")
        assert {name: estimate[name] for name in shared} == {name: calibrate[name] for name in shared}
        assert (estimate["freq"], estimate["vmax"], estimate["window"]) == (100.0, 1.0, 5)

    @pytest.mark.parametrize("command", ["estimate", "calibrate"])
    @pytest.mark.parametrize("missing", ["--ranges", "--deployment", "--out"])
    def test_shared_file_flags_are_required_under_both_commands(self, capsys, command, missing):
        argv = {"--ranges": "r.csv", "--deployment": "d.json", "--out": "o", "--truth": "t.csv"}
        del argv[missing]
        with pytest.raises(SystemExit) as excinfo:
            main([command, *(item for pair in argv.items() for item in pair)])
        assert excinfo.value.code == 2
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("command", [None, "simulate", "crlb", "estimate", "calibrate"])
    def test_help_is_the_text_of_the_all_subcommand_parser(self, capsys, command):
        # main parses well-formed lines from the flag table; its help must be argparse's, unchanged.
        full = _build_parser()
        if command is not None:
            full = full._subparsers._group_actions[0].choices[command]
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"] if command is None else [command, "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == full.format_help()

    @pytest.mark.parametrize(
        "argv",
        [[], ["bogus"], ["simulate"], ["simulate", "--bogus", "1"], ["crlb", "--scenario", "s", "--repeat-t", "0"],
         ["estimate", "--ranges", "r"], ["estimate", "--ranges", "r", "--deployment", "d", "--out", "o", "--method", "x"],
         ["calibrate", "--ranges", "r", "--deployment", "d", "--out", "o"]],
    )
    def test_usage_errors_are_those_of_the_all_subcommand_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as full_exit:
            _build_parser().parse_args(argv)
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as main_exit:
            main(argv)
        assert main_exit.value.code == full_exit.value.code == 2
        assert capsys.readouterr() == expected

    def test_zero_seed_accepted(self, tmp_path):
        out = tmp_path / "o.csv"
        scenario = _write_scenario(tmp_path, SCENARIO_SMALL)
        argv = ["simulate", "--scenario", scenario, "--out", str(out), "--seed", "0", "--trials", "2"]
        assert main(argv) == 0
        assert out.exists()

    def test_zero_max_gap_keeps_exactly_aligned_epochs(self, tmp_path):
        dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
        out = tmp_path / "poses.csv"
        code = main(
            ["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(out), "--max-gap", "0"]
        )
        assert code == 0
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))[1:]
        assert len(rows) == 20 and all(row[5] == "ok" for row in rows)


def test_failed_epoch_gets_error_row_and_others_stay_ok(tmp_path, capsys):
    anchors = {"a0": [5.0, 5.0], "a1": [20.0, 0.0], "a2": [0.0, 20.0], "a3": [25.0, 25.0]}
    tags = {"t0": [5.0, 5.0], "t1": [1.0, 0.0]}
    dep_path = tmp_path / "deployment.json"
    dep_path.write_text(json.dumps({"anchors": anchors, "tags": tags, "sigma": 0.1}), encoding="utf-8")
    named = NamedDeployment.from_json(dep_path)
    # The middle epoch puts tag t0 exactly on anchor a0; noiseless ranges make
    # the closed form exact there, so the Gauss-Newton step meets a zero range.
    poses = [Pose2(0.4, [9.0, 11.0]), Pose2(0.0, [0.0, 0.0]), Pose2(0.5, [9.5, 11.0])]
    ranges_path = tmp_path / "ranges.csv"
    with open(ranges_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "anchor", "tag", "range"])
        for k, pose in enumerate(poses):
            clean = predicted_ranges(named.deployment, pose)
            for i, tag_id in enumerate(named.tag_ids):
                for m, anchor_id in enumerate(named.anchor_ids):
                    writer.writerow([k / 100.0, anchor_id, tag_id, repr(float(clean[i, m]))])
    out = tmp_path / "poses.csv"
    code = main(["estimate", "--ranges", str(ranges_path), "--deployment", str(dep_path), "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))[1:]
    assert [row[5] for row in rows] == ["ok", "error:NearSingularityError", "ok"]
    assert rows[1][:5] == ["0.01", "", "", "", "gn-uls"]
    assert capsys.readouterr().err.splitlines()[-1] == "failures_by_error: NearSingularityError=1"
    # Byte for byte what csv.writer writes from the repr of each float.
    reference = io.StringIO()
    writer = csv.writer(reference)
    writer.writerow(["t", "x", "y", "yaw_deg", "method", "status"])
    for row in rows:
        fields = [repr(float(v)) for v in row[1:4]] if row[5] == "ok" else ["", "", ""]
        writer.writerow([repr(float(row[0])), *fields, row[4], row[5]])
    assert out.read_bytes() == reference.getvalue().encode("utf-8")
    for row, pose in ((rows[0], poses[0]), (rows[2], poses[2])):
        assert float(row[1]) == pytest.approx(pose.t[0], abs=1e-9)
        assert float(row[3]) == pytest.approx(math.degrees(pose.theta), abs=1e-7)


# The rows of each bad truth file, and the error after the file's path. A
# non-finite number is refused at its line, as in a range log. The "-lf"
# files have LF line ends, so np.loadtxt parses them, and the non-finite
# value sends them to the exact reader.
BAD_TRUTH_ROWS = {
    "header-only": ([], ": ground-truth log has no data rows"),
    "nan-x": ([[0.0, "nan", 2.5, 20.0], [0.01, 4.0, 2.5, 20.0]], ":2: non-finite field"),
    "inf-yaw": ([[0.0, 4.0, 2.5, 20.0], [0.01, 4.0, 2.5, "inf"]], ":3: non-finite field"),
    "nan-yaw-lf": (
        [[0.0, 4.0, 2.5, 20.0], [0.01, 4.0, 2.5, 20.0], [0.02, 4.0, 2.5, "nan"], [0.03, 4.0, 2.5, 20.0]],
        ":4: non-finite field",
    ),
    "inf-x-lf": (
        [[0.0, 4.0, 2.5, 20.0], [0.01, 4.0, 2.5, 20.0], [0.02, "-inf", 2.5, 20.0], [0.03, 4.0, 2.5, 20.0]],
        ":4: non-finite field",
    ),
    "1e400-t-lf": (
        [[0.0, 4.0, 2.5, 20.0], [0.01, 4.0, 2.5, 20.0], ["1e400", 4.0, 2.5, 20.0], [0.03, 4.0, 2.5, 20.0]],
        ":4: non-finite field",
    ),
}


@pytest.mark.parametrize("command", ["estimate", "calibrate"])
@pytest.mark.parametrize("case", list(BAD_TRUTH_ROWS))
def test_bad_truth_file_exits_2_without_output(tmp_path, capsys, command, case):
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    rows, error = BAD_TRUTH_ROWS[case]
    with open(truth, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n" if case.endswith("-lf") else "\r\n")
        writer.writerow(["t", "x", "y", "yaw_deg"])
        writer.writerows(rows)
    out = tmp_path / "o.out"
    argv = [command, "--ranges", ranges, "--deployment", dep, "--out", str(out), "--truth", truth]
    assert main(argv) == 2
    assert not out.exists() and not (tmp_path / "o.out.summary.csv").exists()
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {truth}{error}"


def test_truth_without_overlap_exits_1_without_output(tmp_path, capsys):
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    with open(truth, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    with open(truth, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows([rows[0], *([float(row[0]) + 100.0, *row[1:]] for row in rows[1:])])
    out = tmp_path / "o.out"
    argv = ["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(out), "--truth", truth]
    assert main(argv) == 1
    assert not out.exists() and not (tmp_path / "o.out.summary.csv").exists()
    stdout, err = capsys.readouterr()
    assert "wrote" not in stdout and "no epochs overlap the ground-truth span" in err


@pytest.mark.parametrize("method", [m.value for m in Method])
@pytest.mark.parametrize("truth_rows", [20, 8])
def test_truth_span_with_every_epoch_failed_exits_1_without_output(tmp_path, capsys, method, truth_rows):
    # dh**2 overflows, so every epoch fails; the tally counts only the epochs inside the truth's span.
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    payload = json.loads(pathlib.Path(dep).read_text(encoding="utf-8"))
    pathlib.Path(dep).write_text(json.dumps({**payload, "dh": 1e308}), encoding="utf-8")
    with open(truth, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))[: truth_rows + 1]
    with open(truth, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(rows)
    out = tmp_path / "o.out"
    argv = ["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(out), "--method", method]
    assert main(argv) == 0
    times = [float(row[0]) for row in list(csv.reader(out.open(encoding="utf-8", newline="")))[1:]]
    out.unlink()
    capsys.readouterr()
    assert main([*argv, "--truth", truth]) == 1
    assert not out.exists() and not (tmp_path / "o.out.summary.csv").exists()
    stdout, err = capsys.readouterr()
    inside = sum(t <= float(rows[-1][0]) for t in times)
    assert 0 < inside <= truth_rows and stdout == ""
    assert err.splitlines()[-1] == f"error: every epoch in the ground-truth span failed: EstimationError={inside}"


@pytest.mark.parametrize("command", ["simulate", "crlb", "estimate"])
def test_unobservable_deployment_exits_3_with_one_error_line(tmp_path, capsys, command):
    # Every command reports an unobservable deployment the same way, before any output.
    payload = json.loads(json.dumps(SCENARIO_SMALL))
    payload["deployment"]["anchors"] = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    scenario = _write_scenario(tmp_path, payload)
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    named = json.loads(pathlib.Path(dep).read_text(encoding="utf-8"))
    named["anchors"] = {anchor: [float(m), 0.0] for m, anchor in enumerate(named["anchors"])}
    pathlib.Path(dep).write_text(json.dumps(named), encoding="utf-8")
    files = sorted(p.name for p in tmp_path.iterdir())
    out = tmp_path / "o.out"
    argv = {
        "simulate": ["--scenario", scenario, "--out", str(out)],
        "crlb": ["--scenario", scenario],
        "estimate": ["--ranges", ranges, "--deployment", dep, "--truth", truth, "--out", str(out)],
    }[command]
    assert main([command, *argv]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.splitlines()[-1] == "error: deployment not observable: need at least 3 non-collinear anchors"


def _rewrite_ranges(ranges, edit):
    """Rewrite the range log ``ranges`` with ``edit(k, anchor_id, tag_id, row)``
    applied to each data row of sample k; rows it maps to None are dropped."""
    with open(ranges, encoding="utf-8", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    edited = (edit(round(float(row[0]) * 100), row[1], row[2], row) for row in rows)
    with open(ranges, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows([header, *(row for row in edited if row is not None)])


@pytest.mark.parametrize("command", ["estimate", "calibrate"])
def test_range_log_errors_name_the_file(tmp_path, capsys, command):
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)

    def back_in_time(k, anchor, tag, row):  # sample 5 of the (a0, t0) stream moves to t = -1
        return ["-1.0", *row[1:]] if (k, anchor, tag) == (5, "a0", "t0") else row

    _rewrite_ranges(ranges, back_in_time)
    out = tmp_path / "o.out"
    assert main([command, "--ranges", ranges, "--deployment", dep, "--truth", truth, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {ranges}: timestamps decrease within stream ('a0', 't0')\n"


EMPTY_RESULTS = {
    # The pair (a0, t0) of the deployment has no record.
    "missing-pair": (lambda k, anchor, tag, row: None if (anchor, tag) == ("a0", "t0") else row, []),
    # The (a0, t0) stream ends before the others begin.
    "no-overlap": (lambda k, anchor, tag, row: row if (k < 5) == ((anchor, tag) == ("a0", "t0")) else None, []),
    # Half a period off the others, (a0, t0) puts every epoch between their samples.
    "every-epoch-gapped": (
        lambda k, anchor, tag, row: [repr(float(row[0]) + 0.005), *row[1:]] if (anchor, tag) == ("a0", "t0") else row,
        ["--max-gap", "0"],
    ),
}


@pytest.mark.parametrize("truth_flag", [False, True])
@pytest.mark.parametrize("case", list(EMPTY_RESULTS))
def test_estimate_without_epochs_exits_1_without_output(tmp_path, capsys, case, truth_flag):
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    edit, flags = EMPTY_RESULTS[case]
    _rewrite_ranges(ranges, edit)
    out = tmp_path / "o.out"
    argv = ["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(out), *flags]
    assert main(argv + (["--truth", truth] if truth_flag else [])) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deployment.json", "ranges.csv", "truth.csv"]
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.splitlines()[-1].startswith("error: no epochs: the log needs every (anchor, tag) pair")


@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_failed_write_names_out_and_leaves_no_temporary_file(tmp_path, capsys, command):
    out = tmp_path / "out"
    out.mkdir()
    if command == "simulate":
        argv = ["simulate", "--scenario", _write_scenario(tmp_path, SCENARIO_SMALL), "--trials", "2"]
    else:
        dep, _, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
        argv = ["estimate", "--ranges", ranges, "--deployment", dep]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: cannot write {out}: Is a directory"
    assert list(out.iterdir()) == [] and [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")] == []


@pytest.mark.parametrize("directory", ["poses", "summary"])
def test_estimate_with_truth_writes_both_outputs_or_neither(tmp_path, capsys, directory):
    # One of the two outputs is a directory, so its rename fails: the other
    # output, written or already renamed, is removed too.
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    out, summary = tmp_path / "p.csv", tmp_path / "p.csv.summary.csv"
    blocked = {"poses": out, "summary": summary}[directory]
    blocked.mkdir()
    argv = ["estimate", "--ranges", ranges, "--deployment", dep, "--truth", truth, "--out", str(out)]
    assert main(argv) == 1
    stdout, err = capsys.readouterr()
    assert "wrote" not in stdout and err.splitlines()[-1] == f"error: cannot write {blocked}: Is a directory"
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == sorted(["deployment.json", "ranges.csv", "truth.csv", blocked.name])
    assert list(blocked.iterdir()) == []


@pytest.mark.parametrize("command", ["estimate", "calibrate"])
@pytest.mark.parametrize("missing", ["--ranges", "--truth"])
def test_missing_log_file_exits_2_without_output(tmp_path, capsys, command, missing):
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    files = {"--ranges": ranges, "--truth": truth, missing: str(tmp_path / "absent.csv")}
    out = tmp_path / "o.out"
    argv = [command, "--deployment", dep, "--out", str(out), *(part for item in files.items() for part in item)]
    assert main(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: cannot open {tmp_path / 'absent.csv'}: ")


BAD_BIAS_MODELS = {
    "alpha-minus-one": {"alpha": -1.0},
    "alpha-below-minus-one": {"alpha": -3.0},
    "alpha-nan": {"alpha": math.nan},
    "beta-inf": {"beta": math.inf},
    "per-pair-alpha-minus-one": {"per_pair": [{"anchor": "a0", "tag": "t0", "alpha": -1.0, "beta": 0.0}]},
    "per-pair-alpha-nan": {"per_pair": [{"anchor": "a0", "tag": "t0", "alpha": math.nan, "beta": 0.0}]},
    "per-pair-beta-nan": {"per_pair": [{"anchor": "a0", "tag": "t0", "alpha": 0.0, "beta": math.nan}]},
    # Every coefficient is a JSON number, and every key is known.
    "alpha-numeric-string": {"alpha": "0.01"},
    "sigma-numeric-string": {"sigma": "0.05"},
    "residual-rms-numeric-string": {"residual_rms": "0.1"},
    "per-pair-alpha-numeric-string": {"per_pair": [{"anchor": "a0", "tag": "t0", "alpha": "0.1", "beta": 0.0}]},
    "unknown-key": {"resdual_rms": 0.1},
    "per-pair-unknown-key": {"per_pair": [{"anchor": "a0", "tag": "t0", "alpha": 0.0, "beta": 0.0, "gamma": 0.0}]},
    "per-pair-missing-beta": {"per_pair": [{"anchor": "a0", "tag": "t0", "alpha": 0.0}]},
    "per-pair-not-a-list": {"per_pair": 5},
    # Every per-pair entry names an anchor and a tag of the deployment.
    "per-pair-unknown-anchor": {"per_pair": [{"anchor": "zz", "tag": "t0", "alpha": 0.0, "beta": 0.0}]},
    "per-pair-numeric-anchor": {"per_pair": [{"anchor": 0, "tag": "t0", "alpha": 0.0, "beta": 0.0}]},
    "per-pair-unknown-tag": {"per_pair": [{"anchor": "a0", "tag": "t9", "alpha": 0.0, "beta": 0.0}]},
    "per-pair-swapped-ids": {"per_pair": [{"anchor": "t0", "tag": "a0", "alpha": 0.0, "beta": 0.0}]},
}


@pytest.mark.parametrize("content", ["[1]", "5"])
def test_bias_model_not_an_object_exits_2_without_output(tmp_path, capsys, content):
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    bias = tmp_path / "bias.json"
    bias.write_text(content, encoding="utf-8")
    out = tmp_path / "poses.csv"
    argv = ["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(out), "--bias", str(bias)]
    assert main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "cannot read bias model" in err and "Traceback" not in err


@pytest.mark.parametrize("case", list(BAD_BIAS_MODELS))
def test_bad_bias_model_exits_2_without_output(tmp_path, capsys, case):
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    bias = tmp_path / "bias.json"
    model = {"alpha": 0.0, "beta": 0.0, "sigma": 0.05, **BAD_BIAS_MODELS[case]}
    bias.write_text(json.dumps(model), encoding="utf-8")
    out = tmp_path / "poses.csv"
    argv = ["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(out), "--bias", str(bias)]
    assert main(argv) == 2
    assert not out.exists()
    assert "bias model" in capsys.readouterr().err


# Each case changes SCENARIO_SMALL: a dict value updates that section, None
# removes the key, and any other value replaces it.
BAD_SWEEP_SCENARIOS = {
    "anchor-count-2": ("simulate", {"sweep": {"axis": "anchor_count", "values": [2, 4]}}),
    "anchor-count-per-anchor-sigma": (
        "simulate",
        {"deployment": {"sigma": [0.1, 0.2, 0.3]}, "sweep": {"axis": "anchor_count", "values": [4]}},
    ),
    "repeat-t-rounds-to-zero": ("simulate", {"sweep": {"values": [0.4, 5]}}),
    "repeat-t-fraction": ("simulate", {"sweep": {"values": [3.5]}}),
    "top-level-repeat-t-zero": ("crlb", {"repeat_t": 0}),
    # Integers are JSON integers or integral floats, never bools, strings,
    # fractions or non-finite values, and never rounded.
    "crlb-repeat-t-string": ("crlb", {"sweep": None, "repeat_t": "x"}),
    "crlb-repeat-t-fraction": ("crlb", {"sweep": None, "repeat_t": 2.5}),
    "crlb-repeat-t-bool": ("crlb", {"sweep": None, "repeat_t": True}),
    "crlb-repeat-t-inf": ("crlb", {"sweep": None, "repeat_t": math.inf}),
    "crlb-seed-string": ("crlb", {"sweep": None, "seed": "x"}),
    "crlb-seed-fraction": ("crlb", {"sweep": None, "seed": 1.5}),
    "crlb-seed-negative": ("crlb", {"sweep": None, "seed": -1}),
    "seed-string": ("simulate", {"seed": "x"}),
    "seed-fraction": ("simulate", {"seed": 1.5}),
    "trials-fraction": ("simulate", {"sweep": {"trials": 2.5}}),
    "trials-string": ("simulate", {"sweep": {"trials": "25"}}),
    "trials-bool": ("simulate", {"sweep": {"trials": True}}),
    "trials-nan": ("simulate", {"sweep": {"trials": math.nan}}),
    "sweep-repeat-t-fraction": (
        "simulate",
        {"sweep": {"axis": "noise_sigma", "values": [0.1, 0.2], "repeat_t": 2.5}},
    ),
    "sweep-repeat-t-string": ("simulate", {"sweep": {"repeat_t": "x"}}),
    "noise-scale-nan": ("simulate", {"sweep": {"noise_scale": math.nan}}),
    "noise-scale-inf": ("simulate", {"sweep": {"noise_scale": math.inf}}),
    "noise-sigma-value-nan": ("simulate", {"sweep": {"axis": "noise_sigma", "values": [0.1, math.nan]}}),
    "noise-sigma-value-inf": ("simulate", {"sweep": {"axis": "noise_sigma", "values": [0.1, math.inf]}}),
    "anchor-rect-nan": (
        "simulate",
        {"sweep": {"axis": "anchor_count", "values": [4], "anchor_rect": [[0.0, 0.0], [math.nan, 50.0]]}},
    ),
    "anchor-rect-inverted": (
        "simulate",
        {"sweep": {"axis": "anchor_count", "values": [4], "anchor_rect": [[0.0, 50.0], [50.0, 0.0]]}},
    ),
    "no-estimators": ("simulate", {"sweep": {"estimators": []}}),
    "repeated-estimator": ("simulate", {"sweep": {"estimators": ["uls", "gn-uls", "uls"]}}),
    # Every section is a JSON object and every coordinate list numeric and
    # rectangular.
    "deployment-number": ("crlb", {"deployment": 5}),
    "deployment-number-simulate": ("simulate", {"deployment": 5}),
    "true-pose-number": ("crlb", {"true_pose": 5}),
    "true-pose-number-simulate": ("simulate", {"true_pose": 5}),
    "sweep-number": ("simulate", {"sweep": 5}),
    "anchor-rect-object": ("simulate", {"sweep": {"axis": "anchor_count", "values": [4], "anchor_rect": {}}}),
    "estimators-number": ("simulate", {"sweep": {"estimators": 5}}),
    "anchors-non-numeric": ("crlb", {"deployment": {"anchors": [["x", 1], [3, 3]]}}),
    "anchors-ragged": ("simulate", {"deployment": {"anchors": [[3, 0], [3]]}}),
    "anchors-string": ("crlb", {"deployment": {"anchors": "abc"}}),
    "tags-non-numeric": ("simulate", {"deployment": {"tags": [["x", 1], [3, 3]]}}),
    "tags-ragged": ("crlb", {"deployment": {"tags": [[3, 0], [3]]}}),
    "tags-string": ("simulate", {"deployment": {"tags": "abc"}}),
    "sigma-nested-non-numeric": ("crlb", {"deployment": {"sigma": [["x", 0.1, 0.1], [0.1, 0.1, 0.1]]}}),
    "sigma-flat-non-numeric": ("simulate", {"deployment": {"sigma": ["x", 0.1, 0.1]}}),
    # A flat sigma list has M or N * M entries, and sigma and dh are numbers.
    "sigma-flat-length-one": ("crlb", {"deployment": {"sigma": [0.1]}}),
    "sigma-flat-length-four": ("simulate", {"deployment": {"sigma": [0.1] * 4}}),
    "sigma-numeric-string": ("crlb", {"deployment": {"sigma": "0.1"}}),
    "sigma-null": ("simulate", {"deployment": {"sigma": None}}),
    "dh-numeric-string": ("crlb", {"deployment": {"dh": "0.5"}}),
    "dh-object": ("crlb", {"deployment": {"dh": {}}}),
    # Numbers are JSON numbers: numeric strings are refused wherever a number goes.
    "theta-numeric-string": ("crlb", {"true_pose": {"theta_deg": "60"}}),
    "theta-numeric-string-simulate": ("simulate", {"true_pose": {"theta_deg": "60"}}),
    "t-numeric-string": ("crlb", {"true_pose": {"t": ["0", "25"]}}),
    "t-numeric-string-entry": ("simulate", {"true_pose": {"t": [0.0, "25"]}}),
    "anchor-numeric-string": ("crlb", {"deployment": {"anchors": [["50", "0"], [50.0, 50.0], [0.0, 50.0]]}}),
    "anchor-numeric-string-entry": ("simulate", {"deployment": {"anchors": [[50.0, 0.0], [50.0, "50"], [0.0, 50.0]]}}),
    "tag-numeric-string": ("crlb", {"deployment": {"tags": [["3", 0.0], [3.0, 3.0]]}}),
    "sweep-value-numeric-string": ("simulate", {"sweep": {"values": ["5", 20]}}),
    "noise-sigma-value-numeric-string": ("simulate", {"sweep": {"axis": "noise_sigma", "values": [0.1, "0.2"]}}),
}


@pytest.mark.parametrize("case", list(BAD_SWEEP_SCENARIOS))
def test_bad_sweep_scenario_exits_2_without_output(tmp_path, capsys, case):
    command, changes = BAD_SWEEP_SCENARIOS[case]
    payload = json.loads(json.dumps(SCENARIO_SMALL))
    for key, value in changes.items():
        if isinstance(value, dict):
            payload[key].update(value)
        elif value is None:
            del payload[key]
        else:
            payload[key] = value
    out = tmp_path / "o.csv"
    argv = [command, "--scenario", _write_scenario(tmp_path, payload)]
    if command == "simulate":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


# One malformed value for each rule that rewrites a rejected value as a
# SchemaError (errors.schema_errors) and that no other test pins to the whole
# line, and the last stderr line it gives; {path} is the file that holds it.
# A scenario goes to crlb, any other file to estimate with every input given.
REJECTED_VALUES = {
    "range-log-missing": ("ranges", None, "cannot open {path}: [Errno 2] No such file or directory: '{path}'"),
    "range-log-not-utf8": (
        "ranges", b"t,anchor,tag,range\n0.0,a\xff,t0,5.0\n",
        "{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 24: invalid start byte",
    ),
    "range-log-oversized-field": (
        "ranges", f't,anchor,tag,range\n0.0,"{"a" * 200_000}",t0,5.0\n',
        "{path}: field larger than field limit (131072)",
    ),
    "deployment-sigma": (
        "deployment",
        json.dumps({"anchors": {"a0": [0, 0], "a1": [9, 0], "a2": [0, 9]}, "tags": {"t0": [0, 0]}, "sigma": -1}),
        "{path}: sigma must be strictly positive and finite",
    ),
    "scenario-deployment": (
        "scenario", json.dumps({**SCENARIO_SMALL, "deployment": {**SCENARIO_SMALL["deployment"], "dh": "0.5"}}),
        "deployment: sigma and dh must be numbers or lists of numbers",
    ),
    "scenario-true-pose": (
        "scenario", json.dumps({**SCENARIO_SMALL, "true_pose": {"theta_deg": 60.0, "t": [0.0, "25"]}}),
        "true_pose: pose entries must be numbers",
    ),
    "scenario-repeat-t": (
        "scenario", json.dumps({**SCENARIO_SMALL, "repeat_t": 2.5}), "{path}: repeat_t must be an integer >= 1, got 2.5"
    ),
    "scenario-sweep": (
        "scenario", json.dumps({**SCENARIO_SMALL, "sweep": {**SCENARIO_SMALL["sweep"], "axis": "bogus"}}),
        "sweep: axis must be one of ['repeat_t', 'anchor_count', 'noise_sigma'], got 'bogus'",
    ),
}


@pytest.mark.parametrize("case", list(REJECTED_VALUES))
def test_rejected_value_prints_where_and_reason(tmp_path, capsys, case):
    kind, content, message = REJECTED_VALUES[case]
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    scenario = _write_scenario(tmp_path, SCENARIO_SMALL)
    path = {"ranges": ranges, "deployment": dep, "scenario": scenario}[kind]
    if content is None:
        os.remove(path)
    else:
        pathlib.Path(path).write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    out = tmp_path / "o.out"
    argv = ["crlb", "--scenario", scenario] if kind == "scenario" else [
        "estimate", "--ranges", ranges, "--deployment", dep, "--truth", truth, "--out", str(out)
    ]
    assert main(argv) == 2
    assert not out.exists() and not (tmp_path / "o.out.summary.csv").exists()
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.splitlines()[-1] == "error: " + message.format(path=path)


# Finite numbers whose ranges or information overflow a float are a runtime
# failure, reported before any output is written.
OVERFLOWING_INPUTS = {
    "crlb-pose-far-away": ("crlb", {"true_pose": {"theta_deg": 60.0, "t": [1e308, 25.0]}}),
    "simulate-pose-far-away": ("simulate", {"true_pose": {"theta_deg": 60.0, "t": [1e308, 25.0]}}),
    "simulate-sigma-huge": ("simulate", {"deployment": {"sigma": 1e308}}),
    "estimate-bias-beta-huge": ("estimate", {"beta": 1e308}),
    "crlb-sigma-tiny": ("crlb", {"deployment": {"sigma": 1e-300}}),
    "crlb-sigma-huge": ("crlb", {"deployment": {"sigma": 1e200}}),  # sigma**2 overflows: not a singular bound
    "crlb-sigma-above-boundary": ("crlb", {"deployment": {"sigma": 3e152}}),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", list(OVERFLOWING_INPUTS))
def test_overflowing_input_exits_1_without_output(tmp_path, capsys, case):
    command, changes = OVERFLOWING_INPUTS[case]
    out = tmp_path / "o.csv"
    if command == "estimate":
        dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
        bias = tmp_path / "bias.json"
        bias.write_text(json.dumps({"alpha": 0.0, "beta": 0.0, "sigma": 0.05, **changes}), encoding="utf-8")
        argv = ["estimate", "--ranges", ranges, "--deployment", dep, "--bias", str(bias)]
    else:
        payload = json.loads(json.dumps(SCENARIO_SMALL))
        for key, value in changes.items():
            payload[key].update(value)
        argv = [command, "--scenario", _write_scenario(tmp_path, payload)]
    if command != "crlb":
        argv += ["--out", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "overflow" in err and "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_debiasing_that_overflows_exits_1_without_output(tmp_path, capsys):
    # alpha just above -1 divides by about 1.1e-16, so one record of 1e308
    # de-biases to inf; a window longer than each 20-record stream flags none.
    dep = tmp_path / "deployment.json"
    dep.write_text(json.dumps({"anchors": {"a0": [0.0, 0.0], "a1": [10.0, 0.0], "a2": [0.0, 10.0]},
                               "tags": {"t0": [0.4, 0.0], "t1": [0.0, 0.4]}, "sigma": 0.1}), encoding="utf-8")
    ranges = tmp_path / "ranges.csv"
    rows = [[k / 100.0, a, t, "1e308" if (k, a, t) == (10, "a0", "t0") else "5.0"]
            for k in range(20) for t in ("t0", "t1") for a in ("a0", "a1", "a2")]
    with open(ranges, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows([["t", "anchor", "tag", "range"], *rows])
    bias = tmp_path / "bias.json"
    bias.write_text(json.dumps({"alpha": -0.9999999999999999, "beta": 0.0, "sigma": 0.1}), encoding="utf-8")
    out = tmp_path / "poses.csv"
    argv = ["estimate", "--ranges", str(ranges), "--deployment", str(dep), "--bias", str(bias), "--window", "100",
            "--out", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.splitlines() == [f"{ranges}: 120 records read, 0 negative dropped, 0 outliers rejected",
                                "error: de-biased ranges overflow when squared"]


def test_crlb_sigma_below_the_overflow_boundary_prints_the_scaled_bound(tmp_path, capsys):
    # The bound is linear in sigma: at 1e152 it is 1e153 times that at 0.1, with block
    # traces near 1e304; at 3e152 the information denominator overflows (exit 1 above).
    figures = []
    for sigma in (0.1, 1e152):
        payload = json.loads(json.dumps(SCENARIO_SMALL))
        payload["deployment"]["sigma"] = sigma
        assert main(["crlb", "--scenario", _write_scenario(tmp_path, payload)]) == 0
        figures.append([float(line.split(": ")[1]) for line in capsys.readouterr().out.splitlines()[2:]])
    (root, rotation, translation), (huge_root, huge_rotation, huge_translation) = figures
    assert huge_root == pytest.approx(1e153 * root, rel=1e-12)
    assert huge_rotation == pytest.approx(1e306 * rotation, rel=1e-12)
    assert huge_translation == pytest.approx(1e306 * translation, rel=1e-12)


@pytest.mark.parametrize("source", ["flag", "scenario"])
def test_trials_beyond_numpy_index_range_exit_2_without_output(tmp_path, capsys, source):
    payload, flags = json.loads(json.dumps(SCENARIO_SMALL)), []
    if source == "flag":
        flags = ["--trials", "1" + "0" * 300]
    else:
        payload["sweep"]["trials"] = 1e300
    out = tmp_path / "o.csv"
    assert main(["simulate", "--scenario", _write_scenario(tmp_path, payload), "--out", str(out), *flags]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: sweep: trials must keep") and err.count("\n") == 1


def test_sweep_beyond_memory_exits_1_without_output(tmp_path):
    # 10**8 trials of 2 x 3 pairs draw 6 * 10**8 words (4.5 GiB) at once, in a
    # process that allows itself 2 GiB of address space.
    resource = pytest.importorskip("resource")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    limit = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
    out = tmp_path / "o.csv"
    argv = ["simulate", "--scenario", _write_scenario(tmp_path, SCENARIO_SMALL), "--out", str(out), "--trials", "100000000"]
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {hard}))\n"
        "from uwbpose.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    src = str(pathlib.Path(uwbpose.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1 and not out.exists()
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr


@pytest.mark.parametrize("command", ["estimate", "calibrate"])
def test_memory_error_without_message_exits_1_without_output(tmp_path, capsys, monkeypatch, command):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("uwbpose.cli.reject_outliers", exhausted)
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    out = tmp_path / "o.out"
    assert main([command, "--ranges", ranges, "--deployment", dep, "--truth", truth, "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: out of memory\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_calibrate_with_overflowing_true_ranges_exits_1_without_output(tmp_path, capsys):
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    payload = json.loads(pathlib.Path(dep).read_text(encoding="utf-8"))
    payload["anchors"]["a0"] = [1e308, 0.0]
    pathlib.Path(dep).write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "bias.json"
    assert main(["calibrate", "--ranges", ranges, "--deployment", dep, "--truth", truth, "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error: true ranges overflow" in err and "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["uls", "gn-uls", "dac", "gn-dac"])
def test_overflowing_mean_of_squared_ranges_writes_error_rows(tmp_path, capsys, method):
    # Squares of 1e154 are finite, but their sum over a tag's anchors is not:
    # every epoch fails instead of reporting a NaN pose as ok.
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    rows = list(csv.reader(open(ranges, encoding="utf-8")))
    with open(ranges, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows([rows[0], *([*row[:3], "1e154"] for row in rows[1:])])
    out = tmp_path / "poses.csv"
    assert main(["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(out), "--method", method]) == 0
    statuses = [row[5] for row in csv.reader(out.read_text(encoding="utf-8").splitlines()[1:])]
    assert len(statuses) == 20 and all(status.startswith("error:") for status in statuses)
    stdout, err = capsys.readouterr()
    assert "(0 ok)" in stdout and "Warning" not in err


# No field of a scenario, deployment or bias file is boolean; JSON true and
# false are refused anywhere, not read as the numbers 1 and 0.
BOOLEAN_INPUTS = {
    "scenario-sigma": ("crlb", ["deployment", "sigma"]),
    "scenario-dh": ("crlb", ["deployment", "dh"]),
    "scenario-anchor-coordinate": ("crlb", ["deployment", "anchors", 0, 1]),
    "scenario-sigma-list-entry": ("crlb", ["deployment", "sigma", 0]),
    "scenario-theta": ("crlb", ["true_pose", "theta_deg"]),
    "scenario-noise-scale": ("simulate", ["sweep", "noise_scale"]),
    "bias-alpha": ("estimate", ["alpha"]),
    "deployment-sigma": ("calibrate", ["sigma"]),
    "deployment-tag-coordinate": ("estimate", ["tags", "t0", 0]),
}


def _run_with_json_value(tmp_path, command, case, path, value):
    """``main`` on the replay or scenario files with ``value`` written at
    ``path`` of the JSON input the case names (``bias-*``, ``deployment-*``
    or ``scenario-*``); returns the exit code, that input's path and the
    output path."""
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    out = tmp_path / "o.csv"
    argv = [command, "--ranges", ranges, "--deployment", dep, "--truth", truth, "--out", str(out)]
    if command == "estimate" and case.startswith("bias"):
        document, target = {"alpha": 0.0, "beta": 0.0, "sigma": 0.05}, tmp_path / "bias.json"
        argv += ["--bias", str(target)]
    elif case.startswith("deployment"):
        document, target = json.loads(pathlib.Path(dep).read_text(encoding="utf-8")), pathlib.Path(dep)
    else:
        document = json.loads(json.dumps(SCENARIO_SMALL))
        document["deployment"]["sigma"] = [0.1, 0.1, 0.1] if case == "scenario-sigma-list-entry" else 0.1
        target = tmp_path / "scenario.json"
        argv = [command, "--scenario", str(target)] + (["--out", str(out)] if command == "simulate" else [])
    target.write_text(json.dumps(_replaced(document, path, value)), encoding="utf-8")
    return main(argv), target, out


@pytest.mark.parametrize("case", list(BOOLEAN_INPUTS))
@pytest.mark.parametrize("value", [True, False])
def test_boolean_in_a_json_input_exits_2_without_output(tmp_path, capsys, case, value):
    command, path = BOOLEAN_INPUTS[case]
    code, target, out = _run_with_json_value(tmp_path, command, case, path, value)
    assert code == 2
    assert not out.exists()
    stdout, err = capsys.readouterr()
    assert stdout == "" and f"{target}: true and false are not values of any field" in err


# Every number of a JSON input becomes a float, so an integer beyond the
# float range is refused as it is read, in any file.
HUGE_INTEGER_INPUTS = {
    "scenario-anchor-coordinate": ("crlb", ["deployment", "anchors", 0, 0]),
    "scenario-anchor-coordinate-simulate": ("simulate", ["deployment", "anchors", 0, 0]),
    "scenario-trials": ("simulate", ["sweep", "trials"]),
    "scenario-seed": ("simulate", ["seed"]),
    "bias-alpha": ("estimate", ["alpha"]),
    "deployment-anchor-coordinate": ("estimate", ["anchors", "a0", 0]),
    "deployment-tag-coordinate": ("calibrate", ["tags", "t0", 1]),
    "deployment-sigma": ("calibrate", ["sigma"]),
}


@pytest.mark.parametrize("case", list(HUGE_INTEGER_INPUTS))
@pytest.mark.parametrize("value", [10**400, -(10**309)], ids=["1e400", "-1e309"])
def test_integer_beyond_the_float_range_exits_2_without_output(tmp_path, capsys, case, value):
    command, path = HUGE_INTEGER_INPUTS[case]
    code, target, out = _run_with_json_value(tmp_path, command, case, path, value)
    assert code == 2
    assert not out.exists()
    stdout, err = capsys.readouterr()
    assert stdout == "" and f"{target}: an integer is beyond the float range" in err
    assert "Traceback" not in err


# json.load keeps the last of repeated keys; every JSON input refuses them,
# and a bias file refuses a second per_pair entry for one (anchor, tag) pair.
# Each case: command, input, the JSON text of a key's first value, the same
# key repeated with a second value, and the key.
REPEATED_KEY_INPUTS = {
    "scenario-sigma": ("crlb", "scenario", '"sigma": 0.1', '"sigma": 0.1, "sigma": 0.5', "sigma"),
    "scenario-sweep": ("simulate", "scenario", '"seed": 5', '"seed": 5, "seed": 6', "seed"),
    "deployment-anchor": ("estimate", "deployment", '"a0": [0.0, 0.0]', '"a0": [0.0, 0.0], "a0": [5.0, 5.0]', "a0"),
    "deployment-sigma": ("calibrate", "deployment", '"sigma": 0.05', '"sigma": 0.05, "sigma": 0.5', "sigma"),
    "bias-alpha": ("estimate", "bias model", '"alpha": 0.01', '"alpha": 0.01, "alpha": 0.02', "alpha"),
    "bias-per-pair-entry": ("estimate", "bias model", '"tag": "t0"', '"tag": "t0", "tag": "t1"', "tag"),
    "bias-per-pair-pair": (
        "estimate", "bias model", '"beta": 0.1}', '"beta": 0.1}, {"anchor": "a0", "tag": "t0", "alpha": 0.0, "beta": 0.2}', ("a0", "t0"),
    ),
}


@pytest.mark.parametrize("case", list(REPEATED_KEY_INPUTS))
def test_repeated_json_key_exits_2_without_output(tmp_path, capsys, case):
    command, what, first, repeated, key = REPEATED_KEY_INPUTS[case]
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    out = tmp_path / "o.csv"
    argv = [command, "--ranges", ranges, "--deployment", dep, "--truth", truth, "--out", str(out)]
    if what == "bias model":
        target = tmp_path / "bias.json"
        entry = {"anchor": "a0", "tag": "t0", "alpha": 0.0, "beta": 0.1}
        model = {"alpha": 0.01, "beta": 0.0, "sigma": 0.05, "per_pair": [entry]}
        target.write_text(json.dumps(model), encoding="utf-8")
        argv += ["--bias", str(target)]
    elif what == "deployment":
        target = pathlib.Path(dep)
    else:
        target = pathlib.Path(_write_scenario(tmp_path, SCENARIO_SMALL))
        argv = [command, "--scenario", str(target)] + (["--out", str(out)] if command == "simulate" else [])
    text = target.read_text(encoding="utf-8")
    assert text.count(first) == 1
    target.write_text(text.replace(first, repeated), encoding="utf-8")
    assert main(argv) == 2
    assert not out.exists() and not (tmp_path / "o.csv.summary.csv").exists()
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.splitlines()[-1] == f"error: cannot read {what} {target}: repeated key {key!r}"


def _unknown_anchor_log(ranges):
    """The log with anchors a0, a1, a2, a3 renamed zz, yy, xx, ww."""
    text = pathlib.Path(ranges).read_text(encoding="utf-8")
    for old, new in zip(["a0", "a1", "a2", "a3"], ["zz", "yy", "xx", "ww"]):
        text = text.replace(f",{old},", f",{new},")
    pathlib.Path(ranges).write_text(text, encoding="utf-8")


@pytest.mark.parametrize("command", ["estimate", "calibrate"])
def test_unknown_ids_name_the_first_stream_under_any_hash_seed(tmp_path, command):
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    _unknown_anchor_log(ranges)
    argv = [command, "--ranges", ranges, "--deployment", dep, "--truth", truth, "--out", str(tmp_path / "o")]
    src = str(pathlib.Path(uwbpose.__file__).resolve().parents[1])
    errors = set()
    for hash_seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        done = subprocess.run([sys.executable, "-m", "uwbpose.cli", *argv], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 2 and not (tmp_path / "o").exists()
        errors.add(done.stderr)
    assert len(errors) == 1 and errors.pop().endswith("error: unknown anchor id 'zz'\n")


def test_calibrate_ignores_unknown_ids_outside_the_truth_span(tmp_path, capsys):
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=200)
    reference = tmp_path / "reference.json"
    assert main(["calibrate", "--ranges", ranges, "--deployment", dep, "--truth", truth, "--out", str(reference)]) == 0
    with open(ranges, "a", encoding="utf-8", newline="") as handle:  # a stream of an unknown anchor after the truth
        csv.writer(handle).writerows([[5.0 + k / 100.0, "zz", "t0", 3.0] for k in range(10)])
    out = tmp_path / "bias.json"
    assert main(["calibrate", "--ranges", ranges, "--deployment", dep, "--truth", truth, "--out", str(out)]) == 0
    assert out.read_bytes() == reference.read_bytes()
    assert main(["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(tmp_path / "p.csv")]) == 2
    assert "unknown anchor id 'zz'" in capsys.readouterr().err


def test_flat_sigma_list_is_assigned_anchor_major_and_recorded(tmp_path, capsys):
    # The scenario-only flat form of N * M sigmas runs exactly as the nested
    # list it stands for, and says how it was read.
    flat = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]  # (tag, anchor) pairs (0, 0), (1, 0), (0, 1), ...
    nested = [[0.05, 0.15, 0.25], [0.1, 0.2, 0.3]]
    texts, outputs = [], []
    for name, sigma in (("flat", flat), ("nested", nested)):
        payload = {**SCENARIO_SMALL, "deployment": {**SCENARIO_SMALL["deployment"], "sigma": sigma}}
        out = tmp_path / f"{name}.csv"
        assert main(["simulate", "--scenario", _write_scenario(tmp_path, payload, f"{name}.json"), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
        texts.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    mapping = "# sigma_slot_mapping: flat sigma list assigned anchor-major, tag-minor (assumption)"
    assert mapping in texts[0].splitlines() and mapping not in texts[1]


NON_UTF8_CASES = [
    ("ranges", "estimate"),
    ("ranges", "calibrate"),
    ("truth", "estimate"),
    ("truth", "calibrate"),
    ("deployment", "estimate"),
    ("deployment", "calibrate"),
    ("scenario", "crlb"),
    ("scenario", "simulate"),
]


@pytest.mark.parametrize("kind, command", NON_UTF8_CASES, ids=["-".join(case) for case in NON_UTF8_CASES])
def test_non_utf8_file_exits_2_without_output(tmp_path, capsys, kind, command):
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    scenario = _write_scenario(tmp_path, SCENARIO_SMALL)
    path = {"ranges": ranges, "truth": truth, "deployment": dep, "scenario": scenario}[kind]
    with open(path, "ab") as handle:
        handle.write(b"\xff\n")
    out = tmp_path / "o.out"
    argv = {
        "estimate": ["--ranges", ranges, "--deployment", dep, "--truth", truth, "--out", str(out)],
        "calibrate": ["--ranges", ranges, "--deployment", dep, "--truth", truth, "--out", str(out)],
        "crlb": ["--scenario", scenario],
        "simulate": ["--scenario", scenario, "--out", str(out)],
    }[command]
    assert main([command, *argv]) == 2
    assert not out.exists() and not (tmp_path / "o.out.summary.csv").exists()
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err


BOM_CASES = [("ranges", "estimate"), ("truth", "calibrate"), ("deployment", "estimate"), ("scenario", "crlb")]


@pytest.mark.parametrize("kind, command", BOM_CASES, ids=["-".join(case) for case in BOM_CASES])
def test_leading_byte_order_mark_is_ignored(tmp_path, capsys, kind, command):
    # Every input file is UTF-8, and a byte-order mark before its first character is dropped.
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    scenario = _write_scenario(tmp_path, SCENARIO_SMALL)
    path = pathlib.Path({"ranges": ranges, "truth": truth, "deployment": dep, "scenario": scenario}[kind])
    out = tmp_path / "o.out"
    argv = {
        "estimate": ["--ranges", ranges, "--deployment", dep, "--truth", truth, "--out", str(out)],
        "calibrate": ["--ranges", ranges, "--deployment", dep, "--truth", truth, "--out", str(out)],
        "crlb": ["--scenario", scenario],
    }[command]
    runs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(prefix + path.read_bytes())
        code = main([command, *argv])
        outputs = {p.name: p.read_bytes() for p in tmp_path.glob("o.out*")}
        for name in outputs:
            (tmp_path / name).unlink()
        runs.append((code, capsys.readouterr(), outputs))
    assert runs[0][0] == 0 and runs[1] == runs[0]


@pytest.mark.parametrize(
    "command, newline",
    [("estimate", "\r\n"), ("calibrate", "\r\n"), ("estimate", "\n"), ("calibrate", "\n")],
    ids=["estimate", "calibrate", "estimate-lf", "calibrate-lf"],
)
def test_oversized_quoted_field_exits_2_without_output(tmp_path, capsys, command, newline):
    # Every log the exact reader gets goes through csv.reader, whose field
    # size limit is 131072 characters, whatever its line ends.
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    text = pathlib.Path(ranges).read_text(encoding="utf-8").replace("\r\n", newline)
    pathlib.Path(ranges).write_text(text + f"0.5,{'a' * 200_000},t0,1.0{newline}", encoding="utf-8")
    out = tmp_path / "o.out"
    argv = [command, "--ranges", ranges, "--deployment", dep, "--truth", truth, "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists() and not (tmp_path / "o.out.summary.csv").exists()
    err = capsys.readouterr().err
    assert f"error: {ranges}: field larger than field limit" in err and "Traceback" not in err


def _last_line_in_fresh_interpreter(script):
    """The last line ``script`` prints in a new interpreter importing this
    ``uwbpose``."""
    src = str(pathlib.Path(uwbpose.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_replay_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs several ms to import; a plain np.unique pulls it in.
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    files = ["--ranges", ranges, "--deployment", dep, "--truth", truth]
    bias, poses = str(tmp_path / "bias.json"), str(tmp_path / "poses.csv")
    script = (
        "import sys\n"
        "from uwbpose.cli import main\n"
        f"assert main(['calibrate', *{files!r}, '--out', {bias!r}]) == 0\n"
        f"assert main(['estimate', *{files!r}, '--bias', {bias!r}, '--out', {poses!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _last_line_in_fresh_interpreter(script) == "False"


def test_simulate_does_not_import_numpy_random(tmp_path):
    # numpy.random costs about 14 ms to import; sweeps draw from the
    # standard library's generator instead. Both sweeps reach every sampler:
    # Gamma shapes 2 and 9.5, and 0.5 with placed anchors.
    anchor_sweep = {"axis": "anchor_count", "values": [3, 5], "repeat_t": 2, "trials": 5, "estimators": ["uls"]}
    scenarios = [
        _write_scenario(tmp_path, SCENARIO_SMALL),
        _write_scenario(tmp_path, {**SCENARIO_SMALL, "sweep": anchor_sweep}, name="anchors.json"),
    ]
    out = str(tmp_path / "sweep.csv")
    script = (
        "import sys\n"
        "from uwbpose.cli import main\n"
        f"for scenario in {scenarios!r}:\n"
        f"    assert main(['simulate', '--scenario', scenario, '--out', {out!r}]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    assert _last_line_in_fresh_interpreter(script) == "False"


def test_commands_do_not_import_argparse(tmp_path):
    # argparse, with the gettext and locale imports of its first parser,
    # cost several ms; a well-formed command line does not need them.
    scenario = _write_scenario(tmp_path, SCENARIO_SMALL)
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
    sweep, poses = str(tmp_path / "sweep.csv"), str(tmp_path / "poses.csv")
    script = (
        "import sys\n"
        "from uwbpose.cli import main\n"
        f"assert main(['simulate', '--scenario', {scenario!r}, '--out', {sweep!r}, '--trials', '3']) == 0\n"
        f"assert main(['estimate', '--ranges', {ranges!r}, '--deployment', {dep!r}, '--out', {poses!r}]) == 0\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    assert _last_line_in_fresh_interpreter(script) == "[]"


def test_outputs_get_the_mode_of_a_new_file(tmp_path):
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=40)
    files = ["--ranges", ranges, "--deployment", dep, "--truth", truth]
    outputs = {name: tmp_path / name for name in ("sweep.csv", "bias.json", "poses.csv", "poses.csv.summary.csv")}
    old = os.umask(0o022)
    try:
        scenario = _write_scenario(tmp_path, SCENARIO_SMALL)
        assert main(["simulate", "--scenario", scenario, "--out", str(outputs["sweep.csv"]), "--trials", "2"]) == 0
        assert main(["calibrate", *files, "--out", str(outputs["bias.json"])]) == 0
        assert main(["estimate", *files, "--bias", str(outputs["bias.json"]), "--out", str(outputs["poses.csv"])]) == 0
    finally:
        os.umask(old)
    assert {name: oct(path.stat().st_mode & 0o777) for name, path in outputs.items()} == dict.fromkeys(outputs, "0o644")
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")) == []


# Values that some or all flags refuse, or that are not values at all.
ACCEPTOR_ODD_VALUES = ["", "-5", "0", "2.5", "1.5", "nan", "1e400", HUGE_INTEGER, "--out", "--timing", "-h", "bogus"]
ACCEPTOR_ODD_TOKENS = ["-h", "--help", "--scen", "--out=o.csv", "--bogus", "--", "simulate", "x"]


@st.composite
def _command_lines(draw):
    """A subcommand (or not) with most of its required flags, some optional
    ones, repeats and odd tokens, shuffled, and after each value flag a value
    its type or choices accept, or mostly so, an odd value."""
    command = draw(st.sampled_from([*COMMANDS, "bogus", "--help"]))
    flags = COMMANDS.get(command, (None, None, {}))[2]
    chosen = [flag for flag, spec in flags.items() if spec.get("required") and draw(st.integers(0, 9))]
    chosen += draw(st.lists(st.sampled_from(list(flags) or ["--out"]), max_size=4))
    if draw(st.integers(0, 3)) == 0:
        chosen.append(draw(st.sampled_from(ACCEPTOR_ODD_TOKENS)))
    argv = [command]
    for flag in draw(st.permutations(chosen)):
        argv.append(flag)
        spec = flags.get(flag, {"action": "store_true"})
        if spec.get("action") != "store_true":
            good = spec.get("choices", ["1", "7", "100"] if "type" in spec else ["out.csv", "1"])
            argv.append(draw(st.sampled_from(good if draw(st.integers(0, 7)) else ACCEPTOR_ODD_VALUES)))
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=_command_lines())
@example(argv=["simulate", "--scenario", "s", "--out", "o", "--timing", "--seed", "0"])
@example(argv=["estimate", "--ranges", "r", "--deployment", "d", "--out", "o", "--method", "dac"])
@example(argv=["simulate", "--scenario", "s", "--out", "o", "--seed", "-5"])
@example(argv=["crlb", "--scenario", "s", "--repeat-t"])
@example(argv=["crlb", "--scenario", "s", "--repeat-t", HUGE_INTEGER])
@example(argv=["simulate", "--scenario", "s", "--out", "--timing"])
@example(argv=["estimate", "--ranges", "r", "--deployment", "d", "--out", "o", "--method", "bogus"])
def test_exact_acceptor_agrees_with_argparse(argv):
    accepted = _accept_exact(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = vars(_build_parser().parse_args(argv))
        except SystemExit:
            expected = None
    if expected is None:
        assert accepted is None
    elif accepted is not None:
        assert vars(accepted) == expected
    # A parsed line of exact, distinct "--flag value" pairs must be taken.
    names, values = argv[1::2], argv[2::2]
    exact = set(names) <= set(COMMANDS.get(argv[0], (None, None, {}))[2]) - {"--timing"}
    if expected is not None and exact and len(set(names)) == len(names) and not any(v.startswith("-") for v in values):
        assert accepted is not None


@pytest.mark.parametrize("command", ["estimate", "calibrate"])
def test_ingestion_accounting_goes_to_stderr(tmp_path, capsys, command):
    samples = 60
    dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=samples)
    with open(ranges, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    # Rows run epoch-major over 3 tags x 8 anchors. Four 2 m spikes, each in
    # its own stream and past the first rejection window, and three negative
    # records (dropped before the stream check, so their time does not matter).
    for epoch, pair in [(20, 0), (30, 5), (40, 11), (50, 23)]:
        row = rows[1 + 24 * epoch + pair]
        row[3] = repr(float(row[3]) + 2.0)
    rows += [["0.1", "a0", "t0", "-1.0"], ["0.2", "a3", "t1", "-0.5"], ["0.3", "a7", "t2", "-2"]]
    with open(ranges, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(rows)
    out = tmp_path / "o.out"
    argv = [command, "--ranges", ranges, "--deployment", dep, "--truth", truth, "--out", str(out)]
    assert main(argv) == 0
    stdout, err = capsys.readouterr()
    line = f"{ranges}: {24 * samples + 3} records read, 3 negative dropped, 4 outliers rejected"
    failures = ["failures_by_error: none"] if command == "estimate" else []
    assert err.splitlines() == [line, *failures]
    assert "records read" not in stdout and "failures_by_error" not in stdout


# In-process fuzz of the JSON inputs: one section or leaf of a valid document
# is replaced by one of FUZZ_VALUES. Keys that size memory take only values
# that cannot start a large allocation.
FUZZ_VALUES = (5, "x", [], [1], {}, None, True, math.nan, -1, 1e308)
SIZING_KEYS = {"trials", "repeat_t", "values"}
SIZING_VALUES = ("x", [], [1], {}, None, -1)
VALID_BIAS = {
    "alpha": 0.01,
    "beta": 0.02,
    "sigma": 0.05,
    "residual_rms": 0.05,
    "per_pair": [{"anchor": "a0", "tag": "t0", "alpha": 0.0, "beta": 0.0}],
}


def _json_paths(node, prefix=()):
    """Every section and leaf of a JSON document, the whole document first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _json_paths(child, (*prefix, key))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


FUZZ_TARGETS = [
    *((command, path) for command in ("crlb", "simulate") for path in _json_paths(SCENARIO_SMALL)),
    *(("estimate", path) for path in _json_paths(VALID_BIAS)),
]


@st.composite
def _fuzz_cases(draw):
    command, path = draw(st.sampled_from(FUZZ_TARGETS))
    values = SIZING_VALUES if command != "estimate" and SIZING_KEYS & set(path) else FUZZ_VALUES
    return command, path, draw(st.sampled_from(values))


DEPLOYMENT_FUZZ_PATHS = [(), ("anchors",), ("tags",), ("sigma",), ("dh",), ("anchors", "a0", 0)]
DEPLOYMENT_FUZZ_VALUES = (*FUZZ_VALUES, "1", 10**400)


@pytest.fixture(scope="module")
def replay_files(tmp_path_factory):
    return _write_replay_files(tmp_path_factory.mktemp("replay"), rng=None, samples=20)


def _assert_documented_exit(argv, tmp, outputs):
    """``main(argv)`` returns 0-3 (argparse's ``SystemExit`` counts), prints
    no traceback, and adds to ``tmp`` the set of ``outputs`` on success and
    nothing otherwise; returns the code."""
    inputs = set(tmp.iterdir())
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing a value
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert set(tmp.iterdir()) - inputs == (set(outputs) if code == 0 else set())
    return code


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_fuzz_cases())
def test_malformed_json_exits_with_a_documented_code(replay_files, case):
    command, path, value = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        out = tmp / "out.csv"
        if command == "estimate":
            dep, _, ranges = replay_files
            bias = tmp / "bias.json"
            bias.write_text(json.dumps(_replaced(VALID_BIAS, path, value)), encoding="utf-8")
            argv = ["estimate", "--ranges", ranges, "--deployment", dep, "--bias", str(bias), "--out", str(out)]
        else:
            argv = [command, "--scenario", _write_scenario(tmp, _replaced(SCENARIO_SMALL, path, value))]
            if command == "simulate":
                argv += ["--out", str(out)]
        _assert_documented_exit(argv, tmp, {out} if command != "crlb" else set())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["calibrate", "estimate"]),
    path=st.sampled_from(DEPLOYMENT_FUZZ_PATHS),
    value=st.sampled_from(DEPLOYMENT_FUZZ_VALUES),
)
@example(command="calibrate", path=("anchors", "a0", 0), value="1")
@example(command="estimate", path=("sigma",), value=10**400)
def test_malformed_deployment_exits_with_a_documented_code(replay_files, command, path, value):
    # The replay deployment with its default dh written out, then one of its
    # sections or leaves, or the whole document, replaced. No field takes a
    # string, and an integer beyond the float range is no number of any.
    dep, truth, ranges = replay_files
    valid = {**json.loads(pathlib.Path(dep).read_text(encoding="utf-8")), "dh": 0.0}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        out = tmp / "out.csv"
        fuzzed = _write_scenario(tmp, _replaced(valid, path, value), name="deployment.json")
        argv = [command, "--ranges", ranges, "--deployment", fuzzed, "--out", str(out)]
        if command == "calibrate":
            argv += ["--truth", truth]
        code = _assert_documented_exit(argv, tmp, {out})
    assert code == 2 or not (isinstance(value, str) or value == 10**400)


# In-process fuzz of the range and truth CSVs: one mutation of the replay
# log or of its ground truth, under calibrate or under estimate at a small
# --rate. Field values cover non-finite, huge and negative numbers, unicode,
# ids that fill or overflow the 32 bytes of a byte column, and \x00.
CSV_FIELD_VALUES = (
    "nan", "inf", "-inf", "1e308", "-1e308", "-1", "-0.5", "", "x", "\x00", "a\x00", "\u00e4\u4f60",
    "\u00e9" * 16, "a" * 32, "a" * 33, "zz", "1e-320",
)
RANGE_MUTATIONS = ("truncate", "swap", "duplicate", "field", "field", "column", "header", "drop-stream", "unknown-id")
TRUTH_MUTATIONS = ("truncate", "swap", "duplicate", "field", "field", "column", "header")


@st.composite
def _csv_cases(draw):
    command = draw(st.sampled_from(["calibrate", "estimate"]))
    target = draw(st.sampled_from(["ranges", "truth"]))
    kind = draw(st.sampled_from(RANGE_MUTATIONS if target == "ranges" else TRUTH_MUTATIONS))
    width = 4
    if kind == "truncate":
        detail = draw(st.floats(0.0, 1.0))
    elif kind in ("swap", "duplicate"):  # in the data rows, or in the header too
        detail = (*draw(st.lists(st.integers(0, width - 1), min_size=2, max_size=2, unique=True)), draw(st.booleans()))
    elif kind == "field":  # a data field, or a header name
        row = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
        detail = (row, draw(st.integers(0, width - 1)), draw(st.sampled_from(CSV_FIELD_VALUES)))
    elif kind == "column":  # one value in every data row
        detail = (draw(st.integers(0, width - 1)), draw(st.sampled_from(CSV_FIELD_VALUES + ("1e154", "0"))))
    elif kind == "header":
        detail = draw(st.floats(0.0, 1.0))
    else:  # a stream left out, or an id renamed in every row or in one
        detail = (draw(st.sampled_from(["a0", "a7", "t0", "t2"])), draw(st.sampled_from([None, 0.0, 0.5, 1.0])))
    return command, target, kind, detail


def _mutated_csv(text, kind, detail):
    rows = [line.split(",") for line in text.splitlines()]
    if kind == "truncate":
        return text[: int(detail * len(text))]
    if kind == "swap":
        i, j, header = detail
        for row in rows[0 if header else 1 :]:
            row[i], row[j] = row[j], row[i]
    elif kind == "duplicate":
        i, j, header = detail
        rows[0 if header else 1 :] = [row[: j + 1] + [row[i]] + row[j + 1 :] for row in rows[0 if header else 1 :]]
    elif kind == "field":
        at, column, value = detail
        rows[min(int(at * len(rows)), len(rows) - 1)][column] = value
    elif kind == "column":
        column, value = detail
        for row in rows[1:]:
            row[column] = value
    elif kind == "header":
        rows.insert(int(detail * len(rows)), list(rows[0]))
    elif kind == "drop-stream":
        rows = [row for row in rows if detail[0] not in row[1:3]]
    else:  # unknown-id: the id renamed in every row that holds it, or in one
        name, at = detail
        hits = [k for k, row in enumerate(rows) if name in row[1:3]]
        for k in hits if at is None else hits[int(at * (len(hits) - 1)) :][:1]:
            rows[k] = ["zz" if cell == name else cell for cell in rows[k]]
    return "\n".join(map(",".join, rows)) + "\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_csv_cases())
@example(case=("calibrate", "ranges", "column", (3, "1e154")))  # a fit with alpha <= -1: exit 1
@example(case=("estimate", "truth", "column", (1, "1e154")))  # position errors overflow: exit 1
def test_malformed_csv_exits_with_a_documented_code(replay_files, case):
    command, target, kind, detail = case
    dep, truth, ranges = replay_files
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        files = {"ranges": pathlib.Path(ranges), "truth": pathlib.Path(truth)}
        fuzzed = tmp / f"{target}.csv"
        fuzzed.write_text(_mutated_csv(files[target].read_text(encoding="utf-8"), kind, detail), encoding="utf-8")
        files[target] = fuzzed
        out = tmp / "out.csv"
        argv = [command, "--ranges", str(files["ranges"]), "--deployment", dep, "--truth", str(files["truth"]),
                "--out", str(out)]
        outputs = {out}
        if command == "estimate":
            argv += ["--rate", "10"]
            outputs.add(tmp / "out.csv.summary.csv")
        _assert_documented_exit(argv, tmp, outputs)
