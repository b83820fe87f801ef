"""Command-line interface: exit codes, determinism, atomic outputs."""

import csv
import json
import math

import numpy as np
import pytest

from uwbpose.cli import main
from uwbpose.core import Deployment, Pose2, predicted_ranges
from uwbpose.preprocess import NamedDeployment

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


def _write_replay_files(tmp_path, rng=None, sigma=0.05, samples=240, speed=0.3):
    """Synthetic moving-body dataset: deployment, truth CSV, ranges CSV."""
    anchors = {
        "a0": [0.0, 0.0], "a1": [10.0, 0.0], "a2": [10.0, 6.0], "a3": [0.0, 6.0],
        "a4": [5.0, 0.0], "a5": [5.0, 6.0], "a6": [0.0, 3.0], "a7": [10.0, 3.0],
    }
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
                    if rng is not None:
                        value += rng.normal(0.0, sigma)
                    writer.writerow([times[k], anchor_id, tag_id, max(value, 0.0)])
    return str(dep_path), str(truth_path), str(ranges_path)


class TestEstimate:
    def test_noiseless_replay_exact(self, tmp_path):
        dep, truth, ranges = _write_replay_files(tmp_path, rng=None)
        out = tmp_path / "poses.csv"
        code = main(
            ["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(out),
             "--truth", truth, "--method", "gn-uls"]
        )
        assert code == 0
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
        assert rows[0] == ["t", "x", "y", "yaw_deg", "method", "status"]
        assert all(row[5] == "ok" for row in rows[1:])
        for row in rows[1:]:  # every numeric field parses as a plain float
            for field in row[:4]:
                float(field)
        summary_rows = list(
            csv.reader(open(str(out) + ".summary.csv", encoding="utf-8"))
        )
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

    @pytest.mark.parametrize("iterations", ["0", "-1"])
    def test_gn_iterations_below_one_exits_2_without_output(self, tmp_path, capsys, iterations):
        dep, truth, ranges = _write_replay_files(tmp_path, rng=None, samples=20)
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["estimate", "--ranges", ranges, "--deployment", dep, "--out", str(out),
                 "--gn-iterations", iterations]
            )
        assert excinfo.value.code == 2
        assert not out.exists()
        assert "--gn-iterations" in capsys.readouterr().err


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
