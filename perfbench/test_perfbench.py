"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import checks
import gen
import run
import tracer

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _synthetic_nest() -> dict:
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]; worker thread d [0, 2] > e [0.5, 1]
    return {
        "names": ["root", "mod.a", "mod.b", "other.c", "mod.d", "mod.e"],
        "name": np.array([0, 1, 2, 3, 4, 5]),
        "parent": np.array([-1, 0, 1, 0, -1, 4]),
        "n": np.array([0, 6, 6, 0, 60, 0]),
        "start": np.array([0.0, 1.0, 2.0, 5.0, 0.0, 0.5]),
        "end": np.array([10.0, 4.0, 3.0, 9.0, 2.0, 1.0]),
        "thread": np.array([0, 0, 0, 0, 1, 1]),
    }


def test_self_time_arithmetic_on_synthetic_nest():
    spans = _synthetic_nest()
    self_s = tracer.self_times(spans["parent"], spans["start"], spans["end"])
    assert self_s.tolist() == [3.0, 2.0, 1.0, 4.0, 1.5, 0.5]
    main = spans["thread"] == 0
    assert self_s[main].sum() == pytest.approx(10.0)  # the root span's duration
    assert tracer.check_nesting(spans) == pytest.approx(0.0)

    agg = tracer.aggregate(spans)
    assert agg["mod.a"]["self_s"] == 2.0 and agg["mod.a"]["calls"] == 1
    # b is entered from its own layer, so only a and d contribute a base n.
    assert agg["mod.a"]["entry_n"] == 6 and agg["mod.b"]["entry_n"] == 0
    assert agg["mod.d"]["entry_n"] == 60


def test_nesting_check_detects_a_misplaced_child():
    spans = _synthetic_nest()
    spans["end"] = spans["end"].copy()
    spans["end"][2] = 4.5  # b outlives its parent a
    assert tracer.check_nesting(spans) > 0.1


def _toy_package():
    import types

    low = types.ModuleType("toy.low")
    high = types.ModuleType("toy.high")
    exec(
        "import time\n"
        "def leaf(x):\n    time.sleep(0.002)\n    return x\n"
        "def fail(x):\n    raise KeyError(x)\n",
        low.__dict__,
    )
    high.leaf = low.leaf
    exec(
        "import time\n"
        "def outer(x):\n    time.sleep(0.001)\n    return leaf(x) + leaf(x)\n",
        high.__dict__,
    )
    high.TABLE = {"twice": high.outer, "bad": low.fail}
    package = types.SimpleNamespace(low=low, high=high)
    return package, low, high


def test_tracer_wraps_every_binding_and_keeps_threads_apart():
    package, low, high = _toy_package()
    t = tracer.Tracer()
    t.install(package, ("low", "high"), dispatch=("high", "TABLE"))
    assert high.leaf is low.leaf and hasattr(low.leaf, "__wrapped__")

    with t.span(tracer.ROOT):
        assert high.TABLE["twice"](1) == 2
        with ThreadPoolExecutor(max_workers=3) as pool:
            assert list(pool.map(high.outer, range(6))) == [2 * i for i in range(6)]
        with pytest.raises(KeyError):
            high.TABLE["bad"](0)
    assert t.failures == {"KeyError": 1}

    spans = t.spans()
    agg = tracer.aggregate(spans)
    assert agg["high.twice"]["calls"] == 1
    assert agg["high.outer"]["calls"] == 7
    assert agg["low.leaf"]["calls"] == 14
    assert tracer.check_nesting(spans) < 1e-9
    root = int(np.flatnonzero(spans["name"] == spans["names"].index(tracer.ROOT))[0])
    main = spans["thread"] == spans["thread"][root]
    self_s = tracer.self_times(spans["parent"], spans["start"], spans["end"])
    assert self_s[main].sum() == pytest.approx(spans["end"][root] - spans["start"][root])
    assert self_s.min() >= 0.0
    # Pool threads start with an empty stack: their outer spans are top level.
    outer = spans["name"] == spans["names"].index("high.outer")
    assert np.sum(outer & (spans["parent"] < 0)) == 6


def test_generators_are_deterministic(tmp_path):
    digests = []
    for name in ("a", "b", "c"):
        work = tmp_path / name
        work.mkdir()
        seed = 5 if name != "c" else 6
        log = gen.write_log(str(work), seed)
        sweep = gen.write_sweep(str(work), seed, (1, 10), ("uls",), 10)
        digests.append((log.sha256, sweep.sha256))
    assert digests[0] == digests[1]
    assert digests[0][0] != digests[2][0] and digests[0][1] != digests[2][1]


def test_log_generator_bookkeeping(tmp_path):
    log = gen.write_log(str(tmp_path), 3)
    with open(log.ranges, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert lines[0] == "t,anchor,tag,range"
    assert len(lines) - 1 == log.records == int(log.present.sum())
    removed = log.present.size - log.records
    assert gen.LOG_GAPS * gen.LOG_GAP_LEN[0] <= removed <= gen.LOG_GAPS * (gen.LOG_GAP_LEN[1] - 1)
    assert log.present[0].all() and log.present[-1].all()


def test_independent_bound_matches_the_package():
    sys.path.insert(0, run.SRC)
    import uwbpose as up

    theta, t = math.radians(gen.REF_THETA_DEG), gen.REF_T
    ours = checks.constrained_bound(gen.REF_ANCHORS, gen.REF_TAGS, gen.REF_SIGMA, theta, t, 100)[0]
    dep = up.Deployment(anchors=gen.REF_ANCHORS, tags=gen.REF_TAGS, sigma=gen.REF_SIGMA)
    pose = up.Pose2(theta, t)
    theirs = up.constrained_crlb(up.fisher_info(dep, 100, pose), pose)
    assert math.sqrt(np.trace(ours)) == pytest.approx(theirs.sqrt_trace, rel=1e-12)
    assert np.sum(ours * ours) == pytest.approx(np.sum(theirs.crlb * theirs.crlb), rel=1e-10)


def test_reference_calibration_matches_the_package(tmp_path):
    sys.path.insert(0, run.SRC)
    from uwbpose import preprocess as pp

    log = gen.write_log(str(tmp_path), 7)
    raw = pp.RangeLog.from_csv(log.ranges, frequency=gen.LOG_FREQ_HZ)
    cleaned, _ = pp.reject_outliers(raw, window=gen.LOG_WINDOW, v_max=gen.LOG_VMAX)
    named = pp.NamedDeployment.from_json(log.deployment)
    model = pp.calibrate_bias(cleaned, pp.GroundTruthLog.from_csv(log.truth), named)
    alpha, beta = checks.reference_calibration(log)
    assert model.alpha == pytest.approx(alpha, abs=1e-12)
    assert model.beta == pytest.approx(beta, abs=1e-12)


def test_metric_names_and_totals():
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    names = [*end_to_end, *per_layer, *(w["name"] for w in spec["workloads"])]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert end_to_end["setup_s"] == "s"
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    # Every layer module has a self-time metric.
    for layer in run.LAYERS:
        assert f"{layer}.self_s" in per_layer


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    code = run.main(["--workload", "log-replay", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""

