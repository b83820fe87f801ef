"""Outlier rejection, calibration, and epoch batching."""

import copy
import dataclasses
import math
import pickle
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BODY_TAGS_3,
    assert_owns_read_only_copies,
    reference_columns,
    reference_epochs,
    reference_flag_stream,
    reference_range_log,
    reference_stream_index,
    reference_truth_log,
)
from uwbpose import preprocess
from uwbpose.core import Deployment, Method, Pose2, RangeBatch, predicted_ranges
from uwbpose.errors import InsufficientDataError, SchemaError, Status, schema_errors
from uwbpose.estimators import estimate, estimate_stacked
from uwbpose.preprocess import (
    BiasModel,
    Epochs,
    GroundTruthLog,
    NamedDeployment,
    RangeLog,
    _read_columns,
    align_and_batch,
    calibrate_bias,
    flag_stream,
    reject_outliers,
)


def _make_log(streams: dict, frequency: float = 100.0) -> RangeLog:
    """Build a record-interleaved log from {(anchor, tag): (times, values)}."""
    rows = []
    for (anchor, tag), (times, values) in streams.items():
        rows.extend((t, anchor, tag, v) for t, v in zip(times, values))
    rows.sort(key=lambda r: r[0])
    return RangeLog(
        t=np.array([r[0] for r in rows]),
        anchor=tuple(r[1] for r in rows),
        tag=tuple(r[2] for r in rows),
        range_m=np.array([r[3] for r in rows]),
        frequency=frequency,
    )


def _grid_deployment() -> NamedDeployment:
    return NamedDeployment(
        deployment=Deployment(
            anchors=[[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]],
            tags=[[0.5, 0.0], [0.0, 0.5]],
            sigma=0.05,
        ),
        anchor_ids=("a0", "a1", "a2", "a3"),
        tag_ids=("t0", "t1"),
    )


class TestFlagStream:
    def test_single_spike_flagged(self):
        values = np.full(100, 10.0)
        values[50] += 1.0
        slack = 5 * 0.5 / 100.0 + 0.1
        flags = flag_stream(values, 5, slack)
        assert flags[50]
        assert flags.sum() == 1

    def test_monotone_at_speed_bound_unflagged(self):
        v_max, freq, k = 0.5, 100.0, 5
        values = 10.0 + np.arange(200) * (v_max / freq)
        flags = flag_stream(values, k, k * v_max / freq + 0.1)
        assert not flags.any()

    def test_first_window_never_flagged(self):
        values = np.full(20, 10.0)
        values[2] += 50.0
        flags = flag_stream(values, 5, 0.125)
        assert not flags[:5].any()
        assert not flags[2]

    def test_matches_direct_inequality_oracle(self):
        rng = np.random.default_rng(71)
        n = 10_000
        values = 20.0 + np.cumsum(rng.normal(0, 0.02, n))
        spikes = rng.choice(n, size=200, replace=False)
        values[spikes] += rng.uniform(0.3, 3.0, size=200)
        k, slack = 5, 5 * 0.5 / 100.0 + 0.1
        flags = flag_stream(values, k, slack)
        for t in range(n):
            expected = t >= k and values[t] > values[t - k : t].min() + slack
            assert flags[t] == expected

    def test_causal(self):
        rng = np.random.default_rng(72)
        values = 15.0 + rng.normal(0, 0.05, 500)
        values[100:120] += 2.0
        flags_full = flag_stream(values, 5, 0.125)
        for cut in (150, 300, 499):
            np.testing.assert_array_equal(
                flag_stream(values[:cut], 5, 0.125), flags_full[:cut]
            )


class TestRejectOutliers:
    def test_spike_removed_and_mask_reported(self):
        times = np.arange(100) / 100.0
        values = np.full(100, 10.0)
        values[40] += 1.0
        log = _make_log({("a0", "t0"): (times, values)})
        cleaned, mask = reject_outliers(log, window=5, v_max=0.5)
        assert mask.sum() == 1
        assert cleaned.range_m[mask][0] == pytest.approx(10.0)

    def test_streams_isolated(self):
        times = np.arange(50) / 100.0
        clean = np.full(50, 8.0)
        spiky = np.full(50, 12.0)
        spiky[30] += 2.0
        log = _make_log({("a0", "t0"): (times, clean), ("a1", "t0"): (times, spiky)})
        _, mask = reject_outliers(log, window=5, v_max=0.5)
        flagged = [log.stream_keys[k] for k in log.stream_id[mask]]
        assert flagged == [("a1", "t0")]

    def test_empty_log_passes_through(self):
        log = RangeLog(
            t=np.array([]), anchor=(), tag=(), range_m=np.array([]), frequency=100.0
        )
        cleaned, mask = reject_outliers(log, window=5, v_max=0.5)
        assert len(cleaned) == 0 and mask.size == 0

    def test_parameter_validation(self):
        log = _make_log({("a0", "t0"): (np.arange(10) / 100.0, np.full(10, 5.0))})
        with pytest.raises(ValueError):
            reject_outliers(log, window=0, v_max=0.5)
        with pytest.raises(ValueError):
            reject_outliers(log, window=5, v_max=0.0)

    def test_integral_float_window_is_its_integer(self):
        log = _make_log({("a0", "t0"): (np.arange(10) / 100.0, np.array([5.0] * 6 + [9.0] * 4))})
        cleaned, mask = reject_outliers(log, window=3.0, v_max=0.5)
        expected, expected_mask = reject_outliers(log, window=3, v_max=0.5)
        assert mask.any() and mask.tolist() == expected_mask.tolist()
        assert cleaned.range_m.tolist() == expected.range_m.tolist()


# Each value that the matching CLI flag refuses, by argument.
BAD_REPLAY_ARGUMENTS = [
    ("rate_hz", 0), ("rate_hz", -5.0), ("rate_hz", math.nan), ("rate_hz", math.inf), ("rate_hz", True),
    ("max_gap_periods", -1.0), ("max_gap_periods", math.nan), ("max_gap_periods", math.inf),
    ("v_max", math.nan), ("v_max", math.inf), ("v_max", -0.5), ("window", 2.5), ("window", True), ("window", "5"),
]


@pytest.mark.parametrize("argument, value", BAD_REPLAY_ARGUMENTS)
def test_replay_arguments_follow_the_cli_rules(argument, value):
    named = _grid_deployment()
    _, log = _synthetic_truth_and_log(named, 0.0, 0.0, 0.0, 10, None)
    with pytest.raises(ValueError, match=f"^{argument} must be ") as info:
        if argument in ("rate_hz", "max_gap_periods"):
            align_and_batch(log, BiasModel.identity(), named, **{argument: value})
        else:
            reject_outliers(log, **{"window": 5, "v_max": 1.0, argument: value})
    assert not isinstance(info.value, SchemaError)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    window=st.integers(1, 64),
    v_max=st.floats(0.1, 5.0),
    lengths=st.lists(st.integers(0, 120), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_reject_outliers_matches_per_stream_oracle(window, v_max, lengths, seed):
    # Streams of random lengths, some shorter than the window, with their
    # records interleaved at random; spikes of 0.2-3 m on a random walk.
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(len(lengths)), lengths))
    walk = 10.0 + np.cumsum(rng.normal(0.0, 0.02, labels.size))
    values = walk + rng.uniform(0.2, 3.0, labels.size) * (rng.random(labels.size) < 0.1)
    times = np.arange(labels.size) / 100.0
    log = RangeLog(
        t=times, anchor=tuple(f"a{k}" for k in labels), tag=("t0",) * labels.size,
        range_m=values, frequency=100.0,
    )
    cleaned, mask = reject_outliers(log, window, v_max)

    slack = window * v_max / 100.0 + 0.1
    want_mask, want_values = np.zeros(labels.size, dtype=bool), values.copy()
    for k in range(len(lengths)):
        idx = np.flatnonzero(labels == k)
        flags = reference_flag_stream(values[idx], window, slack)
        want_mask[idx] = flags
        if flags.any():
            want_values[idx[flags]] = np.interp(times[idx[flags]], times[idx[~flags]], values[idx[~flags]])
    assert np.array_equal(mask, want_mask)
    assert cleaned.range_m.tobytes() == want_values.tobytes()


def _synthetic_truth_and_log(
    named: NamedDeployment,
    alpha: float,
    beta: float,
    noise: float,
    samples: int,
    rng,
    frequency: float = 100.0,
):
    """Trolley-style trajectory sampled at the ranging frequency."""
    dep = named.deployment
    times = np.arange(samples) / frequency
    xs = 3.0 + 2.0 * np.sin(0.2 * times)
    ys = 4.0 + 1.5 * np.cos(0.13 * times)
    yaws = 0.4 * np.sin(0.11 * times)
    truth = GroundTruthLog(t=times, x=xs, y=ys, yaw=yaws)

    rows_t, rows_a, rows_g, rows_r = [], [], [], []
    for k, t in enumerate(times):
        pose = Pose2(yaws[k], [xs[k], ys[k]])
        clean = predicted_ranges(dep, pose)
        for i, tag_id in enumerate(named.tag_ids):
            for m, anchor_id in enumerate(named.anchor_ids):
                value = clean[i, m] * (1 + alpha) + beta
                if noise:
                    value += rng.normal(0.0, noise)
                rows_t.append(t)
                rows_a.append(anchor_id)
                rows_g.append(tag_id)
                rows_r.append(value)
    log = RangeLog(
        t=np.array(rows_t),
        anchor=tuple(rows_a),
        tag=tuple(rows_g),
        range_m=np.array(rows_r),
        frequency=frequency,
    )
    return truth, log


class TestCalibrateBias:
    def test_recovers_injected_bias_exactly_without_noise(self):
        named = _grid_deployment()
        truth, log = _synthetic_truth_and_log(named, 0.02, 0.05, 0.0, 200, None)
        model = calibrate_bias(log, truth, named)
        assert model.alpha == pytest.approx(0.02, abs=1e-9)
        assert model.beta == pytest.approx(0.05, abs=1e-9)
        assert model.residual_rms <= 1e-9

    def test_recovers_bias_within_three_standard_errors(self):
        rng = np.random.default_rng(73)
        named = _grid_deployment()
        samples = 10_000 // (len(named.anchor_ids) * len(named.tag_ids)) + 1
        truth, log = _synthetic_truth_and_log(named, 0.02, 0.05, 0.05, samples, rng)
        model = calibrate_bias(log, truth, named)
        # Standard errors from the plain LS covariance with sigma = 0.05.
        dep = named.deployment
        count = len(log)
        positions, yaws = truth.interpolate(log.t)
        ids = [log.stream_keys[k] for k in log.stream_id]
        a_idx = np.array([named.anchor_ids.index(a) for a, _ in ids])
        t_idx = np.array([named.tag_ids.index(g) for _, g in ids])
        cos_y, sin_y = np.cos(yaws), np.sin(yaws)
        tags = dep.tags[t_idx]
        gx = cos_y * tags[:, 0] - sin_y * tags[:, 1] + positions[:, 0]
        gy = sin_y * tags[:, 0] + cos_y * tags[:, 1] + positions[:, 1]
        anc = dep.anchors[a_idx]
        true_range = np.hypot(anc[:, 0] - gx, anc[:, 1] - gy)
        design = np.column_stack([true_range, np.ones(count)])
        cov = 0.05**2 * np.linalg.inv(design.T @ design)
        assert abs(model.alpha - 0.02) <= 3 * math.sqrt(cov[0, 0])
        assert abs(model.beta - 0.05) <= 3 * math.sqrt(cov[1, 1])
        assert model.sigma == pytest.approx(0.05, rel=0.1)

    def test_unknown_id_is_resolved_only_inside_the_truth_span(self):
        named = _grid_deployment()
        truth, log = _synthetic_truth_and_log(named, 0.02, 0.05, 0.0, 50, None)
        later = np.arange(10) / 100.0 + 10.0  # past the 0.49 s of truth
        extra = _make_log({("zz", "t0"): (later, np.full(10, 5.0))})
        merged = RangeLog(
            t=np.concatenate([log.t, extra.t]),
            anchor=[log.stream_keys[k][0] for k in log.stream_id] + ["zz"] * 10,
            tag=[log.stream_keys[k][1] for k in log.stream_id] + ["t0"] * 10,
            range_m=np.concatenate([log.range_m, extra.range_m]),
            frequency=100.0,
        )
        assert calibrate_bias(merged, truth, named) == calibrate_bias(log, truth, named)
        shifted = GroundTruthLog(t=truth.t + 9.8, x=truth.x, y=truth.y, yaw=truth.yaw)
        with pytest.raises(SchemaError, match="unknown anchor id 'zz'"):
            calibrate_bias(merged, shifted, named)

    def test_non_overlapping_spans_rejected(self):
        named = _grid_deployment()
        truth, log = _synthetic_truth_and_log(named, 0.0, 0.0, 0.0, 50, None)
        late_truth = GroundTruthLog(t=truth.t + 1e6, x=truth.x, y=truth.y, yaw=truth.yaw)
        with pytest.raises(InsufficientDataError):
            calibrate_bias(log, late_truth, named)


class TestBiasModel:
    def test_remove_then_apply_is_identity(self):
        model = BiasModel(alpha=0.02, beta=0.05, sigma=0.03)
        ranges = np.linspace(0.5, 60.0, 50)
        measured = ranges * (1.0 + 0.02) + 0.05  # measured = true * (1 + alpha) + beta
        np.testing.assert_allclose(model.remove(measured), ranges, atol=1e-12)
        np.testing.assert_allclose(model.remove(measured) * 1.02 + 0.05, measured, atol=1e-12)

    def test_identity_model_is_noop(self):
        model = BiasModel.identity()
        values = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(model.remove(values), values)

    def test_per_pair_override(self):
        model = BiasModel(alpha=0.0, beta=0.0, sigma=0.1, per_pair={("a0", "t0"): (0.1, 0.2)})
        assert model.remove(1.3, key=("a0", "t0")) == pytest.approx((1.3 - 0.2) / 1.1)
        assert model.remove(1.3, key=("a1", "t0")) == pytest.approx(1.3)

    def test_json_round_trip(self, tmp_path):
        model = BiasModel(alpha=0.01, beta=-0.02, sigma=0.04, residual_rms=0.05,
                          per_pair={("a0", "t1"): (0.2, 0.3)})
        path = tmp_path / "bias.json"
        path.write_text(model.to_json())
        loaded = BiasModel.from_json_file(path)
        assert loaded == model

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            BiasModel(alpha=0.0, beta=0.0, sigma=0.0)

    def test_per_pair_is_a_read_only_copy(self):
        # Writing alpha = -1 after the check would make remove divide by zero.
        given = {("a0", "t0"): (0.0, 0.0)}
        m = BiasModel(0.0, 0.0, 1.0, per_pair=given)
        with pytest.raises(TypeError):
            m.per_pair[("a0", "t0")] = (-1.0, 0.0)
        given[("a0", "t0")] = (-1.0, 0.0)
        assert m.remove([5.0], ("a0", "t0")).tolist() == [5.0]

    @pytest.mark.parametrize("copy_of", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy])
    def test_pickles_and_copies_read_only(self, copy_of):
        m = BiasModel(0.1, 0.2, 1.0, 0.5, per_pair={("a0", "t0"): (0.3, 0.4)})
        other = copy_of(m)
        assert other == m and other is not m
        with pytest.raises(TypeError):
            other.per_pair[("a0", "t0")] = (-1.0, 0.0)

    def test_per_pair_is_the_same_whatever_the_order_given(self, tmp_path):
        items = [(("a1", "t0"), (0.1, 0.2)), (("a0", "t1"), (0.3, 0.4)), (("a0", "t0"), [0.5, 0.6])]
        models = [BiasModel(0.0, 0.0, 1.0, per_pair=given) for given in (items, items[::-1], dict(items[::-1]))]
        assert models[0].per_pair == ((("a0", "t0"), (0.5, 0.6)), (("a0", "t1"), (0.3, 0.4)), (("a1", "t0"), (0.1, 0.2)))
        assert all(m == models[0] and hash(m) == hash(models[0]) for m in models)
        path = tmp_path / "bias.json"
        path.write_text(models[1].to_json())
        assert BiasModel.from_json_file(path) == models[0]

    @pytest.mark.parametrize("key", [(0, "t0"), ("a0", None), ("a0",), ("a0", "t0", "x"), "a0t0"])
    def test_per_pair_ids_must_be_a_pair_of_strings(self, key):
        with pytest.raises(ValueError, match=r"^per_pair keys must be \(anchor id, tag id\) pairs of strings, got "):
            BiasModel(0.0, 0.0, 1.0, per_pair=[(key, (0.1, 0.2))])


class TestAlignAndBatch:
    def test_synchronous_identity_bias_passes_ranges_through(self):
        named = _grid_deployment()
        truth, log = _synthetic_truth_and_log(named, 0.0, 0.0, 0.0, 50, None)
        epochs = align_and_batch(log, BiasModel.identity(), named)
        assert len(epochs) == 50
        assert epochs.ranges.shape == (50, 2, 4)
        for k, (epoch, ranges) in enumerate(zip(epochs.times, epochs.ranges)):
            assert epoch == pytest.approx(k / 100.0)
            pose = Pose2(truth.yaw[k], [truth.x[k], truth.y[k]])
            np.testing.assert_allclose(
                ranges, predicted_ranges(named.deployment, pose), atol=1e-9
            )

    def test_debias_inverts_injected_bias(self):
        named = _grid_deployment()
        truth, log = _synthetic_truth_and_log(named, 0.02, 0.05, 0.0, 30, None)
        model = BiasModel(alpha=0.02, beta=0.05, sigma=0.01)
        epochs = align_and_batch(log, model, named)
        for k, ranges in enumerate(epochs.ranges):
            pose = Pose2(truth.yaw[k], [truth.x[k], truth.y[k]])
            np.testing.assert_allclose(
                ranges, predicted_ranges(named.deployment, pose), atol=1e-9
            )

    def test_delayed_stream_linearly_interpolated(self):
        named = NamedDeployment(
            deployment=Deployment(
                anchors=[[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]],
                tags=[[0.5, 0.0], [0.0, 0.5]],
                sigma=0.05,
            ),
            anchor_ids=("a0", "a1", "a2"),
            tag_ids=("t0", "t1"),
        )
        times = np.arange(20) / 100.0
        streams = {}
        for a, anchor_id in enumerate(named.anchor_ids):
            for g, tag_id in enumerate(named.tag_ids):
                values = 5.0 + a + 0.1 * g + 0.3 * np.arange(20)
                if (anchor_id, tag_id) == ("a1", "t1"):
                    streams[(anchor_id, tag_id)] = (times + 0.005, values)
                else:
                    streams[(anchor_id, tag_id)] = (times, values)
        log = _make_log(streams)
        epochs = align_and_batch(log, BiasModel.identity(), named)
        assert epochs.times[0] == pytest.approx(0.005)
        delayed_times, delayed_values = streams[("a1", "t1")]
        for epoch, ranges in zip(epochs.times, epochs.ranges):
            expected = np.interp(epoch, delayed_times, delayed_values)
            assert ranges[1, 1] == pytest.approx(expected, abs=1e-12)

    def test_gap_drops_epochs_never_partial(self):
        named = _grid_deployment()
        _, log = _synthetic_truth_and_log(named, 0.0, 0.0, 0.0, 60, None)
        ids = [log.stream_keys[k] for k in log.stream_id]
        keep = ~(np.array([key == ("a1", "t0") for key in ids]) & (log.t > 0.2) & (log.t < 0.35))
        gappy = RangeLog(
            t=log.t[keep],
            anchor=[a for (a, _), kept in zip(ids, keep) if kept],
            tag=[g for (_, g), kept in zip(ids, keep) if kept],
            range_m=log.range_m[keep],
            frequency=log.frequency,
        )
        epochs = align_and_batch(gappy, BiasModel.identity(), named)
        assert not np.any((epochs.times > 0.21) & (epochs.times < 0.34))
        assert epochs.ranges.shape == (len(epochs), 2, 4)
        assert np.all(np.isfinite(epochs.ranges))

    def test_unknown_ids_named_in_error(self):
        named = _grid_deployment()
        times = np.arange(10) / 100.0
        log = _make_log({("mystery", "t0"): (times, np.full(10, 5.0))})
        with pytest.raises(SchemaError, match="mystery"):
            align_and_batch(log, BiasModel.identity(), named)

    def test_first_unknown_id_in_stream_order_is_named(self):
        # Streams are numbered by first record; whatever order a set of the
        # ids would take, the error names the first stream's unknown anchor.
        named = _grid_deployment()
        times = np.arange(10) / 100.0
        streams = {(a, "t0"): (times + k / 1000.0, np.full(10, 5.0)) for k, a in enumerate(["zz", "yy", "xx", "ww"])}
        log = _make_log({("a0", "t1"): (times, np.full(10, 5.0)), ("a1", "t9"): (times, np.full(10, 5.0)), **streams})
        with pytest.raises(SchemaError, match="^unknown tag id 't9'$"):
            align_and_batch(log, BiasModel.identity(), named)
        with pytest.raises(SchemaError, match="^unknown anchor id 'zz'$"):
            align_and_batch(_make_log(streams), BiasModel.identity(), named)

    def test_epochs_are_read_only(self):
        named = _grid_deployment()
        _, log = _synthetic_truth_and_log(named, 0.0, 0.0, 0.0, 10, None)
        epochs = align_and_batch(log, BiasModel.identity(), named)
        assert len(epochs)
        for arr in (epochs.times, epochs.ranges):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    @pytest.mark.parametrize("key", [("zz", "t0"), ("A0", "t0"), ("a0", "t9"), ("t0", "a0")])
    def test_per_pair_key_must_name_a_pair_of_the_deployment(self, key):
        # Such an entry would never be applied, so the model is refused where it meets the deployment.
        named = _grid_deployment()
        _, log = _synthetic_truth_and_log(named, 0.0, 0.0, 0.0, 10, None)
        model = BiasModel(alpha=0.0, beta=0.0, sigma=0.05, per_pair={("a1", "t1"): (0.1, 0.2), key: (0.1, 0.2)})
        with pytest.raises(SchemaError, match=f"^bias model per_pair {re.escape(repr(key))} is no "):
            align_and_batch(log, model, named)
        model = dataclasses.replace(model, per_pair={k: v for k, v in dict(model.per_pair).items() if k != key})
        applied = align_and_batch(log, model, named)
        identity = align_and_batch(log, BiasModel.identity(), named)
        np.testing.assert_allclose(applied.ranges[:, 1, 1], (identity.ranges[:, 1, 1] - 0.2) / 1.1, rtol=1e-14)
        np.testing.assert_array_equal(np.delete(applied.ranges.reshape(-1, 8), 5, axis=1),
                                      np.delete(identity.ranges.reshape(-1, 8), 5, axis=1))

    def test_missing_stream_yields_no_batches(self):
        named = _grid_deployment()
        times = np.arange(10) / 100.0
        log = _make_log({("a0", "t0"): (times, np.full(10, 5.0))})
        epochs = align_and_batch(log, BiasModel.identity(), named)
        assert len(epochs) == 0
        assert epochs.ranges.shape == (0, 2, 4)


@st.composite
def replay_logs(draw):
    """A log of 1-3 tags and 3-5 anchors, its deployment and a bias model with
    per-pair entries. Each stream starts at its own offset, in eighths of a
    period, may jitter by an eighth of a period and may lose a run of
    records. At 16 Hz every time is exact in binary, so that gaps of exactly
    ``max_gap_periods`` occur."""
    frequency = draw(st.sampled_from([16.0, 10.0]))
    n, m = draw(st.integers(1, 3)), draw(st.integers(3, 5))
    anchor_ids, tag_ids = tuple(f"a{j}" for j in range(m)), tuple(f"t{i}" for i in range(n))
    deployment = Deployment(anchors=np.arange(2.0 * m).reshape(m, 2), tags=np.ones((n, 2)))
    named = NamedDeployment(deployment, anchor_ids, tag_ids)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))  # jitter and range values
    records, per_pair = [], {}
    coefficient = st.floats(-0.3, 0.3)
    for key in [(a, g) for a in anchor_ids for g in tag_ids]:
        count, offset = draw(st.integers(6, 16)), draw(st.sampled_from([0, 8, 16, 3, 4]))
        cut, run = draw(st.integers(1, count - 1)), draw(st.integers(0, 3))
        units = 8 * np.arange(count) + offset + (draw(st.integers(0, 2)) == 0) * rng.choice([-1, 0, 1], count)
        for k in [k for k in range(count) if not cut <= k < cut + run]:
            records.append((units[k] / (8 * frequency), *key, rng.uniform(0.5, 30.0)))
        if draw(st.booleans()):
            per_pair[key] = (draw(coefficient), draw(coefficient))
    records.sort(key=lambda record: record[0])  # interleaved, as a log is; the sort is stable
    bias = BiasModel(draw(coefficient), draw(coefficient), 0.05, per_pair=per_pair)
    rate = frequency * draw(st.sampled_from([1.0, 40.0, 0.5, 2.0, 0.75, 3.0]))
    return records, frequency, bias, named, rate, draw(st.sampled_from([3.0, 1.0, 0.0]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(replay_logs())
def test_align_and_batch_matches_per_epoch_oracle(case):
    records, frequency, bias, named, rate, max_gap = case
    t, anchor, tag, range_m = zip(*records)
    log = RangeLog(t=np.array(t), anchor=anchor, tag=tag, range_m=np.array(range_m), frequency=frequency)
    try:
        times, ranges = reference_epochs(records, frequency, bias, named, rate, max_gap)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as excinfo:
            align_and_batch(log, bias, named, rate_hz=rate, max_gap_periods=max_gap)
        assert str(excinfo.value) == str(exc)
        return
    epochs = align_and_batch(log, bias, named, rate_hz=rate, max_gap_periods=max_gap)
    np.testing.assert_array_equal(epochs.times, np.array(times, dtype=float))
    assert epochs.ranges.shape == (len(times), len(named.tag_ids), len(named.anchor_ids))
    np.testing.assert_allclose(epochs.ranges, np.array(ranges, dtype=float).reshape(epochs.ranges.shape), rtol=1e-12)


@st.composite
def moving_body_replays(draw):
    """A log of 2-3 tags and 3-5 anchors on a body that turns and drifts:
    Gaussian noise, spikes on about one record in ten, a per-pair bias that
    the returned model removes, and each stream with its own start offset,
    jitter and run of removed records, as in ``replay_logs``.
    Returns (records, frequency, bias, named, rate, max_gap, window, v_max)."""
    frequency = draw(st.sampled_from([16.0, 10.0]))
    n, m = draw(st.integers(2, 3)), draw(st.integers(3, 5))
    anchor_ids, tag_ids = tuple(f"a{j}" for j in range(m)), tuple(f"t{i}" for i in range(n))
    anchors = np.array([[50.0, 0.0], [50.0, 50.0], [0.0, 50.0], [0.0, 0.0], [25.0, -10.0]])[:m]
    named = NamedDeployment(Deployment(anchors=anchors, tags=BODY_TAGS_3[:n], sigma=0.05), anchor_ids, tag_ids)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))  # motion, noise, spikes and bias values
    theta0, omega = rng.uniform(0.0, 2 * math.pi), rng.uniform(-0.5, 0.5)
    origin, velocity = rng.uniform(10.0, 40.0, 2), rng.uniform(-1.0, 1.0, 2)
    records, per_pair = [], {}
    for (j, anchor), (i, tag) in [(a, g) for a in enumerate(anchor_ids) for g in enumerate(tag_ids)]:
        count, offset = draw(st.integers(16, 32)), draw(st.sampled_from([0, 8, 16, 3, 4]))
        cut, run = draw(st.integers(1, count - 1)), draw(st.integers(0, 3))
        units = 8 * np.arange(count) + offset + (draw(st.integers(0, 2)) == 0) * rng.choice([-1, 0, 1], count)
        times = units / (8 * frequency)
        heading = theta0 + omega * times
        tag_x, tag_y = BODY_TAGS_3[i]
        position = origin + np.outer(times, velocity) + np.column_stack(
            [np.cos(heading) * tag_x - np.sin(heading) * tag_y, np.sin(heading) * tag_x + np.cos(heading) * tag_y])
        true = np.hypot(*(anchors[j] - position).T)
        measured = true + rng.normal(0.0, 0.05, count) + rng.uniform(0.5, 3.0, count) * (rng.random(count) < 0.1)
        alpha, beta = per_pair[(anchor, tag)] = tuple(rng.uniform(-0.05, 0.05, 2))
        records.extend((times[k], anchor, tag, measured[k] * (1 + alpha) + beta)
                       for k in range(count) if not cut <= k < cut + run)
    records.sort(key=lambda record: record[0])
    bias = BiasModel(0.0, 0.0, 0.05, per_pair=per_pair)
    rate = frequency * draw(st.sampled_from([1.0, 0.5, 2.0, 0.75]))
    window, v_max = draw(st.integers(1, 8)), draw(st.sampled_from([0.5, 2.0, 5.0]))
    return records, frequency, bias, named, rate, draw(st.sampled_from([3.0, 1.0])), window, v_max


def _reference_rejected(records, frequency, window, v_max):
    """``records`` with each stream's spikes, by ``reference_flag_stream``,
    replaced by interpolation between the stream's unflagged neighbours."""
    streams: dict = {}
    for index, (_, anchor, tag, _) in enumerate(records):
        streams.setdefault((anchor, tag), []).append(index)
    out = list(records)
    for index in map(np.array, streams.values()):
        times, values = np.array([records[k][0] for k in index]), np.array([records[k][3] for k in index])
        flags = reference_flag_stream(values, window, window * v_max / frequency + 0.1)
        for k, value in zip(index[flags], np.interp(times[flags], times[~flags], values[~flags])):
            out[k] = (*records[k][:3], value)
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(moving_body_replays())
def test_replay_chain_matches_per_epoch_estimates(case):
    # reject_outliers, align_and_batch and estimate_stacked against the
    # oracles' epochs estimated one RangeBatch at a time, for every method.
    records, frequency, bias, named, rate, max_gap, window, v_max = case
    t, anchor, tag, range_m = zip(*records)
    log = RangeLog(t=np.array(t), anchor=anchor, tag=tag, range_m=np.array(range_m), frequency=frequency)
    epochs = align_and_batch(reject_outliers(log, window, v_max)[0], bias, named, rate_hz=rate, max_gap_periods=max_gap)
    times, ranges = reference_epochs(_reference_rejected(records, frequency, window, v_max), frequency, bias, named,
                                     rate, max_gap)
    np.testing.assert_array_equal(epochs.times, np.array(times, dtype=float))
    for method in Method:
        poses = estimate_stacked(named.deployment, epochs.ranges, epochs.ranges**2, method)
        for k, grid in enumerate(ranges):
            batch = RangeBatch(named.deployment, np.array(grid)[:, :, np.newaxis])
            code = Status(int(poses.status[k]))
            if code:
                with pytest.raises(code.error):
                    estimate(batch, method)
                continue
            pose = estimate(batch, method)
            assert abs(math.remainder(pose.theta - poses.theta[k], 2 * math.pi)) < 1e-9
            np.testing.assert_allclose(pose.t, poses.t[k], rtol=0, atol=1e-9)


@pytest.mark.parametrize("anchor_ids, tag_ids, kind", [(("a0", "a0", "a2"), ("t0", "t1"), "anchor"),
                                                   (("a0", "a1", "a2"), ("t0", "t0"), "tag")])
def test_duplicate_ids_are_refused(anchor_ids, tag_ids, kind):
    deployment = Deployment(anchors=[[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], tags=[[0.5, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError, match=f"one distinct id per {kind} required"):
        NamedDeployment(deployment, anchor_ids, tag_ids)


def test_schema_errors_rewrites_only_its_kinds_and_drops_the_cause():
    with pytest.raises(SchemaError, match="^where: reason$") as excinfo:
        with schema_errors("where"):
            raise TypeError("reason")
    assert excinfo.value.__cause__ is None and excinfo.value.__suppress_context__
    with pytest.raises(KeyError):
        with schema_errors("where"):
            raise KeyError("reason")
    with pytest.raises(ValueError):
        with schema_errors("where", (OSError,)):
            raise ValueError("reason")


def test_values_leave_the_callers_arrays_writable():
    # Float arrays, which np.asarray would hand back as they are.
    t, r, x, y, yaw = np.arange(4) / 100.0, np.full(4, 5.0), np.zeros(4), np.ones(4), np.full(4, 0.5)
    truth_t, times, ranges = t.copy(), t.copy(), np.ones((4, 1, 1))
    log = RangeLog(t=t, anchor=("a0",) * 4, tag=("t0",) * 4, range_m=r, frequency=100.0)
    truth = GroundTruthLog(t=truth_t, x=x, y=y, yaw=yaw)
    epochs = Epochs(times=times, ranges=ranges)
    cleaned, _ = reject_outliers(log, window=2, v_max=1.0)
    assert_owns_read_only_copies(
        [t, r, x, y, yaw, truth_t, times, ranges],
        [log.t, log.range_m, log.stream_id, *log.streams().values(), truth.t, truth.x, truth.y, truth.yaw,
         epochs.times, epochs.ranges, cleaned.range_m],
    )


class TestLogIngestion:
    def test_csv_round_trip_and_negative_rejection(self, tmp_path):
        path = tmp_path / "ranges.csv"
        path.write_text(
            "t,anchor,tag,range\n"
            "0.00,a0,t0,5.0\n"
            "0.01,a0,t0,-2.0\n"
            "0.02,a0,t0,5.1\n",
            encoding="utf-8",
        )
        log = RangeLog.from_csv(path, frequency=100.0)
        assert len(log) == 2
        assert log.dropped_negative == 1
        np.testing.assert_allclose(log.range_m, [5.0, 5.1])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,anchor,tag,range\n0,a,t,1\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            RangeLog.from_csv(path, frequency=100.0)

    def test_decreasing_stream_timestamps_rejected(self):
        with pytest.raises(SchemaError):
            RangeLog(
                t=np.array([0.0, 0.2, 0.1]),
                anchor=("a0", "a0", "a0"),
                tag=("t0", "t0", "t0"),
                range_m=np.array([1.0, 1.0, 1.0]),
                frequency=100.0,
            )

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"t": [0.0, 0.1]}, "equal length"),
            ({"anchor": ("a0",) * 4}, "equal length"),
            ({"range_m": [1.0, 1.0]}, "equal length"),
            ({"t": [0.0, math.nan, 0.2]}, "timestamps must be finite"),
            ({"t": [math.nan, 0.1, 0.2]}, "timestamps must be finite"),
            ({"t": [0.0, 0.1, math.inf]}, "timestamps must be finite"),
            ({"range_m": [1.0, math.nan, 1.0]}, "ranges must be finite"),
            ({"range_m": [1.0, -math.inf, 1.0]}, "ranges must be finite"),
            ({"range_m": [1.0, -0.5, 1.0]}, "nonnegative"),
            ({"t": [0.0, 0.2, 0.1]}, "timestamps decrease"),
        ],
    )
    def test_every_column_fault_is_a_schema_error(self, change, message):
        columns = {
            "t": [0.0, 0.1, 0.2], "anchor": ("a0",) * 3, "tag": ("t0",) * 3, "range_m": [1.0] * 3,
        }
        with pytest.raises(SchemaError, match=message):
            RangeLog(**{**columns, **change}, frequency=100.0)

    @pytest.mark.parametrize("frequency", [0.0, -1.0, math.nan, math.inf, "100"])
    def test_bad_frequency_is_a_parameter_error(self, frequency):
        with pytest.raises(ValueError, match="^frequency must be a finite number above 0, got ") as info:
            RangeLog(t=[0.0], anchor=("a0",), tag=("t0",), range_m=[1.0], frequency=frequency)
        assert not isinstance(info.value, SchemaError)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0.0,a0,t0,1.0\n\n0.1,a0,t0,x\n", "4: non-numeric field"),
            ("0.0,a0,t0,nan\n0.1,a0,t0,x\n", "2: non-finite field"),
            ("0.0,a0,t0,1.0\n0.1,a0,t0\n", "3: expected 4 fields"),
            ('0.0,"a\n0",t0,1.0\n0.1,a0,t0,-inf\n', "3: non-finite field"),
            ("0.0,a0,t0,1.0\r\n\r\n0.1,a0,t0,1e400\r\n", "4: non-finite field"),
        ],
    )
    def test_errors_name_the_record_line(self, tmp_path, body, message):
        path = tmp_path / "ranges.csv"
        path.write_bytes(("t,anchor,tag,range\n" + body).encode("utf-8"))
        with pytest.raises(SchemaError) as info:
            RangeLog.from_csv(path, frequency=100.0)
        assert str(info.value) == f"{path}:{message}"

    def test_ground_truth_csv_parses_degrees(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("t,x,y,yaw_deg\n0.0,1.0,2.0,90.0\n1.0,2.0,3.0,180.0\n", encoding="utf-8")
        truth = GroundTruthLog.from_csv(path)
        assert truth.yaw[0] == pytest.approx(math.pi / 2)
        positions, yaw = truth.interpolate(np.array([0.5]))
        assert yaw[0] == pytest.approx(3 * math.pi / 4)
        np.testing.assert_allclose(positions[0], [1.5, 2.5])

    @pytest.mark.parametrize("name", ["t", "x", "y", "yaw"])
    def test_ground_truth_values_must_be_finite(self, name):
        # The reader refuses these at their line; a library caller gets the column.
        columns = {"t": [0.0, 1.0], "x": [1.0, 2.0], "y": [2.0, 3.0], "yaw": [0.0, 0.1], name: [0.0, math.nan]}
        with pytest.raises(SchemaError, match=f"^ground-truth {name} values must be finite$"):
            GroundTruthLog(**columns)

    def test_yaw_interpolation_crosses_wrap(self):
        truth = GroundTruthLog(
            t=np.array([0.0, 1.0]),
            x=np.zeros(2),
            y=np.zeros(2),
            yaw=np.array([math.radians(350.0), math.radians(370.0) - 2 * math.pi]),
        )
        _, yaw = truth.interpolate(np.array([0.5]))
        assert math.degrees(yaw[0]) % 360 == pytest.approx(0.0, abs=1e-9)


# Generated CSV logs for the readers. "Plain" logs have no quote and no
# carriage return, so they go to np.loadtxt unless it refuses them; the
# others take the csv.reader branch of the exact reader. Both must agree
# with the row-wise reference reader.
SCHEMAS = {"range": ["t", "anchor", "tag", "range"], "truth": ["t", "x", "y", "yaw_deg"]}
GOOD_NUMBERS = ["0", "1.5", " 2.25 ", "7e-3", "12", "-0.0", "-0", "-3", "0.125", "\u20035\u2003", "\x0c6\x0c"]
# float() accepts these and loadtxt does not, so they take the exact reader.
FLOAT_ONLY_NUMBERS = ["1_0", "\u0661\u0662", "\uff15", "\u2003\u0663"]
BAD_NUMBERS = ["nan", "inf", "-inf", "1e400", "abc", "", "0x1", "\x1c1.5", "2\x1c", "\x1f3\x1f"]
# Ids that send a plain log to the exact reader: no Latin-1 code, a \x00
# (which byte arrays drop), or 32 bytes or more (which may be cut to 32).
EXACT_IDS = ["u\u2028v", "\u4e2d", "\U0001F600", "a\x00", "\x00", "0123456789abcdefghijklmnopqrstuv", "-" * 33]
# Ids loadtxt reads as Latin-1 bytes; str.splitlines breaks "p\x0cq" and "x\x85y".
# LONG_IDS span 16-31 bytes, e.g. a 64-bit address in hex.
LONG_IDS = ["DECA000000000001", "0xDECA000000000001", "0123456789abcdefghijklmnopqrstu"]
LOADTXT_IDS = ["a0", "t\u00b9", " \u00e0 1 ", "", "x y", "p\x0cq", "\u00e9", "\xa0x\xa0", "x\x85y", "abcdefgh"]
LOADTXT_IDS += LONG_IDS
QUOTED_IDS = ['"a,1"', '"a\n1"', '"q""x"', '"x"y', '" s "']
SPACES = [" ", "\t", "\x0c", "\u2003", "\x1c"]


@st.composite
def csv_logs(draw, schema: str) -> str:
    header = SCHEMAS[schema]
    plain = draw(st.booleans())
    # Half the plain range logs are clean: only numbers and row shapes that
    # loadtxt reads, so their ids pick the reader. The other logs are drawn
    # with the odds of bad numbers and shapes that all logs had before.
    clean = schema == "range" and plain and draw(st.booleans())
    bad_numbers, bad_shapes = (not clean and draw(st.integers(0, 2)) == 2 for _ in range(2))
    numbers = GOOD_NUMBERS + (FLOAT_ONLY_NUMBERS if not clean and draw(st.booleans()) else [])
    numbers += BAD_NUMBERS if bad_numbers else []
    if schema == "range":  # 1-5 ids, and in a log that is not plain every quoted id
        ids = draw(st.lists(st.sampled_from(LOADTXT_IDS), min_size=1, max_size=3, unique=True))
        ids += draw(st.lists(st.sampled_from(EXACT_IDS), max_size=2, unique=True)) + ([] if plain else QUOTED_IDS)
    ends = ["\n"] if plain else ["\n", "\r\n", "\r"]
    kinds = ["row"] * 4 + ["blank"] + (["short", "long", "space"] if bad_shapes else [])
    head = draw(st.sampled_from([",".join(header)] * 8 + [" , ".join(header), ",".join(header[:3]), ""]))
    lines = [head]
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("blank", "space"):
            lines.append("" if kind == "blank" else draw(st.sampled_from(SPACES)))
            continue
        t = repr(0.01 * i) if draw(st.integers(0, 4)) else draw(st.sampled_from(numbers))
        if schema == "range":
            fields = [t, draw(st.sampled_from(ids)), draw(st.sampled_from(ids)), draw(st.sampled_from(numbers))]
        else:
            fields = [t] + [draw(st.sampled_from(numbers)) for _ in range(3)]
        if kind == "short":
            fields.pop(draw(st.integers(0, 3)))
        elif kind == "long":
            fields.append(draw(st.sampled_from(numbers)))
        lines.append(",".join(fields))
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline after the last line
    return "" if draw(st.integers(0, 19)) == 19 else text


def _outcome(load, *args):
    try:
        return "ok", load(*args)
    except SchemaError as exc:
        return "error", str(exc)


def _log_fields(log) -> tuple:
    if isinstance(log, RangeLog):
        ids = [log.stream_keys[k] for k in log.stream_id]
        return log.t.tobytes(), ids, log.range_m.tobytes(), log.dropped_negative
    if isinstance(log, tuple):  # the columns of reference_range_log
        t, anchor, tag, range_m, dropped = log
        return t.tobytes(), list(zip(anchor, tag)), range_m.tobytes(), dropped
    return tuple(getattr(log, name).tobytes() for name in ("t", "x", "y", "yaw"))


def _byte_path_edges(text: str, outcome: str) -> set[str]:
    """The edges of the byte-column reader that an accepted range log shows:
    a Latin-1 id or an id of 16-31 bytes read by ``loadtxt``, or a plain log
    with only numbers ``loadtxt`` reads that an id sends to the exact reader."""
    plain = not any(c in text for c in '"\r\x1c\x1d\x1e\x1f_\u0661\u0662\u0663\uff15')
    edges = {
        "loadtxt: Latin-1 id": outcome == "loadtxt" and any("\x80" <= c <= "\xff" for c in text),
        "loadtxt: id of 16-31 bytes": outcome == "loadtxt" and any(i in text for i in LONG_IDS),
        "exact: plain log with such an id": outcome == "exact" and plain and any(i in text for i in EXACT_IDS),
    }
    return {edge for edge, seen in edges.items() if seen}


def _assert_readers_agree(path, schema: str) -> str:
    """Check both readers against the reference; return "error", or the
    reader that accepted the file: "loadtxt" or "exact"."""
    header = SCHEMAS[schema]
    with open(path, encoding="utf-8", newline="") as handle:
        status, got = _outcome(_read_columns, path, handle.read(), header)
    ref_status, want = _outcome(reference_columns, path, header)
    assert status == ref_status
    if status == "ok":
        assert [list(column) for column in got[0]] == want[0]
        assert got[1].tolist() == want[1]
    else:
        assert got == want

    with (
        mock.patch.object(preprocess, "_read_columns", wraps=preprocess._read_columns) as exact,
        warnings.catch_warnings(),
    ):
        warnings.simplefilter("error")  # e.g. loadtxt's warning on a file without data
        if schema == "range":
            got, want = _outcome(RangeLog.from_csv, path, 100.0), _outcome(reference_range_log, path)
        else:
            got, want = _outcome(GroundTruthLog.from_csv, path), _outcome(reference_truth_log, path)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert _log_fields(got[1]) == _log_fields(want[1])
        return "exact" if exact.called else "loadtxt"
    assert got[1] == want[1]
    return "error"


@pytest.mark.parametrize("schema", list(SCHEMAS))
def test_column_reader_matches_row_reader(tmp_path, schema):
    outcomes = set()

    # A quarter of the range logs are clean; 4/3 the examples keep as many
    # logs with bad numbers or shapes as the truth logs get.
    @settings(max_examples=200 if schema == "range" else 150, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        path = tmp_path / f"{schema}.csv"
        text = data.draw(csv_logs(schema))
        path.write_bytes(text.encode("utf-8"))
        outcome = _assert_readers_agree(path, schema)
        outcomes.update({outcome} | _byte_path_edges(text, outcome))

    check()
    edges = {"loadtxt: Latin-1 id", "loadtxt: id of 16-31 bytes", "exact: plain log with such an id"}
    assert outcomes == {"loadtxt", "exact", "error", *(edges if schema == "range" else ())}


@pytest.mark.parametrize("schema", list(SCHEMAS))
@pytest.mark.parametrize(
    "text", ["", "\n", "\r\n", "HEADER", "HEADER\n", "HEADER\n\n", "\nHEADER\n", "HEADER\r\n\r\n"]
)
def test_column_reader_matches_row_reader_on_empty_logs(tmp_path, schema, text):
    path = tmp_path / f"{schema}.csv"
    path.write_bytes(text.replace("HEADER", ",".join(SCHEMAS[schema])).encode("utf-8"))
    _assert_readers_agree(path, schema)


# Ids for the stream index: some differ only by a trailing \x00 or only
# past their first 8 or 24 bytes, and one has no Latin-1 code. BYTE_IDS are
# those a byte array holds.
LONG = "DECA0000" * 3
INDEX_IDS = ["a0", "a0\x00", "", "\x00", "\u4e2d", "anchor-0", "anchor-00", "anchor-01", "anchor-0\u00e9"]
INDEX_IDS += [LONG, LONG + "1"]
BYTE_IDS = {"a0", "", "anchor-0", "anchor-00", "anchor-01", "anchor-0\u00e9", LONG, LONG + "1"}


def _stream_index(t, anchor, tag) -> tuple:
    log = RangeLog(t=t, anchor=anchor, tag=tag, range_m=np.ones(len(t)), frequency=100.0)
    return log.stream_keys, log.stream_id.tolist(), {key: v.tolist() for key, v in log.streams().items()}


def test_stream_index_matches_dict_oracle():
    outcomes = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        # Up to 12 streams over a few ids, each of 1-5 records, interleaved at
        # random; in half the logs timestamps also step back.
        pick = st.sampled_from(data.draw(st.lists(st.sampled_from(INDEX_IDS), min_size=1, max_size=4, unique=True)))
        keys = data.draw(st.lists(st.tuples(pick, pick), max_size=12, unique=True))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        labels = rng.permutation(np.repeat(np.arange(len(keys)), rng.integers(1, 6, len(keys))))
        t = np.cumsum(rng.choice([1.0, 0.0, -1.0] if rng.random() < 0.5 else [1.0, 0.0], labels.size))
        anchor, tag = tuple(keys[k][0] for k in labels), tuple(keys[k][1] for k in labels)

        status, want = _outcome(reference_stream_index, t, anchor, tag)
        if status == "ok":
            keys_want, id_want, streams_want = want
            want = keys_want, id_want.tolist(), {key: v.tolist() for key, v in streams_want.items()}
        assert _outcome(_stream_index, t, anchor, tag) == (status, want)
        # The same log with the byte arrays from_csv makes, and with arrays
        # just wide enough for each column, where they hold its ids.
        as_bytes = set(anchor + tag) <= BYTE_IDS
        for width in ("S32", "S") if as_bytes else ():
            byte_ids = [np.array([i.encode("latin-1") for i in ids], width) for ids in (anchor, tag)]
            assert _outcome(_stream_index, t, *byte_ids) == (status, want)
        outcomes.add((status, as_bytes))

    check()
    assert outcomes == {("ok", True), ("ok", False), ("error", True), ("error", False)}


@pytest.mark.parametrize("anchor", ["a{}", "DECA{:012X}", "0x{:029X}"])
def test_benchmark_shaped_log_takes_the_loadtxt_path(tmp_path, anchor):
    # ASCII ids in 12 interleaved streams, as in the log-replay benchmark:
    # short ones, 64-bit addresses in hex and ids of 31 bytes. The exact
    # reader would give the same log, only slower.
    anchors = [anchor.format(m) for m in range(4)]
    records = [(k, i, m) for k in range(50) for i in range(3) for m in range(4)]
    rows = [f"{k / 100!r},{anchors[m]},t{i},{5.0 + 0.01 * k + m!r}" for k, i, m in records]
    path = tmp_path / "ranges.csv"
    path.write_text("t,anchor,tag,range\n" + "\n".join(rows) + f"\n0.5,{anchors[0]},t0,-1.0\n", encoding="utf-8")
    with mock.patch.object(preprocess, "_read_columns", wraps=preprocess._read_columns) as exact:
        log = RangeLog.from_csv(path, frequency=100.0)
    assert not exact.called
    assert log.stream_keys == tuple((anchors[m], f"t{i}") for i in range(3) for m in range(4))
    assert log.stream_id.tolist() == list(range(12)) * 50
    assert (len(log), log.dropped_negative) == (600, 1)
