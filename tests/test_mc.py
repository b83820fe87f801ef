"""Monte-Carlo harness: moment draws, determinism, bound respect, spike
robustness, CSV."""

import collections
import copy
import dataclasses
import io
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbpose import estimators, mc
from uwbpose.core import Deployment, Method, Pose2, RangeBatch, predicted_ranges, rotation_matrix
from uwbpose.errors import UnobservableDeploymentError
from uwbpose.estimators import estimate_stacked
from uwbpose.mc import (
    McConfig,
    McResult,
    SweepAxis,
    _axis_setup,
    _run_axes,
    _gamma,
    _normal,
    _uniform,
    run_sweep,
    write_csv,
)
from uwbpose.preprocess import REJECTION_BOUND_M, flag_stream

from helpers import (
    BODY_TAGS,
    BODY_TAGS_3,
    COLLINEAR_ANCHORS,
    CORNER_ANCHORS,
    ORIGIN_LINE_TAGS,
    ks_2samp_pvalue,
    noisy_ranges,
    reference_deployment,
    reference_pose,
    reference_sigma_matrix,
)


def _small_config(**overrides):
    defaults = dict(
        deployment=reference_deployment(sigma=0.1),
        true_pose=reference_pose(),
        axis=SweepAxis.REPEAT_T,
        axis_values=(5, 20),
        trials=40,
        seed=101,
        estimators=(Method.ULS, Method.GN_ULS, Method.DAC, Method.GN_DAC),
    )
    defaults.update(overrides)
    return McConfig(**defaults)


def _stat_fields(rows):
    return [
        (
            r.axis_value,
            r.estimator,
            r.rotation_rmse,
            r.translation_rmse,
            r.combined_rmse,
            r.sqrt_crlb,
            r.failures,
            r.trials,
        )
        for r in rows
    ]


class TestConfigValidation:
    def test_axis_values_must_increase(self):
        with pytest.raises(ValueError):
            _small_config(axis_values=(20, 5))

    def test_axis_values_must_be_positive(self):
        with pytest.raises(ValueError):
            _small_config(axis_values=(0, 5))

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            _small_config(trials=0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("trials", 2.5),
            ("trials", True),
            ("trials", math.inf),
            ("trials", 0),
            ("repeat_t", 2.5),
            ("repeat_t", math.nan),
            ("repeat_t", "3"),
            ("seed", 1.5),
            ("seed", "7"),
            ("seed", -1),
        ],
    )
    def test_counts_and_seed_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            _small_config(**{name: value})

    @pytest.mark.parametrize(
        "field, value, choices",
        [  # each id is the name its case has always had, so that a new case renames none
            pytest.param("axis", "bogus", [axis.value for axis in SweepAxis], id="axis-bogus-choices0"),
            pytest.param("estimators", ("x",), [method.value for method in Method], id="estimators-value1-choices1"),
            pytest.param("estimators", 5, [method.value for method in Method], id="estimators-5-choices2"),
            pytest.param("estimators", (), [method.value for method in Method], id="estimators-value3-choices3"),
            pytest.param("noise_scale", "0.5", [], id="noise_scale-0.5-choices4"),
            pytest.param("noise_scale", True, [], id="noise_scale-True-choices5"),
            pytest.param("noise_scale", -1.0, [], id="noise_scale--1.0-choices6"),
            pytest.param("anchor_rect", (("0", 0.0), (50.0, 50.0)), [], id="anchor_rect-value7-choices7"),
            pytest.param("anchor_rect", ((0.0, 0.0),), [], id="anchor_rect-value8-choices8"),
            pytest.param("anchor_rect", 5, [], id="anchor_rect-5-choices9"),
            pytest.param(
                "estimators", ("uls", "dac", "uls"), [method.value for method in Method], id="estimators-value10-choices10"
            ),
        ],
    )
    def test_bad_field_is_a_value_error_naming_it(self, field, value, choices):
        with pytest.raises(ValueError, match=f"^{field} must be") as excinfo:
            _small_config(**{field: value})
        assert all(repr(choice) in str(excinfo.value) for choice in choices)

    def test_trials_beyond_numpy_index_range(self):
        # 8 bytes per (trial, tag, anchor) moment; the reference geometry has 2 x 3 pairs.
        limit = np.iinfo(np.intp).max // (8 * 6)
        assert _small_config(trials=limit).trials == limit
        assert _small_config(trials=limit // 2 + 1, axis="anchor_count", axis_values=(3, 5)).trials == limit // 2 + 1
        for overrides in (
            {"trials": limit + 1},
            {"trials": 1e300},
            {"trials": limit // 2 + 1, "axis": "anchor_count", "axis_values": (3, 6)},  # the largest count decides
        ):
            with pytest.raises(ValueError, match=r"^trials must keep the \(trials, N, M\) moments within"):
                _small_config(**overrides)

    def test_names_and_numbers_are_normalised(self):
        config = _small_config(axis="repeat_t", estimators=["uls", "dac"], noise_scale=1, anchor_rect=[[0, 0], [5, 5]])
        assert config.axis is SweepAxis.REPEAT_T and config.estimators == (Method.ULS, Method.DAC)
        assert config.anchor_rect == ((0.0, 0.0), (5.0, 5.0))

    def test_integral_values_become_ints(self):
        config = _small_config(
            trials=5.0, repeat_t=np.int64(3), seed=7.0, axis=SweepAxis.NOISE_SIGMA, axis_values=(0.1,)
        )
        for name, expected in (("trials", 5), ("repeat_t", 3), ("seed", 7)):
            value = getattr(config, name)
            assert type(value) is int and value == expected
        result = run_sweep(config)
        assert result.metadata["seed"] == "7" and result.metadata["axis"] == "noise_sigma"
        assert result.rows[0].trials == 5

    def test_unobservable_refused_before_trials(self):
        config = _small_config(
            deployment=Deployment(anchors=COLLINEAR_ANCHORS, tags=BODY_TAGS, sigma=0.1)
        )
        with pytest.raises(UnobservableDeploymentError):
            run_sweep(config)


class TestMomentDraws:
    """A sweep draws each trial's per-pair moments, not its ranges. For iid
    Gaussian noise of deviation s they are independent, with mean_d ~
    N(g, s²/T) and mean_d2 - mean_d² ~ s² χ²(T-1) / T."""

    TRIALS = 20000

    @pytest.mark.parametrize("repeat_t", [1, 2, 10, 1000])
    def test_moments_follow_their_laws(self, repeat_t):
        config = _small_config(
            deployment=reference_deployment(sigma=reference_sigma_matrix(), dh=0.7),
            axis_values=(repeat_t,),
            trials=self.TRIALS,
            seed=5,
        )
        dep, t_eff, mean_d, mean_d2 = _axis_setup(config, 0)
        assert t_eff == repeat_t and mean_d.shape == (self.TRIALS, 2, 3)
        n = self.TRIALS
        g, s2 = predicted_ranges(dep, config.true_pose), dep.sigma**2

        # Per pair: sample mean and variance of mean_d within 5 standard errors.
        var_mean = s2 / repeat_t
        assert np.all(np.abs(mean_d.mean(axis=0) - g) <= 5 * np.sqrt(var_mean / n))
        assert np.all(np.abs(mean_d.var(axis=0, ddof=1) - var_mean) <= 5 * var_mean * math.sqrt(2 / (n - 1)))

        spread = mean_d2 - mean_d**2
        if repeat_t == 1:
            np.testing.assert_array_equal(spread, 0.0)
            return
        k = repeat_t - 1
        expected_mean = s2 * k / repeat_t
        expected_var = 2 * s2**2 * k / repeat_t**2
        # The sample variance of a χ²(k) variate has excess kurtosis 12 / k.
        se_var = expected_var * math.sqrt(2 / (n - 1) + 12 / (k * n))
        assert np.all(np.abs(spread.mean(axis=0) - expected_mean) <= 5 * np.sqrt(expected_var / n))
        assert np.all(np.abs(spread.var(axis=0, ddof=1) - expected_var) <= 5 * se_var)

        centred_d = mean_d - mean_d.mean(axis=0)
        centred_s = spread - spread.mean(axis=0)
        corr = (centred_d * centred_s).sum(axis=0) / np.sqrt(
            (centred_d**2).sum(axis=0) * (centred_s**2).sum(axis=0)
        )
        assert np.all(np.abs(corr) <= 5 / math.sqrt(n - 1))

    @pytest.mark.parametrize("repeat_t", [1, 10])
    def test_zero_noise_scale_gives_the_clean_moments(self, repeat_t):
        config = _small_config(
            deployment=reference_deployment(sigma=reference_sigma_matrix(), dh=0.7),
            axis_values=(repeat_t,),
            noise_scale=0.0,
        )
        dep, _, mean_d, mean_d2 = _axis_setup(config, 0)
        g = predicted_ranges(dep, config.true_pose)
        np.testing.assert_array_equal(mean_d, np.broadcast_to(g, mean_d.shape))
        np.testing.assert_array_equal(mean_d2, np.broadcast_to(g * g, mean_d2.shape))


class TestSamplers:
    """The sweep's own samplers, drawn from the standard library's Mersenne
    Twister, against numpy.random as an independent oracle (two-sample
    Kolmogorov-Smirnov at fixed seeds)."""

    DRAWS = 100_000

    def test_normals_match_numpy(self):
        z = _normal(random.Random("normal"), (self.DRAWS,))
        assert ks_2samp_pvalue(z, np.random.default_rng(1).standard_normal(self.DRAWS)) > 1e-3

    @pytest.mark.parametrize("k", [0.5, 1.0, 4.5, 499.5, 4999.5])
    def test_gamma_matches_numpy(self, k):
        g = _gamma(random.Random(f"gamma {k}"), k, (self.DRAWS,))
        assert ks_2samp_pvalue(g, np.random.default_rng(2).standard_gamma(k, self.DRAWS)) > 1e-3

    def test_gamma_of_shape_zero_is_exact_zeros(self):
        np.testing.assert_array_equal(_gamma(random.Random("zero"), 0.0, (4, 2, 3)), np.zeros((4, 2, 3)))

    def test_uniforms_lie_in_the_half_open_unit_interval(self):
        u = _uniform(random.Random("uniform"), (self.DRAWS,))
        assert 0.0 < u.min() and u.max() <= 1.0
        assert _uniform(random.Random("uniform"), (0, 2)).shape == (0, 2)

    @pytest.mark.parametrize("sampler", [_uniform, _normal, lambda rng, shape: _gamma(rng, 0.5, shape)])
    def test_equal_keys_give_equal_draws(self, sampler):
        first, second, other = (sampler(random.Random(key), (7, 3)) for key in ("5:1:1", "5:1:1", "5:1"))
        np.testing.assert_array_equal(first, second)
        assert not np.any(first == other)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300), words_per_call=st.integers(1, 64))
    def test_chunked_draws_equal_one_getrandbits_call(self, seed, n, words_per_call):
        # The uniforms keep each word's top 53 bits, and equal states after the
        # draw show that the low bits are the same words, none skipped.
        def draws(per_call):
            rng = random.Random(seed)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(mc, "_WORDS_PER_CALL", per_call)
                found = [_uniform(rng, (n,)), _normal(rng, (n, 2)), _gamma(rng, 0.3, (n,)), _gamma(rng, 40.0, (n,))]
            return [draw.tobytes() for draw in found] + [rng.getstate()]

        words = np.frombuffer(random.Random(seed).getrandbits(64 * n).to_bytes(8 * n, "little"), "<u8")
        whole = draws(mc._WORDS_PER_CALL)  # every draw here fits one call
        assert whole[0] == (((words >> 11) + 1) * 2.0**-53).tobytes()
        assert draws(words_per_call) == whole


class TestRunSweep:
    def test_zero_noise_gives_zero_rmse(self):
        result = run_sweep(_small_config(noise_scale=0.0, trials=5))
        for row in result.rows:
            assert row.failures == 0
            assert row.combined_rmse <= 1e-9
        assert result.metadata["failures_by_error"] == "none"

    def test_deterministic_across_runs(self):
        config = _small_config()
        first = run_sweep(config)
        second = run_sweep(config)
        assert _stat_fields(first.rows) == _stat_fields(second.rows)
        buffers = []
        for result in (first, second):
            buf = io.StringIO()
            write_csv(result, buf, include_timing=False)
            buffers.append(buf.getvalue())
        assert buffers[0] == buffers[1]

    def test_no_estimator_beats_bound_beyond_noise(self):
        config = _small_config(
            deployment=reference_deployment(sigma=reference_sigma_matrix()),
            axis_values=(10, 100),
            trials=300,
            seed=7,
        )
        result = run_sweep(config)
        for row in result.rows:
            valid = row.trials - row.failures
            standard_error = row.combined_rmse / math.sqrt(2 * valid)
            assert row.combined_rmse >= row.sqrt_crlb - 3 * standard_error

    @pytest.mark.parametrize("tags", ORIGIN_LINE_TAGS.values(), ids=ORIGIN_LINE_TAGS)
    def test_tags_collinear_with_origin_reach_the_bound(self, tags):
        # Criterion 02's band for the refined methods, at T = 1000 over 10 000 moment draws.
        config = _small_config(
            deployment=Deployment(anchors=CORNER_ANCHORS, tags=tags, sigma=0.1),
            true_pose=Pose2(1.0, [10.0, 20.0]),
            axis_values=(1000,),
            trials=10_000,
            seed=20240601,
            estimators=(Method.GN_ULS, Method.GN_DAC),
        )
        for row in run_sweep(config).rows:
            assert row.failures == 0 and 0.95 <= row.combined_rmse / row.sqrt_crlb <= 1.05, row.estimator

    def test_failures_counted_not_fatal(self):
        # Fewer than 2 distinct tags fail the observability check before any
        # trial, so force failures with an observable geometry whose batches
        # occasionally degenerate: huge noise at one repetition.
        config = _small_config(
            deployment=reference_deployment(sigma=20.0),
            axis=SweepAxis.NOISE_SIGMA,
            axis_values=(20.0,),
            repeat_t=1,
            trials=50,
            estimators=(Method.GN_ULS,),
        )
        result = run_sweep(config)
        row = result.rows[0]
        assert row.failures <= row.trials
        assert row.trials == 50

    def test_tag_on_anchor_fails_only_gauss_newton(self):
        # Tag 0 lands exactly on anchor 0 (50, 0). Noiseless draws make the
        # closed forms exact, so every Gauss-Newton step meets a zero range;
        # the bound does not exist at that pose either.
        config = _small_config(true_pose=Pose2(0.0, [47.0, 0.0]), noise_scale=0.0, trials=7)
        result = run_sweep(config)
        assert result.metadata["failures_by_error"] == "; ".join(
            f"{value} {label} NearSingularityError=7"
            for value in ("5.0", "20.0")
            for label in ("gn-uls", "gn-dac")
        )
        for row in result.rows:
            assert row.trials == 7
            assert math.isnan(row.sqrt_crlb)
            if row.estimator.startswith("gn-"):
                assert row.failures == row.trials
                assert math.isnan(row.rotation_rmse) and math.isnan(row.translation_rmse)
                assert math.isnan(row.combined_rmse) and math.isnan(row.mean_time_s)
            else:
                assert row.failures == 0
                assert row.combined_rmse <= 1e-9

    def test_deployment_failure_counts_every_trial(self):
        # The first three anchors are collinear: at an anchor count of 3 the
        # linear stage of every method fails for the deployment as a whole,
        # although the bound exists; the fourth anchor makes it solvable.
        dep = Deployment(
            anchors=[[0.0, 0.0], [25.0, 0.0], [50.0, 0.0], [0.0, 50.0]], tags=BODY_TAGS, sigma=0.1
        )
        config = _small_config(
            deployment=dep, axis=SweepAxis.ANCHOR_COUNT, axis_values=(3, 4), trials=5
        )
        result = run_sweep(config)
        assert [row.failures for row in result.rows] == [5, 5, 5, 5, 0, 0, 0, 0]
        assert all(math.isfinite(row.sqrt_crlb) for row in result.rows)
        assert result.metadata["failures_by_error"] == "; ".join(
            f"3.0 {method.value} SingularSystemError=5" for method in config.estimators
        )



class TestAnchorCountSweep:
    def test_extra_anchors_sampled_in_rectangle(self):
        config = _small_config(
            axis=SweepAxis.ANCHOR_COUNT,
            axis_values=(4, 8),
            trials=10,
            repeat_t=1,
        )
        result = run_sweep(config)
        assert {row.axis_value for row in result.rows} == {4.0, 8.0}
        for row in result.rows:
            assert row.failures == 0

    def test_rmse_shrinks_with_more_anchors(self):
        config = _small_config(
            axis=SweepAxis.ANCHOR_COUNT,
            axis_values=(4, 64),
            trials=200,
            repeat_t=1,
            estimators=(Method.GN_ULS,),
            seed=3,
        )
        rows = run_sweep(config).rows
        assert rows[1].combined_rmse < rows[0].combined_rmse

    def test_nonuniform_sigma_rejected(self):
        with pytest.raises(ValueError, match="uniform sigma"):
            _small_config(
                deployment=reference_deployment(sigma=reference_sigma_matrix()),
                axis=SweepAxis.ANCHOR_COUNT,
                axis_values=(4,),
                trials=2,
            )


class TestNoiseSigmaSweep:
    def test_bound_tracks_noise_level(self):
        config = _small_config(
            axis=SweepAxis.NOISE_SIGMA,
            axis_values=(0.01, 0.1),
            repeat_t=100,
            trials=50,
            estimators=(Method.GN_ULS,),
        )
        rows = run_sweep(config).rows
        assert rows[1].sqrt_crlb == pytest.approx(10 * rows[0].sqrt_crlb, rel=1e-9)

    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_bound_at_power_of_two_sigma_scale_is_bit_identical(self, exponent):
        # Far from 1 the information matrix over- or underflows, but the bound
        # is linear in sigma; per-pair sigma, so the scale is not uniform 1.
        base, scaled = (
            run_sweep(_small_config(deployment=reference_deployment(sigma=sigma), trials=1, noise_scale=0.0)).rows
            for sigma in (reference_sigma_matrix(), np.ldexp(reference_sigma_matrix(), exponent))
        )
        assert all(math.isfinite(row.sqrt_crlb) for row in base)
        assert [math.ldexp(row.sqrt_crlb, exponent) for row in base] == [row.sqrt_crlb for row in scaled]

    def test_bound_beyond_the_float_range_is_nan(self):
        # The bound is about 1.7 sigma here: 1e308 has one, 1.7e308 none.
        config = _small_config(axis=SweepAxis.NOISE_SIGMA, axis_values=(1e308, 1.7e308), trials=1, noise_scale=0.0)
        rows = run_sweep(config).rows
        assert [math.isfinite(row.sqrt_crlb) for row in rows] == [True] * 4 + [False] * 4
        assert all(math.isnan(row.sqrt_crlb) for row in rows[4:])


class TestOutlierStress:
    """Spike robustness over the per-trial reference: every trial's ranges get
    positive spikes, then the sliding-window rejection rule (labels
    ``+filter``)."""

    def test_dac_rotation_less_robust_than_uls(self):
        config = McConfig(
            deployment=Deployment(anchors=CORNER_ANCHORS, tags=BODY_TAGS_3, sigma=0.05),
            true_pose=reference_pose(),
            axis=SweepAxis.REPEAT_T,
            axis_values=(100,),
            trials=300,
            seed=1,
            estimators=(Method.ULS, Method.DAC),
        )
        rotation = {
            label: rot
            for _, label, rot, *_ in _reference_rows(config, _stress_draws(config, spike=1.0, rate=0.05))
        }
        assert rotation["dac"] > rotation["uls"]

    def test_filter_recovers_toward_clean_accuracy(self):
        # Centimeter-level noise keeps the rejection rule's false-flag rate
        # negligible; the residual gap comes from spikes landing in the
        # never-flagged first window samples and dilutes with repetitions.
        config = McConfig(
            deployment=Deployment(anchors=CORNER_ANCHORS, tags=BODY_TAGS_3, sigma=0.02),
            true_pose=reference_pose(),
            axis=SweepAxis.REPEAT_T,
            axis_values=(1000,),
            trials=200,
            seed=2,
            estimators=(Method.ULS, Method.GN_ULS),
        )
        clean = {row.estimator: row.combined_rmse for row in run_sweep(config).rows}
        stressed = {
            label: combined
            for _, label, _, _, combined, _ in _reference_rows(
                config, _stress_draws(config, spike=1.0, rate=0.05)
            )
        }
        for name in ("uls", "gn-uls"):
            assert stressed[name + "+filter"] <= 2.0 * clean[name]


class TestCsvOutput:
    def test_format_and_round_trip(self):
        result = run_sweep(_small_config(trials=5))
        buf = io.StringIO()
        write_csv(result, buf, include_timing=True)
        text = buf.getvalue()
        lines = text.split("\r\n")
        assert lines[0] == (
            "axis_value,estimator,rotation_rmse,translation_rmse,combined_rmse,"
            "sqrt_crlb,mean_time_s,failures,trials"
        )
        assert len([line for line in lines if line]) == 1 + len(result.rows)
        first = lines[1].split(",")
        row = result.rows[0]
        assert float(first[0]) == row.axis_value
        assert first[1] == row.estimator
        assert float(first[2]) == row.rotation_rmse
        assert float(first[6]) == row.mean_time_s

    def test_timing_column_empty_when_disabled(self):
        result = run_sweep(_small_config(trials=5))
        buf = io.StringIO()
        write_csv(result, buf, include_timing=False)
        for line in buf.getvalue().split("\r\n")[1:]:
            if line:
                assert line.split(",")[6] == ""


def _trial_rng(seed, axis_index, trial):
    """Raw-draw stream of one trial, keyed by (seed, axis index, trial index)."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(axis_index, trial))
    return np.random.Generator(np.random.Philox(seq))


def _sweep_draws(config):
    """Each trial's moment slice of the draw the sweep makes at an axis value."""

    def draws(axis_index):
        dep, _, mean_d, mean_d2 = _axis_setup(config, axis_index)
        return dep, ([("", mean_d[k], mean_d2[k])] for k in range(config.trials))

    return draws


def _stress_draws(config, spike, rate, window=5, v_max=0.5, freq_hz=100.0):
    """Per trial, the moments of raw ranges with positive spikes, unlabelled,
    and of the same ranges after the sliding-window rejection rule
    (``+filter``)."""
    slack = window * v_max / freq_hz + REJECTION_BOUND_M

    def trial(dep, t_eff, rng):
        d = noisy_ranges(dep, config.true_pose, t_eff, rng, config.noise_scale)
        spiked = d + spike * (rng.random(d.shape) < rate)
        filtered = spiked.copy()
        stamps = np.arange(t_eff) / freq_hz
        for i in range(dep.num_tags):
            for m in range(dep.num_anchors):
                flags = flag_stream(filtered[i, m], window, slack)
                if flags.any():
                    filtered[i, m, flags] = np.interp(stamps[flags], stamps[~flags], filtered[i, m, ~flags])
        batches = (("", RangeBatch(dep, spiked)), ("+filter", RangeBatch(dep, filtered)))
        return [(prefix, batch.mean_d, batch.mean_d2) for prefix, batch in batches]

    def draws(axis_index):
        dep, t_eff = _axis_setup(config, axis_index)[:2]
        return dep, (trial(dep, t_eff, _trial_rng(config.seed, axis_index, k)) for k in range(config.trials))

    return draws


def _reference_rows(config, draws):
    """Per-trial reference: one K = 1 ``estimate_stacked`` call per trial,
    moment set and method, aggregated like a sweep row."""
    rows = []
    rot_true = rotation_matrix(config.true_pose.theta)
    for axis_index, value in enumerate(config.axis_values):
        dep, trials = draws(axis_index)
        errors = {}
        for moments in trials:
            for prefix, mean_d, mean_d2 in moments:
                for method in config.estimators:
                    poses = estimate_stacked(dep, mean_d[np.newaxis], mean_d2[np.newaxis], method)
                    per_trial = errors.setdefault(method.value + prefix, [])
                    if poses.status[0]:
                        per_trial.append(None)
                        continue
                    rot_sq = np.sum((rotation_matrix(poses.theta[0]) - rot_true) ** 2)
                    per_trial.append((rot_sq, np.sum((poses.t[0] - config.true_pose.t) ** 2)))
        for label, per_trial in errors.items():
            ok = [e for e in per_trial if e is not None]
            rot = math.sqrt(sum(r for r, _ in ok) / len(ok)) if ok else math.nan
            trans = math.sqrt(sum(t for _, t in ok) / len(ok)) if ok else math.nan
            failures = len(per_trial) - len(ok)
            rows.append((value, label, rot, trans, math.hypot(rot, trans), failures))
    return rows


def _assert_rows_match(rows, reference):
    assert [(r.axis_value, r.estimator, r.failures) for r in rows] == [
        (value, label, failures) for value, label, *_, failures in reference
    ]
    for row, (_, _, rot, trans, combined, _) in zip(rows, reference):
        got = (row.rotation_rmse, row.translation_rmse, row.combined_rmse)
        for value, expected in zip(got, (rot, trans, combined)):
            if math.isnan(expected):
                assert math.isnan(value)
            else:
                assert value == pytest.approx(expected, rel=1e-10, abs=0.0)


@pytest.mark.parametrize(
    "overrides, calls_per_stage",
    [
        (dict(axis_values=(1, 5, 20)), 1),
        (dict(axis=SweepAxis.NOISE_SIGMA, axis_values=(0.1, 0.3), repeat_t=5), 2),
    ],
    ids=["repeat-t", "noise-sigma"],
)
def test_four_method_sweep_runs_each_stage_once_per_deployment(monkeypatch, overrides, calls_per_stage):
    # Every value of a repeat_t axis shares one deployment; each noise level has its own.
    calls = collections.Counter()
    for name in ("stacked_uls", "stacked_dac"):

        def counted(*args, _name=name, _stage=getattr(estimators, name)):
            calls[_name] += 1
            return _stage(*args)

        monkeypatch.setattr(estimators, name, counted)
    config = _small_config(**overrides)
    assert set(config.estimators) == set(Method)
    rows = run_sweep(config).rows
    assert calls == {"stacked_uls": calls_per_stage, "stacked_dac": calls_per_stage}
    assert len(rows) == 4 * len(config.axis_values) and all(0.0 < row.mean_time_s < math.inf for row in rows)


@pytest.mark.parametrize(
    "overrides, expected",
    [
        (dict(axis_values=(1, 5, 20)), ["draw 0", "draw 1", "draw 2", "estimate"]),
        (
            dict(axis=SweepAxis.NOISE_SIGMA, axis_values=(0.1, 0.2, 0.3)),
            ["draw 0", "estimate", "draw 1", "estimate", "draw 2", "estimate"],
        ),
        (
            dict(axis=SweepAxis.ANCHOR_COUNT, axis_values=(3, 4, 6)),
            ["draw 0", "estimate", "draw 1", "estimate", "draw 2", "estimate"],
        ),
    ],
    ids=["repeat-t", "noise-sigma", "anchor-count"],
)
def test_sweep_draws_a_value_only_after_estimating_the_one_before(monkeypatch, overrides, expected):
    # A repeat_t axis is one group, estimated in one call; every value of another axis is a
    # group of its own, so a sweep holds one value's moments at a time.
    calls = []
    setup, estimate = mc._axis_setup, mc.estimate_methods

    def logged_setup(config, axis_index):
        calls.append(f"draw {axis_index}")
        return setup(config, axis_index)

    def logged_estimate(*args):
        calls.append("estimate")
        return estimate(*args)

    monkeypatch.setattr(mc, "_axis_setup", logged_setup)
    monkeypatch.setattr(mc, "estimate_methods", logged_estimate)
    run_sweep(_small_config(trials=5, **overrides))
    assert calls == expected


def test_result_is_read_only():
    result = run_sweep(_small_config(trials=5))
    assert isinstance(result.rows, tuple)
    with pytest.raises(TypeError):
        result.metadata["axis"] = "anchor_count"


@pytest.mark.parametrize("copy_of", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy])
def test_result_pickles_and_copies_read_only(copy_of):
    result = run_sweep(_small_config(trials=5))
    other = copy_of(result)
    assert type(other) is McResult and other is not result
    assert other == result
    with pytest.raises(TypeError):
        other.metadata["axis"] = "anchor_count"


def _without_times(rows):
    """``repr`` of the rows without ``mean_time_s``: equal strings mean equal
    floats bit for bit, NaN included."""
    return repr([row._replace(mean_time_s=None) for row in rows])


@pytest.mark.parametrize(
    "overrides",
    [
        dict(axis_values=(1, 5, 20)),
        dict(axis=SweepAxis.NOISE_SIGMA, axis_values=(0.05, 0.2, 1.0), repeat_t=3),
        dict(axis=SweepAxis.ANCHOR_COUNT, axis_values=(3, 5), repeat_t=10),
        dict(true_pose=Pose2(0.0, [47.0, 0.0]), noise_scale=0.0, axis_values=(1, 10)),
    ],
    ids=["repeat-t", "noise-sigma", "anchor-count", "tag-on-anchor"],
)
def test_stacked_rows_equal_each_value_estimated_alone(overrides):
    config = _small_config(**{"trials": 30, "seed": 7, **overrides})
    result = run_sweep(config)
    # Each value alone: its _axis_setup moments through one estimate_methods call.
    alone = [_run_axes(config, [(i, *_axis_setup(config, i))]) for i in range(len(config.axis_values))]
    assert _without_times(result.rows) == _without_times([row for rows, _ in alone for row in rows])
    assert result.metadata["failures_by_error"] == ("; ".join(entry for _, entries in alone for entry in entries) or "none")


def test_stacked_rows_equal_each_value_alone_when_the_stage_raises():
    # Collinear anchors pass the config checks but fail both linear stages;
    # observability is checked by run_sweep only, so the rows are built directly.
    config = _small_config(axis_values=(1, 5), trials=10)
    dep = Deployment(anchors=COLLINEAR_ANCHORS, tags=BODY_TAGS, sigma=0.1)
    config = dataclasses.replace(config, deployment=dep)
    setups = [(i, *_axis_setup(config, i)) for i in range(2)]
    stacked_rows, stacked_failures = _run_axes(config, setups)
    alone = [_run_axes(config, [setup]) for setup in setups]
    assert _without_times(stacked_rows) == _without_times([row for rows, _ in alone for row in rows])
    assert stacked_failures == [entry for _, entries in alone for entry in entries]
    assert stacked_failures[0] == "1.0 uls SingularSystemError=10"
    assert all(row.failures == 10 for row in stacked_rows)


class TestStackedMatchesPerTrialLoop:
    """Sweeps estimate every trial of the axis values that share a deployment
    in one stacked call; each row must equal a loop of one K = 1 call per
    trial on that trial's moment slice of the same draw."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(deployment=reference_deployment(sigma=0.1, dh=0.7)),
            dict(true_pose=Pose2(0.0, [47.0, 0.0]), noise_scale=0.0),
            dict(
                deployment=reference_deployment(sigma=0.1, dh=0.7),
                axis=SweepAxis.ANCHOR_COUNT,
                axis_values=(3, 5),
                repeat_t=10,
            ),
        ],
        ids=["noisy", "tag-on-anchor", "anchor-count"],
    )
    def test_run_sweep(self, overrides):
        config = _small_config(**{"axis_values": (1, 10), "trials": 25, "seed": 31, **overrides})
        rows = run_sweep(config).rows
        _assert_rows_match(rows, _reference_rows(config, _sweep_draws(config)))

    def test_noise_is_not_the_anchor_placement_stream(self):
        # Two extra anchors come from the stream (seed, axis index); the
        # noise of the same axis value must come from another stream.
        config = _small_config(axis=SweepAxis.ANCHOR_COUNT, axis_values=(5,), repeat_t=10, trials=25, seed=31)
        dep, t_eff, mean_d, _ = _axis_setup(config, 0)
        anchor_stream = random.Random(f"{config.seed}:0")
        (x0, y0), (x1, y1) = config.anchor_rect
        placed = np.array([x0, y0]) + np.array([x1 - x0, y1 - y0]) * (1.0 - _uniform(anchor_stream, (2, 2)))
        np.testing.assert_array_equal(dep.anchors[3:], placed)

        z = (mean_d - predicted_ranges(dep, config.true_pose)) * math.sqrt(t_eff) / dep.sigma
        np.testing.assert_allclose(z, _normal(random.Random(f"{config.seed}:0:1"), z.shape), rtol=0, atol=1e-9)
        for reused in (_normal(random.Random(f"{config.seed}:0"), z.shape), _normal(anchor_stream, z.shape)):
            assert not np.allclose(z, reused, rtol=0, atol=1e-3)
