"""Divide-and-conquer estimator: tag localization and the pose fit."""

import math

import numpy as np
import pytest

from uwbpose.core import Deployment, Method, Pose2, rotation_matrix
from uwbpose.dac import stacked_fit_poses, stacked_localize_tags
from uwbpose.errors import SingularSystemError, Status
from uwbpose.estimators import estimate

from helpers import (
    BODY_TAGS,
    COLLINEAR_ANCHORS,
    noiseless_batch,
    noisy_batch,
    one_gn_step,
    reference_deployment,
    reference_pose,
)


def _localize(batch):
    """Global fix of every tag of one batch, shape (N, 2)."""
    return stacked_localize_tags(batch.deployment, batch.mean_d2[np.newaxis])[0]


def _fit(fixes, tags):
    """Rigid fit of one problem's (N, 2) fixes to its body-frame tags."""
    fit = stacked_fit_poses(np.asarray(fixes, dtype=float)[np.newaxis], np.asarray(tags, dtype=float))
    assert fit.status[0] == Status.OK
    return Pose2(fit.theta[0], fit.t[0])


class TestLocalizeTag:
    def test_noiseless_exact(self):
        dep = reference_deployment()
        pose = reference_pose()
        fixes = _localize(noiseless_batch(dep, pose))
        expected = pose.transform(dep.tags)
        for i in range(dep.num_tags):
            np.testing.assert_allclose(fixes[i], expected[i], atol=1e-9)

    def test_collinear_anchors_raise(self):
        dep = Deployment(anchors=COLLINEAR_ANCHORS, tags=BODY_TAGS, sigma=0.1)
        batch = noiseless_batch(dep, reference_pose())
        with pytest.raises(SingularSystemError):
            _localize(batch)

    def test_error_within_monte_carlo_bound(self):
        dep = reference_deployment(sigma=0.1)
        pose = reference_pose()
        truth = pose.transform(dep.tags)[1]
        rng = np.random.default_rng(51)
        errors = []
        for _ in range(200):
            batch = noisy_batch(dep, pose, 10_000, rng)
            errors.append(np.sum((_localize(batch)[1] - truth) ** 2))
        rmse = math.sqrt(float(np.mean(errors)))
        fresh = _localize(noisy_batch(dep, pose, 10_000, rng))[1]
        assert np.linalg.norm(fresh - truth) < 5.0 * rmse

    def test_localize_tags_collects_all(self):
        dep = reference_deployment()
        pose = reference_pose()
        fixes = _localize(noiseless_batch(dep, pose))
        assert fixes.shape == (dep.num_tags, 2)
        np.testing.assert_allclose(fixes, pose.transform(dep.tags), atol=1e-9)


class TestFitPoseFromFixes:
    def test_exact_fixes_recover_pose(self):
        pose = reference_pose()
        fixes = pose.transform(BODY_TAGS)
        fitted = _fit(fixes, BODY_TAGS)
        assert abs(fitted.theta - pose.theta) <= 1e-9
        np.testing.assert_allclose(fitted.t, pose.t, atol=1e-9)

    def test_common_offset_moves_translation_only(self):
        pose = reference_pose()
        offset = np.array([0.37, -0.81])
        fixes = pose.transform(BODY_TAGS) + offset
        fitted = _fit(fixes, BODY_TAGS)
        assert abs(fitted.theta - pose.theta) <= 1e-9
        np.testing.assert_allclose(fitted.t, pose.t + offset, atol=1e-9)

    def test_beats_random_candidates(self):
        rng = np.random.default_rng(52)
        tags = np.array([[3.0, 0.0], [3.0, 3.0], [0.0, 3.0]])
        fixes = rng.uniform(-10, 10, size=(3, 2))
        fitted = _fit(fixes, tags)

        def objective(rot, t):
            return float(np.sum((fixes - tags @ rot.T - t) ** 2))

        # The returned pose solves the constrained problem; compare on SO(2).
        fitted_cost = objective(rotation_matrix(fitted.theta), fitted.t)
        for _ in range(10_000):
            rot = rotation_matrix(rng.uniform(0, 2 * math.pi))
            t = rng.uniform(-12, 12, size=2)
            assert fitted_cost <= objective(rot, t) + 1e-9

    def test_rotating_fixes_rotates_pose(self):
        rng = np.random.default_rng(53)
        tags = np.array([[3.0, 0.0], [3.0, 3.0], [0.0, 3.0]])
        fixes = rng.uniform(-10, 10, size=(3, 2))
        base = _fit(fixes, tags)
        for theta in rng.uniform(0, 2 * math.pi, size=10):
            q = rotation_matrix(theta)
            turned = _fit(fixes @ q.T, tags)
            np.testing.assert_allclose(rotation_matrix(turned.theta), q @ rotation_matrix(base.theta), atol=1e-9)
            np.testing.assert_allclose(turned.t, q @ base.t, atol=1e-9)

    @pytest.mark.parametrize("tags", [[[1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]], ids=["single", "coincident"])
    def test_tags_that_cannot_fix_a_rotation_give_degenerate_projection(self, tags):
        rng = np.random.default_rng(54)
        fixes = rng.uniform(-10, 10, size=(3, len(tags), 2))
        fit = stacked_fit_poses(fixes, np.array(tags))
        np.testing.assert_array_equal(fit.status, Status.DEGENERATE_PROJECTION)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fixes_that_overflow_give_overflow(self):
        # An infinite fix, and finite fixes whose spread overflows the cross-covariance.
        tags = np.array([[3.0, 0.0], [3.0, 3.0], [0.0, 3.0]])
        fixes = np.array([[[np.inf, 0.0], [1.0, 1.0], [2.0, 0.0]],
                          [[1.7e308, 0.0], [-1.7e308, 1.0], [2.0, 0.0]],
                          [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]])
        np.testing.assert_array_equal(stacked_fit_poses(fixes, tags).status, [Status.OVERFLOW] * 2 + [Status.OK])

    def test_accepts_localize_tags_output(self):
        dep = reference_deployment(dh=0.8)
        pose = reference_pose()
        fitted = _fit(_localize(noiseless_batch(dep, pose)), dep.tags)
        assert abs(fitted.theta - pose.theta) <= 1e-9
        np.testing.assert_allclose(fitted.t, pose.t, atol=1e-9)


class TestEstimateDac:
    def test_noiseless_exact(self):
        pose = reference_pose()
        estimated = estimate(noiseless_batch(reference_deployment(), pose), Method.DAC)
        assert abs(estimated.theta - pose.theta) <= 1e-9
        np.testing.assert_allclose(estimated.t, pose.t, atol=1e-9)

    def test_refined_variant_applies_gn_step(self):
        rng = np.random.default_rng(54)
        batch = noisy_batch(reference_deployment(sigma=0.1), reference_pose(), 50, rng)
        plain = estimate(batch, Method.DAC)
        refined = estimate(batch, Method.GN_DAC)
        expected = one_gn_step(batch, plain)
        assert abs(refined.theta - expected.theta) <= 1e-12
        np.testing.assert_allclose(refined.t, expected.t, atol=1e-12)

    def test_refined_dac_matches_refined_uls_accuracy(self):
        from uwbpose.mc import McConfig, SweepAxis, run_sweep

        from helpers import reference_sigma_matrix

        config = McConfig(
            deployment=reference_deployment(sigma=reference_sigma_matrix()),
            true_pose=reference_pose(),
            axis=SweepAxis.REPEAT_T,
            axis_values=(1000,),
            trials=1000,
            seed=56,
            estimators=(Method.GN_ULS, Method.GN_DAC),
        )
        rows = {row.estimator: row.combined_rmse for row in run_sweep(config).rows}
        assert abs(rows["gn-dac"] / rows["gn-uls"] - 1.0) <= 0.1

    def test_consistency_rmse_halves_when_t_quadruples(self):
        rng = np.random.default_rng(55)
        dep = reference_deployment(sigma=0.1)
        pose = reference_pose()
        rmse = {}
        for repeat_t in (50, 200):
            total = 0.0
            trials = 1000
            for _ in range(trials):
                estimated = estimate(noisy_batch(dep, pose, repeat_t, rng), Method.DAC)
                total += float(
                    np.sum((rotation_matrix(estimated.theta) - rotation_matrix(pose.theta)) ** 2)
                    + np.sum((estimated.t - pose.t) ** 2)
                )
            rmse[repeat_t] = math.sqrt(total / trials)
        assert 0.4 <= rmse[200] / rmse[50] <= 0.6
