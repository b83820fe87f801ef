"""Divide-and-conquer estimator: tag localization and the pose fit."""

import math

import numpy as np
import pytest

from uwbpose.core import Deployment, rotation_matrix
from uwbpose.dac import estimate_dac, fit_pose_from_fixes, localize_tags
from uwbpose.errors import DegenerateGeometryError, SingularSystemError
from uwbpose.gnrefine import gn_step

from helpers import (
    BODY_TAGS,
    COLLINEAR_ANCHORS,
    noiseless_batch,
    noisy_batch,
    reference_deployment,
    reference_pose,
)


class TestLocalizeTag:
    def test_noiseless_exact(self):
        dep = reference_deployment()
        pose = reference_pose()
        fixes = localize_tags(noiseless_batch(dep, pose))
        expected = pose.transform(dep.tags)
        for i in range(dep.num_tags):
            np.testing.assert_allclose(fixes[i], expected[i], atol=1e-9)

    def test_collinear_anchors_raise(self):
        dep = Deployment(anchors=COLLINEAR_ANCHORS, tags=BODY_TAGS, sigma=0.1)
        batch = noiseless_batch(dep, reference_pose())
        with pytest.raises(SingularSystemError):
            localize_tags(batch)

    def test_error_within_monte_carlo_bound(self):
        dep = reference_deployment(sigma=0.1)
        pose = reference_pose()
        truth = pose.transform(dep.tags)[1]
        rng = np.random.default_rng(51)
        errors = []
        for _ in range(200):
            batch = noisy_batch(dep, pose, 10_000, rng)
            errors.append(np.sum((localize_tags(batch)[1] - truth) ** 2))
        rmse = math.sqrt(float(np.mean(errors)))
        fresh = localize_tags(noisy_batch(dep, pose, 10_000, rng))[1]
        assert np.linalg.norm(fresh - truth) < 5.0 * rmse

    def test_localize_tags_collects_all(self):
        dep = reference_deployment()
        pose = reference_pose()
        fixes = localize_tags(noiseless_batch(dep, pose))
        assert fixes.shape == (dep.num_tags, 2)
        np.testing.assert_allclose(fixes, pose.transform(dep.tags), atol=1e-9)


class TestFitPoseFromFixes:
    def test_exact_fixes_recover_pose(self):
        pose = reference_pose()
        fixes = pose.transform(BODY_TAGS)
        fitted = fit_pose_from_fixes(fixes, BODY_TAGS)
        assert abs(fitted.theta - pose.theta) <= 1e-9
        np.testing.assert_allclose(fitted.t, pose.t, atol=1e-9)

    def test_common_offset_moves_translation_only(self):
        pose = reference_pose()
        offset = np.array([0.37, -0.81])
        fixes = pose.transform(BODY_TAGS) + offset
        fitted = fit_pose_from_fixes(fixes, BODY_TAGS)
        assert abs(fitted.theta - pose.theta) <= 1e-9
        np.testing.assert_allclose(fitted.t, pose.t + offset, atol=1e-9)

    def test_beats_random_candidates(self):
        rng = np.random.default_rng(52)
        tags = np.array([[3.0, 0.0], [3.0, 3.0], [0.0, 3.0]])
        fixes = rng.uniform(-10, 10, size=(3, 2))
        fitted = fit_pose_from_fixes(fixes, tags)

        def objective(rot, t):
            return float(np.sum((fixes - tags @ rot.T - t) ** 2))

        # The returned pose solves the constrained problem; compare on SO(2).
        fitted_cost = objective(fitted.rotation, fitted.t)
        for _ in range(10_000):
            rot = rotation_matrix(rng.uniform(0, 2 * math.pi))
            t = rng.uniform(-12, 12, size=2)
            assert fitted_cost <= objective(rot, t) + 1e-9

    def test_rotating_fixes_rotates_pose(self):
        rng = np.random.default_rng(53)
        tags = np.array([[3.0, 0.0], [3.0, 3.0], [0.0, 3.0]])
        fixes = rng.uniform(-10, 10, size=(3, 2))
        base = fit_pose_from_fixes(fixes, tags)
        for theta in rng.uniform(0, 2 * math.pi, size=10):
            q = rotation_matrix(theta)
            turned = fit_pose_from_fixes(fixes @ q.T, tags)
            np.testing.assert_allclose(turned.rotation, q @ base.rotation, atol=1e-9)
            np.testing.assert_allclose(turned.t, q @ base.t, atol=1e-9)

    def test_degenerate_tags_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            fit_pose_from_fixes(np.zeros((2, 2)), [[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(DegenerateGeometryError):
            fit_pose_from_fixes(np.zeros((1, 2)), [[1.0, 1.0]])

    def test_accepts_localize_tags_output(self):
        dep = reference_deployment(dh=0.8)
        pose = reference_pose()
        fitted = fit_pose_from_fixes(localize_tags(noiseless_batch(dep, pose)), dep.tags)
        assert abs(fitted.theta - pose.theta) <= 1e-9
        np.testing.assert_allclose(fitted.t, pose.t, atol=1e-9)


class TestEstimateDac:
    def test_noiseless_exact(self):
        pose = reference_pose()
        report = estimate_dac(noiseless_batch(reference_deployment(), pose))
        assert report.method.value == "dac"
        assert abs(report.pose.theta - pose.theta) <= 1e-9
        np.testing.assert_allclose(report.pose.t, pose.t, atol=1e-9)

    def test_refined_variant_applies_gn_step(self):
        rng = np.random.default_rng(54)
        batch = noisy_batch(reference_deployment(sigma=0.1), reference_pose(), 50, rng)
        plain = estimate_dac(batch, refine=False)
        refined = estimate_dac(batch, refine=True)
        assert refined.method.value == "gn-dac"
        expected = gn_step(batch, plain.pose)
        assert abs(refined.pose.theta - expected.theta) <= 1e-12
        np.testing.assert_allclose(refined.pose.t, expected.t, atol=1e-12)
        assert "gn_us" in refined.timings_us

    def test_refined_dac_matches_refined_uls_accuracy(self):
        from uwbpose.mc import McConfig, SweepAxis, run_sweep
        from uwbpose.core import Method

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
                report = estimate_dac(noisy_batch(dep, pose, repeat_t, rng))
                total += float(
                    np.sum((report.pose.rotation - pose.rotation) ** 2)
                    + np.sum((report.pose.t - pose.t) ** 2)
                )
            rmse[repeat_t] = math.sqrt(total / trials)
        assert 0.4 <= rmse[200] / rmse[50] <= 0.6
