"""One-step Gauss-Newton refinement: Jacobian, fixed point, ML closeness."""

import math

import numpy as np
import pytest

from uwbpose.core import Deployment, Pose2, RangeBatch, ml_cost, predicted_ranges
from uwbpose.errors import DegenerateGeometryError, NearSingularityError
from uwbpose.gnrefine import build_gn_workspace, estimate_gn_uls, gn_step
from uwbpose.linstage import estimate_uls

from helpers import (
    noiseless_batch,
    noisy_batch,
    random_observable_deployment,
    random_pose,
    reference_deployment,
    reference_pose,
)
from ml_oracle import ml_reference_pose


def _pose_distance(a: Pose2, b: Pose2) -> float:
    return math.sqrt(
        float(np.sum((a.rotation - b.rotation) ** 2) + np.sum((a.t - b.t) ** 2))
    )


def _fd_jacobian(batch, pose, step=1e-6):
    """Central differences of the predicted ranges in (theta, t), one row per pair."""

    def predict(theta, t):
        shifted = Pose2(theta, t)
        return predicted_ranges(batch.deployment, shifted).reshape(-1)

    columns = []
    for p in range(3):
        d_theta = step if p == 0 else 0.0
        d_t = np.zeros(2)
        if p > 0:
            d_t[p - 1] = step
        plus = predict(pose.theta + d_theta, pose.t + d_t)
        minus = predict(pose.theta - d_theta, pose.t - d_t)
        columns.append((plus - minus) / (2 * step))
    return np.column_stack(columns)


class TestJacobian:
    @pytest.mark.parametrize("with_height", [False, True])
    def test_matches_central_differences(self, with_height):
        rng = np.random.default_rng(41)
        for _ in range(100):
            dep = random_observable_deployment(rng)
            if with_height:
                dep = Deployment(
                    anchors=dep.anchors,
                    tags=dep.tags,
                    sigma=dep.sigma,
                    dh=rng.uniform(0.2, 2.0, size=dep.sigma.shape),
                )
            pose = random_pose(rng)
            batch = noisy_batch(dep, pose, 1, rng)
            init = Pose2(pose.theta + rng.normal(0, 0.05), pose.t + rng.normal(0, 0.2, 2))
            ws = build_gn_workspace(batch, init)
            fd = _fd_jacobian(batch, init)
            row_err = np.linalg.norm(ws.jacobian - fd, axis=1)
            row_scale = np.maximum(np.linalg.norm(fd, axis=1), 1.0)
            assert np.max(row_err / row_scale) <= 1e-6

    def test_rows_align_with_predicted_ranges(self):
        rng = np.random.default_rng(47)
        dep = reference_deployment(
            sigma=rng.uniform(0.05, 0.3, size=(2, 3)), dh=rng.uniform(0.2, 2.0, size=(2, 3))
        )
        pose = reference_pose()
        batch = noiseless_batch(dep, pose, repeat_t=3)
        ws = build_gn_workspace(batch, pose)
        pairs = dep.num_tags * dep.num_anchors
        assert ws.jacobian.shape == (pairs, 3)
        assert ws.predicted.shape == ws.weights.shape == (pairs,)
        expected = predicted_ranges(dep, pose)
        for i in range(dep.num_tags):
            for m in range(dep.num_anchors):
                row = i * dep.num_anchors + m
                assert ws.predicted[row] == pytest.approx(expected[i, m], rel=1e-14)
                assert ws.weights[row] == pytest.approx(1.0 / dep.sigma[i, m] ** 2, rel=1e-14)


class TestGnStep:
    def test_fixed_point_at_truth(self):
        pose = reference_pose()
        batch = noiseless_batch(reference_deployment(), pose, repeat_t=5)
        refined = gn_step(batch, pose)
        assert abs(refined.theta - pose.theta) <= 1e-12
        np.testing.assert_allclose(refined.t, pose.t, atol=1e-12)

    def test_common_sigma_scaling_cancels(self):
        rng = np.random.default_rng(42)
        dep = reference_deployment(sigma=rng.uniform(0.05, 0.3, size=(2, 3)))
        pose = reference_pose()
        batch = noisy_batch(dep, pose, 30, rng)
        init = estimate_uls(batch).pose
        refined = gn_step(batch, init)
        dep_scaled = Deployment(
            anchors=dep.anchors, tags=dep.tags, sigma=7.3 * dep.sigma, dh=dep.dh
        )
        refined_scaled = gn_step(RangeBatch(dep_scaled, batch.repeat_t, batch.d), init)
        assert abs(refined.theta - refined_scaled.theta) <= 1e-12
        np.testing.assert_allclose(refined.t, refined_scaled.t, atol=1e-12)

    def test_cost_decreases_in_nearly_all_trials(self):
        rng = np.random.default_rng(43)
        dep = reference_deployment(sigma=0.1)
        pose = reference_pose()
        improved = 0
        trials = 1000
        for _ in range(trials):
            batch = noisy_batch(dep, pose, 100, rng)
            init = estimate_uls(batch).pose
            refined = gn_step(batch, init)
            before = ml_cost(batch, init)
            after = ml_cost(batch, refined)
            if after <= before * (1 + 1e-12):
                improved += 1
        assert improved >= 0.99 * trials

    def test_proximity_floor_names_offender(self):
        dep = Deployment(
            anchors=[[5.0, 5.0], [20.0, 0.0], [0.0, 20.0]],
            tags=[[5.0, 5.0], [1.0, 0.0]],
            sigma=0.1,
        )
        pose = Pose2(0.0, [0.0, 0.0])  # tag 0 lands exactly on anchor 0
        d = np.maximum(predicted_ranges(dep, pose), 1e-3)[:, :, None]
        with pytest.raises(NearSingularityError) as excinfo:
            gn_step(RangeBatch(dep, 1, d), pose)
        assert excinfo.value.tag_index == 0
        assert excinfo.value.anchor_index == 0

    def test_degenerate_geometry_raises(self):
        dep = Deployment(anchors=[[10.0, 0.0]], tags=[[1.0, 0.0]], sigma=0.1)
        pose = Pose2(0.0, [0.0, 0.0])
        batch = noiseless_batch(dep, pose, repeat_t=5)
        with pytest.raises(DegenerateGeometryError):
            gn_step(batch, pose)


class TestAgainstMlOracle:
    def test_small_instance_dominates_initial_estimate(self):
        # M_T = 6 (three anchors ranged twice), N = 2.
        rng = np.random.default_rng(44)
        dep = reference_deployment(sigma=0.2)
        pose = reference_pose()
        gn_gaps, uls_gaps = [], []
        for _ in range(200):
            batch = noisy_batch(dep, pose, 2, rng)
            uls_pose = estimate_uls(batch).pose
            gn_pose = gn_step(batch, uls_pose)
            ml_pose = ml_reference_pose(batch)
            gn_gaps.append(_pose_distance(gn_pose, ml_pose))
            uls_gaps.append(_pose_distance(uls_pose, ml_pose))
        assert np.mean(gn_gaps) <= 0.1 * np.mean(uls_gaps)


class TestEstimateGnUls:
    def test_noiseless_exact(self):
        pose = reference_pose()
        report = estimate_gn_uls(noiseless_batch(reference_deployment(), pose))
        assert report.method.value == "gn-uls"
        assert abs(report.pose.theta - pose.theta) <= 1e-9
        np.testing.assert_allclose(report.pose.t, pose.t, atol=1e-9)
        assert set(report.timings_us) == {"linstage_us", "gn_us"}

    def test_refinement_does_not_exceed_initial_cost(self):
        rng = np.random.default_rng(45)
        batch = noisy_batch(reference_deployment(sigma=0.1), reference_pose(), 200, rng)
        uls = estimate_uls(batch)
        gn = estimate_gn_uls(batch)
        assert gn.residual_cost <= uls.residual_cost * (1 + 1e-12)

    def test_runtime_scales_like_measurement_count(self):
        # The O(n) work is the moment pass in RangeBatch construction and
        # the residual objective, so construction is timed with the estimate.
        # Below a few 1e5 measurements the fixed per-call cost (small solves,
        # Python overhead) outweighs it, so the sizes are n = 300000 and
        # 600000. Interleaved medians: wall-clock noise and allocator warm-up
        # would otherwise swamp the doubling comparison.
        import time

        rng = np.random.default_rng(46)
        dep = reference_deployment(sigma=0.1)
        pose = reference_pose()
        small = noisy_batch(dep, pose, 50_000, rng).d
        large = noisy_batch(dep, pose, 100_000, rng).d

        def construct_and_estimate(d):
            estimate_gn_uls(RangeBatch(dep, d.shape[2], d))

        for _ in range(5):
            construct_and_estimate(small)
            construct_and_estimate(large)
        t_small, t_large = [], []
        for _ in range(30):
            start = time.perf_counter()
            construct_and_estimate(small)
            t_small.append(time.perf_counter() - start)
            start = time.perf_counter()
            construct_and_estimate(large)
            t_large.append(time.perf_counter() - start)
        ratio = float(np.median(t_large)) / float(np.median(t_small))
        assert 1.5 <= ratio <= 3.0
