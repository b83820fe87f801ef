"""Projected squared-range system, linear solve, and SO(2) projection."""

import math

import numpy as np
import pytest

from uwbpose.core import Deployment, Pose2, RangeBatch, rotation_matrix
from uwbpose.errors import (
    DegenerateProjectionError,
    SingularSystemError,
    UnderdeterminedDeploymentError,
)
from uwbpose.linstage import (
    GAMMA,
    build_linear_system,
    estimate_uls,
    project_so2,
    projected_squared_ranges,
    rotation_from_y,
    solve_uls,
)

from helpers import (
    BODY_TAGS,
    COLLINEAR_ANCHORS,
    CORNER_ANCHORS,
    noiseless_batch,
    noisy_batch,
    reference_deployment,
    reference_pose,
)


class TestProjector:
    """The all-ones projector, applied implicitly by centering per tag."""

    def _batch(self):
        rng = np.random.default_rng(24)
        shape = (2, 3)
        dep = reference_deployment(
            sigma=rng.uniform(0.05, 0.3, size=shape), dh=rng.uniform(0.0, 1.0, size=shape)
        )
        return noisy_batch(dep, reference_pose(), 7, rng)

    def test_annihilates_ones(self):
        batch = self._batch()
        system = build_linear_system(batch)
        blocks_h = system.h.reshape(2, 3, 4)
        blocks_d = system.dbar.reshape(2, 3)
        np.testing.assert_allclose(blocks_h.sum(axis=1), 0.0, atol=1e-12 * np.abs(blocks_h).max())
        np.testing.assert_allclose(blocks_d.sum(axis=1), 0.0, atol=1e-12 * np.abs(blocks_d).max())

    def test_matches_explicit_projector(self):
        batch = self._batch()
        dep = batch.deployment
        proj = np.eye(3) - np.full((3, 3), 1.0 / 3)
        raw = np.mean(batch.d**2, axis=2) - np.sum(dep.anchors**2, axis=1) - dep.sigma**2 - dep.dh**2
        np.testing.assert_allclose(projected_squared_ranges(batch), raw @ proj, rtol=0, atol=1e-9)


class TestBuildLinearSystem:
    def test_gamma_reproduces_rotation_stacking(self):
        for theta in (0.0, 0.4, 2.8):
            y = np.array([math.sin(theta), math.cos(theta)])
            np.testing.assert_allclose(rotation_from_y(y), rotation_matrix(theta), atol=1e-15)

    def test_full_rank_on_reference_geometry(self):
        batch = noiseless_batch(reference_deployment(), reference_pose())
        system = build_linear_system(batch)
        assert system.h.shape == (6, 4)
        svals = np.linalg.svd(system.h, compute_uv=False)
        assert np.linalg.matrix_rank(system.h) == 4
        assert svals[-1] > 1e-6 * svals[0]

    def test_rank_deficient_for_collinear_anchors(self):
        dep = Deployment(anchors=COLLINEAR_ANCHORS, tags=BODY_TAGS, sigma=0.1)
        batch = noiseless_batch(dep, reference_pose())
        system = build_linear_system(batch)
        assert np.linalg.matrix_rank(system.h) < 4

    def test_requires_three_effective_anchors(self):
        dep = Deployment(anchors=CORNER_ANCHORS[:2], tags=BODY_TAGS, sigma=0.1)
        with pytest.raises(UnderdeterminedDeploymentError):
            build_linear_system(noiseless_batch(dep, reference_pose()))

    def test_repeats_count_as_anchors(self):
        dep = Deployment(anchors=CORNER_ANCHORS[:2], tags=BODY_TAGS, sigma=0.1)
        batch = noiseless_batch(dep, reference_pose(), repeat_t=2)
        assert build_linear_system(batch).m_t == 4

    def test_consistency_with_truth_noiseless(self):
        pose = reference_pose()
        batch = noiseless_batch(reference_deployment(sigma=0.7), pose)
        system = build_linear_system(batch)
        x_true = np.concatenate([[math.sin(pose.theta), math.cos(pose.theta)], pose.t])
        np.testing.assert_allclose(system.h @ x_true, system.dbar, atol=1e-8)


class TestSolveUls:
    def test_noiseless_reference_exact(self):
        pose = reference_pose()
        y, t = solve_uls(build_linear_system(noiseless_batch(reference_deployment(), pose)))
        np.testing.assert_allclose(y, [math.sin(pose.theta), math.cos(pose.theta)], atol=1e-9)
        np.testing.assert_allclose(t, [0.0, 25.0], atol=1e-9)

    def test_noiseless_identity_pose(self):
        pose = Pose2(0.0, [0.0, 0.0])
        y, t = solve_uls(build_linear_system(noiseless_batch(reference_deployment(), pose)))
        np.testing.assert_allclose(y, [0.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(t, [0.0, 0.0], atol=1e-9)

    def test_residual_orthogonal_to_design(self):
        rng = np.random.default_rng(21)
        batch = noisy_batch(reference_deployment(), reference_pose(), 50, rng)
        system = build_linear_system(batch)
        y, t = solve_uls(system)
        residual = system.dbar - system.h @ np.concatenate([y, t])
        assert np.max(np.abs(system.h.T @ residual)) <= 1e-8 * np.linalg.norm(system.dbar)

    def test_collinear_raises_with_rank(self):
        dep = Deployment(anchors=COLLINEAR_ANCHORS, tags=BODY_TAGS, sigma=0.1)
        with pytest.raises(SingularSystemError) as excinfo:
            solve_uls(build_linear_system(noiseless_batch(dep, reference_pose())))
        assert excinfo.value.rank < 4

    def test_reordering_anchors_leaves_solution(self):
        rng = np.random.default_rng(22)
        dep = reference_deployment(sigma=rng.uniform(0.05, 0.3, size=(2, 3)))
        pose = reference_pose()
        batch = noisy_batch(dep, pose, 20, rng)
        y0, t0 = solve_uls(build_linear_system(batch))
        perm = np.array([2, 0, 1])
        dep_p = Deployment(
            anchors=dep.anchors[perm], tags=dep.tags, sigma=dep.sigma[:, perm], dh=dep.dh[:, perm]
        )
        batch_p = RangeBatch(dep_p, batch.repeat_t, batch.d[:, perm, :])
        y1, t1 = solve_uls(build_linear_system(batch_p))
        np.testing.assert_allclose(y0, y1, atol=1e-9)
        np.testing.assert_allclose(t0, t1, atol=1e-9)

    def test_reordering_tags_leaves_solution(self):
        rng = np.random.default_rng(23)
        dep = reference_deployment(sigma=rng.uniform(0.05, 0.3, size=(2, 3)))
        pose = reference_pose()
        batch = noisy_batch(dep, pose, 20, rng)
        y0, t0 = solve_uls(build_linear_system(batch))
        perm = np.array([1, 0])
        dep_p = Deployment(
            anchors=dep.anchors, tags=dep.tags[perm], sigma=dep.sigma[perm], dh=dep.dh[perm]
        )
        batch_p = RangeBatch(dep_p, batch.repeat_t, batch.d[perm])
        y1, t1 = solve_uls(build_linear_system(batch_p))
        np.testing.assert_allclose(y0, y1, atol=1e-9)
        np.testing.assert_allclose(t0, t1, atol=1e-9)

    def test_uniform_sigma_error_is_annihilated_varying_is_not(self):
        # A uniformly wrong sigma lands in the span the projector removes; a
        # per-anchor wrong sigma leaves a bias. Documents solver behavior
        # under a mis-specified noise level.
        pose = reference_pose()
        dep_right = reference_deployment(sigma=0.1)
        batch = noiseless_batch(dep_right, pose)
        dep_uniform_wrong = reference_deployment(sigma=0.5)
        y_u, t_u = solve_uls(
            build_linear_system(RangeBatch(dep_uniform_wrong, 1, batch.d))
        )
        np.testing.assert_allclose(t_u, pose.t, atol=1e-9)
        dep_varying_wrong = reference_deployment(sigma=[0.1, 0.5, 1.0])
        y_v, t_v = solve_uls(
            build_linear_system(RangeBatch(dep_varying_wrong, 1, batch.d))
        )
        assert np.linalg.norm(t_v - pose.t) > 1e-6


class TestProjectSo2:
    def test_identity_on_rotations(self):
        rng = np.random.default_rng(31)
        for theta in rng.uniform(0, 2 * math.pi, size=50):
            assert project_so2(rotation_matrix(theta)) == pytest.approx(theta, abs=1e-12)

    def test_positive_scaling_preserved(self):
        assert project_so2(2.5 * rotation_matrix(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_grid_oracle(self):
        rng = np.random.default_rng(32)
        grid = np.arange(100_000) * (2 * math.pi / 100_000)
        cos_g, sin_g = np.cos(grid), np.sin(grid)
        for _ in range(200):
            x = rng.normal(0, 1, size=(2, 2)) * rng.uniform(0.1, 10)
            theta_hat = project_so2(x)
            cost_hat = np.linalg.norm(x - rotation_matrix(theta_hat)) ** 2
            alpha = x[0, 0] + x[1, 1]
            beta = x[1, 0] - x[0, 1]
            best = grid[np.argmax(alpha * cos_g + beta * sin_g)]
            cost_grid = np.linalg.norm(x - rotation_matrix(best)) ** 2
            bound = 2 * math.pi * 1e-5 * math.sqrt(2.0) * np.linalg.norm(x)
            assert cost_hat <= cost_grid + 1e-12 * max(1.0, cost_grid)
            assert cost_grid - cost_hat <= bound

    def test_reflection_handled(self):
        x = np.array([[1.0, 0.0], [0.0, -2.0]])  # det < 0
        theta = project_so2(x)
        rot = rotation_matrix(theta)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateProjectionError):
            project_so2(np.zeros((2, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            project_so2(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestErrorScalingLaws:
    def test_projection_error_at_most_twice_input_error(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            truth = rotation_matrix(rng.uniform(0, 2 * math.pi))
            estimate = truth + rng.normal(0, rng.uniform(0.01, 1.0), size=(2, 2))
            projected = rotation_matrix(project_so2(estimate))
            lhs = np.linalg.norm(projected - truth)
            rhs = 2.0 * np.linalg.norm(estimate - truth)
            assert lhs <= rhs + 1e-12

    def test_rmse_halves_when_t_quadruples(self):
        rng = np.random.default_rng(34)
        dep = reference_deployment(sigma=0.1)
        pose = reference_pose()
        y_true = np.array([math.sin(pose.theta), math.cos(pose.theta)])
        trials = 1000
        rmse = {}
        for repeat_t in (50, 200):
            total = 0.0
            for _ in range(trials):
                batch = noisy_batch(dep, pose, repeat_t, rng)
                y, t = solve_uls(build_linear_system(batch))
                total += float(np.sum((y - y_true) ** 2) + np.sum((t - pose.t) ** 2))
            rmse[repeat_t] = math.sqrt(total / trials)
        assert 0.4 <= rmse[200] / rmse[50] <= 0.6


class TestEstimateUls:
    def test_noiseless_exact(self):
        pose = reference_pose()
        report = estimate_uls(noiseless_batch(reference_deployment(), pose))
        assert report.method.value == "uls"
        assert abs(report.pose.theta - pose.theta) <= 1e-9
        np.testing.assert_allclose(report.pose.t, pose.t, atol=1e-9)
        assert report.residual_cost >= 0.0
        assert "linstage_us" in report.timings_us

    def test_error_within_monte_carlo_bound(self):
        dep = reference_deployment(sigma=0.1)
        pose = reference_pose()
        rng = np.random.default_rng(35)
        errors = []
        for _ in range(200):
            report = estimate_uls(noisy_batch(dep, pose, 10_000, rng))
            errors.append(
                np.sum((report.pose.rotation - pose.rotation) ** 2)
                + np.sum((report.pose.t - pose.t) ** 2)
            )
        rmse = math.sqrt(float(np.mean(errors)))
        fresh = estimate_uls(noisy_batch(dep, pose, 10_000, rng))
        fresh_err = math.sqrt(
            float(
                np.sum((fresh.pose.rotation - pose.rotation) ** 2)
                + np.sum((fresh.pose.t - pose.t) ** 2)
            )
        )
        assert fresh_err < 3.0 * rmse

    def test_collinear_anchors_raise(self):
        dep = Deployment(anchors=COLLINEAR_ANCHORS, tags=BODY_TAGS, sigma=0.1)
        with pytest.raises(SingularSystemError):
            estimate_uls(noiseless_batch(dep, reference_pose()))

    def test_covariance_attached_on_request(self):
        report = estimate_uls(
            noiseless_batch(reference_deployment(), reference_pose()), with_covariance=True
        )
        assert report.covariance is not None
        assert report.covariance.shape == (6, 6)
