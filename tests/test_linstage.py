"""Projected squared-range system, linear solve, and SO(2) projection."""

import math

import numpy as np
import pytest

from uwbpose.core import Deployment, Method, Pose2, RangeBatch, rotation_matrix, wrap_angle
from uwbpose.crlb import constrained_crlb, fisher_info
from uwbpose.estimators import estimate
from uwbpose.errors import SingularSystemError, Status, UnderdeterminedDeploymentError
from uwbpose.linstage import (
    linear_design,
    so2_angles,
    solve_uls,
    stacked_projected_squared_ranges,
)

from helpers import (
    BODY_TAGS,
    COLLINEAR_ANCHORS,
    CORNER_ANCHORS,
    noiseless_batch,
    noisy_batch,
    noiseless_ranges,
    noisy_ranges,
    reference_deployment,
    reference_pose,
)


def _projected(batch):
    """Projected squared ranges of one batch, shape (N, M)."""
    return stacked_projected_squared_ranges(batch.deployment, batch.mean_d2[np.newaxis])[0]


def _system(batch):
    """Design ``h`` and right-hand side ``dbar`` of one batch's linear stage."""
    return linear_design(batch.deployment), _projected(batch).reshape(-1)


class TestProjector:
    """The all-ones projector, applied implicitly by centering per tag."""

    def _batch(self):
        rng = np.random.default_rng(24)
        shape = (2, 3)
        dep = reference_deployment(
            sigma=rng.uniform(0.05, 0.3, size=shape), dh=rng.uniform(0.0, 1.0, size=shape)
        )
        d = noisy_ranges(dep, reference_pose(), 7, rng)
        return RangeBatch(dep, 7, d), d

    def test_annihilates_ones(self):
        batch, _ = self._batch()
        h, dbar = _system(batch)
        blocks_h = h.reshape(2, 3, 4)
        blocks_d = dbar.reshape(2, 3)
        np.testing.assert_allclose(blocks_h.sum(axis=1), 0.0, atol=1e-12 * np.abs(blocks_h).max())
        np.testing.assert_allclose(blocks_d.sum(axis=1), 0.0, atol=1e-12 * np.abs(blocks_d).max())

    def test_matches_explicit_projector(self):
        batch, d = self._batch()
        dep = batch.deployment
        proj = np.eye(3) - np.full((3, 3), 1.0 / 3)
        raw = np.mean(d**2, axis=2) - np.sum(dep.anchors**2, axis=1) - dep.sigma**2 - dep.dh**2
        np.testing.assert_allclose(_projected(batch), raw @ proj, rtol=0, atol=1e-9)


class TestBuildLinearSystem:
    def test_full_rank_on_reference_geometry(self):
        batch = noiseless_batch(reference_deployment(), reference_pose())
        h, _ = _system(batch)
        assert h.shape == (6, 4)
        svals = np.linalg.svd(h, compute_uv=False)
        assert np.linalg.matrix_rank(h) == 4
        assert svals[-1] > 1e-6 * svals[0]

    def test_rank_deficient_for_collinear_anchors(self):
        dep = Deployment(anchors=COLLINEAR_ANCHORS, tags=BODY_TAGS, sigma=0.1)
        batch = noiseless_batch(dep, reference_pose())
        h, _ = _system(batch)
        assert np.linalg.matrix_rank(h) < 4

    def test_requires_three_effective_anchors(self):
        dep = Deployment(anchors=CORNER_ANCHORS[:2], tags=BODY_TAGS, sigma=0.1)
        with pytest.raises(UnderdeterminedDeploymentError):
            _system(noiseless_batch(dep, reference_pose()))

    @pytest.mark.parametrize("repeat_t", [1, 2, 3])
    def test_two_anchors_underdetermined_at_any_repeat_count(self, repeat_t):
        # Repetitions add identical rows, not rank, so the verdict cannot depend on T.
        dep = Deployment(anchors=CORNER_ANCHORS[:2], tags=BODY_TAGS, sigma=0.1)
        batch = noiseless_batch(dep, reference_pose(), repeat_t=repeat_t)
        for method in Method:
            with pytest.raises(UnderdeterminedDeploymentError):
                estimate(batch, method)

    def test_consistency_with_truth_noiseless(self):
        pose = reference_pose()
        batch = noiseless_batch(reference_deployment(sigma=0.7), pose)
        h, dbar = _system(batch)
        x_true = np.concatenate([[math.sin(pose.theta), math.cos(pose.theta)], pose.t])
        np.testing.assert_allclose(h @ x_true, dbar, atol=1e-8)


class TestSolveUls:
    def test_noiseless_reference_exact(self):
        pose = reference_pose()
        y, t = solve_uls(*_system(noiseless_batch(reference_deployment(), pose)))
        np.testing.assert_allclose(y, [math.sin(pose.theta), math.cos(pose.theta)], atol=1e-9)
        np.testing.assert_allclose(t, [0.0, 25.0], atol=1e-9)

    def test_noiseless_identity_pose(self):
        pose = Pose2(0.0, [0.0, 0.0])
        y, t = solve_uls(*_system(noiseless_batch(reference_deployment(), pose)))
        np.testing.assert_allclose(y, [0.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(t, [0.0, 0.0], atol=1e-9)

    def test_residual_orthogonal_to_design(self):
        rng = np.random.default_rng(21)
        batch = noisy_batch(reference_deployment(), reference_pose(), 50, rng)
        h, dbar = _system(batch)
        y, t = solve_uls(h, dbar)
        residual = dbar - h @ np.concatenate([y, t])
        assert np.max(np.abs(h.T @ residual)) <= 1e-8 * np.linalg.norm(dbar)

    def test_collinear_raises_with_rank(self):
        dep = Deployment(anchors=COLLINEAR_ANCHORS, tags=BODY_TAGS, sigma=0.1)
        with pytest.raises(SingularSystemError) as excinfo:
            solve_uls(*_system(noiseless_batch(dep, reference_pose())))
        assert excinfo.value.rank < 4

    def test_reordering_anchors_leaves_solution(self):
        rng = np.random.default_rng(22)
        dep = reference_deployment(sigma=rng.uniform(0.05, 0.3, size=(2, 3)))
        pose = reference_pose()
        d = noisy_ranges(dep, pose, 20, rng)
        y0, t0 = solve_uls(*_system(RangeBatch(dep, 20, d)))
        perm = np.array([2, 0, 1])
        dep_p = Deployment(
            anchors=dep.anchors[perm], tags=dep.tags, sigma=dep.sigma[:, perm], dh=dep.dh[:, perm]
        )
        batch_p = RangeBatch(dep_p, 20, d[:, perm, :])
        y1, t1 = solve_uls(*_system(batch_p))
        np.testing.assert_allclose(y0, y1, atol=1e-9)
        np.testing.assert_allclose(t0, t1, atol=1e-9)

    def test_reordering_tags_leaves_solution(self):
        rng = np.random.default_rng(23)
        dep = reference_deployment(sigma=rng.uniform(0.05, 0.3, size=(2, 3)))
        pose = reference_pose()
        d = noisy_ranges(dep, pose, 20, rng)
        y0, t0 = solve_uls(*_system(RangeBatch(dep, 20, d)))
        perm = np.array([1, 0])
        dep_p = Deployment(
            anchors=dep.anchors, tags=dep.tags[perm], sigma=dep.sigma[perm], dh=dep.dh[perm]
        )
        batch_p = RangeBatch(dep_p, 20, d[perm])
        y1, t1 = solve_uls(*_system(batch_p))
        np.testing.assert_allclose(y0, y1, atol=1e-9)
        np.testing.assert_allclose(t0, t1, atol=1e-9)

    def test_uniform_sigma_error_is_annihilated_varying_is_not(self):
        # A uniformly wrong sigma lands in the span the projector removes; a
        # per-anchor wrong sigma leaves a bias. Documents solver behavior
        # under a mis-specified noise level.
        pose = reference_pose()
        dep_right = reference_deployment(sigma=0.1)
        d = noiseless_ranges(dep_right, pose)
        dep_uniform_wrong = reference_deployment(sigma=0.5)
        y_u, t_u = solve_uls(*_system(RangeBatch(dep_uniform_wrong, 1, d)))
        np.testing.assert_allclose(t_u, pose.t, atol=1e-9)
        dep_varying_wrong = reference_deployment(sigma=[0.1, 0.5, 1.0])
        y_v, t_v = solve_uls(*_system(RangeBatch(dep_varying_wrong, 1, d)))
        assert np.linalg.norm(t_v - pose.t) > 1e-6


def _project(x: np.ndarray) -> tuple[float, int]:
    """Angle in [0, 2*pi) and status of the rotation nearest to the 2x2
    ``x``, through ``so2_angles`` as ``stacked_uls`` and
    ``stacked_fit_poses`` call it."""
    theta, status = so2_angles(np.array([x[0, 0] + x[1, 1]]), np.array([x[1, 0] - x[0, 1]]))
    return wrap_angle(theta[0]), int(status[0])


def _angle(x: np.ndarray) -> float:
    theta, status = _project(x)
    assert status == Status.OK
    return theta


class TestProjectSo2:
    def test_identity_on_rotations(self):
        rng = np.random.default_rng(31)
        for theta in rng.uniform(0, 2 * math.pi, size=50):
            assert _angle(rotation_matrix(theta)) == pytest.approx(theta, abs=1e-12)

    def test_positive_scaling_preserved(self):
        assert _angle(2.5 * rotation_matrix(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_grid_oracle(self):
        rng = np.random.default_rng(32)
        grid = np.arange(100_000) * (2 * math.pi / 100_000)
        cos_g, sin_g = np.cos(grid), np.sin(grid)
        for _ in range(200):
            x = rng.normal(0, 1, size=(2, 2)) * rng.uniform(0.1, 10)
            theta_hat = _angle(x)
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
        theta = _angle(x)
        rot = rotation_matrix(theta)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix_rejected(self):
        assert _project(np.zeros((2, 2)))[1] == Status.DEGENERATE_PROJECTION
        # Only the two projected parts matter: this matrix is not zero.
        assert _project(np.array([[1.0, 1.0], [1.0, -1.0]]))[1] == Status.DEGENERATE_PROJECTION


class TestErrorScalingLaws:
    def test_projection_error_at_most_twice_input_error(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            truth = rotation_matrix(rng.uniform(0, 2 * math.pi))
            estimate = truth + rng.normal(0, rng.uniform(0.01, 1.0), size=(2, 2))
            projected = rotation_matrix(_angle(estimate))
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
                y, t = solve_uls(*_system(batch))
                total += float(np.sum((y - y_true) ** 2) + np.sum((t - pose.t) ** 2))
            rmse[repeat_t] = math.sqrt(total / trials)
        assert 0.4 <= rmse[200] / rmse[50] <= 0.6


class TestEstimateUls:
    def test_noiseless_exact(self):
        pose = reference_pose()
        estimated = estimate(noiseless_batch(reference_deployment(), pose), Method.ULS)
        assert abs(estimated.theta - pose.theta) <= 1e-9
        np.testing.assert_allclose(estimated.t, pose.t, atol=1e-9)

    def test_error_within_monte_carlo_bound(self):
        dep = reference_deployment(sigma=0.1)
        pose = reference_pose()
        rng = np.random.default_rng(35)
        errors = []
        for _ in range(200):
            estimated = estimate(noisy_batch(dep, pose, 10_000, rng), Method.ULS)
            errors.append(
                np.sum((estimated.rotation - pose.rotation) ** 2)
                + np.sum((estimated.t - pose.t) ** 2)
            )
        rmse = math.sqrt(float(np.mean(errors)))
        fresh = estimate(noisy_batch(dep, pose, 10_000, rng), Method.ULS)
        fresh_err = math.sqrt(
            float(np.sum((fresh.rotation - pose.rotation) ** 2) + np.sum((fresh.t - pose.t) ** 2))
        )
        assert fresh_err < 3.0 * rmse

    def test_collinear_anchors_raise(self):
        dep = Deployment(anchors=COLLINEAR_ANCHORS, tags=BODY_TAGS, sigma=0.1)
        with pytest.raises(SingularSystemError):
            estimate(noiseless_batch(dep, reference_pose()), Method.ULS)

    def test_covariance_from_bound_at_estimate(self):
        batch = noiseless_batch(reference_deployment(), reference_pose())
        estimated = estimate(batch, Method.ULS)
        fim = fisher_info(batch.deployment, batch.repeat_t, estimated)
        assert constrained_crlb(fim, estimated).crlb.shape == (6, 6)
