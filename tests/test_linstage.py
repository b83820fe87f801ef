"""Projected squared-range system, linear solve, and SO(2) projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbpose.core import Deployment, Method, Pose2, RangeBatch, rotation_matrix, wrap_angles
from uwbpose.crlb import constrained_crlb, fisher_info
from uwbpose.dac import stacked_localize_tags
from uwbpose.estimators import estimate
from uwbpose.errors import EstimationError, SingularSystemError, Status
from uwbpose.linstage import (
    least_squares,
    linear_design,
    so2_angles,
    stacked_projected_squared_ranges,
    stacked_uls,
)

from helpers import (
    BODY_TAGS,
    COLLINEAR_ANCHORS,
    CORNER_ANCHORS,
    noiseless_batch,
    noisy_batch,
    noiseless_ranges,
    noisy_ranges,
    random_observable_deployment,
    reference_deployment,
    reference_pose,
)


def _projected(batch):
    """Projected squared ranges of one batch, shape (N, M)."""
    return stacked_projected_squared_ranges(batch.deployment, batch.mean_d2[np.newaxis])[0]


def _system(batch):
    """Design ``h`` and right-hand side ``dbar`` of one batch's linear stage."""
    return linear_design(batch.deployment), _projected(batch).reshape(-1)


def _solve(h, dbar):
    """``(y, t - c)`` of the linear stage ``h @ (y, t - c) = dbar``, as ``stacked_uls`` solves it."""
    solution = least_squares(h, dbar, "design matrix")
    return solution[:2], solution[2:]


def _centroid(dep):
    """The anchor centroid ``c``: the linear stage solves for ``t - c``."""
    return dep.anchors.mean(axis=0)


class TestProjector:
    """The all-ones projector, applied implicitly by centering per tag."""

    def _batch(self):
        rng = np.random.default_rng(24)
        shape = (2, 3)
        dep = reference_deployment(
            sigma=rng.uniform(0.05, 0.3, size=shape), dh=rng.uniform(0.0, 1.0, size=shape)
        )
        d = noisy_ranges(dep, reference_pose(), 7, rng)
        return RangeBatch(dep, d), d

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
        offset = np.sum((dep.anchors - _centroid(dep)) ** 2, axis=1) + dep.sigma**2 + dep.dh**2
        raw = np.mean(d**2, axis=2) - offset
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
        # With two anchors a tag's two centered rows are negatives of each
        # other, so every row is s1 u + s2 v + w for fixed u, v, w: rank at
        # most 3 < 4. One anchor centers to zero rows.
        for count, expected in ((2, 2), (1, 0)):
            dep = Deployment(anchors=CORNER_ANCHORS[:count], tags=BODY_TAGS, sigma=0.1)
            with pytest.raises(SingularSystemError, match=rf"^design matrix rank {expected} < 4;"):
                _solve(*_system(noiseless_batch(dep, reference_pose())))

    @staticmethod
    def _assert_every_method_singular(anchor_count, repeat_t):
        # Repetitions add identical rows, not rank, so the outcome cannot depend on T.
        # The kernels name the rank; every method reports the failure as its status.
        dep = Deployment(anchors=CORNER_ANCHORS[:anchor_count], tags=BODY_TAGS, sigma=0.1)
        batch = noiseless_batch(dep, reference_pose(), repeat_t=repeat_t)
        for kernel, design in zip((stacked_uls, stacked_localize_tags), _stage_designs(dep)):
            rank = np.linalg.matrix_rank(design)
            with pytest.raises(SingularSystemError, match=rf" rank {rank} < {design.shape[1]};"):
                kernel(dep, batch.mean_d2[np.newaxis])
        for method in Method:
            with pytest.raises(SingularSystemError, match=rf"^{method.value}: singular system$"):
                estimate(batch, method)

    @pytest.mark.parametrize("repeat_t", [1, 2, 3])
    def test_two_anchors_underdetermined_at_any_repeat_count(self, repeat_t):
        self._assert_every_method_singular(2, repeat_t)

    @pytest.mark.parametrize("repeat_t", [1, 2, 3])
    def test_one_anchor_underdetermined_at_any_repeat_count(self, repeat_t):
        self._assert_every_method_singular(1, repeat_t)

    def test_consistency_with_truth_noiseless(self):
        pose = reference_pose()
        batch = noiseless_batch(reference_deployment(sigma=0.7), pose)
        h, dbar = _system(batch)
        x_true = np.concatenate([[math.sin(pose.theta), math.cos(pose.theta)], pose.t - _centroid(batch.deployment)])
        np.testing.assert_allclose(h @ x_true, dbar, atol=1e-8)


class TestSolveUls:
    def test_noiseless_reference_exact(self):
        pose = reference_pose()
        y, t = _solve(*_system(noiseless_batch(reference_deployment(), pose)))
        np.testing.assert_allclose(y, [math.sin(pose.theta), math.cos(pose.theta)], atol=1e-9)
        np.testing.assert_allclose(t, [0.0, 25.0] - _centroid(reference_deployment()), atol=1e-9)

    def test_noiseless_identity_pose(self):
        pose = Pose2(0.0, [0.0, 0.0])
        y, t = _solve(*_system(noiseless_batch(reference_deployment(), pose)))
        np.testing.assert_allclose(y, [0.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(t, -_centroid(reference_deployment()), atol=1e-9)

    def test_residual_orthogonal_to_design(self):
        rng = np.random.default_rng(21)
        batch = noisy_batch(reference_deployment(), reference_pose(), 50, rng)
        h, dbar = _system(batch)
        y, t = _solve(h, dbar)
        residual = dbar - h @ np.concatenate([y, t])
        assert np.max(np.abs(h.T @ residual)) <= 1e-8 * np.linalg.norm(dbar)

    def test_collinear_raises_with_rank(self):
        dep = Deployment(anchors=COLLINEAR_ANCHORS, tags=BODY_TAGS, sigma=0.1)
        rank = np.linalg.matrix_rank(linear_design(dep))
        assert rank < 4
        with pytest.raises(SingularSystemError, match=rf"^design matrix rank {rank} < 4;"):
            _solve(*_system(noiseless_batch(dep, reference_pose())))

    def test_reordering_anchors_leaves_solution(self):
        rng = np.random.default_rng(22)
        dep = reference_deployment(sigma=rng.uniform(0.05, 0.3, size=(2, 3)))
        pose = reference_pose()
        d = noisy_ranges(dep, pose, 20, rng)
        y0, t0 = _solve(*_system(RangeBatch(dep, d)))
        perm = np.array([2, 0, 1])
        dep_p = Deployment(
            anchors=dep.anchors[perm], tags=dep.tags, sigma=dep.sigma[:, perm], dh=dep.dh[:, perm]
        )
        batch_p = RangeBatch(dep_p, d[:, perm, :])
        y1, t1 = _solve(*_system(batch_p))
        np.testing.assert_allclose(y0, y1, atol=1e-9)
        np.testing.assert_allclose(t0, t1, atol=1e-9)

    def test_reordering_tags_leaves_solution(self):
        rng = np.random.default_rng(23)
        dep = reference_deployment(sigma=rng.uniform(0.05, 0.3, size=(2, 3)))
        pose = reference_pose()
        d = noisy_ranges(dep, pose, 20, rng)
        y0, t0 = _solve(*_system(RangeBatch(dep, d)))
        perm = np.array([1, 0])
        dep_p = Deployment(
            anchors=dep.anchors, tags=dep.tags[perm], sigma=dep.sigma[perm], dh=dep.dh[perm]
        )
        batch_p = RangeBatch(dep_p, d[perm])
        y1, t1 = _solve(*_system(batch_p))
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
        y_u, t_u = _solve(*_system(RangeBatch(dep_uniform_wrong, d)))
        np.testing.assert_allclose(t_u, pose.t - _centroid(dep_right), atol=1e-9)
        dep_varying_wrong = reference_deployment(sigma=[0.1, 0.5, 1.0])
        y_v, t_v = _solve(*_system(RangeBatch(dep_varying_wrong, d)))
        assert np.linalg.norm(t_v - (pose.t - _centroid(dep_right))) > 1e-6


def _project(x: np.ndarray) -> tuple[float, int]:
    """Angle in [0, 2*pi) and status of the rotation nearest to the 2x2
    ``x``, through ``so2_angles`` as ``stacked_uls`` and
    ``stacked_fit_poses`` call it."""
    theta, status = so2_angles(np.array([x[0, 0] + x[1, 1]]), np.array([x[1, 0] - x[0, 1]]))
    return float(wrap_angles(theta)[0]), int(status[0])


def _angle(x: np.ndarray) -> float:
    theta, status = _project(x)
    assert status == Status.OK
    return theta


def _stage_designs(dep):
    """The ULS design and the DAC localization design ``-2 Abar``."""
    centered = dep.anchors - dep.anchors.mean(axis=0)
    return linear_design(dep), -2.0 * centered


class TestLeastSquares:
    """The shared solve against ``np.linalg.lstsq`` as the oracle."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        problems=st.integers(1, 30),
        squash=st.sampled_from([1.0, 1e-2, 1e-4]),
    )
    def test_matches_lstsq_on_random_and_near_collinear_layouts(self, seed, problems, squash):
        # ``squash`` pulls the anchors toward a random line through their
        # centroid; at 1e-4 the layout is nearly collinear.
        rng = np.random.default_rng(seed)
        base = random_observable_deployment(rng)
        direction = np.exp(1j * rng.uniform(0.0, np.pi))
        direction = np.array([direction.real, direction.imag])
        normal = np.array([-direction[1], direction[0]])
        centered = base.anchors - base.anchors.mean(axis=0)
        anchors = base.anchors.mean(axis=0) + np.outer(centered @ direction, direction)
        anchors += squash * np.outer(centered @ normal, normal)
        dep = Deployment(anchors=anchors, tags=base.tags, sigma=base.sigma)
        for design in _stage_designs(dep):
            rhs = rng.normal(scale=100.0, size=(problems, len(design)))
            expected = np.linalg.lstsq(design, rhs.T, rcond=None)[0].T
            got = least_squares(design, rhs, "design")
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * np.abs(expected).max())
            np.testing.assert_array_equal(least_squares(design, rhs[0], "design"), got[0])

    @pytest.mark.parametrize(
        "anchors",
        [COLLINEAR_ANCHORS, [[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]], [[0.0, 1.0], [1.0, 3.0], [2.0, 5.0], [5.0, 11.0]]],
        ids=["x-axis", "diagonal", "slope-2"],
    )
    def test_collinear_anchors_raise_lstsq_rank(self, anchors):
        dep = Deployment(anchors=anchors, tags=BODY_TAGS, sigma=0.1)
        mean_d2 = noiseless_batch(dep, reference_pose()).mean_d2[np.newaxis]
        for stage, design in zip((stacked_uls, stacked_localize_tags), _stage_designs(dep)):
            rank = np.linalg.lstsq(design, np.zeros(len(design)), rcond=None)[2]
            assert rank < design.shape[1]
            with pytest.raises(SingularSystemError, match=rf" rank {rank} < {design.shape[1]};"):
                stage(dep, mean_d2)

    @pytest.mark.parametrize(
        "smallest",
        [1e-9, 1.1 * 12 * np.finfo(float).eps, 0.9 * 12 * np.finfo(float).eps],
        ids=["1e-9", "above-cutoff", "below-cutoff"],
    )
    def test_rank_cutoff_is_lstsq_default(self, smallest):
        # Singular values (1, 1, 1, r) of a 12 x 4 design: lstsq's default
        # cutoff keeps r above 12 eps and drops it below.
        design = np.zeros((12, 4))
        design[np.arange(4), np.arange(4)] = [1.0, 1.0, 1.0, smallest]
        rhs = np.random.default_rng(3).normal(size=(5, 12))
        expected, _, rank, _ = np.linalg.lstsq(design, rhs.T, rcond=None)
        if smallest < 12 * np.finfo(float).eps:
            assert rank == 3
            with pytest.raises(SingularSystemError, match=r"^design rank 3 < 4;"):
                least_squares(design, rhs, "design")
        else:
            assert rank == 4
            np.testing.assert_allclose(least_squares(design, rhs, "design"), expected.T, rtol=1e-12)

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_design_that_is_not_finite_is_refused(self, entry):
        # Before any SVD, which need not return on such a design.
        design = np.vstack([np.eye(4), np.ones((2, 4))])
        design[1, 2] = entry
        with pytest.raises(EstimationError, match=r"^design overflows$") as raised:
            least_squares(design, np.ones((3, 6)), "design")
        assert type(raised.value) is EstimationError

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rank_cutoff_near_the_largest_float(self):
        # s_max * 12 overflows, while s_max * (12 eps) does not.
        design = np.zeros((12, 4))
        design[np.arange(4), np.arange(4)] = [1.7e308, 1e308, 1e300, 1e295]
        rhs = np.ones((2, 12))
        np.testing.assert_allclose(least_squares(design, rhs, "design"), [1.0 / design.diagonal()] * 2, rtol=1e-15)


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

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_parts_that_are_not_finite_overflowed(self, entry):
        for x in (np.array([[entry, 0.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [entry, 1.0]])):
            assert _project(x)[1] == Status.OVERFLOW


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
                y, t = _solve(*_system(batch))
                total += float(np.sum((y - y_true) ** 2) + np.sum((t - (pose.t - _centroid(dep))) ** 2))
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
                np.sum((rotation_matrix(estimated.theta) - rotation_matrix(pose.theta)) ** 2)
                + np.sum((estimated.t - pose.t) ** 2)
            )
        rmse = math.sqrt(float(np.mean(errors)))
        fresh = estimate(noisy_batch(dep, pose, 10_000, rng), Method.ULS)
        fresh_err = math.sqrt(
            float(
                np.sum((rotation_matrix(fresh.theta) - rotation_matrix(pose.theta)) ** 2)
                + np.sum((fresh.t - pose.t) ** 2)
            )
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
