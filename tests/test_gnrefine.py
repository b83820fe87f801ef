"""One-step Gauss-Newton refinement: Jacobian, fixed point, ML closeness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbpose.core import Deployment, Method, Pose2, RangeBatch, predicted_ranges, rotation_matrix
from uwbpose.errors import DegenerateGeometryError, NearSingularityError, Status
from uwbpose.estimators import estimate, estimate_stacked
from uwbpose.gnrefine import linearize, stacked_gn_step, symmetric_inverse

from helpers import (
    CORNER_ANCHORS,
    lstsq_gn_update,
    ml_cost,
    noiseless_batch,
    noisy_batch,
    noisy_ranges,
    one_gn_step,
    random_observable_deployment,
    random_pose,
    random_problems,
    reference_deployment,
    reference_pose,
)
from ml_oracle import ml_reference_pose


def _pose_distance(a: Pose2, b: Pose2) -> float:
    return math.sqrt(
        float(np.sum((rotation_matrix(a.theta) - rotation_matrix(b.theta)) ** 2) + np.sum((a.t - b.t) ** 2))
    )


def _linearized(dep, pose, row_scale=1.0):
    """Predicted ranges (N * M,) and (theta, t) Jacobian (N * M, 3) at one pose."""
    g, _, jac = linearize(dep, np.array([pose.theta]), pose.t[np.newaxis], row_scale)
    return g[0].reshape(-1), jac[0].reshape(-1, 3)


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
            _, jacobian = _linearized(dep, init)
            fd = _fd_jacobian(batch, init)
            row_err = np.linalg.norm(jacobian - fd, axis=1)
            row_scale = np.maximum(np.linalg.norm(fd, axis=1), 1.0)
            assert np.max(row_err / row_scale) <= 1e-6

    def test_rows_align_with_predicted_ranges(self):
        rng = np.random.default_rng(47)
        dep = reference_deployment(
            sigma=rng.uniform(0.05, 0.3, size=(2, 3)), dh=rng.uniform(0.2, 2.0, size=(2, 3))
        )
        pose = reference_pose()
        predicted, jacobian = _linearized(dep, pose)
        _, weighted = _linearized(dep, pose, row_scale=1.0 / dep.sigma)
        pairs = dep.num_tags * dep.num_anchors
        assert jacobian.shape == weighted.shape == (pairs, 3)
        assert predicted.shape == (pairs,)
        expected = predicted_ranges(dep, pose)
        for i in range(dep.num_tags):
            for m in range(dep.num_anchors):
                row = i * dep.num_anchors + m
                assert predicted[row] == pytest.approx(expected[i, m], rel=1e-14)
                np.testing.assert_allclose(
                    weighted[row], jacobian[row] / dep.sigma[i, m], rtol=1e-14, atol=0.0
                )


class TestGnStep:
    def test_fixed_point_at_truth(self):
        pose = reference_pose()
        batch = noiseless_batch(reference_deployment(), pose, repeat_t=5)
        refined = one_gn_step(batch, pose)
        assert abs(refined.theta - pose.theta) <= 1e-12
        np.testing.assert_allclose(refined.t, pose.t, atol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        problems=st.integers(1, 10),
        repeat_t=st.integers(1, 30),
        scale=st.floats(1e-3, 1e3),
    )
    def test_common_sigma_scaling_cancels(self, seed, problems, repeat_t, scale):
        # Scaling every sigma alike scales every Gauss-Newton weight alike.
        # The linear stages do move, since E[d^2] = g^2 + sigma^2, so the
        # scaled step starts where estimate_stacked starts its own step.
        dep, batches = random_problems(seed, problems, repeat_t)
        scaled = Deployment(anchors=dep.anchors, tags=dep.tags, sigma=scale * dep.sigma, dh=dep.dh)
        mean_d = np.stack([batch.mean_d for batch in batches])
        mean_d2 = np.stack([batch.mean_d2 for batch in batches])
        for first, refined in ((Method.ULS, Method.GN_ULS), (Method.DAC, Method.GN_DAC)):
            start = estimate_stacked(dep, mean_d, mean_d2, first)
            started = start.status == Status.OK
            base = estimate_stacked(dep, mean_d, mean_d2, refined)
            other = stacked_gn_step(scaled, mean_d[started], start.theta[started], start.t[started])
            np.testing.assert_array_equal(other.status, base.status[started], err_msg=refined.value)
            ok = other.status == Status.OK
            theta, t = base.theta[started][ok], base.t[started][ok]
            gap = np.abs(np.angle(np.exp(1j * (other.theta[ok] - theta))))
            assert np.all(gap <= 1e-12), refined
            np.testing.assert_allclose(other.t[ok], t, rtol=0, atol=1e-12, err_msg=refined.value)

    def test_common_sigma_scaling_cancels_at_reference_pose(self):
        rng = np.random.default_rng(42)
        dep = reference_deployment(sigma=rng.uniform(0.05, 0.3, size=(2, 3)))
        pose = reference_pose()
        d = noisy_ranges(dep, pose, 30, rng)
        batch = RangeBatch(dep, d)
        init = estimate(batch, Method.ULS)
        refined = one_gn_step(batch, init)
        dep_scaled = Deployment(
            anchors=dep.anchors, tags=dep.tags, sigma=7.3 * dep.sigma, dh=dep.dh
        )
        refined_scaled = one_gn_step(RangeBatch(dep_scaled, d), init)
        assert abs(refined.theta - refined_scaled.theta) <= 1e-12
        np.testing.assert_allclose(refined.t, refined_scaled.t, atol=1e-12)

    @pytest.mark.parametrize("exponent", [-1000, -600, 600, 1000])
    def test_power_of_two_sigma_scale_is_bit_identical(self, exponent):
        # A power of two changes no rounding, so the weights may carry any
        # such scale: the step neither overflows nor underflows far from 1.
        dep, _ = random_problems(7, 1, 1)
        rng = np.random.default_rng(exponent % 97)
        poses = [random_pose(rng) for _ in range(8)]
        mean_d, theta, t = _perturbed_problems(dep, poses, rng)
        base = stacked_gn_step(dep, mean_d, theta, t)
        scaled = Deployment(anchors=dep.anchors, tags=dep.tags, sigma=np.ldexp(dep.sigma, exponent), dh=dep.dh)
        step = stacked_gn_step(scaled, mean_d, theta, t)
        assert np.all(base.status == Status.OK)
        for name in ("theta", "t", "status"):
            np.testing.assert_array_equal(getattr(step, name), getattr(base, name), err_msg=name)

    def test_cost_decreases_in_nearly_all_trials(self):
        rng = np.random.default_rng(43)
        dep = reference_deployment(sigma=0.1)
        pose = reference_pose()
        improved = 0
        trials = 1000
        for _ in range(trials):
            d = noisy_ranges(dep, pose, 100, rng)
            batch = RangeBatch(dep, d)
            init = estimate(batch, Method.ULS)
            refined = one_gn_step(batch, init)
            before = ml_cost(dep, d, init)
            after = ml_cost(dep, d, refined)
            if after <= before * (1 + 1e-12):
                improved += 1
        assert improved >= 0.99 * trials

    def test_proximity_floor_raises(self):
        dep = Deployment(
            anchors=[[5.0, 5.0], [20.0, 0.0], [0.0, 20.0]],
            tags=[[5.0, 5.0], [1.0, 0.0]],
            sigma=0.1,
        )
        pose = Pose2(0.0, [0.0, 0.0])  # tag 0 lands exactly on anchor 0
        d = np.maximum(predicted_ranges(dep, pose), 1e-3)[:, :, None]
        with pytest.raises(NearSingularityError):
            one_gn_step(RangeBatch(dep, d), pose)

    def test_degenerate_geometry_raises(self):
        dep = Deployment(anchors=[[10.0, 0.0]], tags=[[1.0, 0.0]], sigma=0.1)
        pose = Pose2(0.0, [0.0, 0.0])
        batch = noiseless_batch(dep, pose, repeat_t=5)
        with pytest.raises(DegenerateGeometryError):
            one_gn_step(batch, pose)

    @pytest.mark.parametrize("distance, status", [(0.9e-6, Status.NEAR_SINGULARITY), (1.1e-6, Status.OK)])
    def test_proximity_floor_is_one_micrometre(self, distance, status):
        # At theta = 0 and t = (distance, 0), tag 0 lies ``distance`` from anchor 0.
        dep = Deployment(anchors=[[5.0, 5.0], [20.0, 0.0], [0.0, 20.0]], tags=[[5.0, 5.0], [1.0, 0.0]], sigma=0.1)
        mean_d = predicted_ranges(dep, Pose2(0.3, [1.0, 2.0]))[np.newaxis]
        step = stacked_gn_step(dep, mean_d, np.array([0.0]), np.array([[distance, 0.0]]))
        assert step.status.tolist() == [status]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ranges_that_are_not_finite_fail_only_their_problem(self):
        # A pose near 1e306 overflows its predicted ranges, and so do they
        # at 1e300 from tags near 1e12 m, where the theta column overflows
        # too; a NaN angle, from a failed closed-form stage, gives NaN ranges.
        rng = np.random.default_rng(56)
        for tags, far in (([[3.0, 0.0], [3.0, 3.0]], [1e306, 0.0]), ([[1e12, 0.0], [0.0, 1e12]], [1e300, 1e300])):
            dep = Deployment(anchors=CORNER_ANCHORS, tags=tags, sigma=0.1)
            mean_d, theta, t = _perturbed_problems(dep, [random_pose(rng) for _ in range(4)], rng)
            bad_theta, bad_t = np.insert(theta, [1, 3], [0.5, np.nan]), np.insert(t, [1, 3], [far, [1.0, 2.0]], axis=0)
            step = stacked_gn_step(dep, np.insert(mean_d, [1, 3], mean_d[0], axis=0), bad_theta, bad_t)
            np.testing.assert_array_equal(step.status, [0, Status.OVERFLOW, 0, 0, Status.OVERFLOW, 0])
            alone = stacked_gn_step(dep, mean_d, theta, t)
            np.testing.assert_array_equal(np.delete(step.theta, [1, 4]), alone.theta)
            np.testing.assert_array_equal(np.delete(step.t, [1, 4], axis=0), alone.t)


class TestSymmetricInverse:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 50), spread=st.floats(0.0, 8.0))
    def test_matches_numpy_on_positive_definite_stacks(self, seed, count, spread):
        # Eigenvalues in [0.1, 1] in random directions, then coordinates
        # scaled by S, up to 10^spread. The oracle inverts the unscaled core
        # and scales back, inv(S C S) = S^-1 inv(C) S^-1: LU with pivoting
        # on S C S itself loses up to 1e-11 here. Entry (i, j) is compared
        # relative to sqrt(X_ii X_jj), which the scaling does not change.
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.normal(size=(count, 3, 3)))[0]
        core = (basis * rng.uniform(0.1, 1.0, size=(count, 1, 3))) @ basis.transpose(0, 2, 1)
        scale = 10.0 ** rng.uniform(-spread, spread, size=(count, 3))
        outer = scale[:, :, np.newaxis] * scale[:, np.newaxis, :]
        inverse, ok = symmetric_inverse(core * outer, 1e-10)
        expected = np.linalg.inv(core) / outer
        size = np.sqrt(expected.diagonal(axis1=1, axis2=2))
        assert ok.all()
        assert np.all(np.abs(inverse - expected) <= 1e-12 * size[:, :, np.newaxis] * size[:, np.newaxis, :])

    def test_refuses_singular_zero_diagonal_and_nan(self):
        spd = np.diag([4.0, 1.0, 9.0])
        spd[0, 1] = spd[1, 0] = 1.0
        singular = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) + np.outer([0.0, 1.0, -1.0], [0.0, 1.0, -1.0])
        zero_diagonal, negative_diagonal, nan_diagonal, nan_entry = spd.copy(), spd.copy(), spd.copy(), spd.copy()
        zero_diagonal[1, 1] = 0.0
        negative_diagonal[2, 2] = -9.0
        nan_diagonal[0, 0] = np.nan
        nan_entry[0, 2] = nan_entry[2, 0] = np.nan
        stack = np.stack([spd, singular, zero_diagonal, negative_diagonal, nan_diagonal, nan_entry, spd])
        inverse, ok = symmetric_inverse(stack, 1e-10)
        assert ok.tolist() == [True, False, False, False, False, False, True]
        np.testing.assert_array_equal(inverse[1:-1], 0.0)
        np.testing.assert_allclose(inverse[[0, -1]], np.linalg.inv(spd)[np.newaxis].repeat(2, 0), rtol=1e-15)

    @pytest.mark.parametrize("det, ok", [(0.9e-10, False), (1.1e-10, True)])
    def test_refuses_a_scaled_determinant_at_most_tol(self, det, ok):
        # [[1, p, 0], [p, 1, 0], [0, 0, 1]] has the determinant 1 - p^2.
        p = math.sqrt(1.0 - det)
        a = np.array([[[1.0, p, 0.0], [p, 1.0, 0.0], [0.0, 0.0, 1.0]]]) * 7.0
        assert symmetric_inverse(a, 1e-10)[1].tolist() == [ok]


def _perturbed_problems(dep, poses, rng):
    """Noisy (K, N, M) mean ranges of ``poses`` (T = 1) and start poses
    perturbed from the truth, as (mean_d, theta, t)."""
    mean_d = np.stack([noisy_batch(dep, pose, 1, rng).mean_d for pose in poses])
    theta = np.array([pose.theta for pose in poses]) + rng.normal(0.0, 0.05, len(poses))
    t = np.array([pose.t for pose in poses]) + rng.normal(0.0, 0.5, (len(poses), 2))
    return mean_d, theta, t


def _assert_matches_lstsq(step, dep, mean_d, theta, t):
    """Every update of ``step`` from (theta, t) is within 1e-10, relative,
    of the per-problem ``lstsq`` update."""
    expected = lstsq_gn_update(dep, mean_d, theta, t)
    gap = np.linalg.norm(np.column_stack([step.theta - theta, step.t - t]) - expected, axis=1)
    assert np.all(gap <= 1e-10 * np.linalg.norm(expected, axis=1))


class TestAgainstLstsq:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), problems=st.integers(1, 10), with_height=st.booleans())
    def test_step_matches_per_problem_lstsq(self, seed, problems, with_height):
        rng = np.random.default_rng(seed)
        base = random_observable_deployment(rng)
        shape = base.sigma.shape
        dep = Deployment(
            anchors=base.anchors,
            tags=base.tags,
            sigma=rng.uniform(0.02, 0.3, size=shape),
            dh=rng.uniform(0.2, 2.0, size=shape) if with_height else 0.0,
        )
        mean_d, theta, t = _perturbed_problems(dep, [random_pose(rng) for _ in range(problems)], rng)
        step = stacked_gn_step(dep, mean_d, theta, t)
        assert np.all(step.status == Status.OK)
        _assert_matches_lstsq(step, dep, mean_d, theta, t)

    def test_ill_conditioned_step_matches_lstsq(self):
        # Anchors 3 mm apart seen from 100 m: the scaled normal matrices have
        # condition numbers up to about 3e7, so the solve alone errs by about
        # 3e-9; the correction with the residual of J brings it under 1e-10.
        rng = np.random.default_rng(51)
        spread = 0.003
        anchors = 100.0 * np.array([[1.0, 0.0]]) + spread * np.array(
            [[0.0, 0.0], [0.0, 1.0], [1.0, -1.0], [-1.0, 0.5]]
        )
        dep = Deployment(anchors=anchors, tags=[[0.5, 0.0], [0.0, 0.5], [-0.3, -0.2]], sigma=0.05)
        poses = [Pose2(rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-5.0, 5.0, 2)) for _ in range(20)]
        mean_d, theta, t = _perturbed_problems(dep, poses, rng)
        step = stacked_gn_step(dep, mean_d, theta, t)
        assert np.all(step.status == Status.OK)
        _assert_matches_lstsq(step, dep, mean_d, theta, t)


class TestRankDeficiency:
    @pytest.mark.parametrize("with_height", [False, True])
    def test_tags_at_the_body_origin(self, with_height):
        # Turning the body about its origin moves no tag: the theta column is
        # exactly zero and the two t columns have rank 2.
        rng = np.random.default_rng(48)
        anchors = np.vstack([CORNER_ANCHORS, [[-10.0, -5.0]]])
        dh = rng.uniform(0.2, 2.0, size=(2, 4)) if with_height else 0.0
        dep = Deployment(anchors=anchors, tags=np.zeros((2, 2)), sigma=0.1, dh=dh)
        mean_d, theta, t = _perturbed_problems(dep, [random_pose(rng) for _ in range(5)], rng)
        _, _, jac = linearize(dep, theta, t, 1.0)
        assert np.all(jac[..., 0] == 0.0)
        assert all(np.linalg.matrix_rank(j.reshape(-1, 3)) == 2 for j in jac)
        step = stacked_gn_step(dep, mean_d, theta, t)
        np.testing.assert_array_equal(step.status, Status.DEGENERATE_GEOMETRY)
        assert np.all(np.isfinite(step.theta)) and np.all(np.isfinite(step.t))

    def test_one_tag_off_the_body_origin(self):
        # With one tag, turning the body is a translation of that tag: the
        # theta column is a combination of the t columns, none of them zero.
        rng = np.random.default_rng(49)
        anchors = np.vstack([CORNER_ANCHORS, [[-10.0, -5.0]]])
        dep = Deployment(anchors=anchors, tags=[[2.0, 1.0]], sigma=rng.uniform(0.05, 0.3, (1, 4)))
        mean_d, theta, t = _perturbed_problems(dep, [random_pose(rng) for _ in range(5)], rng)
        _, _, jac = linearize(dep, theta, t, 1.0)
        assert np.all(np.abs(jac).max(axis=(1, 2)) > 0.1)
        assert all(np.linalg.matrix_rank(j.reshape(-1, 3)) == 2 for j in jac)
        step = stacked_gn_step(dep, mean_d, theta, t)
        np.testing.assert_array_equal(step.status, Status.DEGENERATE_GEOMETRY)
        assert np.all(np.isfinite(step.theta)) and np.all(np.isfinite(step.t))

    def test_degenerate_problems_leave_the_rest_of_the_stack_alone(self):
        # The problems of a stack share a deployment, so only the pose can
        # make some of them degenerate. With collinear anchors and both tags
        # on the body's x axis, a pose that puts the tags on the anchors'
        # line zeroes the theta (and y) columns; any other pose is full rank.
        rng = np.random.default_rng(50)
        dep = Deployment(
            anchors=[[0.0, 0.0], [10.0, 0.0], [25.0, 0.0]], tags=[[1.0, 0.0], [-2.0, 0.0]], sigma=0.1
        )
        mean_d, theta, t = _perturbed_problems(dep, [random_pose(rng) for _ in range(4)], rng)
        mean_d = np.concatenate([mean_d, np.full((2, 2, 3), 5.0)])
        theta = np.concatenate([theta, [0.0, 0.0]])
        t = np.concatenate([t, [[4.0, 0.0], [17.0, 0.0]]])  # tags on the anchors' line
        order = np.array([0, 4, 1, 2, 5, 3])
        mean_d, theta, t, on_line = mean_d[order], theta[order], t[order], order >= 4
        _, _, jac = linearize(dep, theta, t, 1.0)
        assert np.all(jac[on_line][..., 0] == 0.0)
        step = stacked_gn_step(dep, mean_d, theta, t)
        expected = np.where(on_line, Status.DEGENERATE_GEOMETRY, Status.OK)
        np.testing.assert_array_equal(step.status, expected)
        alone = stacked_gn_step(dep, mean_d[~on_line], theta[~on_line], t[~on_line])
        np.testing.assert_array_equal(step.theta[~on_line], alone.theta)
        np.testing.assert_array_equal(step.t[~on_line], alone.t)
        _assert_matches_lstsq(alone, dep, mean_d[~on_line], theta[~on_line], t[~on_line])
        assert np.all(np.isfinite(step.theta)) and np.all(np.isfinite(step.t))


class TestAgainstMlOracle:
    def test_small_instance_dominates_initial_estimate(self):
        # M_T = 6 (three anchors ranged twice), N = 2.
        rng = np.random.default_rng(44)
        dep = reference_deployment(sigma=0.2)
        pose = reference_pose()
        gn_gaps, uls_gaps = [], []
        for _ in range(200):
            d = noisy_ranges(dep, pose, 2, rng)
            batch = RangeBatch(dep, d)
            closed_form = estimate(batch, Method.ULS)
            gn_pose = estimate(batch, Method.GN_ULS)
            ml_pose = ml_reference_pose(dep, d)
            gn_gaps.append(_pose_distance(gn_pose, ml_pose))
            uls_gaps.append(_pose_distance(closed_form, ml_pose))
        assert np.mean(gn_gaps) <= 0.1 * np.mean(uls_gaps)


class TestEstimateGnUls:
    def test_noiseless_exact(self):
        pose = reference_pose()
        estimated = estimate(noiseless_batch(reference_deployment(), pose), Method.GN_ULS)
        assert abs(estimated.theta - pose.theta) <= 1e-9
        np.testing.assert_allclose(estimated.t, pose.t, atol=1e-9)

    def test_refinement_does_not_exceed_initial_cost(self):
        rng = np.random.default_rng(45)
        dep = reference_deployment(sigma=0.1)
        d = noisy_ranges(dep, reference_pose(), 200, rng)
        batch = RangeBatch(dep, d)
        uls = estimate(batch, Method.ULS)
        gn = estimate(batch, Method.GN_ULS)
        assert ml_cost(dep, d, gn) <= ml_cost(dep, d, uls) * (1 + 1e-12)

    def test_runtime_scales_like_measurement_count(self):
        # The O(n) work is the moment pass in RangeBatch construction, so
        # construction is timed with the estimate. The fixed per-call cost
        # (small solves, Python overhead) is not negligible even at
        # n = 300000, so a T = 1 problem is timed too and subtracted before
        # the doubling comparison. Interleaved medians: wall-clock noise and
        # allocator warm-up would otherwise swamp it.
        import time

        rng = np.random.default_rng(46)
        dep = reference_deployment(sigma=0.1)
        pose = reference_pose()
        small = noisy_ranges(dep, pose, 50_000, rng)
        large = noisy_ranges(dep, pose, 100_000, rng)
        fixed = small[:, :, :1]

        def construct_and_estimate(d):
            estimate(RangeBatch(dep, d), Method.GN_ULS)

        for _ in range(5):
            for d in (fixed, small, large):
                construct_and_estimate(d)
        times = {"fixed": [], "small": [], "large": []}
        for _ in range(30):
            for name, d in (("fixed", fixed), ("small", small), ("large", large)):
                start = time.perf_counter()
                construct_and_estimate(d)
                times[name].append(time.perf_counter() - start)
        t_fixed, t_small, t_large = (float(np.median(times[k])) for k in ("fixed", "small", "large"))
        ratio = (t_large - t_fixed) / (t_small - t_fixed)
        assert 1.5 <= ratio <= 3.0
