"""Stacked estimation of K problems against a loop of K = 1 ``estimate`` calls."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbpose.core import Deployment, Method, Pose2, RangeBatch, predicted_ranges, rotation_matrix
from uwbpose.errors import EstimationError, NearSingularityError, SingularSystemError, Status
from uwbpose.estimators import estimate, estimate_methods, estimate_stacked

from helpers import (
    CORNER_ANCHORS,
    ORIGIN_LINE_TAGS,
    noiseless_batch,
    noisy_batch,
    random_observable_deployment,
    random_pose,
    random_problems,
    reference_deployment,
    reference_pose,
)

REFINED = (Method.GN_ULS, Method.GN_DAC)


def _looped(batch: RangeBatch, method: Method):
    """Single-problem pose and error type (one of them None)."""
    try:
        pose = estimate(batch, method)
    except EstimationError as exc:
        return None, type(exc)
    return pose, None


def _stack(batches):
    mean_d = np.stack([batch.mean_d for batch in batches])
    mean_d2 = np.stack([batch.mean_d2 for batch in batches])
    return mean_d, mean_d2


def _angle_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Absolute difference of angles, modulo 2*pi."""
    return np.abs(np.angle(np.exp(1j * (a - b))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    problems=st.integers(1, 40),
    repeat_t=st.integers(1, 3),
)
def test_stacked_equals_single_problem_loop(seed, problems, repeat_t):
    dep, batches = random_problems(seed, problems, repeat_t)
    mean_d, mean_d2 = _stack(batches)
    for method in Method:
        stacked = estimate_stacked(dep, mean_d, mean_d2, method)
        assert stacked.theta.shape == stacked.status.shape == (problems,)
        assert stacked.t.shape == (problems, 2)
        for k, batch in enumerate(batches):
            pose, error = _looped(batch, method)
            if error is not None:
                assert Status(stacked.status[k]).error is error, method
                assert np.isnan(stacked.theta[k]) and np.all(np.isnan(stacked.t[k]))
                continue
            assert stacked.status[k] == Status.OK, method
            assert abs(math.remainder(stacked.theta[k] - pose.theta, 2 * math.pi)) <= 1e-10, method
            np.testing.assert_allclose(stacked.t[k], pose.t, rtol=0, atol=1e-10, err_msg=method.value)


def _assert_each_method_equals_estimate_stacked(dep, mean_d, mean_d2):
    """Every method of one ``estimate_methods`` call, against
    ``estimate_stacked`` of that method alone, bit for bit."""
    results = estimate_methods(dep, mean_d, mean_d2, list(Method))
    assert list(results) == list(Method)
    for method, (poses, seconds) in results.items():
        assert 0.0 <= seconds < math.inf
        if isinstance(poses, tuple):  # a PoseStack: every OK pose is finite
            ok = poses.status == Status.OK
            assert np.all(np.isfinite(poses.theta[ok])) and np.all(np.isfinite(poses.t[ok])), method
        try:
            alone = estimate_stacked(dep, mean_d, mean_d2, method)
        except EstimationError as exc:
            assert type(poses) is type(exc) and str(poses) == str(exc), method
            continue
        for got, expected in zip(poses, alone):
            np.testing.assert_array_equal(got, expected, err_msg=method.value)
    return results


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), problems=st.integers(0, 30), repeat_t=st.integers(1, 3))
def test_methods_together_equal_each_method_alone(seed, problems, repeat_t):
    dep, batches = random_problems(seed, max(problems, 1), repeat_t)
    mean_d, mean_d2 = _stack(batches[:problems]) if problems else (np.empty((0,) + dep.sigma.shape),) * 2
    _assert_each_method_equals_estimate_stacked(dep, mean_d, mean_d2)


def test_stage_error_reaches_only_the_methods_of_that_stage():
    # Coincident tags leave the ULS design rank-deficient, which fails every
    # problem; divide and conquer localizes each tag, and only its pose fit,
    # per problem, cannot fix a rotation.
    dep = Deployment(anchors=CORNER_ANCHORS, tags=[[1.0, 0.0], [1.0, 0.0]], sigma=0.1)
    mean_d = np.stack([predicted_ranges(dep, Pose2(theta, [10.0, 20.0])) for theta in (1.0, 2.0)])
    results = _assert_each_method_equals_estimate_stacked(dep, mean_d, mean_d**2)
    for method in (Method.ULS, Method.GN_ULS):
        assert isinstance(results[method][0], SingularSystemError), method
        assert str(results[method][0]).startswith("design matrix rank 2 < 4;"), method
    for method in (Method.DAC, Method.GN_DAC):
        assert results[method][0].status.tolist() == [Status.DEGENERATE_PROJECTION] * 2, method


@pytest.mark.parametrize("tags", ORIGIN_LINE_TAGS.values(), ids=ORIGIN_LINE_TAGS)
def test_tags_collinear_with_origin_exact_at_zero_noise(tags):
    # Criterion 01's tolerances, for every method, at 1 rad and (10, 20) and at random poses.
    rng = np.random.default_rng(61)
    dep = Deployment(anchors=CORNER_ANCHORS, tags=tags, sigma=0.1)
    poses = [Pose2(1.0, [10.0, 20.0])] + [random_pose(rng) for _ in range(20)]
    mean_d = np.stack([predicted_ranges(dep, pose) for pose in poses])
    theta = np.array([pose.theta for pose in poses])
    t = np.array([pose.t for pose in poses])
    for method, (stack, _) in estimate_methods(dep, mean_d, mean_d**2, list(Method)).items():
        assert np.all(stack.status == Status.OK), method
        assert np.max(_angle_gap(stack.theta, theta)) <= 1e-8, method
        assert np.max(np.linalg.norm(stack.t - t, axis=1)) <= 1e-8, method


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_height_fails_every_method():
    # dh**2 overflows the squared-range offset of both closed-form stages;
    # no method may report a NaN pose as OK.
    mean_d = predicted_ranges(reference_deployment(), reference_pose())[np.newaxis]
    results = estimate_methods(reference_deployment(dh=1e308), mean_d, mean_d**2, list(Method))
    for method, (poses, _) in results.items():
        assert type(poses) is EstimationError and "overflow" in str(poses), method


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_mean_of_squared_ranges_fails_every_method():
    # Mean squared ranges near 1e308 are finite, but their mean over a tag's
    # anchors overflows in both closed-form stages; the refined methods
    # inherit the failure, and no pose is reported OK.
    mean_d = np.full((2,) + reference_deployment().sigma.shape, 1e154)
    mean_d[1] = predicted_ranges(reference_deployment(), reference_pose())
    results = _assert_each_method_equals_estimate_stacked(reference_deployment(), mean_d, mean_d**2)
    for method, (poses, _) in results.items():
        assert poses.status.tolist() == [Status.DEGENERATE_PROJECTION, Status.OK], method
        assert np.isnan(poses.theta[0]) and np.all(np.isnan(poses.t[0])), method


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    problems=st.integers(1, 10),
    repeat_t=st.integers(1, 3),
    phi=st.floats(-math.pi, math.pi),
    shift=st.tuples(st.floats(-1e7, 1e7), st.floats(-1e7, 1e7)),
)
def test_rigid_motion_of_the_frame_moves_every_estimate(seed, problems, repeat_t, phi, shift):
    # Anchors and true poses move together, so the ranges stay the same.
    # The moved anchors are rounded to ulp(L) at a distance L from the
    # origin, which moves the estimates by a few ulp(L); the tolerances
    # below hold unchanged up to L = 100 m.
    dep, batches = random_problems(seed, problems, repeat_t)
    rot = rotation_matrix(phi)
    moved = Deployment(anchors=dep.anchors @ rot.T + shift, tags=dep.tags, sigma=dep.sigma, dh=dep.dh)
    extent = float(np.ptp(dep.anchors, axis=0).max())
    rounding = 32.0 * np.spacing(max(map(abs, shift)))
    moments = _stack(batches)
    for method in Method:
        base = estimate_stacked(dep, *moments, method)
        other = estimate_stacked(moved, *moments, method)
        np.testing.assert_array_equal(other.status, base.status, err_msg=method.value)
        ok = base.status == Status.OK
        assert np.all(_angle_gap(other.theta[ok], base.theta[ok] + phi) <= max(1e-9, rounding)), method
        np.testing.assert_allclose(
            other.t[ok], base.t[ok] @ rot.T + shift, rtol=0, atol=max(1e-9 * extent, rounding), err_msg=method.value
        )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    problems=st.integers(1, 10),
    repeat_t=st.integers(1, 3),
    order_seed=st.integers(0, 2**32 - 1),
)
def test_permuting_anchors_and_tags_leaves_every_estimate(seed, problems, repeat_t, order_seed):
    dep, batches = random_problems(seed, problems, repeat_t)
    order = np.random.default_rng(order_seed)
    tag_order = order.permutation(dep.num_tags)
    anchor_order = order.permutation(dep.num_anchors)
    pairs = np.ix_(tag_order, anchor_order)
    permuted = Deployment(
        anchors=dep.anchors[anchor_order],
        tags=dep.tags[tag_order],
        sigma=dep.sigma[pairs],
        dh=dep.dh[pairs],
    )
    extent = float(np.ptp(dep.anchors, axis=0).max())
    mean_d, mean_d2 = _stack(batches)
    for method in Method:
        base = estimate_stacked(dep, mean_d, mean_d2, method)
        other = estimate_stacked(permuted, mean_d[:, pairs[0], pairs[1]], mean_d2[:, pairs[0], pairs[1]], method)
        np.testing.assert_array_equal(other.status, base.status, err_msg=method.value)
        ok = base.status == Status.OK
        assert np.all(_angle_gap(other.theta[ok], base.theta[ok]) <= 1e-9), method
        np.testing.assert_allclose(other.t[ok], base.t[ok], rtol=0, atol=1e-9 * extent, err_msg=method.value)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), problems=st.integers(1, 10), repeat_t=st.integers(1, 3))
def test_every_method_is_exact_at_zero_noise_with_random_heights(seed, problems, repeat_t):
    rng = np.random.default_rng(seed)
    base = random_observable_deployment(rng)
    dh = rng.uniform(0.2, 2.0, size=base.sigma.shape)
    dep = Deployment(anchors=base.anchors, tags=base.tags, sigma=base.sigma, dh=dh)
    poses = [random_pose(rng) for _ in range(problems)]
    theta = np.array([pose.theta for pose in poses])
    t = np.array([pose.t for pose in poses])
    moments = _stack([noiseless_batch(dep, pose, repeat_t) for pose in poses])
    for method in Method:
        stacked = estimate_stacked(dep, *moments, method)
        np.testing.assert_array_equal(stacked.status, Status.OK, err_msg=method.value)
        assert np.all(_angle_gap(stacked.theta, theta) <= 1e-8), method
        np.testing.assert_allclose(stacked.t, t, rtol=0, atol=1e-8, err_msg=method.value)


@pytest.mark.parametrize("shift", [1e5, 1e6, 5e6, 1e7])
def test_every_method_is_exact_at_zero_noise_far_from_the_origin(shift):
    # Four anchors on a 50 m square and three tags, all moved by (L, L):
    # criterion 01's bounds hold, because the linear stages work about the
    # anchor centroid and cancel no squared coordinate of size L^2.
    square = np.array([[0.0, 0.0], [50.0, 0.0], [50.0, 50.0], [0.0, 50.0]])
    dep = Deployment(anchors=square + shift, tags=[[0.5, 0.0], [0.0, 0.5], [-0.4, -0.3]], sigma=1e-12)
    rng = np.random.default_rng(2101)
    poses = [Pose2(a, b + shift) for a, b in zip(rng.uniform(0.0, 2 * np.pi, 20), rng.uniform(5.0, 45.0, (20, 2)))]
    theta = np.array([pose.theta for pose in poses])
    t = np.array([pose.t for pose in poses])
    moments = _stack([noiseless_batch(dep, pose) for pose in poses])
    for method in Method:
        stacked = estimate_stacked(dep, *moments, method)
        np.testing.assert_array_equal(stacked.status, Status.OK, err_msg=method.value)
        assert np.all(_angle_gap(stacked.theta, theta) <= 1e-8), method
        assert np.all(np.linalg.norm(stacked.t - t, axis=1) <= 1e-8), method


@pytest.mark.parametrize("method", REFINED)
def test_tag_on_anchor_fails_only_its_own_problem(method):
    dep = Deployment(
        anchors=[[5.0, 5.0], [20.0, 0.0], [0.0, 20.0], [25.0, 25.0]],
        tags=[[5.0, 5.0], [1.0, 0.0]],
        sigma=0.1,
    )
    rng = np.random.default_rng(7)
    on_anchor = Pose2(0.0, [0.0, 0.0])  # tag 0 lands exactly on anchor 0
    batches = [noisy_batch(dep, Pose2(0.3 * k, [8.0 + k, 12.0]), 1, rng) for k in range(5)]
    batches[2] = RangeBatch(dep, predicted_ranges(dep, on_anchor)[:, :, np.newaxis])
    with pytest.raises(NearSingularityError):
        estimate(batches[2], method)

    stacked = estimate_stacked(dep, *_stack(batches), method)
    assert stacked.status.tolist() == [0, 0, Status.NEAR_SINGULARITY, 0, 0]
    assert Status(stacked.status[2]).error is NearSingularityError
    assert np.isnan(stacked.theta[2])
    for k in (0, 1, 3, 4):
        pose = estimate(batches[k], method)
        assert abs(math.remainder(stacked.theta[k] - pose.theta, 2 * math.pi)) <= 1e-10
        np.testing.assert_allclose(stacked.t[k], pose.t, rtol=0, atol=1e-10)


def test_empty_stack():
    dep = random_observable_deployment(np.random.default_rng(3))
    empty = np.zeros((0, dep.num_tags, dep.num_anchors))
    for method in Method:
        stacked = estimate_stacked(dep, empty, empty, method)
        assert stacked.theta.shape == stacked.status.shape == (0,)
        assert stacked.t.shape == (0, 2)


def test_returned_poses_are_read_only():
    dep = reference_deployment()
    mean_d, mean_d2 = _stack([noiseless_batch(dep, reference_pose(), repeat_t=1)] * 2)
    for poses, _ in estimate_methods(dep, mean_d, mean_d2, Method).values():
        for arr in poses:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


def test_rejects_mismatched_moments():
    dep = random_observable_deployment(np.random.default_rng(4))
    good = np.ones((2, dep.num_tags, dep.num_anchors))
    with pytest.raises(ValueError):
        estimate_stacked(dep, good, good[:, :, :-1], Method.ULS)
    bad = good.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        estimate_stacked(dep, bad, good, Method.DAC)
