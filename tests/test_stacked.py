"""Stacked estimation of K problems against a loop of K = 1 ``estimate`` calls."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbpose.core import Deployment, Method, Pose2, RangeBatch, predicted_ranges, rotation_matrix
from uwbpose.errors import EstimationError, NearSingularityError, Status
from uwbpose.estimators import estimate, estimate_stacked

from helpers import (
    noiseless_batch,
    noisy_batch,
    random_observable_deployment,
    random_pose,
    random_problems,
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    problems=st.integers(1, 10),
    repeat_t=st.integers(1, 3),
    phi=st.floats(-math.pi, math.pi),
    shift=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
)
def test_rigid_motion_of_the_frame_moves_every_estimate(seed, problems, repeat_t, phi, shift):
    # Anchors and true poses move together, so the ranges stay the same.
    dep, batches = random_problems(seed, problems, repeat_t)
    rot = rotation_matrix(phi)
    moved = Deployment(anchors=dep.anchors @ rot.T + shift, tags=dep.tags, sigma=dep.sigma, dh=dep.dh)
    extent = float(np.ptp(dep.anchors, axis=0).max())
    moments = _stack(batches)
    for method in Method:
        base = estimate_stacked(dep, *moments, method)
        other = estimate_stacked(moved, *moments, method)
        np.testing.assert_array_equal(other.status, base.status, err_msg=method.value)
        ok = base.status == Status.OK
        assert np.all(_angle_gap(other.theta[ok], base.theta[ok] + phi) <= 1e-9), method
        np.testing.assert_allclose(
            other.t[ok], base.t[ok] @ rot.T + shift, rtol=0, atol=1e-9 * extent, err_msg=method.value
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
    batches[2] = RangeBatch(dep, 1, predicted_ranges(dep, on_anchor)[:, :, np.newaxis])
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


def test_rejects_mismatched_moments():
    dep = random_observable_deployment(np.random.default_rng(4))
    good = np.ones((2, dep.num_tags, dep.num_anchors))
    with pytest.raises(ValueError):
        estimate_stacked(dep, good, good[:, :, :-1], Method.ULS)
    bad = good.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        estimate_stacked(dep, bad, good, Method.DAC)
