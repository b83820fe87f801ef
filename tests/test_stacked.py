"""Stacked estimation of K problems against a loop of K = 1 ``estimate`` calls."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbpose.core import Deployment, Method, Pose2, PoseStack, RangeBatch, predicted_ranges, rotation_matrix
from uwbpose.errors import EstimationError, NearSingularityError, Status
from uwbpose.estimators import estimate, estimate_methods, estimate_stacked, failure_tally

from helpers import (
    BODY_TAGS,
    COLLINEAR_ANCHORS,
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
        assert isinstance(poses, PoseStack), method
        ok = poses.status == Status.OK
        assert np.all(np.isfinite(poses.theta[ok])) and np.all(np.isfinite(poses.t[ok])), method
        alone = estimate_stacked(dep, mean_d, mean_d2, method)
        for got, expected in zip(poses, alone):
            np.testing.assert_array_equal(got, expected, err_msg=method.value)
    return results


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), problems=st.integers(0, 30), repeat_t=st.integers(1, 3))
def test_methods_together_equal_each_method_alone(seed, problems, repeat_t):
    dep, batches = random_problems(seed, max(problems, 1), repeat_t)
    mean_d, mean_d2 = _stack(batches[:problems]) if problems else (np.empty((0,) + dep.sigma.shape),) * 2
    _assert_each_method_equals_estimate_stacked(dep, mean_d, mean_d2)


def _assert_every_problem_failed(poses, code, method):
    """Every problem of ``poses`` has status ``code`` and a NaN pose, in read-only arrays."""
    assert poses.status.tolist() == [code] * len(poses.status), method
    assert np.all(np.isnan(poses.theta)) and np.all(np.isnan(poses.t)), method
    assert not any(arr.flags.writeable for arr in poses), method


def test_stage_error_reaches_only_the_methods_of_that_stage():
    # Coincident tags leave the ULS design rank-deficient, which fails every
    # problem; divide and conquer localizes each tag, and only its pose fit,
    # per problem, cannot fix a rotation.
    dep = Deployment(anchors=CORNER_ANCHORS, tags=[[1.0, 0.0], [1.0, 0.0]], sigma=0.1)
    mean_d = np.stack([predicted_ranges(dep, Pose2(theta, [10.0, 20.0])) for theta in (1.0, 2.0)])
    results = _assert_each_method_equals_estimate_stacked(dep, mean_d, mean_d**2)
    for method in (Method.ULS, Method.GN_ULS):
        _assert_every_problem_failed(results[method][0], Status.SINGULAR_SYSTEM, method)
    for method in (Method.DAC, Method.GN_DAC):
        _assert_every_problem_failed(results[method][0], Status.DEGENERATE_PROJECTION, method)


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
        _assert_every_problem_failed(poses, Status.OVERFLOW, method)


# Deployments that fail a stage for every problem alike, with the code of the
# ULS stage's methods and that of the DAC stage's methods.
FAILING_DEPLOYMENTS = {
    "two-anchors": (dict(anchors=CORNER_ANCHORS[:2], tags=BODY_TAGS), Status.SINGULAR_SYSTEM, Status.SINGULAR_SYSTEM),
    "one-anchor": (dict(anchors=CORNER_ANCHORS[:1], tags=BODY_TAGS), Status.SINGULAR_SYSTEM, Status.SINGULAR_SYSTEM),
    "collinear-anchors": (dict(anchors=COLLINEAR_ANCHORS, tags=BODY_TAGS), Status.SINGULAR_SYSTEM, Status.SINGULAR_SYSTEM),
    "coincident-tags": (
        dict(anchors=CORNER_ANCHORS, tags=[[1.0, 0.0], [1.0, 0.0]]), Status.SINGULAR_SYSTEM, Status.DEGENERATE_PROJECTION
    ),
    "dh-1e308": (dict(anchors=CORNER_ANCHORS, tags=BODY_TAGS, dh=1e308), Status.OVERFLOW, Status.OVERFLOW),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", list(FAILING_DEPLOYMENTS))
def test_failing_deployment_gives_every_problem_a_status(case):
    # Every method returns poses, and estimate raises the error the status stands for.
    geometry, uls_code, dac_code = FAILING_DEPLOYMENTS[case]
    dep = Deployment(sigma=0.1, **geometry)
    planar = Deployment(anchors=dep.anchors, tags=dep.tags, sigma=dep.sigma)  # ranges without the height
    mean_d = np.stack([predicted_ranges(planar, Pose2(theta, [10.0, 20.0])) for theta in (1.0, 2.0, 3.0)])
    results = estimate_methods(dep, mean_d, mean_d**2, list(Method))
    for method, (poses, _) in results.items():
        code = dac_code if method in (Method.DAC, Method.GN_DAC) else uls_code
        assert isinstance(poses, PoseStack), method
        _assert_every_problem_failed(poses, code, method)
        words = code.name.lower().replace("_", " ")
        with pytest.raises(code.error, match=rf"^{method.value}: {words}$") as raised:
            estimate(RangeBatch(dep, mean_d[0][:, :, np.newaxis]), method)
        assert type(raised.value) is code.error, method


def test_failure_tally_counts_every_code_by_error_name():
    status = np.array([Status.OVERFLOW, 0, Status.NEAR_SINGULARITY, Status.SINGULAR_SYSTEM, Status.OVERFLOW,
                       Status.DEGENERATE_GEOMETRY, Status.DEGENERATE_PROJECTION, 0, Status.SINGULAR_SYSTEM,
                       Status.OVERFLOW])
    assert failure_tally(status) == ("DegenerateGeometryError=1 DegenerateProjectionError=1 EstimationError=3"
                                     " NearSingularityError=1 SingularSystemError=2")
    assert failure_tally(np.zeros(4, dtype=np.int64)) == failure_tally(np.zeros(0, dtype=np.int64)) == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_mean_of_squared_ranges_fails_every_method():
    # Mean squared ranges near 1e308 are finite, but their mean over a tag's
    # anchors overflows in both closed-form stages; the refined methods
    # inherit the failure, and no pose is reported OK.
    mean_d = np.full((2,) + reference_deployment().sigma.shape, 1e154)
    mean_d[1] = predicted_ranges(reference_deployment(), reference_pose())
    results = _assert_each_method_equals_estimate_stacked(reference_deployment(), mean_d, mean_d**2)
    for method, (poses, _) in results.items():
        assert poses.status.tolist() == [Status.OVERFLOW, Status.OK], method
        assert np.isnan(poses.theta[0]) and np.all(np.isnan(poses.t[0])), method


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_problems_with_moments_that_are_not_finite_fail_alone():
    # One problem's moments are infinite, another's NaN: each fails with
    # OVERFLOW under every method, and the others keep their bits.
    dep, batches = random_problems(17, 6, 2)
    mean_d, mean_d2 = _stack(batches)
    bad_d, bad_d2 = (np.insert(m, [1, 4], m[0], axis=0) for m in (mean_d, mean_d2))
    bad_d[1, 0, 1], bad_d2[1, 0, 1] = 1e200, np.inf
    bad_d[5, 1, 0], bad_d2[5, 1, 0] = np.nan, np.nan
    clean = _assert_each_method_equals_estimate_stacked(dep, mean_d, mean_d2)
    stacked = _assert_each_method_equals_estimate_stacked(dep, bad_d, bad_d2)
    for method, (poses, _) in stacked.items():
        assert poses.status[[1, 5]].tolist() == [Status.OVERFLOW] * 2, method
        assert np.all(np.isnan(poses.theta[[1, 5]])) and np.all(np.isnan(poses.t[[1, 5]])), method
        for got, expected in zip(poses, clean[method][0]):
            np.testing.assert_array_equal(np.delete(got, [1, 5], axis=0), expected, err_msg=method.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ranges_whose_squares_overflow_raise_the_overflow_error():
    dep = reference_deployment()
    d = np.repeat(predicted_ranges(dep, reference_pose())[:, :, np.newaxis], 3, axis=2)
    d[1, 2, 0] = 1e200
    for method in Method:
        with pytest.raises(EstimationError, match=rf"^{method.value}: overflow$") as raised:
            estimate(RangeBatch(dep, d), method)
        assert type(raised.value) is EstimationError, method


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_whose_predicted_ranges_overflow_fails_its_problem():
    # A mean range of 1e154 squares to a finite 1e308, and the closed-form
    # stages give that problem a pose near 1e306, where the Gauss-Newton
    # step's predicted ranges overflow. Its closed-form pose stays finite.
    mean_d = np.repeat(predicted_ranges(reference_deployment(), reference_pose())[np.newaxis], 3, axis=0)
    mean_d2 = mean_d**2
    mean_d[1, 0, 0], mean_d2[1, 0, 0] = 1e154, 1e308
    results = _assert_each_method_equals_estimate_stacked(reference_deployment(), mean_d, mean_d2)
    for method, (poses, _) in results.items():
        expected = Status.OVERFLOW if method in REFINED else Status.OK
        assert poses.status.tolist() == [Status.OK, expected, Status.OK], method


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
