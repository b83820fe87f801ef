"""Shared geometry builders and synthesis helpers for the test suite."""

from __future__ import annotations

import numpy as np

from uwbpose.core import Deployment, Pose2, RangeBatch, check_observability, predicted_ranges

CORNER_ANCHORS = np.array([[50.0, 0.0], [50.0, 50.0], [0.0, 50.0]])
BODY_TAGS = np.array([[3.0, 0.0], [3.0, 3.0]])
BODY_TAGS_3 = np.array([[3.0, 0.0], [3.0, 3.0], [0.0, 3.0]])
COLLINEAR_ANCHORS = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])


def reference_sigma_matrix() -> np.ndarray:
    """Six noise deviations 0.05*[1..6] assigned anchor-major, tag-minor."""
    return 0.05 * np.arange(1, 7).reshape(3, 2).T


def reference_deployment(sigma=0.1, dh=0.0, tags=BODY_TAGS) -> Deployment:
    return Deployment(anchors=CORNER_ANCHORS, tags=tags, sigma=sigma, dh=dh)


def reference_pose() -> Pose2:
    return Pose2(np.deg2rad(60.0), [0.0, 25.0])


def noiseless_batch(dep: Deployment, pose: Pose2, repeat_t: int = 1) -> RangeBatch:
    clean = predicted_ranges(dep, pose)
    return RangeBatch(dep, repeat_t, np.repeat(clean[:, :, None], repeat_t, axis=2))


def noisy_batch(
    dep: Deployment,
    pose: Pose2,
    repeat_t: int,
    rng: np.random.Generator,
    noise_scale: float = 1.0,
) -> RangeBatch:
    clean = predicted_ranges(dep, pose)
    shape = (dep.num_tags, dep.num_anchors, repeat_t)
    noise = noise_scale * dep.sigma[:, :, None] * rng.standard_normal(shape)
    return RangeBatch(dep, repeat_t, clean[:, :, None] + noise)


def random_observable_deployment(
    rng: np.random.Generator,
    sigma=None,
    min_spread: float = 0.05,
) -> Deployment:
    """Random well-conditioned deployment: anchors on a 60 m plane, tags on a
    small body, uniform sigma unless given."""
    while True:
        n_anchors = int(rng.integers(3, 9))
        n_tags = int(rng.integers(2, 5))
        anchors = rng.uniform(0.0, 60.0, size=(n_anchors, 2))
        tags = rng.uniform(-4.0, 4.0, size=(n_tags, 2))
        dep = Deployment(
            anchors=anchors,
            tags=tags,
            sigma=float(rng.uniform(0.02, 0.3)) if sigma is None else sigma,
        )
        if not check_observability(dep):
            continue
        a_s = np.linalg.svd(anchors - anchors.mean(axis=0), compute_uv=False)
        t_s = np.linalg.svd(tags, compute_uv=False)
        if a_s[-1] >= min_spread * a_s[0] and t_s[-1] >= min_spread * t_s[0]:
            return dep


def pose_parameter_vector(pose: Pose2) -> np.ndarray:
    """(vec(R), t) as a 6-vector, column-major rotation stacking."""
    return np.concatenate([pose.rotation.reshape(4, order="F"), pose.t])


def random_pose(rng: np.random.Generator) -> Pose2:
    return Pose2(rng.uniform(0.0, 2.0 * np.pi), rng.uniform(10.0, 40.0, size=2))
