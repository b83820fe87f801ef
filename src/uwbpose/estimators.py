"""Estimator entry points: K problems stacked, or one problem as K = 1."""

from __future__ import annotations

import numpy as np

from .core import Deployment, Method, Pose2, PoseStack, RangeBatch, wrap_angles
from .dac import stacked_dac
from .errors import Status
from .gnrefine import stacked_gn_step
from .linstage import stacked_uls


def estimate_stacked(
    deployment: Deployment,
    mean_d: np.ndarray,
    mean_d2: np.ndarray,
    method: Method,
) -> PoseStack:
    """Poses of K problems that share ``deployment``, estimated together.

    ``mean_d`` and ``mean_d2`` are the (K, N, M) per-pair means of the
    ranges and of their squares; with one repetition they are the ranges and
    their squares. One Gauss-Newton step refines the ``gn-uls`` and
    ``gn-dac`` estimates; ``uls`` and ``dac`` take none. A problem that
    fails gets the nonzero ``errors.Status`` code of its error and a NaN
    pose. Failures of the deployment itself (too few anchors, a
    rank-deficient design, degenerate tags) raise.
    """
    method = Method(method)
    shape = (deployment.num_tags, deployment.num_anchors)
    mean_d = np.asarray(mean_d, dtype=float)
    mean_d2 = np.asarray(mean_d2, dtype=float)
    if mean_d.ndim != 3 or mean_d.shape[1:] != shape or mean_d2.shape != mean_d.shape:
        raise ValueError(f"mean_d and mean_d2 must both have shape (K, {shape[0]}, {shape[1]})")
    if not (np.all(np.isfinite(mean_d)) and np.all(np.isfinite(mean_d2))):
        raise ValueError("range moments must be finite")

    if method in (Method.DAC, Method.GN_DAC):
        poses = stacked_dac(deployment, mean_d2)
    else:
        poses = stacked_uls(deployment, mean_d2)
    if method in (Method.GN_ULS, Method.GN_DAC):
        step = stacked_gn_step(deployment, mean_d, poses.theta, poses.t)
        poses = step._replace(status=np.where(poses.status != 0, poses.status, step.status))
    failed = poses.status != 0
    return PoseStack(
        np.where(failed, np.nan, wrap_angles(poses.theta)),
        np.where(failed[:, np.newaxis], np.nan, poses.t),
        poses.status,
    )


def estimate(batch: RangeBatch, method: Method) -> Pose2:
    """Pose of one problem: ``estimate_stacked`` of ``batch`` alone.

    Raises the error a nonzero status stands for (``Status(code).error``),
    and whatever ``estimate_stacked`` raises.
    """
    poses = estimate_stacked(batch.deployment, batch.mean_d[np.newaxis], batch.mean_d2[np.newaxis], method)
    code = Status(int(poses.status[0]))
    if code:
        raise code.error(f"{Method(method).value}: {code.name.lower().replace('_', ' ')}")
    return Pose2(poses.theta[0], poses.t[0])
