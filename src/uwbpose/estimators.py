"""Estimator entry points: K stacked problems (one problem is K = 1), each stage run once for all its methods."""

from __future__ import annotations

import time

import numpy as np

from .core import Deployment, Method, Pose2, PoseStack, RangeBatch, wrap_angles
from .dac import stacked_dac
from .errors import EstimationError, Status
from .gnrefine import stacked_gn_step
from .linstage import stacked_uls


def estimate_methods(
    deployment: Deployment, mean_d: np.ndarray, mean_d2: np.ndarray, methods
) -> dict[Method, tuple[PoseStack | EstimationError, float]]:
    """Poses of K problems that share ``deployment`` by each of ``methods``,
    from the (K, N, M) per-pair means ``mean_d`` and ``mean_d2`` of their
    ranges and squared ranges. The ULS stage runs once for ``uls`` and
    ``gn-uls``, the DAC stage once for ``dac`` and ``gn-dac``, and each
    refined method takes one Gauss-Newton step. A problem that fails gets
    its nonzero ``errors.Status`` code and a NaN pose. Returns per method its
    poses, or the EstimationError its stage raised when the deployment
    itself fails, and the seconds its stage and step took."""
    shape = (deployment.num_tags, deployment.num_anchors)
    mean_d = np.asarray(mean_d, dtype=float)
    mean_d2 = np.asarray(mean_d2, dtype=float)
    if mean_d.ndim != 3 or mean_d.shape[1:] != shape or mean_d2.shape != mean_d.shape:
        raise ValueError(f"mean_d and mean_d2 must both have shape (K, {shape[0]}, {shape[1]})")
    if not (np.all(np.isfinite(mean_d)) and np.all(np.isfinite(mean_d2))):
        raise ValueError("range moments must be finite")

    stages, results = {}, {}
    for method in map(Method, methods):
        stage = stacked_dac if method in (Method.DAC, Method.GN_DAC) else stacked_uls
        if stage not in stages:
            start = time.perf_counter()
            try:
                poses = stage(deployment, mean_d2)
            except EstimationError as exc:  # reaches every method that starts from this stage
                poses = exc
            stages[stage] = poses, time.perf_counter() - start
        poses, seconds = stages[stage]
        start = time.perf_counter()
        if isinstance(poses, PoseStack):
            if method in (Method.GN_ULS, Method.GN_DAC):
                step = stacked_gn_step(deployment, mean_d, poses.theta, poses.t)
                poses = step._replace(status=np.where(poses.status != 0, poses.status, step.status))
            failed = poses.status != 0
            poses = PoseStack(
                np.where(failed, np.nan, wrap_angles(poses.theta)),
                np.where(failed[:, np.newaxis], np.nan, poses.t),
                poses.status,
            )
        results[method] = poses, seconds + time.perf_counter() - start
    return results


def estimate_stacked(deployment: Deployment, mean_d: np.ndarray, mean_d2: np.ndarray, method: Method) -> PoseStack:
    """``estimate_methods`` of one method; raises its stage's EstimationError."""
    ((poses, _),) = estimate_methods(deployment, mean_d, mean_d2, (method,)).values()
    if isinstance(poses, EstimationError):
        raise poses
    return poses


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
