"""Estimator entry points: K stacked problems (one problem is K = 1), each stage run once for all its methods."""

from __future__ import annotations

import time

import numpy as np

from .core import Deployment, Method, Pose2, PoseStack, RangeBatch, read_only, wrap_angles
from .dac import stacked_dac
from .errors import EstimationError, Status
from .gnrefine import stacked_gn_step
from .linstage import stacked_uls


def estimate_methods(
    deployment: Deployment, mean_d: np.ndarray, mean_d2: np.ndarray, methods
) -> dict[Method, tuple[PoseStack, float]]:
    """Poses of K problems that share ``deployment`` by each of ``methods``,
    from the (K, N, M) per-pair means ``mean_d`` and ``mean_d2`` of their
    ranges and squared ranges. The ULS stage runs once for ``uls`` and
    ``gn-uls``, the DAC stage once for ``dac`` and ``gn-dac``, and each
    refined method takes one Gauss-Newton step unless every start failed. A failed
    problem gets its nonzero ``errors.Status`` code and a NaN pose, ``OVERFLOW`` under every method
    when a moment of its own is not finite; when the deployment itself fails a stage, every problem
    gets the first code whose error class it raised. Moments of the wrong shape raise ValueError.
    Returns per method its poses, with read-only arrays, and the seconds its stage and step took."""
    shape = (deployment.num_tags, deployment.num_anchors)
    mean_d, mean_d2 = np.asarray(mean_d, dtype=float), np.asarray(mean_d2, dtype=float)
    if mean_d.ndim != 3 or mean_d.shape[1:] != shape or mean_d2.shape != mean_d.shape:
        raise ValueError(f"mean_d and mean_d2 must both have shape (K, {shape[0]}, {shape[1]})")
    overflow = None
    if not (np.all(np.isfinite(mean_d)) and np.all(np.isfinite(mean_d2))):  # per problem only when needed
        overflow = ~(np.isfinite(mean_d).all(axis=(1, 2)) & np.isfinite(mean_d2).all(axis=(1, 2)))
        mean_d, mean_d2 = (np.where(overflow[:, np.newaxis, np.newaxis], 0.0, m) for m in (mean_d, mean_d2))

    stages, results = {}, {}
    for method in map(Method, methods):
        stage = stacked_dac if method in (Method.DAC, Method.GN_DAC) else stacked_uls
        if stage not in stages:
            start = time.perf_counter()
            try:
                poses = stage(deployment, mean_d2)
            except EstimationError as exc:  # the deployment itself fails every problem alike
                code = next(c for c in Status if c and isinstance(exc, c.error))
                poses = PoseStack(np.zeros(len(mean_d)), np.zeros((len(mean_d), 2)), np.full(len(mean_d), int(code)))
            if overflow is not None:
                poses = poses._replace(status=np.where(overflow, Status.OVERFLOW, poses.status))
            stages[stage] = poses, time.perf_counter() - start
        poses, seconds = stages[stage]
        start = time.perf_counter()
        if method in (Method.GN_ULS, Method.GN_DAC) and not poses.status.all():
            step = stacked_gn_step(deployment, mean_d, poses.theta, poses.t)
            poses = step._replace(status=np.where(poses.status != 0, poses.status, step.status))
        failed = poses.status != 0
        poses = PoseStack(np.where(failed, np.nan, wrap_angles(poses.theta)),
                          np.where(failed[:, np.newaxis], np.nan, poses.t), poses.status)
        results[method] = PoseStack(*map(read_only, poses)), seconds + time.perf_counter() - start
    return results


def failure_tally(status: np.ndarray) -> str:
    """``"<Error>=<count> ..."`` of the nonzero ``status`` codes, sorted by error name; "" if none."""
    failed = {Status(c).error.__name__: n for c, n in enumerate(np.bincount(status).tolist()) if c and n}
    return " ".join(f"{name}={n}" for name, n in sorted(failed.items()))


def estimate_stacked(deployment: Deployment, mean_d: np.ndarray, mean_d2: np.ndarray, method: Method) -> PoseStack:
    """``estimate_methods`` of one method, without its time."""
    ((poses, _),) = estimate_methods(deployment, mean_d, mean_d2, (method,)).values()
    return poses


def estimate(batch: RangeBatch, method: Method) -> Pose2:
    """Pose of one problem: ``estimate_stacked`` of ``batch`` alone.

    Raises the error its nonzero status stands for (``Status(code).error``),
    with the message ``"<method>: <status in words>"``.
    """
    poses = estimate_stacked(batch.deployment, batch.mean_d[np.newaxis], batch.mean_d2[np.newaxis], method)
    code = Status(int(poses.status[0]))
    if code:
        raise code.error(f"{Method(method).value}: {code.name.lower().replace('_', ' ')}")
    return Pose2(poses.theta[0], poses.t[0])
