"""Estimator entry points: one problem per call, or K problems stacked."""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from .core import Deployment, EstimateReport, Method, PoseStack, wrap_angles
from .dac import estimate_dac, stacked_dac
from .gnrefine import estimate_gn_uls, stacked_gn_step
from .linstage import estimate_uls, stacked_uls

ESTIMATORS: dict[Method, Callable[..., EstimateReport]] = {
    Method.ULS: estimate_uls,
    Method.GN_ULS: estimate_gn_uls,
    Method.DAC: partial(estimate_dac, refine=False),
    Method.GN_DAC: partial(estimate_dac, refine=True),
}


def estimate_stacked(
    deployment: Deployment,
    mean_d: np.ndarray,
    mean_d2: np.ndarray,
    method: Method,
    gn_steps: int = 1,
) -> PoseStack:
    """Poses of K problems that share ``deployment``, estimated together.

    ``mean_d`` and ``mean_d2`` are the (K, N, M) per-pair means of the
    ranges and of their squares; with one repetition they are the ranges and
    their squares. ``gn_steps`` Gauss-Newton steps refine the ``gn-uls`` and
    ``gn-dac`` estimates; ``uls`` and ``dac`` take none. Each problem's pose
    equals what the single-problem estimator returns for it (with its first
    step followed by ``gn_steps - 1`` calls of ``gn_step``), up to rounding.
    A problem that estimator would fail gets that error's nonzero
    ``errors.Status`` code and a NaN pose. Failures of the deployment itself
    raise, as the single-problem estimators do.
    """
    method = Method(method)
    if gn_steps < 1:
        raise ValueError(f"gn_steps must be at least 1, got {gn_steps}")
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
        for _ in range(gn_steps):
            step = stacked_gn_step(deployment, mean_d, poses.theta, poses.t)
            poses = step._replace(status=np.where(poses.status != 0, poses.status, step.status))
    failed = poses.status != 0
    return PoseStack(
        np.where(failed, np.nan, wrap_angles(poses.theta)),
        np.where(failed[:, np.newaxis], np.nan, poses.t),
        poses.status,
    )
