"""Divide-and-conquer estimator: localize tags first, then fit the pose.

Each tag is positioned in the global frame by the same projected
squared-range trick used by the linear stage, restricted to one tag and two
unknowns. A closed-form rigid fit then recovers the pose from the tag
fixes. The intermediate localizer here is the projected squared-range
solver itself, which has the consistency the pose fit needs.
"""

from __future__ import annotations

import time

import numpy as np

from .core import (
    EstimateReport,
    Method,
    Pose2,
    RangeBatch,
    _rank_two,
    ml_cost,
    rotation_matrix,
)
from .crlb import estimate_covariance
from .errors import DegenerateGeometryError, SingularSystemError
from .gnrefine import gn_step
from .linstage import project_so2, projected_squared_ranges


def localize_tags(batch: RangeBatch) -> np.ndarray:
    """Global position of every tag from its own ranges alone, shape (N, 2).

    Solves the centered linear systems ``-2 Abar^T s_i = dbar_i`` obtained by
    squaring, debiasing, and projecting each tag's measurements. All tags
    share the design, so one least-squares call solves them together.
    """
    rhs = projected_squared_ranges(batch)  # (N, M)
    anchors = batch.deployment.anchors
    design = -2.0 * (anchors - anchors.mean(axis=0))
    solution, _, rank, _ = np.linalg.lstsq(design, rhs.T, rcond=None)
    if rank < 2:
        raise SingularSystemError(
            f"tag localization rank {rank} < 2; anchors are collinear", rank=int(rank)
        )
    return solution.T


def fit_pose_from_fixes(fixes, tags_body) -> Pose2:
    """Pose that best maps body-frame tags onto their global fixes.

    Minimizes ``sum_i |fix_i - R s_i - t|^2`` over rotations in closed form
    (2-D Procrustes; Umeyama 1991): the rotation is the SO(2) projection of
    the centered cross-covariance ``sum_i (fix_i - mean fix)(s_i - mean s)^T``
    and the translation, its conditional minimizer, is the mean fix minus
    the rotated mean tag. The result beats every candidate pose.
    """
    positions = np.asarray(fixes, dtype=float)
    tags = np.asarray(tags_body, dtype=float)
    if positions.shape != tags.shape or tags.ndim != 2 or tags.shape[1] != 2:
        raise ValueError("fixes and body tags must both be (N, 2) arrays")
    if tags.shape[0] < 2 or not _rank_two(tags, center=False):
        raise DegenerateGeometryError(
            "pose fit needs at least 2 tags not collinear with the body origin"
        )
    mean_fix, mean_tag = positions.mean(axis=0), tags.mean(axis=0)
    theta = project_so2((positions - mean_fix).T @ (tags - mean_tag))
    return Pose2(theta, mean_fix - rotation_matrix(theta) @ mean_tag)


def estimate_dac(
    batch: RangeBatch, refine: bool = False, with_covariance: bool = False
) -> EstimateReport:
    """Divide-and-conquer estimate; ``refine`` adds one Gauss-Newton step."""
    start = time.perf_counter()
    pose = fit_pose_from_fixes(localize_tags(batch), batch.deployment.tags)
    timings = {"dac_us": (time.perf_counter() - start) * 1e6}
    if refine:
        start = time.perf_counter()
        pose = gn_step(batch, pose)
        timings["gn_us"] = (time.perf_counter() - start) * 1e6
    return EstimateReport(
        pose=pose,
        method=Method.GN_DAC if refine else Method.DAC,
        residual_cost=ml_cost(batch, pose),
        covariance=estimate_covariance(batch, pose) if with_covariance else None,
        timings_us=timings,
    )
