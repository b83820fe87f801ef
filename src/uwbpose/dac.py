"""Divide-and-conquer estimator: localize tags first, then fit the pose.

Each tag is positioned in the global frame by the same projected
squared-range trick used by the linear stage, restricted to one tag and two
unknowns. A closed-form rigid fit then recovers the pose from the tag
fixes. The intermediate localizer here is the projected squared-range
solver itself, which has the consistency the pose fit needs. K problems that
share a deployment are localized by one least-squares solve with N * K
right-hand sides and fitted by one vectorised Procrustes pass
(``stacked_dac``); one problem is the case K = 1.
"""

from __future__ import annotations

import numpy as np

from .core import Deployment, PoseStack, _rank_two
from .errors import DegenerateGeometryError, SingularSystemError
from .linstage import so2_angles, stacked_projected_squared_ranges


def _localization_design(deployment: Deployment) -> np.ndarray:
    """``-2 Abar``: the centered anchors (M, 2) scaled by -2."""
    anchors = deployment.anchors
    return -2.0 * (anchors - anchors.mean(axis=0))


def stacked_localize_tags(deployment: Deployment, mean_d2: np.ndarray) -> np.ndarray:
    """Global position of every tag of K problems from its own ranges alone,
    shape (K, N, 2).

    Solves the centered linear systems ``-2 Abar^T s_i = dbar_i`` obtained by
    squaring, debiasing, and projecting each tag's measurements. All tags of
    all problems share the design, so one least-squares call solves them
    together.
    """
    rhs = stacked_projected_squared_ranges(deployment, mean_d2)  # (K, N, M)
    design = _localization_design(deployment)
    solution, _, rank, _ = np.linalg.lstsq(design, rhs.reshape(-1, len(design)).T, rcond=None)
    if rank < 2:
        raise SingularSystemError(
            f"tag localization rank {rank} < 2; anchors are collinear", rank=int(rank)
        )
    return solution.T.reshape(rhs.shape[0], rhs.shape[1], 2)


def stacked_fit_poses(fixes: np.ndarray, tags: np.ndarray) -> PoseStack:
    """Pose of each of K problems that best maps the body-frame tags (N, 2)
    onto the problem's global fixes (K, N, 2).

    Minimizes ``sum_i |fix_i - R s_i - t|^2`` over rotations in closed form
    (2-D Procrustes; Umeyama 1991): the rotation is the SO(2) projection of
    the centered cross-covariance ``sum_i (fix_i - mean fix)(s_i - mean s)^T``
    and the translation, its conditional minimizer, is the mean fix minus
    the rotated mean tag. A zero cross-covariance gets the
    ``DEGENERATE_PROJECTION`` status. Raises DegenerateGeometryError when the
    tags cannot fix a rotation.
    """
    if tags.shape[0] < 2 or not _rank_two(tags, center=False):
        raise DegenerateGeometryError(
            "pose fit needs at least 2 tags not collinear with the body origin"
        )
    mean_fix, mean_tag = fixes.mean(axis=1), tags.mean(axis=0)
    cross = (fixes - mean_fix[:, np.newaxis]).transpose(0, 2, 1) @ (tags - mean_tag)  # (K, 2, 2)
    theta, status = so2_angles(cross[:, 0, 0] + cross[:, 1, 1], cross[:, 1, 0] - cross[:, 0, 1])
    rotated = np.exp(1j * theta) * (mean_tag[0] + 1j * mean_tag[1])  # R mean_tag as x + iy
    return PoseStack(theta, mean_fix - rotated.view(float).reshape(-1, 2), status)


def stacked_dac(deployment: Deployment, mean_d2: np.ndarray) -> PoseStack:
    """Divide-and-conquer poses of K problems from their (K, N, M) mean squared ranges."""
    return stacked_fit_poses(stacked_localize_tags(deployment, mean_d2), deployment.tags)
