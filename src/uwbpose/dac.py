"""Divide-and-conquer estimator: localize tags first, then fit the pose.

Each tag is positioned in the global frame by the same projected
squared-range trick used by the linear stage, restricted to one tag and two
unknowns. A closed-form rigid fit then recovers the pose from the tag
fixes. The intermediate localizer here is the projected squared-range
solver itself, which has the consistency the pose fit needs. K problems that
share a deployment are localized by one least-squares solve with N * K
right-hand sides, on a design factored once, and fitted by one vectorised
Procrustes pass (``stacked_dac``); one problem is the case K = 1.
"""

from __future__ import annotations

import numpy as np

from .core import Deployment, PoseStack
from .linstage import least_squares, so2_angles, stacked_projected_squared_ranges


def stacked_localize_tags(deployment: Deployment, mean_d2: np.ndarray) -> np.ndarray:
    """Global position of every tag of K problems from its own ranges alone,
    shape (K, N, 2).

    Solves the centered systems ``-2 Abar (s_i - c) = dbar_i``, with ``c``
    the anchor centroid, from each tag's squared, debiased and projected
    measurements. All tags of all problems share the design, so one
    least-squares call solves them together, on one factorization of the
    design (``least_squares``, which refuses a rank below 2 or a design that overflows).
    """
    rhs = stacked_projected_squared_ranges(deployment, mean_d2)  # (K, N, M)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite design fails at least_squares, a fix later
        centroid = deployment.anchors.mean(axis=0)
        return least_squares(-2.0 * (deployment.anchors - centroid), rhs, "tag localization") + centroid


def stacked_fit_poses(fixes: np.ndarray, tags: np.ndarray) -> PoseStack:
    """Pose of each of K problems that best maps the body-frame tags (N, 2)
    onto the problem's global fixes (K, N, 2).

    Minimizes ``sum_i |fix_i - R s_i - t|^2`` over rotations in closed form
    (2-D Procrustes; Umeyama 1991): the rotation is the SO(2) projection of
    the centered cross-covariance ``sum_i (fix_i - mean fix)(s_i - mean s)^T``
    and the translation, its conditional minimizer, is the mean fix minus
    the rotated mean tag. A zero cross-covariance, as from one tag or two
    coincident tags, which cannot fix a rotation, gets the status
    ``DEGENERATE_PROJECTION``, and one that is not finite ``OVERFLOW``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a fit that overflows gets OVERFLOW at so2_angles
        mean_fix, mean_tag = fixes.mean(axis=1), tags.mean(axis=0)
        cross = (fixes - mean_fix[:, np.newaxis]).transpose(0, 2, 1) @ (tags - mean_tag)  # (K, 2, 2)
        theta, status = so2_angles(cross[:, 0, 0] + cross[:, 1, 1], cross[:, 1, 0] - cross[:, 0, 1])
        rotated = np.exp(1j * theta) * (mean_tag[0] + 1j * mean_tag[1])  # R mean_tag as x + iy
        return PoseStack(theta, mean_fix - rotated.view(float).reshape(-1, 2), status)


def stacked_dac(deployment: Deployment, mean_d2: np.ndarray) -> PoseStack:
    """Divide-and-conquer poses of K problems from their (K, N, M) mean squared ranges."""
    return stacked_fit_poses(stacked_localize_tags(deployment, mean_d2), deployment.tags)
