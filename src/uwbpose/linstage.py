"""Closed-form first stage: projected squared-range linear system.

Squaring the range model and subtracting the known per-pair variance gives,
per tag, a linear relation in ``(vec(R), t)`` plus a quadratic nuisance term
that is constant across anchors. Projecting onto the orthogonal complement
of the all-ones vector removes the nuisance, leaving a least-squares
problem in ``(y, t)``, with ``y = (sin theta, cos theta)`` entering through
``vec(R) = Gamma y``, where ``Gamma = [[0, 1], [1, 0], [-1, 0], [0, 1]]``
stacks ``R`` column-major. Repetitions add identical design rows, so there is
one row per (tag, anchor) pair on the mean squared range; the normal
equations are those of all n measurements divided by T. The solution is
consistent but unconstrained, so the rotation part is projected onto SO(2):
the nearest rotation to ``x = Gamma y`` has the angle
``atan2(x21 - x12, x11 + x22) = atan2(2 y1, 2 y2) = atan2(y1, y2)``.
The design does not depend on the measurements, so K problems that share a
deployment are one least-squares solve with K right-hand sides
(``stacked_uls``); one problem is the case K = 1.

The correlated covariance of the projected errors is deliberately discarded;
no whitened variant is provided.
"""

from __future__ import annotations

import numpy as np

from .core import Deployment, PoseStack
from .errors import SingularSystemError, Status, UnderdeterminedDeploymentError

# With two anchors a tag's two centered rows are negatives of each other,
# so every row is s1 u + s2 v + w for fixed u, v, w and the design has rank
# at most 3 < 4, for any number of tags and repetitions.
MIN_ANCHORS = 3


def stacked_projected_squared_ranges(deployment: Deployment, mean_d2: np.ndarray) -> np.ndarray:
    """Debiased squared ranges centered across anchors per tag, shape (K, N, M).

    ``mean_d2`` holds the (K, N, M) per-pair mean squared ranges. Entries are
    ``mean d^2 - |a|^2 - sigma^2 - dh^2`` (the height term makes nonzero
    height differences reduce to the planar case) minus their mean over the
    tag's anchors, which applies the all-ones projector without
    materializing it.
    """
    if deployment.num_anchors < MIN_ANCHORS:
        raise UnderdeterminedDeploymentError(
            f"need at least {MIN_ANCHORS} anchors, got {deployment.num_anchors}"
        )
    rhs = mean_d2 - _squared_range_offset(deployment)
    return rhs - rhs.mean(axis=2, keepdims=True)


def _squared_range_offset(deployment: Deployment) -> np.ndarray:
    """``|a|^2 + sigma^2 + dh^2`` per (tag, anchor) pair, shape (N, M)."""
    dep = deployment
    return np.sum(dep.anchors**2, axis=1) + dep.sigma**2 + dep.dh**2


def linear_design(deployment: Deployment) -> np.ndarray:
    """The (N * M) x 4 design ``h`` of the projected squared-range system.

    Columns are ordered (y1, y2, t1, t2) and rows tag-major, one per (tag,
    anchor) pair. Under an observable deployment ``h`` has full column rank.
    """
    # H = [-2 (S^T (x) Abar^T) Gamma, -2 (1_N (x) Abar^T)] written out per
    # column: with centered anchor coordinates (ax, ay) and tag (s1, s2) the
    # y columns are -2 (s1 ay - s2 ax) and -2 (s1 ax + s2 ay), the imaginary
    # and real parts of conj(s) * (-2 abar) with plane vectors as complex numbers.
    centered = deployment.anchors - deployment.anchors.mean(axis=0)
    scaled = -2.0 * (centered[:, 0] + 1j * centered[:, 1])  # (M,)
    tags = deployment.tags
    products = np.multiply.outer(tags[:, 0] - 1j * tags[:, 1], scaled)  # (N, M)
    h = np.empty(products.shape + (4,))
    h[:, :, 0] = products.imag
    h[:, :, 1] = products.real
    h[:, :, 2] = scaled.real
    h[:, :, 3] = scaled.imag
    return h.reshape(-1, 4)


def solve_uls(h: np.ndarray, dbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares solve of the linear stage ``h @ (y, t) = dbar``.

    ``dbar`` holds the projected squared ranges matching the rows of ``h``,
    (N * M,) for one problem or (N * M, K) with one column per problem.
    Returns ``(y, t)``, each with a trailing K axis when ``dbar`` has K
    columns; ``y`` is not unit length in general. Uses an orthogonal
    factorization rather than forming the normal equations. Raises
    SingularSystemError carrying the numeric rank when the design matrix
    is rank deficient.
    """
    solution, _, rank, _ = np.linalg.lstsq(h, dbar, rcond=None)
    if rank < 4:
        raise SingularSystemError(
            f"design matrix rank {rank} < 4; deployment does not determine the pose",
            rank=int(rank),
        )
    return solution[:2], solution[2:]


def so2_angles(cos_part: np.ndarray, sin_part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angles ``atan2(sin_part, cos_part)`` and their status codes.

    For a 2x2 matrix ``x`` with ``cos_part = x11 + x22`` and
    ``sin_part = x21 - x12`` this is the angle of the rotation nearest to
    ``x`` in Frobenius norm, not reduced to [0, 2*pi): ``|x - R(theta)|^2``
    is smallest where ``tr(R(theta)^T x) = cos(theta) cos_part +
    sin(theta) sin_part`` is largest. Where both parts are zero every angle
    ties: the status is ``DEGENERATE_PROJECTION``.
    """
    status = np.zeros(cos_part.shape, dtype=np.int64)
    status[(cos_part == 0.0) & (sin_part == 0.0)] = Status.DEGENERATE_PROJECTION
    return np.arctan2(sin_part, cos_part), status


def stacked_uls(deployment: Deployment, mean_d2: np.ndarray) -> PoseStack:
    """Closed-form poses of K problems from their (K, N, M) mean squared ranges.

    One least-squares solve with K right-hand sides, then the SO(2)
    projection of each ``y``. A problem whose ``y`` is zero gets the
    ``DEGENERATE_PROJECTION`` status. Raises UnderdeterminedDeploymentError
    or SingularSystemError when the deployment cannot determine any pose.
    """
    rhs = stacked_projected_squared_ranges(deployment, mean_d2)
    dbar = rhs.reshape(len(rhs), deployment.num_tags * deployment.num_anchors).T
    y, t = solve_uls(linear_design(deployment), dbar)
    theta, status = so2_angles(y[1], y[0])
    return PoseStack(theta, t.T, status)
