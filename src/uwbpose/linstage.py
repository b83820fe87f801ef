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
Anchors enter about their centroid ``c``, so that no ``|c|^2`` cancels far
from the origin; the stage solves for ``t - c`` and adds ``c`` back.
The design does not depend on the measurements, so K problems that share a
deployment are one least-squares solve with K right-hand sides
(``stacked_uls``) on a design factored once; one problem is the case K = 1.

The correlated covariance of the projected errors is deliberately discarded;
no whitened variant is provided.
"""

from __future__ import annotations

import numpy as np

from .core import Deployment, PoseStack
from .errors import EstimationError, SingularSystemError, Status


def stacked_projected_squared_ranges(deployment: Deployment, mean_d2: np.ndarray) -> np.ndarray:
    """Debiased squared ranges centered across anchors per tag, shape (K, N, M).

    ``mean_d2`` holds the (K, N, M) per-pair mean squared ranges. Entries are
    ``mean d^2 - |a - c|^2 - sigma^2 - dh^2``, with ``c`` the anchor
    centroid (the height term makes nonzero height differences reduce to the
    planar case), minus their mean over the tag's anchors, which applies the
    all-ones projector without materializing it.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry fails its problem at so2_angles
        centered = deployment.anchors - deployment.anchors.mean(axis=0)
        rhs = mean_d2 - (np.sum(centered**2, axis=1) + deployment.sigma**2 + deployment.dh**2)
        return rhs - rhs.mean(axis=2, keepdims=True)


def linear_design(deployment: Deployment) -> np.ndarray:
    """The (N * M) x 4 design ``h`` of the projected squared-range system.

    Columns are ordered (y1, y2, t1, t2) and rows tag-major, one per (tag,
    anchor) pair. Under an observable deployment ``h`` has full column rank.
    """
    # H = [-2 (S^T (x) Abar^T) Gamma, -2 (1_N (x) Abar^T)] written out per
    # column: with centered anchor coordinates (ax, ay) and tag (s1, s2) the
    # y columns are -2 (s1 ay - s2 ax) and -2 (s1 ax + s2 ay), the imaginary
    # and real parts of conj(s) * (-2 abar) with plane vectors as complex numbers.
    with np.errstate(over="ignore", invalid="ignore"):  # least_squares refuses a non-finite design
        centered = deployment.anchors - deployment.anchors.mean(axis=0)
        scaled = -2.0 * (centered[:, 0] + 1j * centered[:, 1])  # (M,)
        products = np.multiply.outer(deployment.tags[:, 0] - 1j * deployment.tags[:, 1], scaled)  # (N, M)
    h = np.empty(products.shape + (4,))
    h[:, :, 0] = products.imag
    h[:, :, 1] = products.real
    h[:, :, 2] = scaled.real
    h[:, :, 3] = scaled.imag
    return h.reshape(-1, 4)


def least_squares(design: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solutions of ``design @ x = b`` for each ``b`` along the last axis of
    ``rhs``, from one SVD of the design, with ``np.linalg.lstsq``'s default
    rank cutoff ``s > s_max * max(design.shape) * eps``. A design that is
    not finite raises EstimationError, and a deficient rank SingularSystemError,
    each naming ``what``. ``np.einsum`` applies the pseudo-inverse in the same
    order for any number of right-hand sides, so a stack equals a loop of
    single solves bit for bit; a BLAS product does not."""
    if not np.all(np.isfinite(design)):  # np.linalg.svd may never return on one
        raise EstimationError(f"{what} overflows")
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    rank = int(np.count_nonzero(s > s[0] * (max(design.shape) * np.finfo(float).eps)))  # the same bits, no overflow
    if rank < design.shape[1]:
        raise SingularSystemError(f"{what} rank {rank} < {design.shape[1]}; deployment does not determine the pose")
    return np.einsum("...n,pn->...p", rhs, (vt.T / s) @ u.T)


def so2_angles(cos_part: np.ndarray, sin_part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angles ``atan2(sin_part, cos_part)`` and their status codes.

    For a 2x2 matrix ``x`` with ``cos_part = x11 + x22`` and
    ``sin_part = x21 - x12`` this is the angle of the rotation nearest to
    ``x`` in Frobenius norm, not reduced to [0, 2*pi): ``|x - R(theta)|^2``
    is smallest where ``tr(R(theta)^T x) = cos(theta) cos_part +
    sin(theta) sin_part`` is largest. Where both parts are zero every angle
    ties, and the status is ``DEGENERATE_PROJECTION``; where either is not
    finite the stage overflowed, and the status is ``OVERFLOW``.
    """
    status = np.zeros(cos_part.shape, dtype=np.int64)
    status[(cos_part == 0.0) & (sin_part == 0.0)] = Status.DEGENERATE_PROJECTION
    status[~(np.isfinite(cos_part) & np.isfinite(sin_part))] = Status.OVERFLOW
    return np.arctan2(sin_part, cos_part), status


def stacked_uls(deployment: Deployment, mean_d2: np.ndarray) -> PoseStack:
    """Closed-form poses of K problems from their (K, N, M) mean squared ranges.

    One ``least_squares`` solve of ``h @ (y, t - c) = dbar`` with K
    right-hand sides, ``c`` the anchor centroid, then the SO(2) projection
    of each ``y`` by ``so2_angles``, which gives each problem's status.
    Raises SingularSystemError when the deployment cannot determine any
    pose, as with fewer than 3 anchors, and EstimationError when its design
    overflows.
    """
    rhs = stacked_projected_squared_ranges(deployment, mean_d2)  # (K, N, M)
    dbar = rhs.reshape(len(rhs), deployment.num_tags * deployment.num_anchors)  # N * M explicit: K may be 0
    solution = least_squares(linear_design(deployment), dbar, "design matrix")  # (K, 4): y, then t - c
    theta, status = so2_angles(solution[:, 1], solution[:, 0])
    return PoseStack(theta, solution[:, 2:] + deployment.anchors.mean(axis=0), status)
