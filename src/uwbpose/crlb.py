"""Fisher information and the SO(2)-constrained lower bound.

The parameter vector is ``Theta = (vec(R), t)`` in R^6. For independent
Gaussian range noise the information matrix is a sum of rank-one terms built
from the anchor-to-tag direction vectors; imposing the rotation constraint
restricts the bound to the orthonormal null space of the constraint
Jacobian, giving ``CRLB = U (U^T F U)^{-1} U^T``. ``fisher_info`` returns
F as a plain 6x6 array and ``constrained_crlb`` takes it with the pose.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import Deployment, Pose2, read_only, rotation_matrix
from .errors import EstimationError, NearSingularityError, UnobservableAtPoseError
from .gnrefine import ENTRIES, symmetric_inverse

# Floor on |a - s|^2 + dh^2 in the information denominator (square meters).
COINCIDENCE_FLOOR_M2 = 1e-9

# The scaled determinant of a singular reduced information; see constrained_crlb.
RANK_TOL = 1e-12


class CrlbResult(NamedTuple):
    """Constrained lower bound, a read-only 6x6 array, and its trace statistics.

    ``sqrt_trace`` is over the full 6x6 matrix; the block traces split the
    rotation (first four) and translation (last two) coordinates.
    """

    crlb: np.ndarray
    sqrt_trace: float
    rotation_block_trace: float
    translation_block_trace: float


def fisher_info(deployment: Deployment, repeat_t: int, pose: Pose2) -> np.ndarray:
    """6x6 information matrix for ``repeat_t`` ranging rounds at a given pose.

    Each (tag, anchor) pair contributes
    ``(sbar_i (x) I2) q q^T (sbar_i (x) I2)^T / (sigma^2 (|q|^2 + dh^2))``
    with ``q = a_m - (R s_i + t)`` and ``sbar_i = (s_i, 1)``; repetition
    scales the sum linearly. EstimationError when a denominator or the
    matrix overflows.
    """
    if repeat_t < 1:
        raise ValueError("repeat_t must be >= 1")
    tag_pos = pose.transform(deployment.tags)
    q = deployment.anchors[np.newaxis, :, :] - tag_pos[:, np.newaxis, :]  # (N, M, 2)
    sq_dist = np.einsum("nmk,nmk->nm", q, q) + deployment.dh**2
    if np.any(sq_dist < COINCIDENCE_FLOOR_M2):
        i, m = np.argwhere(sq_dist < COINCIDENCE_FLOOR_M2)[0]
        raise NearSingularityError(f"anchor {m} coincides with transformed tag {i}")
    sbar = np.column_stack([deployment.tags, np.ones(deployment.num_tags)])  # (N, 3)
    # b[i, m] = sbar_i (x) q[i, m], flattened to 6 components.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        b = sbar[:, :, np.newaxis, np.newaxis] * q[:, np.newaxis, :, :]  # (N, 3, M, 2)
        b = b.transpose(0, 2, 1, 3).reshape(deployment.num_tags, deployment.num_anchors, 6)
        denom = deployment.sigma**2 * sq_dist
        f = np.einsum("nma,nmb,nm->ab", b, b, 1.0 / denom) * float(repeat_t)
    if not np.all(np.isfinite(f)):
        raise EstimationError("information matrix overflows at this pose")
    if not np.all(np.isfinite(denom)):  # its term would read 0, as if that pair carried no information
        raise EstimationError("information denominator sigma^2 (|q|^2 + dh^2) overflows at this pose")
    return 0.5 * (f + f.T)


def nullspace_basis(rot: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the constraint-Jacobian null space, shape 6x3.

    The three local SO(2) constraints fix the column norms and orthogonality
    of ``R = [y1 y2]``; the determinant constraint is locally redundant.
    First column ``(y2, -y1, 0, 0) / sqrt(2)``, remaining columns the
    identity on the translation coordinates.
    """
    y1, y2 = rot[:, 0], rot[:, 1]
    u = np.zeros((6, 3))
    u[0:2, 0] = y2 / math.sqrt(2.0)
    u[2:4, 0] = -y1 / math.sqrt(2.0)
    u[4:6, 1:3] = np.eye(2)
    return u


def constrained_crlb(info: np.ndarray, pose: Pose2) -> CrlbResult:
    """Lower bound on unbiased (vec(R), t) covariance under the rotation
    constraint, from the 6x6 information matrix ``info`` at ``pose``.

    The reduced information ``A = U^T F U`` is inverted by
    ``gnrefine.symmetric_inverse`` with ``RANK_TOL``; where it is refused,
    UnobservableAtPoseError is raised. The inverse ``X`` is corrected once,
    ``X += X (I - A X)``, to the accuracy of a backward-stable solve.
    """
    u = nullspace_basis(rotation_matrix(pose.theta))
    reduced = u.T @ info @ u
    inverse, ok = symmetric_inverse(reduced[ENTRIES][:, np.newaxis], RANK_TOL)
    if not ok[0]:
        raise UnobservableAtPoseError("constrained information matrix is singular at this pose")
    inverse = inverse[..., 0] + inverse[..., 0] @ (np.eye(3) - reduced @ inverse[..., 0])
    crlb = u @ inverse @ u.T
    crlb = read_only(0.5 * (crlb + crlb.T))
    # U has orthonormal columns, and its first column lies in the rotation coordinates.
    rotation, translation_x, translation_y = inverse.diagonal().tolist()
    translation = translation_x + translation_y
    return CrlbResult(crlb, math.sqrt(rotation + translation), rotation, translation)
