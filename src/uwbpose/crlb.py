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

from .core import Deployment, Pose2
from .errors import EstimationError, NearSingularityError, UnobservableAtPoseError

# Floor on |a - s|^2 + dh^2 in the information denominator (square meters).
COINCIDENCE_FLOOR_M2 = 1e-9

# The scaled determinant of a singular reduced information; see constrained_crlb.
RANK_TOL = 1e-12


class CrlbResult(NamedTuple):
    """Constrained lower bound and its trace statistics.

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
    scales the sum linearly.
    """
    if repeat_t < 1:
        raise ValueError("repeat_t must be >= 1")
    tag_pos = pose.transform(deployment.tags)
    q = deployment.anchors[np.newaxis, :, :] - tag_pos[:, np.newaxis, :]  # (N, M, 2)
    sq_dist = np.einsum("nmk,nmk->nm", q, q) + deployment.dh**2
    if np.any(sq_dist < COINCIDENCE_FLOOR_M2):
        i, m = np.argwhere(sq_dist < COINCIDENCE_FLOOR_M2)[0]
        raise NearSingularityError(
            f"anchor {m} coincides with transformed tag {i}",
            tag_index=int(i),
            anchor_index=int(m),
        )
    sbar = np.column_stack([deployment.tags, np.ones(deployment.num_tags)])  # (N, 3)
    # b[i, m] = sbar_i (x) q[i, m], flattened to 6 components.
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        b = sbar[:, :, np.newaxis, np.newaxis] * q[:, np.newaxis, :, :]  # (N, 3, M, 2)
        b = b.transpose(0, 2, 1, 3).reshape(deployment.num_tags, deployment.num_anchors, 6)
        inv_denom = 1.0 / (deployment.sigma**2 * sq_dist)
        f = np.einsum("nma,nmb,nm->ab", b, b, inv_denom) * float(repeat_t)
    if not np.all(np.isfinite(f)):
        raise EstimationError("information matrix overflows at this pose")
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

    The reduced information ``A = U^T F U`` is scaled to unit diagonal and
    inverted by its adjugate, as in ``gnrefine.stacked_gn_step``; a diagonal
    entry that is not positive, or a scaled determinant at most
    ``RANK_TOL``, raises UnobservableAtPoseError. The scaled eigenvalues sum
    to 3, so the largest is at least 1 and the two largest multiply to at
    most 2.25: a refused matrix has a smallest eigenvalue at most
    sqrt(``RANK_TOL``) = 1e-6 (at most ``RANK_TOL`` over the middle one), an
    accepted one a smallest eigenvalue above ``RANK_TOL`` / 2.25 and a
    condition number below 6.75e12. The adjugate loses accuracy when two
    eigenvalues are small, so the inverse ``X`` is corrected once,
    ``X += X (I - A X)``, to the accuracy of a backward-stable solve.
    """
    u = nullspace_basis(pose.rotation)
    reduced = u.T @ info @ u
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = reduced.tolist()
    s0, s1, s2 = (a**-0.5 if a > 0.0 else math.nan for a in (a00, a11, a22))  # NaN fails the rank test
    # Cofactors of the scaled matrix [[1, p, q], [p, 1, r], [q, r, 1]].
    p, q, r = a01 * s0 * s1, a02 * s0 * s2, a12 * s1 * s2
    c00, c11, c22 = 1.0 - r * r, 1.0 - q * q, 1.0 - p * p
    c01, c02, c12 = q * r - p, p * r - q, p * q - r
    det = c00 + p * c01 + q * c02
    if not det > RANK_TOL:
        raise UnobservableAtPoseError("constrained information matrix is singular at this pose")
    scale = np.array([s0, s1, s2])
    inverse = np.array([[c00, c01, c02], [c01, c11, c12], [c02, c12, c22]]) * (np.outer(scale, scale) / det)
    inverse += inverse @ (np.eye(3) - reduced @ inverse)  # D adj(D A D) D / det, corrected once
    crlb = u @ inverse @ u.T
    # U has orthonormal columns, and its first column lies in the rotation coordinates.
    rotation, translation_x, translation_y = inverse.diagonal().tolist()
    translation = translation_x + translation_y
    return CrlbResult(0.5 * (crlb + crlb.T), math.sqrt(rotation + translation), rotation, translation)
