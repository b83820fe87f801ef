"""One Gauss-Newton step on the weighted range-residual objective.

A single step from any root-n-consistent initial pose already attains the
accuracy of the full maximum-likelihood minimizer asymptotically, so exactly
one iteration is the library default. The step linearizes the predicted
ranges in (theta, t) around the initial pose and solves the weighted
normal equations in closed form. Repetitions share their pair's Jacobian
row, so there is one row per (tag, anchor) pair on the mean range; the
normal equations are those of all n measurements divided by T. K problems
that share a deployment take their steps together (``stacked_gn_step``):
their 3 x 3 normal matrices come from one stacked product and are solved by
their adjugates, elementwise over K; one problem is the case K = 1.
"""

from __future__ import annotations

import numpy as np

from .core import Deployment, PoseStack
from .errors import Status

# Predicted ranges below this floor make the 1/range Jacobian terms blow up;
# tag-on-anchor coincidence is treated as an explicit failure.
PROXIMITY_FLOOR_M = 1e-6

# A normal matrix scaled to unit diagonal whose determinant is at most this
# is rank-deficient; see stacked_gn_step.
RANK_TOL = 1e-10


def linearize(deployment: Deployment, theta: np.ndarray, t: np.ndarray, row_scale):
    """Predicted ranges ``g`` (K, N, M) at K poses, the mask of those below
    ``PROXIMITY_FLOOR_M``, and the (K, N, M, 3) (theta, t) Jacobian with
    each pair's row multiplied by ``row_scale``.

    For a height offset dh the predicted range is
    ``g = sqrt(|f|^2 + dh^2)`` with ``f = a - R s - t``; its derivatives are
    ``-(s1 u2 - s2 u1) / g`` in theta, with ``u = R^T f``, and ``-f / g`` in t.
    Plane vectors are complex numbers here, so ``R s`` is ``e^(i theta) s``
    and ``s1 u2 - s2 u1`` is ``Im(conj(R s) f)``. Rows of pairs below the
    floor are divided by 1 in place of ``g``, so that every entry stays
    finite.
    """
    anchors = deployment.anchors[:, 0] + 1j * deployment.anchors[:, 1]
    tags = deployment.tags[:, 0] + 1j * deployment.tags[:, 1]
    rotated = np.exp(1j * theta)[:, np.newaxis] * tags  # R s, (K, N)
    f = anchors - (rotated + (t[:, 0] + 1j * t[:, 1])[:, np.newaxis])[:, :, np.newaxis]
    with np.errstate(over="ignore"):  # an overflowing range gives g = inf and a zero row
        g = np.sqrt(f.real**2 + f.imag**2 + deployment.dh**2)
    close = g < PROXIMITY_FLOOR_M
    scale = -row_scale / np.where(close, 1.0, g)
    jac = np.empty(g.shape + (3,))
    np.multiply((rotated.conj()[:, :, np.newaxis] * f).imag, scale, out=jac[..., 0])
    np.multiply(f.real, scale, out=jac[..., 1])
    np.multiply(f.imag, scale, out=jac[..., 2])
    return g, close, jac


def stacked_gn_step(
    deployment: Deployment, mean_d: np.ndarray, theta: np.ndarray, t: np.ndarray
) -> PoseStack:
    """One weighted Gauss-Newton update of each of K poses on its problem's
    (K, N, M) mean ranges; the angles are not reduced to [0, 2*pi).

    Each problem solves its normal equations ``A u = b``, with
    ``A = J^T J`` and ``b = J^T r`` for the weighted Jacobian ``J`` and
    residual ``r``. ``A`` is first scaled to unit diagonal, ``D A D`` with
    ``D = diag(A)^(-1/2)``, so that the rank test does not depend on the
    units of theta (rad) and t (m); the scaled system is solved by its
    adjugate. Its eigenvalues sum to 3, so the largest is at least 1 and the
    two largest multiply to at most 2.25. A determinant at most
    ``RANK_TOL`` therefore means a smallest eigenvalue at most
    ``sqrt(RANK_TOL)`` = 1e-5; one above it means a smallest eigenvalue
    above ``RANK_TOL / 2.25``, a condition number below 7e10, and a
    relative error of the solve of at most about that times eps, 1.5e-5.
    Forming ``A`` squares the condition number of ``J``, so the solve is
    corrected once, ``u += A^-1 J^T (r - J u)``, which brings the error of
    the update near that of an orthogonal factorization of ``J``.

    A problem gets the ``NEAR_SINGULARITY`` status when a predicted range
    falls below ``PROXIMITY_FLOOR_M``, else ``DEGENERATE_GEOMETRY`` when a
    Jacobian column is zero or the scaled determinant is at most
    ``RANK_TOL``. Poses of failed problems are finite but meaningless.
    Scaling every sigma by a common factor leaves the update unchanged, and
    a noiseless problem evaluated at its true pose is a fixed point.
    """
    root_w = 1.0 / deployment.sigma
    g, close, jac = linearize(deployment, theta, t, root_w)
    k, rows = g.shape[0], g.shape[1] * g.shape[2]
    jac = jac.reshape(k, rows, 3)
    jac_t = np.ascontiguousarray(jac.transpose(0, 2, 1))  # stacked matmul is slow on the strided view
    rw = ((mean_d - g) * root_w).reshape(k, rows, 1)
    a = jac_t @ jac
    diag = a.diagonal(axis1=1, axis2=2)
    zero = diag == 0.0
    scale = 1.0 / np.sqrt(np.where(zero, 1.0, diag))
    outer = scale[:, :, np.newaxis] * scale[:, np.newaxis, :]
    a *= outer
    # Cofactors of the scaled matrix [[1, p, q], [p, 1, r], [q, r, 1]].
    p, q, r = a[:, 0, 1], a[:, 0, 2], a[:, 1, 2]
    c00, c11, c22 = 1.0 - r * r, 1.0 - q * q, 1.0 - p * p
    c01, c02, c12 = q * r - p, p * r - q, p * q - r
    det = c00 + p * c01 + q * c02
    solved = ~zero.any(axis=1) & (det > RANK_TOL)
    adj = np.stack([c00, c01, c02, c01, c11, c12, c02, c12, c22], axis=1).reshape(k, 3, 3)
    inv_det = np.divide(1.0, det, out=np.zeros(k), where=solved)
    inv_a = adj * (outer * inv_det[:, np.newaxis, np.newaxis])  # D adj(D A D) D / det; 0 if failed
    update = inv_a @ (jac_t @ rw)
    update += inv_a @ (jac_t @ (rw - jac @ update))
    update = update[:, :, 0]
    status = np.zeros(k, dtype=np.int64)
    status[~solved] = Status.DEGENERATE_GEOMETRY
    status[close.any(axis=(1, 2))] = Status.NEAR_SINGULARITY
    return PoseStack(theta + update[:, 0], t + update[:, 1:], status)
