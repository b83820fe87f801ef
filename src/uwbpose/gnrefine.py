"""One Gauss-Newton step on the weighted range-residual objective.

A single step from any root-n-consistent initial pose already attains the
accuracy of the full maximum-likelihood minimizer asymptotically, so the
refined methods take exactly one. The step linearizes the predicted
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
# is rank-deficient; see symmetric_inverse.
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
    finite, except in the row of a range that is not finite (it overflowed).
    """
    anchors = deployment.anchors[:, 0] + 1j * deployment.anchors[:, 1]
    tags = deployment.tags[:, 0] + 1j * deployment.tags[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # stacked_gn_step zeroes the row of a range that overflows
        rotated = np.exp(1j * theta)[:, np.newaxis] * tags  # R s, (K, N)
        f = anchors - (rotated + (t[:, 0] + 1j * t[:, 1])[:, np.newaxis])[:, :, np.newaxis]
        g = np.sqrt(f.real**2 + f.imag**2 + deployment.dh**2)
        close = g < PROXIMITY_FLOOR_M
        scale = -row_scale / np.where(close, 1.0, g)
        jac = np.empty(g.shape + (3,))
        np.multiply((rotated.conj()[:, :, np.newaxis] * f).imag, scale, out=jac[..., 0])
        np.multiply(f.real, scale, out=jac[..., 1])
        np.multiply(f.imag, scale, out=jac[..., 2])
    return g, close, jac


def symmetric_inverse(a: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of K symmetric 3 x 3 matrices (K, 3, 3), read from their
    upper triangles, and the mask (K,) of those inverted; the rest get 0.

    Each matrix is scaled to unit diagonal, ``D A D`` with
    ``D = diag(A)^(-1/2)``, so that the rank test does not depend on units,
    and inverted as ``D adj(D A D) D / det``. It is refused when a diagonal
    entry is not positive (NaN included) or the scaled determinant is at
    most ``tol``. The scaled eigenvalues ``l1 >= l2 >= l3`` sum to 3, so
    ``l1 >= 1`` and ``l1 l2 <= 2.25``: a refused matrix has
    ``l3 <= sqrt(tol)`` and ``l2 l3 <= tol``, an accepted one
    ``l3 > tol / 2.25`` and a condition number below ``6.75 / tol``. The
    adjugate loses accuracy when two eigenvalues are small, so callers
    correct the inverse once.
    """
    diag = a.diagonal(axis1=1, axis2=2)
    scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, np.nan))  # a NaN scale fails the rank test
    outer = scale[:, :, np.newaxis] * scale[:, np.newaxis, :]
    scaled = a * outer
    # Cofactors of the scaled matrix [[1, p, q], [p, 1, r], [q, r, 1]].
    p, q, r = scaled[:, 0, 1], scaled[:, 0, 2], scaled[:, 1, 2]
    c00, c11, c22 = 1.0 - r * r, 1.0 - q * q, 1.0 - p * p
    c01, c02, c12 = q * r - p, p * r - q, p * q - r
    det = c00 + p * c01 + q * c02
    ok = det > tol
    adj = np.stack([c00, c01, c02, c01, c11, c12, c02, c12, c22], axis=1).reshape(-1, 3, 3)
    inverse = adj * (outer * np.divide(1.0, det, out=np.zeros(len(a)), where=ok)[:, np.newaxis, np.newaxis])
    inverse[~ok] = 0.0
    return inverse, ok


def stacked_gn_step(deployment: Deployment, mean_d: np.ndarray, theta: np.ndarray, t: np.ndarray) -> PoseStack:
    """One weighted Gauss-Newton update of each of K poses on its problem's
    (K, N, M) mean ranges; the angles are not reduced to [0, 2*pi).

    Each problem solves its normal equations ``A u = b``, with ``A = J^T J``
    and ``b = J^T r`` for ``J`` and ``r``, the Jacobian and residual weighted
    by ``1/sigma`` times a power of two (largest sigma in [0.5, 1)), by
    ``symmetric_inverse`` with ``RANK_TOL``: scaled, an accepted ``A`` has a
    condition number below 6.75e10, so the solve has a relative error of at
    most about 1.5e-5. Forming ``A`` squares the condition number of ``J``,
    so the solve is corrected once, ``u += A^-1 J^T (r - J u)``, which brings
    the error of the update near that of an orthogonal factorization of ``J``.

    A problem gets the ``OVERFLOW`` status when a predicted range is not
    finite, else ``NEAR_SINGULARITY`` when one is below ``PROXIMITY_FLOOR_M``,
    else ``DEGENERATE_GEOMETRY`` when a Jacobian column is zero or the scaled
    determinant is at most ``RANK_TOL``; poses of failed problems are
    meaningless. A common scale on sigma leaves the update unchanged, bit for
    bit when it is a power of two, and a noiseless problem at its true pose is a fixed point.
    """
    root_w = 1.0 / np.ldexp(deployment.sigma, -np.frexp(deployment.sigma.max())[1])
    g, close, jac = linearize(deployment, theta, t, root_w)
    rw, far, overflow = (mean_d - g) * root_w, ~np.isfinite(g), np.zeros(len(g), dtype=bool)
    if far.any():  # a range that is not finite gets a zero row and residual, and fails its problem
        jac[far], rw[far], overflow = 0.0, 0.0, far.any(axis=(1, 2))
    k, rows = g.shape[0], g.shape[1] * g.shape[2]
    jac, rw = jac.reshape(k, rows, 3), rw.reshape(k, rows, 1)
    jac_t = np.ascontiguousarray(jac.transpose(0, 2, 1))  # stacked matmul is slow on the strided view
    inv_a, solved = symmetric_inverse(jac_t @ jac, RANK_TOL)
    update = inv_a @ (jac_t @ rw)
    update += inv_a @ (jac_t @ (rw - jac @ update))
    status = np.zeros(k, dtype=np.int64)
    status[~solved] = Status.DEGENERATE_GEOMETRY
    status[close.any(axis=(1, 2))] = Status.NEAR_SINGULARITY
    status[overflow] = Status.OVERFLOW
    return PoseStack(theta + update[:, 0, 0], t + update[:, 1:, 0], status)
