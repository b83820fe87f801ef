"""One Gauss-Newton step on the weighted range-residual objective.

A single step from any root-n-consistent initial pose already attains the
accuracy of the full maximum-likelihood minimizer asymptotically, so the
refined methods take exactly one. The step linearizes the predicted
ranges in (theta, t) around the initial pose and solves the weighted
normal equations in closed form. Repetitions share their pair's Jacobian
row, so there is one row per (tag, anchor) pair on the mean range; the
normal equations are those of all n measurements divided by T. K problems
that share a deployment take their steps together (``stacked_gn_step``) in
pair-major passes over K-contiguous rows, one per pair: the entries of their
3 x 3 normal matrices and gradients are (K,) sums over the pairs, added in
pair order, and each system is solved entry by entry by its scaled adjugate
(``symmetric_inverse``); one problem is the case K = 1, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Deployment, PoseStack, read_only
from .errors import Status

# Predicted ranges below this floor make the 1/range Jacobian terms blow up;
# tag-on-anchor coincidence is treated as an explicit failure.
PROXIMITY_FLOOR_M = 1e-6

# A normal matrix scaled to unit diagonal whose determinant is at most this
# is rank-deficient; see symmetric_inverse.
RANK_TOL = 1e-10

# The six distinct entries of a symmetric 3 x 3 matrix as (rows, columns): the diagonal, then 12, 02 and 01,
# each facing the diagonal entry whose row and column it avoids; SYMMETRIC puts them back in place.
ENTRIES = (read_only((0, 1, 2, 1, 0, 0)), read_only((0, 1, 2, 2, 2, 1)))
SYMMETRIC = read_only(((0, 5, 4), (5, 1, 3), (4, 3, 2)))


def linearize(deployment: Deployment, theta: np.ndarray, t: np.ndarray, row_scale):
    """Predicted ranges ``g`` (P, K) of the P = N * M (tag, anchor) pairs,
    tag-major, at K poses, the mask of those below ``PROXIMITY_FLOOR_M``, and
    the (P, 3, K) (theta, t) Jacobian with each pair's row multiplied by
    ``row_scale`` (a number or (N, M)).

    For a height offset dh the predicted range is
    ``g = sqrt(|f|^2 + dh^2)`` with ``f = a - R s - t``; its derivatives are
    ``-((R s) x f) / g`` in theta, with the planar cross product
    ``(R s) x f = (R s)_1 f_2 - (R s)_2 f_1``, and ``-f / g`` in t. Rows of
    pairs below the floor are divided by 1 in place of ``g``, so that every
    entry stays finite, except in the row of a range that is not finite (it overflowed).
    """
    tags = deployment.tags[:, :, np.newaxis]
    jac = np.empty((len(tags), len(deployment.anchors), 3, len(theta)))
    with np.errstate(over="ignore", invalid="ignore"):  # stacked_gn_step zeroes the row of a range that overflows
        rotated = tags * np.cos(theta) + (tags[:, ::-1] * [[-1.0], [1.0]]) * np.sin(theta)  # R s, (N, 2, K)
        f = np.subtract(deployment.anchors[:, :, np.newaxis], (rotated + t.T)[:, np.newaxis], out=jac[:, :, 1:])
        squares = f * f
        g = np.sqrt(squares[:, :, 0] + squares[:, :, 1] + (deployment.dh**2)[:, :, np.newaxis])
        close = g < PROXIMITY_FLOOR_M
        products = rotated[:, np.newaxis, ::-1] * f  # ((R s)_2 f_1, (R s)_1 f_2)
        np.subtract(products[:, :, 1], products[:, :, 0], out=jac[:, :, 0])
        jac *= (-np.asarray(row_scale)[..., np.newaxis] / np.where(close, 1.0, g))[:, :, np.newaxis]
    pairs = g.shape[0] * g.shape[1]
    return g.reshape(pairs, -1), close.reshape(pairs, -1), jac.reshape(pairs, 3, -1)


def symmetric_inverse(a: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Inverses (3, 3, K) of K symmetric 3 x 3 matrices, given as their six
    ``ENTRIES`` (6, K), and the mask (K,) of those inverted; the rest get 0.

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
    scale = 1.0 / np.sqrt(np.where(a[:3] > 0.0, a[:3], np.nan))  # a NaN scale fails the rank test
    outer = scale[[0, 1, 2, 1, 2, 0]] * scale[[0, 1, 2, 2, 0, 1]]
    # The scaled matrix is [[1, p, q], [p, 1, r], [q, r, 1]] with (r, q, p) = x; adj is its adjugate.
    x = a[3:] * outer[3:]
    adj = np.concatenate((1.0 - x * x, x[[1, 2, 0]] * x[[2, 0, 1]] - x))
    det = adj[0] + x[2] * adj[5] + x[1] * adj[4]
    ok = det > tol
    inverse = adj * (outer * np.divide(1.0, det, out=np.zeros(det.shape), where=ok))
    return np.where(ok, inverse, 0.0)[SYMMETRIC], ok


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sums over axis 1 (length 3) of ``a * b``, added in index order."""
    terms = a * b
    return terms[:, 0] + terms[:, 1] + terms[:, 2]


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
    The entries of ``A`` and ``b`` are (K,) sums over the pairs, added in pair
    order, so a problem's step does not depend on the others in the stack.

    A problem gets the ``OVERFLOW`` status when a predicted range is not
    finite, else ``NEAR_SINGULARITY`` when one is below ``PROXIMITY_FLOOR_M``,
    else ``DEGENERATE_GEOMETRY`` when a Jacobian column is zero or the scaled
    determinant is at most ``RANK_TOL``; poses of failed problems are
    meaningless. A common scale on sigma leaves the update unchanged, bit for
    bit when it is a power of two, and a noiseless problem at its true pose is a fixed point.
    """
    root_w = 1.0 / np.ldexp(deployment.sigma, -math.frexp(deployment.sigma.max())[1])
    g, close, jac = linearize(deployment, theta, t, root_w)
    rw, far = (mean_d.reshape(len(theta), -1).T - g) * root_w.reshape(-1, 1), ~np.isfinite(g)
    if far.any():  # a range that is not finite gets a zero row and residual, and fails its problem
        jac.transpose(0, 2, 1)[far], rw[far] = 0.0, 0.0
    # numpy sums axis 0, the pairs, row by row in pair order at any K while the axes after it hold 2 entries or more.
    diagonal = np.add.reduce(jac * jac, axis=0)
    first = np.add.reduce(jac[:, 1:] * jac[:, :2], axis=0)  # 01, 12
    second = np.add.reduce(jac[:, ::2] * jac[:, ::-2], axis=0)  # 02, 20
    inverse, solved = symmetric_inverse(np.concatenate((diagonal, first[1:], second[:1], first[:1])), RANK_TOL)
    update = _dot3(inverse, np.add.reduce(jac * rw[:, np.newaxis], axis=0))
    update += _dot3(inverse, np.add.reduce(jac * (rw - _dot3(jac, update))[:, np.newaxis], axis=0))
    status = np.where(close.any(0), Status.NEAR_SINGULARITY, np.where(solved, Status.OK, Status.DEGENERATE_GEOMETRY))
    return PoseStack(theta + update[0], t + update[1:].T, np.where(far.any(0), Status.OVERFLOW, status))
