"""One Gauss-Newton step on the weighted range-residual objective.

A single step from any root-n-consistent initial pose already attains the
accuracy of the full maximum-likelihood minimizer asymptotically, so exactly
one iteration is the library default. The step linearizes the predicted
ranges in (theta, t) around the initial pose and solves the weighted normal
problem through an orthogonal factorization. Repetitions share their
pair's Jacobian row, so there is one row per (tag, anchor) pair on the mean
range; the normal equations are those of all n measurements divided by T.
K problems that share a deployment take their steps together
(``stacked_gn_step``): a (K, N * M, 3) stack of weighted Jacobians solved by
one stacked SVD; one problem is the case K = 1.
"""

from __future__ import annotations

import numpy as np

from .core import Deployment, PoseStack
from .errors import Status

# Predicted ranges below this floor make the 1/range Jacobian terms blow up;
# tag-on-anchor coincidence is treated as an explicit failure.
PROXIMITY_FLOOR_M = 1e-6

_EPS = np.finfo(float).eps


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

    Each problem is solved as ``lstsq`` would solve it: by the SVD of its
    weighted Jacobian, with singular values at most
    ``eps * max(N * M, 3) * s_max`` treated as zero. A problem gets the
    ``NEAR_SINGULARITY`` status when a predicted range falls below
    ``PROXIMITY_FLOOR_M``, else ``DEGENERATE_GEOMETRY`` when the rank is
    below 3. Poses of failed problems are finite but meaningless. Scaling
    every sigma by a common factor leaves the update unchanged, and a
    noiseless problem evaluated at its true pose is a fixed point.
    """
    root_w = 1.0 / deployment.sigma
    g, close, jac = linearize(deployment, theta, t, root_w)
    k, rows = g.shape[0], g.shape[1] * g.shape[2]
    rw = ((mean_d - g) * root_w).reshape(k, rows, 1)
    u, s, vh = np.linalg.svd(jac.reshape(k, rows, 3), full_matrices=False)
    keep = s > (_EPS * max(rows, 3)) * s[:, :1]
    coef = np.divide((u.transpose(0, 2, 1) @ rw)[:, :, 0], s, out=np.zeros(s.shape), where=keep)
    update = (coef[:, np.newaxis, :] @ vh)[:, 0]
    status = np.zeros(k, dtype=np.int64)
    status[keep.sum(axis=1) < 3] = Status.DEGENERATE_GEOMETRY
    status[close.any(axis=(1, 2))] = Status.NEAR_SINGULARITY
    return PoseStack(theta + update[:, 0], t + update[:, 1:], status)
