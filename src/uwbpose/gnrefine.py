"""One Gauss-Newton step on the weighted range-residual objective.

A single step from any root-n-consistent initial pose already attains the
accuracy of the full maximum-likelihood minimizer asymptotically, so exactly
one iteration is the library default. The step linearizes the predicted
ranges in (theta, t) around the initial pose and solves the weighted normal
problem through an orthogonal factorization. Repetitions share their
pair's Jacobian row, so there is one row per (tag, anchor) pair on the mean
range; the normal equations are those of all n measurements divided by T.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import EstimateReport, Method, Pose2, RangeBatch, ml_cost
from .crlb import estimate_covariance
from .errors import DegenerateGeometryError, NearSingularityError
from .linstage import uls_pose

# Predicted ranges below this floor make the 1/range Jacobian terms blow up;
# tag-on-anchor coincidence is treated as an explicit failure.
PROXIMITY_FLOOR_M = 1e-6


@dataclass(frozen=True)
class GnWorkspace:
    """Linearization of the range model at an initial pose.

    ``jacobian`` is (N * M) x 3 with columns (d/dtheta, d/dt1, d/dt2) of the
    predicted range, ``predicted`` the N * M predicted ranges, and ``weights``
    the per-pair values 1/sigma^2. Rows are tag-major, one per (tag, anchor)
    pair, matching ``predicted_ranges(...).reshape(-1)``.
    """

    jacobian: np.ndarray
    predicted: np.ndarray
    weights: np.ndarray


def build_gn_workspace(batch: RangeBatch, init: Pose2) -> GnWorkspace:
    """Predicted ranges and their (theta, t) Jacobian at ``init``.

    For a height offset dh the predicted range is
    ``g = sqrt(|f|^2 + dh^2)`` with ``f = a - R s - t``; its derivatives are
    ``-(s1 u2 - s2 u1) / g`` in theta, with ``u = R^T f``, and ``-f / g`` in t.
    """
    dep = batch.deployment
    rot = init.rotation
    tag_pos = init.transform(dep.tags)  # (N, 2)
    f = dep.anchors[np.newaxis, :, :] - tag_pos[:, np.newaxis, :]  # (N, M, 2)
    g = np.sqrt(np.einsum("nmk,nmk->nm", f, f) + dep.dh**2)
    if np.any(g < PROXIMITY_FLOOR_M):
        i, m = np.argwhere(g < PROXIMITY_FLOOR_M)[0]
        raise NearSingularityError(
            f"predicted range for tag {i}, anchor {m} is below {PROXIMITY_FLOOR_M} m",
            tag_index=int(i),
            anchor_index=int(m),
        )
    u = f @ rot  # u[..., b] = (R^T f)_b
    s1 = dep.tags[:, 0][:, np.newaxis]
    s2 = dep.tags[:, 1][:, np.newaxis]
    j_theta = -(s1 * u[:, :, 1] - s2 * u[:, :, 0]) / g
    j_t = -f / g[:, :, np.newaxis]
    jac = np.concatenate([j_theta[:, :, np.newaxis], j_t], axis=2)  # (N, M, 3)
    return GnWorkspace(
        jacobian=jac.reshape(-1, 3),
        predicted=g.reshape(-1),
        weights=(1.0 / dep.sigma**2).reshape(-1),
    )


def gn_step(batch: RangeBatch, init: Pose2) -> Pose2:
    """One weighted Gauss-Newton update of ``init`` on the range residuals.

    Scaling every sigma by a common factor leaves the update unchanged, and
    a noiseless batch evaluated at the true pose is a fixed point.
    """
    ws = build_gn_workspace(batch, init)
    w = np.sqrt(ws.weights)
    jw = ws.jacobian * w[:, np.newaxis]
    rw = (batch.mean_d.reshape(-1) - ws.predicted) * w
    update, _, rank, _ = np.linalg.lstsq(jw, rw, rcond=None)
    if rank < 3:
        raise DegenerateGeometryError(
            f"Gauss-Newton normal system rank {rank} < 3; geometry is degenerate"
        )
    return Pose2(init.theta + update[0], init.t + update[1:])


def estimate_gn_uls(batch: RangeBatch, with_covariance: bool = False) -> EstimateReport:
    """Closed-form estimate refined by one Gauss-Newton step."""
    first, linstage_us = uls_pose(batch)
    start = time.perf_counter()
    pose = gn_step(batch, first)
    gn_us = (time.perf_counter() - start) * 1e6
    return EstimateReport(
        pose=pose,
        method=Method.GN_ULS,
        residual_cost=ml_cost(batch, pose),
        covariance=estimate_covariance(batch, pose) if with_covariance else None,
        timings_us={"linstage_us": linstage_us, "gn_us": gn_us},
    )
