"""Closed-form first stage: projected squared-range linear system.

Squaring the range model and subtracting the known per-pair variance gives,
per tag, a linear relation in ``(vec(R), t)`` plus a quadratic nuisance term
that is constant across anchors. Projecting onto the orthogonal complement
of the all-ones vector removes the nuisance, leaving a least-squares
problem in ``(y, t)``, with ``y = (sin theta, cos theta)`` entering through
``vec(R) = GAMMA @ y``. Repetitions add identical design rows, so there is
one row per (tag, anchor) pair on the mean squared range; the normal
equations are those of all n measurements divided by T. The solution is
consistent but unconstrained, so the rotation part is projected onto SO(2).

The correlated covariance of the projected errors is deliberately discarded;
no whitened variant is provided.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import EstimateReport, Method, Pose2, RangeBatch, ml_cost, wrap_angle
from .crlb import estimate_covariance
from .errors import (
    DegenerateProjectionError,
    SingularSystemError,
    UnderdeterminedDeploymentError,
)

# vec(R(theta)) = GAMMA @ [sin(theta), cos(theta)], column-major stacking.
GAMMA = np.array(
    [
        [0.0, 1.0],
        [1.0, 0.0],
        [-1.0, 0.0],
        [0.0, 1.0],
    ]
)

MIN_EFFECTIVE_ANCHORS = 3


@dataclass(frozen=True)
class LinearSystem:
    """Stacked design matrix and projected, debiased squared ranges.

    ``h`` is (N * M) x 4 with columns ordered (y1, y2, t1, t2) and rows
    tag-major, one per (tag, anchor) pair; ``dbar`` is the matching
    right-hand side. Under an observable deployment ``h`` has full column
    rank. ``m_t`` is the effective anchor count M * T.
    """

    h: np.ndarray
    dbar: np.ndarray
    m_t: int


def projected_squared_ranges(batch: RangeBatch) -> np.ndarray:
    """Debiased squared ranges centered across anchors per tag, shape (N, M).

    Entries are ``mean d^2 - |a|^2 - sigma^2 - dh^2`` (the height term makes
    nonzero height differences reduce to the planar case) minus their mean
    over the tag's anchors, which applies the all-ones projector without
    materializing it.
    """
    m_t = batch.m_t
    if m_t < MIN_EFFECTIVE_ANCHORS:
        raise UnderdeterminedDeploymentError(
            f"need at least {MIN_EFFECTIVE_ANCHORS} effective anchors, got {m_t}"
        )
    dep = batch.deployment
    rhs = batch.mean_d2 - np.sum(dep.anchors**2, axis=1) - dep.sigma**2 - dep.dh**2
    return rhs - rhs.mean(axis=1, keepdims=True)


def build_linear_system(batch: RangeBatch) -> LinearSystem:
    """Assemble the projected squared-range system for a batch."""
    rhs = projected_squared_ranges(batch)
    dep = batch.deployment
    # H = [-2 (S^T (x) Abar^T) GAMMA, -2 (1_N (x) Abar^T)] written out per
    # column: with centered anchor coordinates (ax, ay) and tag (s1, s2) the
    # y columns are -2 (s1 ay - s2 ax) and -2 (s1 ax + s2 ay).
    centered = dep.anchors - dep.anchors.mean(axis=0)
    ax, ay = centered[:, 0], centered[:, 1]
    s1 = dep.tags[:, 0][:, np.newaxis]
    s2 = dep.tags[:, 1][:, np.newaxis]
    columns = np.broadcast_arrays(s1 * ay - s2 * ax, s1 * ax + s2 * ay, ax, ay)
    h = -2.0 * np.stack(columns, axis=-1).reshape(-1, 4)
    return LinearSystem(h=h, dbar=rhs.reshape(-1), m_t=batch.m_t)


def solve_uls(system: LinearSystem) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares solve of the linear stage.

    Returns ``(y, t)``; ``y`` is not unit length in general. Uses an
    orthogonal factorization rather than forming the normal equations.
    Raises SingularSystemError carrying the numeric rank when the design
    matrix is rank deficient.
    """
    solution, _, rank, _ = np.linalg.lstsq(system.h, system.dbar, rcond=None)
    if rank < 4:
        raise SingularSystemError(
            f"design matrix rank {rank} < 4; deployment does not determine the pose",
            rank=int(rank),
        )
    return solution[:2], solution[2:]


def project_so2(x: np.ndarray) -> float:
    """Angle of the rotation matrix closest to ``x`` in Frobenius norm.

    ``|x - R(theta)|^2`` is smallest where ``tr(R(theta)^T x)
    = cos(theta) (x11 + x22) + sin(theta) (x21 - x12)`` is largest, at
    ``atan2(x21 - x12, x11 + x22)``. When both terms are zero every angle
    ties, and the input is rejected.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("projection input must be finite")
    cos_part = float(x[0, 0] + x[1, 1])
    sin_part = float(x[1, 0] - x[0, 1])
    if cos_part == 0.0 and sin_part == 0.0:
        raise DegenerateProjectionError("every rotation is equally close; projection undefined")
    return wrap_angle(math.atan2(sin_part, cos_part))


def rotation_from_y(y: np.ndarray) -> np.ndarray:
    """Unconstrained 2x2 rotation estimate from the linear-stage ``y``."""
    return (GAMMA @ np.asarray(y, dtype=float)).reshape(2, 2, order="F")


def uls_pose(batch: RangeBatch) -> tuple[Pose2, float]:
    """Closed-form pose and the wall time it took, in microseconds."""
    start = time.perf_counter()
    y, t = solve_uls(build_linear_system(batch))
    pose = Pose2(project_so2(rotation_from_y(y)), t)
    return pose, (time.perf_counter() - start) * 1e6


def estimate_uls(batch: RangeBatch, with_covariance: bool = False) -> EstimateReport:
    """Closed-form pose estimate: linear solve plus SO(2) projection."""
    pose, linstage_us = uls_pose(batch)
    return EstimateReport(
        pose=pose,
        method=Method.ULS,
        residual_cost=ml_cost(batch, pose),
        covariance=estimate_covariance(batch, pose) if with_covariance else None,
        timings_us={"linstage_us": linstage_us},
    )
