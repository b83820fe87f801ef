"""Independent maximum-likelihood reference solver, used only by tests.

Multi-start damped Gauss-Newton on the weighted range residuals with
central-finite-difference Jacobians. Deliberately shares no linearization
code with the library: residuals are recomputed here from every raw
measurement rather than the library's per-pair moments, derivatives are
numeric, and the solver iterates to convergence from 36 angle seeds, so it
is an independent reference for both the one-step refinement and the
analytic Jacobian.
"""

from __future__ import annotations

import numpy as np

from uwbpose.core import Deployment, Method, Pose2, RangeBatch
from uwbpose.estimators import estimate

_FD_STEP = 1e-6


def _weighted_residuals(
    dep: Deployment, d: np.ndarray, thetas: np.ndarray, ts: np.ndarray
) -> np.ndarray:
    """Residuals (d - predicted)/sigma of raw (N, M, T) ranges for a batch of
    candidate poses.

    ``thetas`` is (S,), ``ts`` is (S, 2); returns (S, n).
    """
    t_rep = d.shape[2]
    # Every raw measurement as its own column, rep * M + m, with the anchor,
    # sigma and dh it was taken with.
    measured = d.transpose(0, 2, 1).reshape(dep.num_tags, -1)
    sigma = np.tile(dep.sigma, (1, t_rep))
    dh = np.tile(dep.dh, (1, t_rep))
    anchors = np.tile(dep.anchors, (t_rep, 1))
    cos, sin = np.cos(thetas), np.sin(thetas)
    sx, sy = dep.tags[:, 0], dep.tags[:, 1]
    px = cos[:, None] * sx - sin[:, None] * sy + ts[:, 0][:, None]  # (S, N)
    py = sin[:, None] * sx + cos[:, None] * sy + ts[:, 1][:, None]
    dx = anchors[None, None, :, 0] - px[:, :, None]  # (S, N, M_T)
    dy = anchors[None, None, :, 1] - py[:, :, None]
    predicted = np.sqrt(dx * dx + dy * dy + dh[None, :, :] ** 2)
    residuals = (measured[None, :, :] - predicted) / sigma[None, :, :]
    return residuals.reshape(residuals.shape[0], -1)


def _costs(dep: Deployment, d: np.ndarray, thetas: np.ndarray, ts: np.ndarray) -> np.ndarray:
    r = _weighted_residuals(dep, d, thetas, ts)
    return np.einsum("sn,sn->s", r, r)


def ml_reference_pose(
    dep: Deployment, d: np.ndarray, n_starts: int = 36, max_iter: int = 150
) -> Pose2:
    """Best local minimum of the weighted range objective of raw (N, M, T)
    ranges ``d`` over many starts.

    Seeds: evenly spaced angles crossed with the closed-form translation.
    Each start runs damped Gauss-Newton (backtracking on the full step) until
    the step norm falls below 1e-12 or no decrease is representable.
    """
    t_init = estimate(RangeBatch(dep, d), Method.ULS).t
    thetas = np.arange(n_starts) * (2.0 * np.pi / n_starts)
    ts = np.tile(t_init, (n_starts, 1))
    costs = _costs(dep, d, thetas, ts)
    active = np.ones(n_starts, dtype=bool)

    for _ in range(max_iter):
        if not active.any():
            break
        idx = np.where(active)[0]
        th_a, ts_a = thetas[idx], ts[idx]
        r0 = _weighted_residuals(dep, d, th_a, ts_a)
        jac = np.empty((idx.size, r0.shape[1], 3))
        for p in range(3):
            d_th = _FD_STEP if p == 0 else 0.0
            d_t = np.zeros(2)
            if p > 0:
                d_t[p - 1] = _FD_STEP
            r_plus = _weighted_residuals(dep, d, th_a + d_th, ts_a + d_t)
            r_minus = _weighted_residuals(dep, d, th_a - d_th, ts_a - d_t)
            jac[:, :, p] = (r_plus - r_minus) / (2.0 * _FD_STEP)
        # J is the residual Jacobian, so minimizing |r0 + J delta| gives
        # delta = -(J^T J)^{-1} J^T r0.
        jtj = np.einsum("snp,snq->spq", jac, jac)
        jtr = np.einsum("snp,sn->sp", jac, r0)
        try:
            delta = -np.linalg.solve(jtj, jtr[..., None])[..., 0]
        except np.linalg.LinAlgError:
            delta = -np.stack(
                [np.linalg.lstsq(jtj[s], jtr[s], rcond=None)[0] for s in range(idx.size)]
            )

        step_norm = np.linalg.norm(delta, axis=1)
        converged = step_norm <= 1e-12
        active[idx[converged]] = False

        searching = ~converged
        alpha = np.ones(idx.size)
        accepted = np.zeros(idx.size, dtype=bool)
        for _backtrack in range(14):
            trying = searching & ~accepted
            if not trying.any():
                break
            cand_th = th_a[trying] + alpha[trying] * delta[trying, 0]
            cand_ts = ts_a[trying] + alpha[trying, None] * delta[trying, 1:]
            cand_cost = _costs(dep, d, cand_th, cand_ts)
            better = cand_cost < costs[idx[trying]]
            rows = np.where(trying)[0]
            good_rows = rows[better]
            thetas[idx[good_rows]] = cand_th[better]
            ts[idx[good_rows]] = cand_ts[better]
            costs[idx[good_rows]] = cand_cost[better]
            accepted[good_rows] = True
            alpha[rows[~better]] *= 0.5
        # No representable decrease along the step: local minimum reached.
        active[idx[searching & ~accepted]] = False

    best = int(np.argmin(costs))
    return Pose2(float(thetas[best]), ts[best])
