"""Shared geometry builders and synthesis helpers for the test suite."""

from __future__ import annotations

import bisect
import csv
import math

import numpy as np

from uwbpose.core import Deployment, Pose2, RangeBatch, check_observability, predicted_ranges
from uwbpose.errors import SchemaError, Status, UnobservableDeploymentError
from uwbpose.gnrefine import stacked_gn_step
from uwbpose.preprocess import GroundTruthLog

CORNER_ANCHORS = np.array([[50.0, 0.0], [50.0, 50.0], [0.0, 50.0]])
BODY_TAGS = np.array([[3.0, 0.0], [3.0, 3.0]])
BODY_TAGS_3 = np.array([[3.0, 0.0], [3.0, 3.0], [0.0, 3.0]])
COLLINEAR_ANCHORS = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
# Pairs of distinct tags on one line with the body origin: they and the origin
# do not span the plane, yet with the rotation constrained to SO(2) they fix it.
ORIGIN_LINE_TAGS = {
    "diagonal": np.array([[1.0, 1.0], [2.0, 2.0]]),
    "at-origin": np.array([[0.0, 0.0], [1.0, 0.0]]),
    "opposite": np.array([[1.0, 0.0], [-1.0, 0.0]]),
}


def reference_sigma_matrix() -> np.ndarray:
    """Six noise deviations 0.05*[1..6] assigned anchor-major, tag-minor."""
    return 0.05 * np.arange(1, 7).reshape(3, 2).T


def reference_deployment(sigma=0.1, dh=0.0, tags=BODY_TAGS) -> Deployment:
    return Deployment(anchors=CORNER_ANCHORS, tags=tags, sigma=sigma, dh=dh)


def reference_pose() -> Pose2:
    return Pose2(np.deg2rad(60.0), [0.0, 25.0])


def noiseless_ranges(dep: Deployment, pose: Pose2, repeat_t: int = 1) -> np.ndarray:
    """Noise-free (N, M, T) ranges: the predicted ranges, repeated."""
    return np.repeat(predicted_ranges(dep, pose)[:, :, None], repeat_t, axis=2)


def noiseless_batch(dep: Deployment, pose: Pose2, repeat_t: int = 1) -> RangeBatch:
    return RangeBatch(dep, repeat_t, noiseless_ranges(dep, pose, repeat_t))


def noisy_ranges(
    dep: Deployment,
    pose: Pose2,
    repeat_t: int,
    rng: np.random.Generator,
    noise_scale: float = 1.0,
) -> np.ndarray:
    """(N, M, T) ranges with independent Gaussian noise of deviation sigma."""
    clean = predicted_ranges(dep, pose)
    shape = (dep.num_tags, dep.num_anchors, repeat_t)
    noise = noise_scale * dep.sigma[:, :, None] * rng.standard_normal(shape)
    return clean[:, :, None] + noise


def noisy_batch(
    dep: Deployment,
    pose: Pose2,
    repeat_t: int,
    rng: np.random.Generator,
    noise_scale: float = 1.0,
) -> RangeBatch:
    return RangeBatch(dep, repeat_t, noisy_ranges(dep, pose, repeat_t, rng, noise_scale))


def random_observable_deployment(
    rng: np.random.Generator,
    sigma=None,
    min_spread: float = 0.05,
) -> Deployment:
    """Random well-conditioned deployment: anchors on a 60 m plane, tags on a
    small body, uniform sigma unless given."""
    while True:
        n_anchors = int(rng.integers(3, 9))
        n_tags = int(rng.integers(2, 5))
        anchors = rng.uniform(0.0, 60.0, size=(n_anchors, 2))
        tags = rng.uniform(-4.0, 4.0, size=(n_tags, 2))
        dep = Deployment(
            anchors=anchors,
            tags=tags,
            sigma=float(rng.uniform(0.02, 0.3)) if sigma is None else sigma,
        )
        try:
            check_observability(dep)
        except UnobservableDeploymentError:
            continue
        a_s = np.linalg.svd(anchors - anchors.mean(axis=0), compute_uv=False)
        t_s = np.linalg.svd(tags, compute_uv=False)
        if a_s[-1] >= min_spread * a_s[0] and t_s[-1] >= min_spread * t_s[0]:
            return dep


def random_problems(seed: int, problems: int, repeat_t: int) -> tuple[Deployment, list[RangeBatch]]:
    """A random observable deployment with per-pair sigma and dh, and noisy
    batches of ``problems`` random poses on it."""
    rng = np.random.default_rng(seed)
    base = random_observable_deployment(rng)
    shape = base.sigma.shape
    dep = Deployment(
        anchors=base.anchors,
        tags=base.tags,
        sigma=rng.uniform(0.02, 0.3, size=shape),
        dh=rng.uniform(0.2, 2.0, size=shape),
    )
    return dep, [noisy_batch(dep, random_pose(rng), repeat_t, rng) for _ in range(problems)]


def pose_parameter_vector(pose: Pose2) -> np.ndarray:
    """(vec(R), t) as a 6-vector, column-major rotation stacking."""
    return np.concatenate([pose.rotation.reshape(4, order="F"), pose.t])


def constraint_jacobian(rot: np.ndarray) -> np.ndarray:
    """Jacobian of the three local SO(2) constraints with respect to
    (vec(R), t): the column norms and orthogonality of ``R = [y1 y2]``.
    The oracle for ``crlb.nullspace_basis``, which it must annihilate."""
    y1, y2 = rot[:, 0], rot[:, 1]
    jac = np.zeros((3, 6))
    jac[0, 0:2] = 2.0 * y1
    jac[1, 0:2] = y2
    jac[1, 2:4] = y1
    jac[2, 2:4] = 2.0 * y2
    return jac


def svd_constrained_crlb(info: np.ndarray, rot: np.ndarray) -> np.ndarray | None:
    """The constrained bound by the rule ``crlb.constrained_crlb`` used
    before its closed form, as its oracle: on an orthonormal basis ``N`` of
    the constraint Jacobian's null space (from an SVD, not
    ``nullspace_basis``), ``N (N^T F N)^-1 N^T`` by ``np.linalg.solve``, or
    None where the reduced information's smallest singular value is at most
    1e-12 of its largest. The bound and the singular values do not depend on
    the choice of ``N``."""
    basis = np.linalg.svd(constraint_jacobian(rot))[2][3:].T
    reduced = basis.T @ info @ basis
    svals = np.linalg.svd(reduced, compute_uv=False)
    if svals[-1] <= svals[0] * 1e-12 or svals[0] == 0.0:
        return None
    crlb = basis @ np.linalg.solve(reduced, basis.T)
    return 0.5 * (crlb + crlb.T)


def random_pose(rng: np.random.Generator) -> Pose2:
    return Pose2(rng.uniform(0.0, 2.0 * np.pi), rng.uniform(10.0, 40.0, size=2))


def ml_cost(dep: Deployment, d: np.ndarray, pose: Pose2) -> float:
    """Weighted squared range-residual objective of raw (N, M, T) ranges.

    Sum over all measurements of ``(d - predicted)^2 / sigma^2``. Zero
    exactly when the ranges are noiseless and the pose is the truth.
    """
    pred = predicted_ranges(dep, pose)
    squares = np.subtract(d, pred[:, :, np.newaxis])  # the one n-sized buffer
    np.square(squares, out=squares)
    weights = 1.0 / dep.sigma**2
    return float(np.vdot(squares.sum(axis=2), weights))


def one_gn_step(batch: RangeBatch, init: Pose2) -> Pose2:
    """``stacked_gn_step`` of ``batch`` alone from ``init``; a nonzero status
    raises its error, as ``estimators.estimate`` does."""
    step = stacked_gn_step(
        batch.deployment, batch.mean_d[np.newaxis], np.array([init.theta]), init.t[np.newaxis]
    )
    code = Status(int(step.status[0]))
    if code:
        raise code.error(code.name)
    return Pose2(step.theta[0], step.t[0])


def lstsq_gn_update(dep: Deployment, mean_d: np.ndarray, theta: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(K, 3) Gauss-Newton updates (dtheta, dt) of K problems, each solved by
    ``np.linalg.lstsq`` on its weighted Jacobian and residual.

    The Jacobian is built pair by pair from ``g = sqrt(|a - R s - t|^2 + dh^2)``
    and shares no code with ``uwbpose.gnrefine``.
    """
    updates = []
    for k in range(len(theta)):
        c, s = math.cos(theta[k]), math.sin(theta[k])
        rows, residuals = [], []
        for i, (sx, sy) in enumerate(dep.tags):
            px, py = c * sx - s * sy + t[k, 0], s * sx + c * sy + t[k, 1]
            dpx, dpy = -s * sx - c * sy, c * sx - s * sy  # d(R s)/dtheta
            for m, (ax, ay) in enumerate(dep.anchors):
                fx, fy = ax - px, ay - py
                g = math.sqrt(fx * fx + fy * fy + dep.dh[i, m] ** 2)
                w = 1.0 / dep.sigma[i, m]
                rows.append([-w * (fx * dpx + fy * dpy) / g, -w * fx / g, -w * fy / g])
                residuals.append(w * (mean_d[k, i, m] - g))
        updates.append(np.linalg.lstsq(np.array(rows), np.array(residuals), rcond=None)[0])
    return np.array(updates).reshape(len(theta), 3)


def reference_flag_stream(values: np.ndarray, window: int, slack: float) -> np.ndarray:
    """The spike rule by a sliding-window minimum: oracle of
    ``uwbpose.preprocess.flag_stream``."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    flags = np.zeros(n, dtype=bool)
    if n > window:
        prev_min = np.lib.stride_tricks.sliding_window_view(values, window)[: n - window].min(axis=1)
        flags[window:] = values[window:] > prev_min + slack
    return flags


# Row-wise CSV reference: one csv.reader record and one dict per row, with
# the conversion done field by field. It is the oracle of the column reader
# in uwbpose.preprocess and shares no code with it.


def reference_csv_rows(path, expected_header: list[str]) -> list[tuple[int, dict]]:
    """(line, {column: field}) per data row; a line is a csv.reader record number."""
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header required") from None
        if header != expected_header:
            raise SchemaError(f"{path}: header must be {','.join(expected_header)}")
        out = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise SchemaError(f"{path}:{line_no}: expected {len(expected_header)} fields")
            out.append((line_no, dict(zip(expected_header, row))))
    return out


def reference_columns(path, header: list[str]) -> tuple[list[list[str]], list[int]]:
    """The rows of ``reference_csv_rows`` as columns, and their lines."""
    rows = reference_csv_rows(path, header)
    return [[row[name] for _, row in rows] for name in header], [line for line, _ in rows]


def reference_stream_index(t, anchor, tag) -> tuple[tuple, np.ndarray, dict]:
    """(stream_keys, stream_id, streams()) of a ``RangeLog`` with these
    per-record columns, by one dict pass over the (anchor, tag) pairs: oracle
    of the stream index in ``uwbpose.preprocess``. Raises the SchemaError
    ``RangeLog`` raises for timestamps that decrease within a stream."""
    streams: dict = {}
    for i, key in enumerate(zip(anchor, tag)):
        streams.setdefault(key, []).append(i)
    keys = tuple(streams)
    stream_id = np.zeros(len(t), dtype=np.intp)
    for k, indices in enumerate(streams.values()):
        stream_id[indices] = k
    for key, indices in streams.items():
        if np.any(np.diff(np.asarray(t, dtype=float)[indices]) < 0):
            raise SchemaError(f"timestamps decrease within stream {key}")
    return keys, stream_id, {key: np.array(indices) for key, indices in streams.items()}


def reference_range_log(path) -> tuple:
    """(t, anchor, tag, range, dropped negatives) of a range CSV, per record,
    with the errors of ``RangeLog.from_csv``."""
    rows = reference_csv_rows(path, ["t", "anchor", "tag", "range"])
    t, anchor, tag, rng = [], [], [], []
    dropped = 0
    for line_no, row in rows:
        try:
            ti, ri = float(row["t"]), float(row["range"])
        except ValueError as exc:
            raise SchemaError(f"{path}:{line_no}: non-numeric field") from exc
        if not (math.isfinite(ti) and math.isfinite(ri)):
            raise SchemaError(f"{path}:{line_no}: non-finite field")
        if ri < 0:
            dropped += 1
            continue
        t.append(ti)
        anchor.append(row["anchor"])
        tag.append(row["tag"])
        rng.append(ri)
    try:
        reference_stream_index(t, anchor, tag)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return np.asarray(t, dtype=float), anchor, tag, np.asarray(rng, dtype=float), dropped


def reference_truth_log(path) -> GroundTruthLog:
    """The ground truth of a truth CSV, per record, with the errors of
    ``GroundTruthLog.from_csv``: the range log's per-line number rule."""
    rows = reference_csv_rows(path, ["t", "x", "y", "yaw_deg"])
    data = []
    for line_no, row in rows:
        try:
            values = [float(row[k]) for k in ("t", "x", "y", "yaw_deg")]
        except ValueError as exc:
            raise SchemaError(f"{path}:{line_no}: non-numeric field") from exc
        if not all(map(math.isfinite, values)):
            raise SchemaError(f"{path}:{line_no}: non-finite field")
        data.append(values)
    arr = np.asarray(data, dtype=float).reshape(-1, 4)
    try:
        return GroundTruthLog(t=arr[:, 0], x=arr[:, 1], y=arr[:, 2], yaw=np.deg2rad(arr[:, 3]))
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def reference_epochs(records, frequency, bias, named, rate_hz, max_gap_periods) -> tuple[list, list]:
    """(times, N x M nested lists of ranges) of the epochs that
    ``align_and_batch`` emits from the (t, anchor id, tag id, range)
    ``records`` of a log at ``frequency``, one grid time and one stream at a
    time, with its SchemaError texts: its oracle. It shares no code with
    ``uwbpose.preprocess``, and calls neither ``np.interp`` nor
    ``np.searchsorted``."""
    streams: dict = {}  # (anchor id, tag id): (times, de-biased ranges)
    for t, anchor, tag, value in records:
        alpha, beta = bias.per_pair.get((anchor, tag), (bias.alpha, bias.beta))
        stamps, values = streams.setdefault((anchor, tag), ([], []))
        stamps.append(t)
        values.append((value - beta) / (1.0 + alpha))
    for anchor, tag in streams:
        if anchor not in named.anchor_ids:
            raise SchemaError(f"unknown anchor id {anchor!r}")
        if tag not in named.tag_ids:
            raise SchemaError(f"unknown tag id {tag!r}")
    if len(streams) < len(named.tag_ids) * len(named.anchor_ids):
        return [], []
    start = max(stamps[0] for stamps, _ in streams.values())
    end = min(stamps[-1] for stamps, _ in streams.values())
    if end < start:
        return [], []
    span = (end - start) * rate_hz
    if span >= len(records):
        raise SchemaError(
            f"rate {rate_hz:g} Hz needs {span // 1 + 1:.6g} epochs, more than the {len(records)} log records"
        )
    horizon = max_gap_periods / frequency
    times, ranges = [], []
    for k in range(int(span) + 1):
        epoch = start + k / rate_hz
        grid = [[None] * len(named.anchor_ids) for _ in named.tag_ids]
        for (anchor, tag), (stamps, values) in streams.items():
            right = bisect.bisect_left(stamps, epoch)  # the first sample at or after the epoch
            if right < len(stamps) and stamps[right] == epoch:
                value = values[right]
            elif 0 < right < len(stamps) and stamps[right] - stamps[right - 1] <= horizon:
                t0, t1, v0, v1 = stamps[right - 1], stamps[right], values[right - 1], values[right]
                value = v0 + (v1 - v0) * (epoch - t0) / (t1 - t0)
            else:  # the stream does not span the epoch, or its samples are too far apart
                break
            grid[named.tag_ids.index(tag)][named.anchor_ids.index(anchor)] = value
        else:
            times.append(epoch)
            ranges.append(grid)
    return times, ranges


def ks_2samp_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Asymptotic p-value of the two-sample Kolmogorov-Smirnov statistic
    (Press et al., Numerical Recipes, 3rd ed., section 14.3.3)."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    stat = np.max(np.abs(np.searchsorted(a, grid, "right") / a.size - np.searchsorted(b, grid, "right") / b.size))
    en = math.sqrt(a.size * b.size / (a.size + b.size))
    lam = (en + 0.12 + 0.11 / en) * stat
    if lam < 0.2:  # the series converges slowly here; the p-value is 1 to 12 digits
        return 1.0
    return min(1.0, 2.0 * sum((-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam) for j in range(1, 101)))
