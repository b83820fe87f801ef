"""Deterministic, vectorised workload inputs.

Every input is a pure function of the workload seed: the same seed writes
the same bytes. The sweep workloads get a scenario file on the reference
geometry (three corner anchors, two tags, per-pair noise deviations
0.05-0.30 m); the log workload gets a 100 Hz range log with an injected
linear bias, Gaussian noise, positive spikes and removed records, together
with its ground truth and deployment file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

# Reference geometry of the bundled repetition sweep.
REF_ANCHORS = np.array([[50.0, 0.0], [50.0, 50.0], [0.0, 50.0]])
REF_TAGS = np.array([[3.0, 0.0], [3.0, 3.0]])
REF_SIGMA = 0.05 * np.arange(1, 7).reshape(3, 2).T  # (N, M), anchor-major
REF_THETA_DEG = 60.0
REF_T = (0.0, 25.0)

# Log-replay deployment and corruption model.
LOG_ANCHORS = {"a0": (0.0, 0.0), "a1": (12.0, 0.0), "a2": (12.0, 10.0), "a3": (0.0, 10.0)}
LOG_TAGS = {"t0": (0.5, 0.0), "t1": (0.0, 0.5), "t2": (-0.4, -0.3)}
LOG_FREQ_HZ = 100.0
LOG_SECONDS = 60.0
LOG_ALPHA = 0.02
LOG_BETA = 0.05
LOG_SIGMA = 0.05
LOG_SPIKE_M = 2.0
LOG_SPIKE_RATE = 0.01
LOG_GAPS = 3
LOG_GAP_LEN = (5, 16)  # removed records per gap, half-open range
LOG_WINDOW = 5  # outlier rejection window passed to calibrate and estimate
LOG_VMAX = 1.0  # outlier rejection velocity bound, m/s


def derived_seed(seed: int, *key: int) -> int:
    """A 32-bit seed derived from the workload seed and a key path."""
    return int(np.random.SeedSequence([int(seed), *key]).generate_state(1)[0])


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            digest.update(os.path.basename(path).encode())
            digest.update(handle.read())
    return digest.hexdigest()


@dataclass(frozen=True)
class SweepInputs:
    scenario: str
    axis_values: tuple
    estimators: tuple
    trials: int
    sha256: str


def write_sweep(workdir: str, seed: int, axis_values, estimators, trials: int) -> SweepInputs:
    """Scenario file for a repetition sweep on the reference geometry."""
    scenario = {
        "deployment": {
            "anchors": REF_ANCHORS.tolist(),
            "tags": REF_TAGS.tolist(),
            "sigma": REF_SIGMA.tolist(),
        },
        "true_pose": {"theta_deg": REF_THETA_DEG, "t": list(REF_T)},
        "seed": derived_seed(seed, 0),
        "sweep": {
            "axis": "repeat_t",
            "values": list(axis_values),
            "trials": int(trials),
            "estimators": list(estimators),
        },
    }
    path = os.path.join(workdir, "sweep.scenario")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scenario, handle, indent=1)
    return SweepInputs(path, tuple(axis_values), tuple(estimators), int(trials), sha256_files([path]))


@dataclass(frozen=True)
class LogInputs:
    ranges: str
    truth: str
    deployment: str
    times: np.ndarray  # (K,) grid and record times
    pose: np.ndarray  # (K, 3) true (theta, x, y)
    present: np.ndarray  # (K, N, M) record kept in the log
    true_range: np.ndarray  # (K, N, M)
    measured: np.ndarray  # (K, N, M) logged ranges, spikes included
    records: int
    sha256: str


def _trajectory(times: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Smooth trolley-style path inside the anchor rectangle, (K, 3)."""
    x = 6.0 + 3.0 * np.sin(0.2 * times + phases[0])
    y = 5.0 + 2.5 * np.cos(0.13 * times + phases[1])
    theta = phases[3] + 0.6 * np.sin(0.11 * times + phases[2])
    return np.column_stack([theta, x, y])


def _true_ranges(pose: np.ndarray, tags: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    cos, sin = np.cos(pose[:, 0]), np.sin(pose[:, 0])
    gx = cos[:, None] * tags[:, 0] - sin[:, None] * tags[:, 1] + pose[:, 1:2]  # (K, N)
    gy = sin[:, None] * tags[:, 0] + cos[:, None] * tags[:, 1] + pose[:, 2:3]
    dx = anchors[:, 0][None, None, :] - gx[:, :, None]  # (K, N, M)
    dy = anchors[:, 1][None, None, :] - gy[:, :, None]
    return np.hypot(dx, dy)


def _column(values) -> list:
    return list(map(repr, values.tolist()))


def write_log(workdir: str, seed: int) -> LogInputs:
    """Range log, ground truth and deployment for the replay workload."""
    rng = np.random.default_rng(derived_seed(seed, 1))
    anchor_ids, tag_ids = list(LOG_ANCHORS), list(LOG_TAGS)
    anchors = np.array(list(LOG_ANCHORS.values()))
    tags = np.array(list(LOG_TAGS.values()))
    n_tags, n_anchors = len(tags), len(anchors)
    count = int(round(LOG_SECONDS * LOG_FREQ_HZ))
    times = np.arange(count) / LOG_FREQ_HZ

    pose = _trajectory(times, rng.uniform(0.0, 2.0 * np.pi, size=4))
    true_range = _true_ranges(pose, tags, anchors)
    shape = true_range.shape
    measured = (
        true_range * (1.0 + LOG_ALPHA)
        + LOG_BETA
        + LOG_SIGMA * rng.standard_normal(shape)
        + LOG_SPIKE_M * (rng.random(shape) < LOG_SPIKE_RATE)
    )

    # Gaps: runs of removed records in random streams, away from both ends
    # so that the estimation grid keeps its span.
    present = np.ones(shape, dtype=bool)
    starts = rng.integers(200, count - 200, size=LOG_GAPS)
    lengths = rng.integers(*LOG_GAP_LEN, size=LOG_GAPS)
    tag_pick = rng.integers(0, n_tags, size=LOG_GAPS)
    anchor_pick = rng.integers(0, n_anchors, size=LOG_GAPS)
    for start, length, i, m in zip(starts, lengths, tag_pick, anchor_pick):
        present[start : start + length, i, m] = False

    k_idx, i_idx, m_idx = np.nonzero(present)  # time-major record order
    t_col = _column(times[k_idx])
    a_col = np.array(anchor_ids)[m_idx].tolist()
    g_col = np.array(tag_ids)[i_idx].tolist()
    r_col = _column(measured[present])
    ranges_path = os.path.join(workdir, "ranges.csv")
    with open(ranges_path, "w", encoding="utf-8", newline="") as handle:
        handle.write("t,anchor,tag,range\n")
        handle.write("\n".join(map(",".join, zip(t_col, a_col, g_col, r_col))))
        handle.write("\n")

    truth_path = os.path.join(workdir, "truth.csv")
    truth_cols = [_column(times), _column(pose[:, 1]), _column(pose[:, 2]), _column(np.degrees(pose[:, 0]))]
    with open(truth_path, "w", encoding="utf-8", newline="") as handle:
        handle.write("t,x,y,yaw_deg\n")
        handle.write("\n".join(map(",".join, zip(*truth_cols))))
        handle.write("\n")

    deployment_path = os.path.join(workdir, "deployment.json")
    with open(deployment_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "anchors": {k: list(v) for k, v in LOG_ANCHORS.items()},
                "tags": {k: list(v) for k, v in LOG_TAGS.items()},
                "sigma": LOG_SIGMA,
                "dh": 0.0,
            },
            handle,
            indent=1,
        )

    paths = [ranges_path, truth_path, deployment_path]
    return LogInputs(
        ranges=ranges_path,
        truth=truth_path,
        deployment=deployment_path,
        times=times,
        pose=pose,
        present=present,
        true_range=true_range,
        measured=measured,
        records=int(present.sum()),
        sha256=sha256_files(paths),
    )
