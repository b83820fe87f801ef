"""Acceptance suite: every criterion at its stated tolerance.

Each test runs one criterion end to end and registers a PASS/FAIL line that
pytest prints in the terminal summary. Criterion 12 needs the real dynamic
dataset and is skipped when the UWBPOSE_DYNAMIC_DATASET directory is not
provided.
"""

import csv
import json
import math
import os
import time

import numpy as np
import pytest

import uwbpose as up
from uwbpose.crlb import constrained_crlb, fisher_info, nullspace_basis
from uwbpose.estimators import estimate
from uwbpose.gnrefine import linearize
from uwbpose.linstage import so2_angles
from uwbpose.mc import McConfig, SweepAxis, run_sweep
from uwbpose.preprocess import calibrate_bias, flag_stream

from conftest import record_acceptance
from helpers import (
    constraint_jacobian,
    noiseless_batch,
    noisy_batch,
    noisy_ranges,
    random_observable_deployment,
    random_pose,
    reference_deployment,
    reference_pose,
    reference_sigma_matrix,
)
from ml_oracle import ml_reference_pose
from test_preprocess import _grid_deployment, _synthetic_truth_and_log


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    record_acceptance(line)
    assert ok, line


def _angle_gap(a: float, b: float) -> float:
    return abs(math.atan2(math.sin(a - b), math.cos(a - b)))


def test_c01_zero_noise_exactness():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst_t, worst_theta = 0.0, 0.0
    for _ in range(100):
        dep = random_observable_deployment(rng)
        pose = random_pose(rng)
        batch = noiseless_batch(dep, pose)
        for method in (up.Method.ULS, up.Method.GN_ULS, up.Method.DAC):
            estimated = estimate(batch, method)
            worst_t = max(worst_t, float(np.linalg.norm(estimated.t - pose.t)))
            worst_theta = max(worst_theta, _angle_gap(estimated.theta, pose.theta))
    elapsed = time.perf_counter() - start
    ok = worst_t <= 1e-8 and worst_theta <= 1e-8 and elapsed < 5.0
    _verdict(
        1,
        "zero-noise exactness",
        ok,
        f"max |t| err {worst_t:.2e} m, max angle err {worst_theta:.2e} rad, {elapsed:.2f} s",
    )


def test_c02_asymptotic_efficiency():
    config = McConfig(
        deployment=reference_deployment(sigma=reference_sigma_matrix()),
        true_pose=reference_pose(),
        axis=SweepAxis.REPEAT_T,
        axis_values=(10, 100, 1000, 10_000),
        trials=1000,
        seed=20240601,
        estimators=(up.Method.ULS, up.Method.GN_ULS, up.Method.DAC),
    )
    start = time.perf_counter()
    result = run_sweep(config)
    elapsed = time.perf_counter() - start
    ratios = {
        row.estimator: row.combined_rmse / row.sqrt_crlb
        for row in result.rows
        if row.axis_value == 10_000.0
    }
    gn_at_1000 = next(
        row.combined_rmse / row.sqrt_crlb
        for row in result.rows
        if row.axis_value == 1000.0 and row.estimator == "gn-uls"
    )
    ok = (
        0.95 <= ratios["gn-uls"] <= 1.05
        and 0.95 <= gn_at_1000 <= 1.05
        and ratios["uls"] >= 1.1
        and ratios["dac"] >= 1.1
        and elapsed < 300.0
    )
    _verdict(
        2,
        "asymptotic efficiency vs bound",
        ok,
        f"gn-uls {ratios['gn-uls']:.4f}, uls {ratios['uls']:.3f}, dac {ratios['dac']:.3f}, {elapsed:.0f} s",
    )


def test_c03_consistency_rate():
    config = McConfig(
        deployment=reference_deployment(sigma=reference_sigma_matrix()),
        true_pose=reference_pose(),
        axis=SweepAxis.REPEAT_T,
        axis_values=(50, 200, 800),
        trials=1000,
        seed=33,
        estimators=(up.Method.ULS, up.Method.DAC),
    )
    rows = {
        (row.estimator, row.axis_value): row.combined_rmse
        for row in run_sweep(config).rows
    }
    ratios = {
        est: (
            rows[(est, 200.0)] / rows[(est, 50.0)],
            rows[(est, 800.0)] / rows[(est, 200.0)],
        )
        for est in ("uls", "dac")
    }
    ok = all(0.4 <= r <= 0.6 for pair in ratios.values() for r in pair)
    _verdict(
        3,
        "root-n consistency rate",
        ok,
        ", ".join(f"{e}: {a:.3f}/{b:.3f}" for e, (a, b) in ratios.items()),
    )


def test_c04_one_step_converges_to_ml():
    rng = np.random.default_rng(44)
    dep = reference_deployment(sigma=0.2)
    pose = reference_pose()
    medians = []
    for repeat_t in (10, 40, 160):
        gaps = []
        for _ in range(200):
            d = noisy_ranges(dep, pose, repeat_t, rng)
            batch = up.RangeBatch(dep, d)
            refined = estimate(batch, up.Method.GN_ULS)
            reference = ml_reference_pose(dep, d)
            gap = math.sqrt(
                float(
                    np.sum((up.rotation_matrix(refined.theta) - up.rotation_matrix(reference.theta)) ** 2)
                    + np.sum((refined.t - reference.t) ** 2)
                )
            )
            gaps.append(math.sqrt(d.size) * gap)
        medians.append(float(np.median(gaps)))
    ok = medians[0] > medians[1] > medians[2]
    _verdict(
        4,
        "one-step refinement approaches ML",
        ok,
        "medians " + ", ".join(f"{m:.5f}" for m in medians),
    )


def test_c05_projection_beats_dense_grid():
    rng = np.random.default_rng(1005)
    grid = np.arange(1_000_000) * (2.0 * math.pi / 1_000_000)
    trig = np.stack([np.cos(grid), np.sin(grid)])  # (2, grid)
    matrices = [rng.normal(0.0, 1.0, size=(2, 2)) * rng.uniform(0.1, 10.0) for _ in range(1000)]
    worst_slack, worst_gap_ratio = 0.0, 0.0
    for start in range(0, len(matrices), 10):  # 10 grid scans at once: an 80 MB block
        block = matrices[start : start + 10]
        parts = np.array([[x[0, 0] + x[1, 1], x[1, 0] - x[0, 1]] for x in block])  # (alpha, beta) rows
        # alpha cos g + beta sin g over the grid, for every matrix of the block.
        best = grid[np.argmax(parts @ trig, axis=1)]
        for x, (alpha, beta), best_angle in zip(block, parts, best):
            # The projection stacked_uls and stacked_fit_poses run.
            theta_hat, status = so2_angles(np.array([alpha]), np.array([beta]))
            assert status[0] == up.Status.OK
            cost_hat = float(np.sum((x - up.rotation_matrix(theta_hat[0])) ** 2))
            cost_grid = float(np.sum((x - up.rotation_matrix(best_angle)) ** 2))
            bound = 2.0 * math.pi * 1e-6 * math.sqrt(2.0) * float(np.linalg.norm(x))
            worst_slack = max(worst_slack, cost_hat - cost_grid)
            worst_gap_ratio = max(worst_gap_ratio, (cost_grid - cost_hat) / bound)
    ok = worst_slack <= 1e-10 and worst_gap_ratio <= 1.0
    _verdict(
        5,
        "SO(2) projection optimality on 1e6-point grid",
        ok,
        f"max slack {worst_slack:.2e}, max gap/bound {worst_gap_ratio:.3f}",
    )


def test_c06_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1006)
    step = 1e-6
    worst = 0.0
    for heights in (False, True):
        for _ in range(100):
            dep = random_observable_deployment(rng)
            if heights:
                dep = up.Deployment(
                    anchors=dep.anchors,
                    tags=dep.tags,
                    sigma=dep.sigma,
                    dh=rng.uniform(0.2, 2.0, size=dep.sigma.shape),
                )
            pose = random_pose(rng)
            batch = noisy_batch(dep, pose, 1, rng)
            init = up.Pose2(pose.theta + rng.normal(0, 0.05), pose.t + rng.normal(0, 0.2, 2))
            _, _, jac = linearize(dep, np.array([init.theta]), init.t[np.newaxis], 1.0)
            jacobian = jac[0].reshape(-1, 3)
            fd = np.empty_like(jacobian)
            for p in range(3):
                d_theta = step if p == 0 else 0.0
                d_t = np.zeros(2)
                if p > 0:
                    d_t[p - 1] = step
                plus = up.predicted_ranges(dep, up.Pose2(init.theta + d_theta, init.t + d_t))
                minus = up.predicted_ranges(dep, up.Pose2(init.theta - d_theta, init.t - d_t))
                fd[:, p] = ((plus - minus) / (2 * step)).reshape(batch.mean_d.size)
            row_err = np.linalg.norm(jacobian - fd, axis=1)
            row_scale = np.maximum(np.linalg.norm(fd, axis=1), 1.0)
            worst = max(worst, float(np.max(row_err / row_scale)))
    ok = worst <= 1e-6
    _verdict(6, "range Jacobian vs central differences", ok, f"max relative row error {worst:.2e}")


def test_c07_crlb_structure():
    rng = np.random.default_rng(1007)
    dep = reference_deployment(sigma=reference_sigma_matrix())
    pose = reference_pose()

    checks = []
    for theta in rng.uniform(0, 2 * math.pi, size=20):
        rot = up.rotation_matrix(theta)
        checks.append(np.max(np.abs(constraint_jacobian(rot) @ nullspace_basis(rot))) <= 1e-10)
        checks.append(
            np.max(np.abs(nullspace_basis(rot).T @ nullspace_basis(rot) - np.eye(3))) <= 1e-10
        )
    f0 = fisher_info(dep, 7, pose)
    eigvals = np.linalg.eigvalsh(f0)
    checks.append(eigvals.min() >= -1e-10 * np.abs(eigvals).max())

    one = constrained_crlb(fisher_info(dep, 3, pose), pose).sqrt_trace
    four = constrained_crlb(fisher_info(dep, 12, pose), pose).sqrt_trace
    checks.append(abs(four - one / 2.0) <= 1e-12 * one)

    shift = np.array([-31.0, 17.0])
    moved = up.Deployment(
        anchors=dep.anchors + shift, tags=dep.tags, sigma=dep.sigma, dh=dep.dh
    )
    f1 = fisher_info(moved, 7, up.Pose2(pose.theta, pose.t + shift))
    checks.append(np.max(np.abs(f1 - f0)) <= 1e-10 * np.max(np.abs(f0)))

    ok = all(checks)
    _verdict(7, "constrained bound structure", ok, f"{sum(checks)}/{len(checks)} identities hold")


def test_c08_large_noise_tracking():
    config = McConfig(
        deployment=reference_deployment(sigma=0.1),
        true_pose=reference_pose(),
        axis=SweepAxis.NOISE_SIGMA,
        axis_values=(0.01, 0.0316, 0.1, 0.316, 1.0, 3.16, 10.0),
        repeat_t=1000,
        trials=1000,
        seed=42,
        estimators=(up.Method.GN_ULS,),
    )
    rows = run_sweep(config).rows
    ratios = {row.axis_value: row.combined_rmse / row.sqrt_crlb for row in rows}
    ok = all(r <= 1.1 for r in ratios.values()) and all(row.failures == 0 for row in rows)
    _verdict(
        8,
        "bound tracked across noise levels 0.01-10",
        ok,
        "max ratio {:.4f}".format(max(ratios.values())),
    )


def test_c09_linear_complexity_timing():
    # From raw ranges to a pose: the O(n) work is the moment pass of
    # RangeBatch construction, so it is timed with the estimate. Interleaved
    # measurements with medians: the wall clock is noisy and allocator
    # warm-up would otherwise dominate the comparison.
    rng = np.random.default_rng(1009)
    dep = reference_deployment(sigma=0.1)
    pose = reference_pose()
    small = noisy_ranges(dep, pose, 5_000, rng)
    large = noisy_ranges(dep, pose, 10_000, rng)  # n = 60000

    def construct_and_estimate(d):
        estimate(up.RangeBatch(dep, d), up.Method.GN_ULS)

    for _ in range(5):
        construct_and_estimate(small)
        construct_and_estimate(large)
    t_small, t_large = [], []
    for _ in range(40):
        start = time.perf_counter()
        construct_and_estimate(small)
        t_small.append(time.perf_counter() - start)
        start = time.perf_counter()
        construct_and_estimate(large)
        t_large.append(time.perf_counter() - start)
    t_half = float(np.median(t_small))
    t_full = float(np.median(t_large))
    ok = t_full <= 3.0 * t_half and t_full <= 0.050
    _verdict(
        9,
        "near-linear runtime growth",
        ok,
        f"{t_half*1e3:.2f} ms at n=30000, {t_full*1e3:.2f} ms at n=60000",
    )


def test_c10_outlier_rule_matches_oracle():
    rng = np.random.default_rng(1010)
    n = 100_000
    window, v_max, freq = 5, 0.5, 100.0
    slack = window * v_max / freq + 0.1

    # Spiked stream: bounded-speed motion, small noise, known spike slots.
    speed_profile = v_max * np.sin(0.001 * np.arange(n))
    motion = 30.0 + np.cumsum(speed_profile) / freq
    clean = motion + rng.normal(0.0, 0.005, n)
    spiked = clean.copy()
    spike_slots = rng.choice(n, size=2000, replace=False)
    spiked[spike_slots] += rng.uniform(0.2, 5.0, size=2000)

    flags = flag_stream(spiked, window, slack)
    oracle = np.zeros(n, dtype=bool)
    windows = np.lib.stride_tricks.sliding_window_view(spiked, window)
    for t in range(window, n):
        oracle[t] = spiked[t] > windows[t - window].min() + slack
    agree = bool(np.array_equal(flags, oracle))

    false_flags = int(flag_stream(clean, window, slack).sum())
    ok = agree and false_flags == 0
    _verdict(
        10,
        "rejection rule equals direct inequality oracle",
        ok,
        f"oracle agreement {agree}, false flags on clean stream {false_flags}",
    )


def test_c11_calibration_recovery():
    named = _grid_deployment()
    truth, log = _synthetic_truth_and_log(named, 0.02, 0.05, 0.0, 200, None)
    exact = calibrate_bias(log, truth, named)
    exact_ok = abs(exact.alpha - 0.02) <= 1e-9 and abs(exact.beta - 0.05) <= 1e-9

    rng = np.random.default_rng(1011)
    samples = 10_000 // (len(named.anchor_ids) * len(named.tag_ids)) + 1
    truth_n, log_n = _synthetic_truth_and_log(named, 0.02, 0.05, 0.05, samples, rng)
    noisy = calibrate_bias(log_n, truth_n, named)
    positions, yaws = truth_n.interpolate(log_n.t)
    ids = [log_n.stream_keys[k] for k in log_n.stream_id]
    a_idx = np.array([named.anchor_ids.index(a) for a, _ in ids])
    t_idx = np.array([named.tag_ids.index(t) for _, t in ids])
    tags = named.deployment.tags[t_idx]
    gx = np.cos(yaws) * tags[:, 0] - np.sin(yaws) * tags[:, 1] + positions[:, 0]
    gy = np.sin(yaws) * tags[:, 0] + np.cos(yaws) * tags[:, 1] + positions[:, 1]
    anchors = named.deployment.anchors[a_idx]
    true_range = np.hypot(anchors[:, 0] - gx, anchors[:, 1] - gy)
    design = np.column_stack([true_range, np.ones(len(log_n))])
    cov = 0.05**2 * np.linalg.inv(design.T @ design)
    noisy_ok = (
        abs(noisy.alpha - 0.02) <= 3 * math.sqrt(cov[0, 0])
        and abs(noisy.beta - 0.05) <= 3 * math.sqrt(cov[1, 1])
    )
    ok = exact_ok and noisy_ok
    _verdict(
        11,
        "linear bias calibration recovery",
        ok,
        f"noiseless ({exact.alpha:.2e}, {exact.beta:.2e}) offsets "
        f"({exact.alpha-0.02:+.1e}, {exact.beta-0.05:+.1e}); noisy within 3 se {noisy_ok}",
    )


def test_c12_dynamic_dataset_gated():
    root = os.environ.get("UWBPOSE_DYNAMIC_DATASET", "")
    if not root or not os.path.isdir(root):
        record_acceptance(
            "criterion 12 dynamic-dataset reproduction: SKIP [dataset not provided; "
            "set UWBPOSE_DYNAMIC_DATASET to a directory with ranges.csv, truth.csv, "
            "deployment.json]"
        )
        pytest.skip("dynamic dataset not provided")
    from uwbpose.cli import main

    out = os.path.join(root, "acceptance_poses.csv")
    yaw_offset = os.environ.get("UWBPOSE_YAW_OFFSET_DEG", "0.0")
    code = main(
        [
            "estimate",
            "--ranges", os.path.join(root, "ranges.csv"),
            "--truth", os.path.join(root, "truth.csv"),
            "--deployment", os.path.join(root, "deployment.json"),
            "--out", out,
            "--method", "gn-uls",
            "--yaw-offset-deg", yaw_offset,
        ]
    )
    assert code == 0
    with open(out + ".summary.csv", encoding="utf-8") as handle:
        row = list(csv.reader(handle))[1]
    position_cm, rotation_deg = float(row[1]), float(row[2])
    ok = abs(rotation_deg - 3.97) <= 1.0 and abs(position_cm - 3.01) <= 1.0
    _verdict(
        12,
        "dynamic-dataset reproduction",
        ok,
        f"position {position_cm:.2f} cm, rotation {rotation_deg:.2f} deg",
    )
