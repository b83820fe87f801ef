"""Fisher information and the constrained lower bound."""

import math

import numpy as np
import pytest

from uwbpose.core import Deployment, Pose2
from uwbpose.crlb import (
    constrained_crlb,
    constraint_jacobian,
    fisher_info,
    nullspace_basis,
)
from uwbpose.errors import NearSingularityError, UnobservableAtPoseError
from uwbpose.gnrefine import estimate_gn_uls

from helpers import (
    BODY_TAGS,
    CORNER_ANCHORS,
    noisy_batch,
    pose_parameter_vector,
    reference_deployment,
    reference_pose,
)


def _rotation_from_theta6(theta6: np.ndarray) -> np.ndarray:
    return theta6[:4].reshape(2, 2, order="F")


def _expected_nll(dep, draws, theta6):
    """Average weighted negative log-likelihood over noise draws at a
    (possibly off-manifold) parameter vector."""
    rot = _rotation_from_theta6(theta6)
    t = theta6[4:]
    tag_pos = dep.tags @ rot.T + t
    diff = dep.anchors[None, :, :] - tag_pos[:, None, :]
    predicted = np.sqrt(np.einsum("nmk,nmk->nm", diff, diff) + dep.dh**2)
    residual = draws - predicted[None, :, :]
    return float(np.mean(np.sum(residual**2 / dep.sigma[None] ** 2, axis=(1, 2)))) / 2.0


class TestFisherInfo:
    def test_linear_in_repetitions(self):
        dep = reference_deployment()
        pose = reference_pose()
        f1 = fisher_info(dep, 1, pose).matrix
        f2 = fisher_info(dep, 2, pose).matrix
        np.testing.assert_allclose(f2, 2.0 * f1, rtol=1e-12)

    def test_symmetric_positive_semidefinite(self):
        rng = np.random.default_rng(61)
        dep = reference_deployment(sigma=rng.uniform(0.05, 0.3, size=(2, 3)))
        f = fisher_info(dep, 3, reference_pose()).matrix
        assert np.max(np.abs(f - f.T)) <= 1e-10 * np.max(np.abs(f))
        eigvals = np.linalg.eigvalsh(f)
        assert eigvals.min() >= -1e-10 * np.abs(eigvals).max()

    def test_matches_fd_hessian_of_expected_nll(self):
        dep = reference_deployment(sigma=0.1)
        pose = reference_pose()
        f = fisher_info(dep, 1, pose).matrix

        rng = np.random.default_rng(62)
        clean_diff = dep.anchors[None, :, :] - pose.transform(dep.tags)[:, None, :]
        clean = np.sqrt(np.einsum("nmk,nmk->nm", clean_diff, clean_diff) + dep.dh**2)
        draws = clean[None] + dep.sigma[None] * rng.standard_normal((100_000, 2, 3))

        theta0 = pose_parameter_vector(pose)
        step = 1e-3
        hessian = np.empty((6, 6))
        center = _expected_nll(dep, draws, theta0)
        for a in range(6):
            ea = np.zeros(6)
            ea[a] = step
            hessian[a, a] = (
                _expected_nll(dep, draws, theta0 + ea)
                - 2 * center
                + _expected_nll(dep, draws, theta0 - ea)
            ) / step**2
        for a in range(6):
            for b in range(a + 1, 6):
                ea, eb = np.zeros(6), np.zeros(6)
                ea[a] = step
                eb[b] = step
                mixed = (
                    _expected_nll(dep, draws, theta0 + ea + eb)
                    - _expected_nll(dep, draws, theta0 + ea - eb)
                    - _expected_nll(dep, draws, theta0 - ea + eb)
                    + _expected_nll(dep, draws, theta0 - ea - eb)
                ) / (4 * step**2)
                hessian[a, b] = hessian[b, a] = mixed
        assert np.linalg.norm(hessian - f) <= 1e-4 * np.linalg.norm(f)

    def test_global_origin_shift_leaves_information(self):
        dep = reference_deployment()
        pose = reference_pose()
        f0 = fisher_info(dep, 1, pose).matrix
        shift = np.array([-13.0, 42.0])
        dep_shifted = Deployment(
            anchors=dep.anchors + shift, tags=dep.tags, sigma=dep.sigma, dh=dep.dh
        )
        f1 = fisher_info(dep_shifted, 1, Pose2(pose.theta, pose.t + shift)).matrix
        np.testing.assert_allclose(f1, f0, rtol=1e-10)

    def test_body_origin_shift_changes_information(self):
        dep = reference_deployment()
        pose = reference_pose()
        f0 = fisher_info(dep, 1, pose).matrix
        shift = np.array([1.0, -2.0])
        dep_shifted = Deployment(
            anchors=dep.anchors, tags=dep.tags - shift, sigma=dep.sigma, dh=dep.dh
        )
        pose_shifted = Pose2(pose.theta, pose.t + pose.rotation @ shift)
        f1 = fisher_info(dep_shifted, 1, pose_shifted).matrix
        assert not np.allclose(f1, f0, rtol=1e-6)

    def test_coincident_anchor_and_tag_rejected(self):
        dep = Deployment(anchors=[[3.0, 0.0], [20.0, 0.0], [0.0, 20.0]], tags=BODY_TAGS, sigma=0.1)
        with pytest.raises(NearSingularityError):
            fisher_info(dep, 1, Pose2(0.0, [0.0, 0.0]))

    def test_height_offsets_enter_denominator(self):
        flat = fisher_info(reference_deployment(), 1, reference_pose()).matrix
        lifted = fisher_info(reference_deployment(dh=2.0), 1, reference_pose()).matrix
        assert np.trace(lifted) < np.trace(flat)


class TestConstraintStructure:
    def test_basis_orthonormal_and_annihilated(self):
        rng = np.random.default_rng(63)
        for theta in rng.uniform(0, 2 * math.pi, size=25):
            rot = Pose2(theta, [0, 0]).rotation
            jac = constraint_jacobian(rot)
            u = nullspace_basis(rot)
            assert np.max(np.abs(jac @ u)) <= 1e-10
            assert np.max(np.abs(u.T @ u - np.eye(3))) <= 1e-10

    def test_constraint_jacobian_full_row_rank(self):
        rot = reference_pose().rotation
        assert np.linalg.matrix_rank(constraint_jacobian(rot)) == 3


class TestConstrainedCrlb:
    def test_sqrt_trace_halves_when_t_quadruples(self):
        dep = reference_deployment()
        pose = reference_pose()
        one = constrained_crlb(fisher_info(dep, 1, pose), pose)
        four = constrained_crlb(fisher_info(dep, 4, pose), pose)
        assert four.sqrt_trace == pytest.approx(one.sqrt_trace / 2.0, rel=1e-12)

    def test_psd_and_constrained_directions_zero(self):
        dep = reference_deployment()
        pose = reference_pose()
        result = constrained_crlb(fisher_info(dep, 10, pose), pose)
        eigvals = np.linalg.eigvalsh(result.crlb)
        assert eigvals.min() >= -1e-12 * np.abs(eigvals).max()
        jac = constraint_jacobian(pose.rotation)
        assert np.max(np.abs(result.crlb @ jac.T)) <= 1e-10
        assert result.sqrt_trace == pytest.approx(
            math.sqrt(result.rotation_block_trace + result.translation_block_trace), rel=1e-12
        )

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(64)
        dep = reference_deployment(sigma=rng.uniform(0.05, 0.3, size=(2, 3)))
        pose = reference_pose()
        base = constrained_crlb(fisher_info(dep, 2, pose), pose).crlb
        perm_a = np.array([2, 0, 1])
        perm_t = np.array([1, 0])
        dep_p = Deployment(
            anchors=dep.anchors[perm_a],
            tags=dep.tags[perm_t],
            sigma=dep.sigma[perm_t][:, perm_a],
            dh=dep.dh[perm_t][:, perm_a],
        )
        permuted = constrained_crlb(fisher_info(dep_p, 2, pose), pose).crlb
        np.testing.assert_allclose(permuted, base, rtol=1e-10, atol=1e-18)

    def test_tag_scaling_shrinks_rotation_bound(self):
        pose = reference_pose()
        dep1 = reference_deployment()
        dep2 = Deployment(anchors=CORNER_ANCHORS, tags=2.0 * BODY_TAGS, sigma=0.1)
        r1 = constrained_crlb(fisher_info(dep1, 1, pose), pose)
        r2 = constrained_crlb(fisher_info(dep2, 1, pose), pose)
        ratio = math.sqrt(r1.rotation_block_trace) / math.sqrt(r2.rotation_block_trace)
        assert 1.8 <= ratio <= 2.2

    def test_unobservable_at_pose_raises(self):
        dep = Deployment(anchors=CORNER_ANCHORS, tags=[[0.0, 0.0], [0.0, 0.0]], sigma=0.1)
        pose = reference_pose()
        with pytest.raises(UnobservableAtPoseError):
            constrained_crlb(fisher_info(dep, 1, pose), pose)


class TestEmpiricalEfficiency:
    def test_gn_uls_covariance_sandwiched_by_bound(self):
        dep = reference_deployment(sigma=0.1)
        pose = reference_pose()
        bound = constrained_crlb(fisher_info(dep, 1000, pose), pose)
        rng = np.random.default_rng(65)
        samples = []
        for _ in range(1000):
            report = estimate_gn_uls(noisy_batch(dep, pose, 1000, rng))
            samples.append(pose_parameter_vector(report.pose))
        covariance = np.cov(np.asarray(samples).T)
        ratio = float(np.trace(covariance)) / float(np.trace(bound.crlb))
        assert 0.95 <= ratio <= 1.15
