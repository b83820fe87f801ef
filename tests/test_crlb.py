"""Fisher information and the constrained lower bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbpose.core import Deployment, Method, Pose2, rotation_matrix
from uwbpose.crlb import RANK_TOL, constrained_crlb, fisher_info, nullspace_basis
from uwbpose.errors import NearSingularityError, UnobservableAtPoseError
from uwbpose.estimators import estimate
from uwbpose.gnrefine import linearize

from helpers import (
    BODY_TAGS,
    CORNER_ANCHORS,
    constraint_jacobian,
    noisy_batch,
    pose_parameter_vector,
    reference_deployment,
    reference_pose,
    svd_constrained_crlb,
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
        f1 = fisher_info(dep, 1, pose)
        f2 = fisher_info(dep, 2, pose)
        np.testing.assert_allclose(f2, 2.0 * f1, rtol=1e-12)

    def test_symmetric_positive_semidefinite(self):
        rng = np.random.default_rng(61)
        dep = reference_deployment(sigma=rng.uniform(0.05, 0.3, size=(2, 3)))
        f = fisher_info(dep, 3, reference_pose())
        assert np.max(np.abs(f - f.T)) <= 1e-10 * np.max(np.abs(f))
        eigvals = np.linalg.eigvalsh(f)
        assert eigvals.min() >= -1e-10 * np.abs(eigvals).max()

    def test_matches_fd_hessian_of_expected_nll(self):
        dep = reference_deployment(sigma=0.1)
        pose = reference_pose()
        f = fisher_info(dep, 1, pose)

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
        f0 = fisher_info(dep, 1, pose)
        shift = np.array([-13.0, 42.0])
        dep_shifted = Deployment(
            anchors=dep.anchors + shift, tags=dep.tags, sigma=dep.sigma, dh=dep.dh
        )
        f1 = fisher_info(dep_shifted, 1, Pose2(pose.theta, pose.t + shift))
        np.testing.assert_allclose(f1, f0, rtol=1e-10)

    def test_body_origin_shift_changes_information(self):
        dep = reference_deployment()
        pose = reference_pose()
        f0 = fisher_info(dep, 1, pose)
        shift = np.array([1.0, -2.0])
        dep_shifted = Deployment(
            anchors=dep.anchors, tags=dep.tags - shift, sigma=dep.sigma, dh=dep.dh
        )
        pose_shifted = Pose2(pose.theta, pose.t + rotation_matrix(pose.theta) @ shift)
        f1 = fisher_info(dep_shifted, 1, pose_shifted)
        assert not np.allclose(f1, f0, rtol=1e-6)

    def test_coincident_anchor_and_tag_rejected(self):
        dep = Deployment(anchors=[[3.0, 0.0], [20.0, 0.0], [0.0, 20.0]], tags=BODY_TAGS, sigma=0.1)
        with pytest.raises(NearSingularityError, match=r"^anchor 0 coincides with transformed tag 0$"):
            fisher_info(dep, 1, Pose2(0.0, [0.0, 0.0]))

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError, match="repeat_t"):
            fisher_info(reference_deployment(), 0, reference_pose())

    @pytest.mark.parametrize("squared, raises", [(0.9e-9, True), (1.1e-9, False)])
    def test_coincidence_floor_is_1e_9_square_metres(self, squared, raises):
        # At theta = 0 and t = (d, 0), tag 0 lies d from anchor 0.
        dep = Deployment(anchors=[[3.0, 0.0], [20.0, 0.0], [0.0, 20.0]], tags=BODY_TAGS, sigma=0.1)
        pose = Pose2(0.0, [math.sqrt(squared), 0.0])
        if raises:
            with pytest.raises(NearSingularityError):
                fisher_info(dep, 1, pose)
        else:
            assert np.all(np.isfinite(fisher_info(dep, 1, pose)))

    def test_height_offsets_enter_denominator(self):
        flat = fisher_info(reference_deployment(), 1, reference_pose())
        lifted = fisher_info(reference_deployment(dh=2.0), 1, reference_pose())
        assert np.trace(lifted) < np.trace(flat)


class TestConstraintStructure:
    def test_basis_orthonormal_and_annihilated(self):
        rng = np.random.default_rng(63)
        for theta in rng.uniform(0, 2 * math.pi, size=25):
            rot = rotation_matrix(theta)
            jac = constraint_jacobian(rot)
            u = nullspace_basis(rot)
            assert np.max(np.abs(jac @ u)) <= 1e-10
            assert np.max(np.abs(u.T @ u - np.eye(3))) <= 1e-10

    def test_constraint_jacobian_full_row_rank(self):
        rot = rotation_matrix(reference_pose().theta)
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
        jac = constraint_jacobian(rotation_matrix(pose.theta))
        assert np.max(np.abs(result.crlb @ jac.T)) <= 1e-10
        assert result.sqrt_trace == pytest.approx(
            math.sqrt(result.rotation_block_trace + result.translation_block_trace), rel=1e-12
        )

    def test_bound_is_read_only(self):
        pose = reference_pose()
        result = constrained_crlb(fisher_info(reference_deployment(), 10, pose), pose)
        with pytest.raises(ValueError, match="read-only"):
            result.crlb[0, 0] = 0.0

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


def _assert_agrees_with_svd_oracle(info, pose):
    """``constrained_crlb`` against ``svd_constrained_crlb``.

    With ``A = U^T F U`` on ``nullspace_basis``, ``r`` the ratio of its
    largest to smallest diagonal entry, ``kappa`` its condition number (the
    oracle refuses from 1e12 on) and ``l1 >= l2 >= l3`` the eigenvalues of
    A scaled to unit diagonal, whose condition number lies within a factor
    ``r`` of ``kappa``:

    - the verdict keeps the documented eigenvalue bounds: a refused matrix
      has ``l3 <= sqrt(RANK_TOL)`` and ``l2 l3 <= RANK_TOL``, an accepted
      one ``l3 > RANK_TOL / 2.25``;
    - the verdicts agree outside the band ``5e5 / r < kappa < 1.35e13 r``,
      which holds the oracle's threshold, and outside
      ``1e11 / r < kappa < 1.35e13 r`` when ``l2 >= 1/4`` (one small
      eigenvalue, the usual way a bound ceases to exist);
    - where both accept, the bounds agree to 1e-10 relative, or to
      ``8 eps ||F|| ||CRLB||`` where that is larger: the accuracy a
      backward-stable solve has on an information known to rounding.
    """
    reduced = nullspace_basis(rotation_matrix(pose.theta)).T @ info @ nullspace_basis(rotation_matrix(pose.theta))
    diag = np.diag(reduced)
    expected = svd_constrained_crlb(info, rotation_matrix(pose.theta))
    try:
        got = constrained_crlb(info, pose)
    except UnobservableAtPoseError:
        got = None
    if not np.all(diag > 0.0):
        assert got is None
        return
    ratio = diag.max() / diag.min()
    kappa = np.linalg.cond(reduced)
    l3, l2, _ = np.linalg.eigvalsh(reduced / np.sqrt(np.outer(diag, diag)))
    slack = 1e-14  # rounding of the scaled determinant and of the eigenvalues
    if got is None:
        assert l3 <= math.sqrt(RANK_TOL) + slack and l2 * l3 <= RANK_TOL + slack
    else:
        assert l3 > RANK_TOL / 2.25 - slack
    if kappa >= 1.35e13 * ratio:
        assert expected is None and got is None
    if kappa * ratio <= (1e11 if l2 >= 0.25 else 5e5):
        assert expected is not None and got is not None
    if expected is not None and got is not None:
        scale = np.linalg.norm(expected, 2)
        tol = max(1e-10, 8 * np.finfo(float).eps * np.linalg.norm(info, 2) * scale)
        assert np.linalg.norm(got.crlb - expected, 2) <= tol * scale
        assert got.sqrt_trace == pytest.approx(math.sqrt(np.trace(expected)), rel=tol, abs=0.0)
        assert got.rotation_block_trace + got.translation_block_trace == pytest.approx(
            np.trace(expected), rel=tol, abs=0.0
        )


class TestClosedFormAgainstSvdOracle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(3, 12),
        spread=st.floats(0.0, 2.0),
        theta=st.floats(0.0, 2 * math.pi),
    )
    def test_random_informations(self, seed, rows, spread, theta):
        # Fisher informations are sums of rank-one terms; columns differ in scale.
        rng = np.random.default_rng(seed)
        jac = rng.normal(size=(rows, 6)) * 10.0 ** rng.uniform(-spread, spread, size=6)
        _assert_agrees_with_svd_oracle(jac.T @ jac, Pose2(theta, [0.0, 0.0]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        smallest=st.one_of(st.integers(0, 72).map(lambda k: k / 4), st.just(math.inf)),
        middle=st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0]),
        spread=st.floats(0.0, 3.0),
        theta=st.floats(0.0, 2 * math.pi),
    )
    def test_near_singular_informations(self, seed, smallest, middle, spread, theta):
        # The reduced information has eigenvalues 1, 10^-(middle * smallest)
        # and 10^-smallest (0 at infinity) in random directions, with its
        # coordinates scaled by up to 10^spread; the constrained directions
        # carry a random positive definite block.
        rng = np.random.default_rng(seed)
        pose = Pose2(theta, [0.0, 0.0])
        eigvals = 10.0 ** -np.array([0.0, middle * smallest if smallest < math.inf else 0.0, smallest])
        basis = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        scale = 10.0 ** rng.uniform(-spread, spread, size=3)
        reduced = scale[:, np.newaxis] * ((basis * eigvals) @ basis.T) * scale
        constrained = np.linalg.svd(constraint_jacobian(rotation_matrix(pose.theta)))[2][:3].T
        block = rng.normal(size=(3, 3))
        u = nullspace_basis(rotation_matrix(pose.theta))
        info = u @ reduced @ u.T + constrained @ (block @ block.T) @ constrained.T
        _assert_agrees_with_svd_oracle(0.5 * (info + info.T), pose)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    anchors=st.integers(3, 6),
    tags=st.integers(2, 4),
    repeat_t=st.integers(1, 49),
)
def test_reduced_information_is_the_gauss_newton_normal_matrix(seed, anchors, tags, repeat_t):
    # At the true pose, T J^T J of the weighted range Jacobian in (theta, t)
    # is the reduced information U^T F U in the coordinates of U, whose
    # first column is d vec(R) / d theta over sqrt(2): so one inverse serves
    # the Gauss-Newton step and the bound.
    rng = np.random.default_rng(seed)
    shape = (tags, anchors)
    dep = Deployment(
        anchors=rng.uniform(0.0, 60.0, size=(anchors, 2)),
        tags=rng.uniform(-4.0, 4.0, size=(tags, 2)),
        sigma=rng.uniform(0.02, 0.3, size=shape),
        dh=rng.uniform(0.0, 2.0, size=shape),
    )
    pose = Pose2(rng.uniform(0.0, 2 * math.pi), rng.uniform(10.0, 40.0, size=2))
    jac = linearize(dep, np.array([pose.theta]), pose.t[np.newaxis], 1.0 / dep.sigma)[2].reshape(-1, 3)
    u = nullspace_basis(rotation_matrix(pose.theta))
    d_inv = np.diag([math.sqrt(2.0), 1.0, 1.0])
    expected = d_inv @ (u.T @ fisher_info(dep, repeat_t, pose) @ u) @ d_inv
    normal = repeat_t * (jac.T @ jac)
    assert np.linalg.norm(normal - expected) <= 1e-12 * np.linalg.norm(expected)


class TestEmpiricalEfficiency:
    def test_gn_uls_covariance_sandwiched_by_bound(self):
        dep = reference_deployment(sigma=0.1)
        pose = reference_pose()
        bound = constrained_crlb(fisher_info(dep, 1000, pose), pose)
        rng = np.random.default_rng(65)
        samples = []
        for _ in range(1000):
            estimated = estimate(noisy_batch(dep, pose, 1000, rng), Method.GN_ULS)
            samples.append(pose_parameter_vector(estimated))
        covariance = np.cov(np.asarray(samples).T)
        ratio = float(np.trace(covariance)) / float(np.trace(bound.crlb))
        assert 0.95 <= ratio <= 1.15
