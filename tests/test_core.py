"""Geometry types, per-pair range moments, observability, and the ML objective."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbpose.core import (
    Deployment,
    Pose2,
    RangeBatch,
    check_observability,
    predicted_ranges,
    rotation_matrix,
    wrap_angles,
)
from uwbpose.errors import UnobservableDeploymentError
from uwbpose.linstage import linear_design

from helpers import (
    BODY_TAGS,
    COLLINEAR_ANCHORS,
    CORNER_ANCHORS,
    ORIGIN_LINE_TAGS,
    assert_owns_read_only_copies,
    ml_cost,
    noiseless_batch,
    noiseless_ranges,
    noisy_ranges,
    reference_deployment,
    reference_pose,
)


class TestRotationMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(rotation_matrix(0.0), np.eye(2))

    def test_quarter_turn(self):
        np.testing.assert_allclose(
            rotation_matrix(math.pi / 2), [[0.0, -1.0], [1.0, 0.0]], atol=1e-15
        )

    def test_sixty_degrees(self):
        half_sqrt3 = math.sqrt(3.0) / 2.0
        np.testing.assert_allclose(
            rotation_matrix(math.radians(60.0)),
            [[0.5, -half_sqrt3], [half_sqrt3, 0.5]],
            atol=1e-15,
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            rotation_matrix(bad)

    def test_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = rng.uniform(-10, 10, size=2)
            lhs = rotation_matrix(a) @ rotation_matrix(b)
            rhs = rotation_matrix(wrap_angles(np.array([a + b]))[0])
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_orthonormal_and_unit_determinant(self):
        rng = np.random.default_rng(6)
        for theta in rng.uniform(-20, 20, size=100):
            rot = rotation_matrix(theta)
            assert np.linalg.norm(rot.T @ rot - np.eye(2)) <= 1e-12
            assert abs(np.linalg.det(rot) - 1.0) <= 1e-12

    def test_angle_round_trip(self):
        rng = np.random.default_rng(7)
        for theta in rng.uniform(0, 2 * math.pi, size=50):
            rot = rotation_matrix(theta)
            assert wrap_angles(np.array([math.atan2(rot[1, 0], rot[0, 0])]))[0] == pytest.approx(theta, abs=1e-12)


class TestPose2:
    def test_theta_normalized(self):
        assert Pose2(-math.pi / 4, [0, 0]).theta == pytest.approx(7 * math.pi / 4)
        assert Pose2(2 * math.pi, [0, 0]).theta == 0.0
        assert 0.0 <= Pose2(-1e-18, [0, 0]).theta < 2 * math.pi

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Pose2(math.nan, [0, 0])
        with pytest.raises(ValueError):
            Pose2(0.0, [math.inf, 0])

    def test_immutable(self):
        pose = reference_pose()
        with pytest.raises(ValueError):
            pose.t[0] = 1.0

    def test_transform(self):
        pose = Pose2(math.pi / 2, [1.0, 2.0])
        np.testing.assert_allclose(pose.transform([[1.0, 0.0]]), [[1.0, 3.0]], atol=1e-15)


class TestDeployment:
    def test_sigma_broadcast_scalar_and_vector(self):
        dep = reference_deployment(sigma=0.2)
        assert dep.sigma.shape == (2, 3)
        per_anchor = Deployment(anchors=CORNER_ANCHORS, tags=BODY_TAGS, sigma=[0.1, 0.2, 0.3])
        np.testing.assert_allclose(per_anchor.sigma[0], [0.1, 0.2, 0.3])
        np.testing.assert_allclose(per_anchor.sigma[1], [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("bad_sigma", [0.0, -0.1, math.nan])
    def test_rejects_bad_sigma(self, bad_sigma):
        with pytest.raises(ValueError):
            reference_deployment(sigma=bad_sigma)

    def test_rejects_wrong_sigma_shape(self):
        with pytest.raises(ValueError):
            reference_deployment(sigma=np.full((3, 2), 0.1))

    def test_dh_defaults_to_zero(self):
        assert np.all(reference_deployment().dh == 0.0)


class TestRangeBatch:
    def test_counts(self):
        batch = noiseless_batch(reference_deployment(), reference_pose(), repeat_t=4)
        assert batch.repeat_t == 4 and batch.mean_d.shape == batch.mean_d2.shape == (2, 3)

    def test_rejects_wrong_shape(self):
        dep = reference_deployment()
        for shape in [(3, 2, 1), (2, 3), (2, 3, 1, 1), (2, 4, 2)]:
            with pytest.raises(ValueError, match=re.escape(f"d must have shape (2, 3, T) with T >= 1, got {shape}")):
                RangeBatch(dep, np.zeros(shape))

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError, match="T >= 1"):
            RangeBatch(reference_deployment(), np.zeros((2, 3, 0)))

    def test_repetitions_read_from_the_ranges(self):
        for t in (1, 3, 40):
            assert RangeBatch(reference_deployment(), np.ones((2, 3, t))).repeat_t == t

    def test_rejects_nonfinite(self):
        dep = reference_deployment()
        d = np.full((2, 3, 1), np.nan)
        with pytest.raises(ValueError):
            RangeBatch(dep, d)

    def test_moments_match_explicit_loops(self):
        rng = np.random.default_rng(15)
        dep = reference_deployment(sigma=rng.uniform(0.05, 0.4, size=(2, 3)))
        d = noisy_ranges(dep, reference_pose(), 5, rng)
        batch = RangeBatch(dep, d)
        assert batch.mean_d.shape == batch.mean_d2.shape == (2, 3)
        for i in range(dep.num_tags):
            for m in range(dep.num_anchors):
                samples = [float(d[i, m, rep]) for rep in range(batch.repeat_t)]
                mean_d = sum(samples) / len(samples)
                mean_d2 = sum(x * x for x in samples) / len(samples)
                assert batch.mean_d[i, m] == pytest.approx(mean_d, rel=1e-14)
                assert batch.mean_d2[i, m] == pytest.approx(mean_d2, rel=1e-14)

    def test_moments_read_only(self):
        batch = noiseless_batch(reference_deployment(), reference_pose(), repeat_t=2)
        for moment in (batch.mean_d, batch.mean_d2):
            with pytest.raises(ValueError):
                moment[0, 0] = 1.0


ANCHORS_REASON = "need at least 3 non-collinear anchors"
TAGS_REASON = "need at least 2 distinct tags"


def _observability_reason(dep: Deployment) -> str:
    """The message check_observability raises for ``dep``, or "" when it returns None."""
    try:
        assert check_observability(dep) is None
    except UnobservableDeploymentError as exc:
        return str(exc)
    return ""


@st.composite
def _integer_layouts(draw):
    """Anchors and tags with small integer coordinates, each set generic or
    degenerate in a way that is exact in binary. The anchors' sum is a
    multiple of their count, so that centring them is exact too: 1 or 2
    anchors, anchors on a line, or generic ones; 1 tag, coincident tags
    (possibly all at the origin), tags on a line through the body origin,
    tags that include the origin, or generic ones."""
    ints = st.integers(-20, 20)
    point = st.tuples(ints, ints).map(np.array)
    m, centre = draw(st.integers(1, 5)), draw(point)
    if draw(st.booleans()):  # on the line through ``centre`` along ``step``
        step = draw(point)
        anchors = [centre + k * step for k in draw(st.lists(ints, min_size=m - 1, max_size=m - 1))]
    else:
        anchors = draw(st.lists(point, min_size=m - 1, max_size=m - 1))
    anchors.append(m * centre - sum(anchors, np.zeros(2, dtype=int)))
    n, first = draw(st.integers(2, 4)), draw(point)
    kind = draw(st.sampled_from(["single", "coincident", "origin line", "with origin", "generic"]))
    if kind == "single":
        tags = [first]
    elif kind == "coincident":
        tags = [first] * n
    elif kind == "origin line":
        tags = [k * first for k in draw(st.lists(ints, min_size=n, max_size=n))]
    else:
        tags = [np.zeros(2, dtype=int) if kind == "with origin" else first]
        tags += draw(st.lists(point, min_size=n - 1, max_size=n - 1))
    return np.array(anchors, dtype=float), np.array(tags, dtype=float)


@st.composite
def _random_layouts(draw):
    """Generic anchors and tags with uniform random coordinates."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(3, 8)), draw(st.integers(2, 4))
    return rng.uniform(0.0, 60.0, size=(m, 2)), rng.uniform(-4.0, 4.0, size=(n, 2))


class TestObservability:
    def test_reference_observable(self):
        assert check_observability(reference_deployment()) is None

    def test_collinear_anchors_fail(self):
        dep = Deployment(anchors=COLLINEAR_ANCHORS, tags=BODY_TAGS, sigma=0.1)
        with pytest.raises(UnobservableDeploymentError, match=f"^{ANCHORS_REASON}$"):
            check_observability(dep)

    @pytest.mark.parametrize("tags", [[[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]], ids=["coincident", "zero"])
    def test_coincident_tags_fail(self, tags):
        dep = Deployment(anchors=CORNER_ANCHORS, tags=tags, sigma=0.1)
        with pytest.raises(UnobservableDeploymentError, match=f"^{TAGS_REASON}$"):
            check_observability(dep)

    def test_single_tag_fails(self):
        dep = Deployment(anchors=CORNER_ANCHORS, tags=[[1.0, 1.0]], sigma=0.1)
        with pytest.raises(UnobservableDeploymentError, match=f"^{TAGS_REASON}$"):
            check_observability(dep)

    @pytest.mark.parametrize("tags", ORIGIN_LINE_TAGS.values(), ids=ORIGIN_LINE_TAGS)
    def test_tags_collinear_with_origin_are_observable(self, tags):
        assert check_observability(Deployment(anchors=CORNER_ANCHORS, tags=tags, sigma=0.1)) is None

    def test_both_conditions_fail_in_one_message(self):
        dep = Deployment(anchors=CORNER_ANCHORS[:2], tags=[[1.0, 1.0]], sigma=0.1)
        with pytest.raises(UnobservableDeploymentError, match=f"^{ANCHORS_REASON}; {TAGS_REASON}$"):
            check_observability(dep)

    @pytest.mark.parametrize("ratio, observable", [(1.1e-9, True), (0.9e-9, False)])
    def test_collinearity_tolerance_is_1e_9(self, ratio, observable):
        # The centred anchors (+-50, +-50 ratio) have orthogonal columns, so
        # their singular values differ by ``ratio``. So do the centred tags
        # (0, +-ratio) and the tags (1, +-ratio), whose largest singular value
        # is that of (1, 1). Both fail together, so the message names both.
        b = 50.0 * ratio
        dep = Deployment(anchors=[[50.0, b], [50.0, -b], [-50.0, b], [-50.0, -b]], tags=[[1.0, ratio], [1.0, -ratio]])
        assert _observability_reason(dep) == ("" if observable else f"{ANCHORS_REASON}; {TAGS_REASON}")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(layout=_integer_layouts() | _random_layouts())
    def test_holds_exactly_when_the_linear_design_has_full_rank(self, layout):
        # ``matrix_rank`` cuts singular values as ``least_squares`` does.
        dep = Deployment(anchors=layout[0], tags=layout[1])
        assert (_observability_reason(dep) == "") == (np.linalg.matrix_rank(linear_design(dep)) == 4)

    def test_invariant_to_global_frame_motion(self):
        rng = np.random.default_rng(11)
        for anchors in (CORNER_ANCHORS, COLLINEAR_ANCHORS):
            base = _observability_reason(Deployment(anchors=anchors, tags=BODY_TAGS, sigma=0.1))
            for _ in range(20):
                rot = rotation_matrix(rng.uniform(0, 2 * math.pi))
                shift = rng.uniform(-100, 100, size=2)
                moved = Deployment(anchors=anchors @ rot.T + shift, tags=BODY_TAGS, sigma=0.1)
                assert _observability_reason(moved) == base
            assert base == ("" if anchors is CORNER_ANCHORS else ANCHORS_REASON)


class TestMlCost:
    def test_zero_at_truth_for_any_sigma(self):
        rng = np.random.default_rng(12)
        pose = reference_pose()
        for _ in range(10):
            sigma = rng.uniform(0.01, 2.0, size=(2, 3))
            dep = reference_deployment(sigma=sigma)
            d = noiseless_ranges(dep, pose, repeat_t=int(rng.integers(1, 4)))
            assert ml_cost(dep, d, pose) == 0.0

    def test_positive_at_perturbed_pose(self):
        pose = reference_pose()
        dep = reference_deployment()
        off = Pose2(pose.theta + 0.01, pose.t + [0.02, -0.01])
        assert ml_cost(dep, noiseless_ranges(dep, pose), off) > 0.0

    def test_matches_per_term_summation(self):
        rng = np.random.default_rng(13)
        dep = reference_deployment(sigma=rng.uniform(0.05, 0.4, size=(2, 3)), dh=rng.uniform(0, 1, size=(2, 3)))
        pose = reference_pose()
        d = noisy_ranges(dep, pose, 2, rng)
        probe = Pose2(pose.theta + 0.05, pose.t + [0.3, -0.2])
        rot = rotation_matrix(probe.theta)
        expected = 0.0
        for i in range(dep.num_tags):
            for m in range(dep.num_anchors):
                tag_global = rot @ dep.tags[i] + probe.t
                dist = math.sqrt(
                    float(np.sum((dep.anchors[m] - tag_global) ** 2)) + dep.dh[i, m] ** 2
                )
                for rep in range(d.shape[2]):
                    expected += (d[i, m, rep] - dist) ** 2 / dep.sigma[i, m] ** 2
        assert ml_cost(dep, d, probe) == pytest.approx(expected, rel=1e-12)


def test_predicted_ranges_include_height_offsets():
    dep = reference_deployment(dh=1.5)
    pose = reference_pose()
    flat = predicted_ranges(reference_deployment(), pose)
    lifted = predicted_ranges(dep, pose)
    np.testing.assert_allclose(lifted, np.sqrt(flat**2 + 1.5**2), atol=1e-12)


def test_values_leave_the_callers_arrays_writable():
    # Float arrays of the right shape, which np.asarray would hand back as they are.
    t, anchors, tags = np.array([1.0, 2.0]), CORNER_ANCHORS.copy(), BODY_TAGS.copy()
    sigma, dh, d = np.full((2, 3), 0.1), np.zeros((2, 3)), np.ones((2, 3, 4))
    pose, dep = Pose2(0.5, t), Deployment(anchors, tags, sigma, dh)
    batch = RangeBatch(dep, d)
    assert_owns_read_only_copies(
        [t, anchors, tags, sigma, dh, d], [pose.t, dep.anchors, dep.tags, dep.sigma, dep.dh, batch.mean_d, batch.mean_d2]
    )
