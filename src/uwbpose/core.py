"""Geometry and problem-definition types shared by all pose estimators.

Coordinates are planar and metric. Anchors live in a fixed global frame,
tags in the body frame of the rigid object being localized, and a pose
maps body coordinates into the global frame via ``R(theta) @ s + t``.
Every type is immutable: it holds its arrays as read-only copies that it
owns (``read_only``) and its collections as tuples; only the stacked
kernels' ``PoseStack``s are writable. No type holds a cache and
every operation is a pure function, so any value can be shared across
threads. Estimators recompute what they derive from a deployment (designs,
offsets, weights) on each call; that work is O(N * M).
"""

from __future__ import annotations

import enum
import math
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import UnobservableDeploymentError

TWO_PI = 2.0 * math.pi

# Relative singular-value threshold below which anchors count as collinear
# and tags as coincident. Scale-free: compared against the largest singular value.
COLLINEARITY_RTOL = 1e-9


def read_only(values, dtype=None) -> np.ndarray:
    """A read-only copy of ``values`` as an array, of ``dtype`` if given: the
    caller's own array stays writable."""
    copy = np.array(values, dtype=dtype)
    copy.setflags(write=False)
    return copy


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Map each angle of an array to [0, 2*pi): the remainder of ``fmod`` by
    2*pi, shifted up by 2*pi where negative, with 0 where rounding of a tiny
    negative reaches 2*pi."""
    wrapped = np.fmod(theta, TWO_PI)
    np.add(wrapped, TWO_PI, out=wrapped, where=wrapped < 0.0)
    wrapped[wrapped >= TWO_PI] = 0.0
    return wrapped


def rotation_matrix(theta: float) -> np.ndarray:
    """Planar rotation matrix ``[[cos, -sin], [sin, cos]]``.

    Raises ValueError for a non-finite angle.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta!r}")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class Pose2:
    """Planar pose: rotation angle in [0, 2*pi) plus a translation in meters.

    The constructor normalizes the angle and rejects non-numeric or non-finite entries.
    """

    theta: float
    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t)
        if t.dtype.kind not in "iuf" or np.asarray(self.theta).dtype.kind not in "iuf":
            raise TypeError("pose entries must be numbers")
        t, theta = read_only(t.reshape(2), float), float(self.theta)
        if not (math.isfinite(theta) and np.all(np.isfinite(t))):
            raise ValueError("pose entries must be finite")
        object.__setattr__(self, "theta", float(wrap_angles(np.array([theta]))[0]))
        object.__setattr__(self, "t", t)

    def transform(self, points) -> np.ndarray:
        """Map body-frame points (K, 2) into the global frame."""
        pts = np.asarray(points, dtype=float)
        return pts @ rotation_matrix(self.theta).T + self.t


@dataclass(frozen=True)
class Deployment:
    """Anchor/tag geometry plus per-pair noise levels and height offsets.

    ``anchors`` is (M, 2) in the global frame, ``tags`` is (N, 2) in the
    body frame. All four are numbers (else TypeError: no strings, booleans
    or None); ``sigma`` and ``dh`` broadcast to (N, M): scalars apply to
    every pair, an (M,) vector per anchor, an (N, M) array per pair.
    """

    anchors: np.ndarray
    tags: np.ndarray
    sigma: np.ndarray = 1.0
    dh: np.ndarray = 0.0

    def __post_init__(self):
        anchors, tags = np.asarray(self.anchors), np.asarray(self.tags)
        if anchors.dtype.kind not in "iuf" or tags.dtype.kind not in "iuf":
            raise TypeError("anchor and tag coordinates must be numbers")
        anchors, tags = read_only(anchors, float), read_only(tags, float)
        if anchors.ndim != 2 or anchors.shape[1] != 2 or anchors.shape[0] < 1:
            raise ValueError("anchors must be a non-empty (M, 2) array")
        if tags.ndim != 2 or tags.shape[1] != 2 or tags.shape[0] < 1:
            raise ValueError("tags must be a non-empty (N, 2) array")
        if not (np.all(np.isfinite(anchors)) and np.all(np.isfinite(tags))):
            raise ValueError("anchor and tag coordinates must be finite")
        shape = (tags.shape[0], anchors.shape[0])
        try:
            sigma, dh = np.asarray(self.sigma), np.asarray(self.dh)
            if sigma.dtype.kind not in "iuf" or dh.dtype.kind not in "iuf":
                raise TypeError("sigma and dh must be numbers or lists of numbers")
            sigma, dh = read_only(np.broadcast_to(sigma, shape), float), read_only(np.broadcast_to(dh, shape), float)
        except ValueError as exc:
            raise ValueError(f"sigma/dh must broadcast to {shape}") from exc
        if not np.all(np.isfinite(sigma)) or np.any(sigma <= 0.0):
            raise ValueError("sigma must be strictly positive and finite")
        if not np.all(np.isfinite(dh)):
            raise ValueError("dh must be finite")
        for name, arr in (("anchors", anchors), ("tags", tags), ("sigma", sigma), ("dh", dh)):
            object.__setattr__(self, name, arr)

    @property
    def num_anchors(self) -> int:
        return self.anchors.shape[0]

    @property
    def num_tags(self) -> int:
        return self.tags.shape[0]


@dataclass(frozen=True)
class RangeBatch:
    """One estimation problem's measurements, reduced to per-pair moments.

    ``d`` has shape (N, M, T), T >= 1, indexed (tag, anchor, repetition),
    and T is ``repeat_t``: T repetitions of M anchors act as M * T anchors,
    so n = N * M * T. Every estimator depends on the repetitions only
    through T and the read-only (N, M) per-pair moments ``mean_d`` and
    ``mean_d2``, computed once here; the raw ranges are not kept. Ranges
    must be finite; sign is not checked here because synthetic ranges are
    raw Gaussian draws, while real logs reject negative ranges at ingestion.
    """

    deployment: Deployment
    d: InitVar[np.ndarray]
    repeat_t: int = field(init=False)
    mean_d: np.ndarray = field(init=False, repr=False, compare=False)
    mean_d2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, d):
        d = np.asarray(d, dtype=float)
        n, m = self.deployment.num_tags, self.deployment.num_anchors
        if d.ndim != 3 or d.shape[:2] != (n, m) or d.shape[2] < 1:
            raise ValueError(f"d must have shape ({n}, {m}, T) with T >= 1, got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("measurements must be finite")
        for name, arr in (("mean_d", d.mean(axis=2)), ("mean_d2", np.einsum("nmt,nmt->nm", d, d) / d.shape[2])):
            object.__setattr__(self, name, read_only(arr))
        object.__setattr__(self, "repeat_t", d.shape[2])


class PoseStack(NamedTuple):
    """Poses of K problems that share one deployment, from a stacked estimator.

    ``theta`` is (K,), ``t`` is (K, 2) and ``status`` is (K,) integer
    ``errors.Status`` codes. The stacked kernels leave ``theta`` unreduced;
    ``estimate_methods`` reduces it to [0, 2*pi), sets the pose of every
    failed problem to NaN, and makes the arrays read-only.
    """

    theta: np.ndarray
    t: np.ndarray
    status: np.ndarray


class Method(str, enum.Enum):
    """Estimator identifiers used in reports, sweeps, and the CLI."""

    ULS = "uls"
    GN_ULS = "gn-uls"
    DAC = "dac"
    GN_DAC = "gn-dac"


def check_observability(deployment: Deployment) -> None:
    """Raise UnobservableDeploymentError, naming each failed condition joined by
    ``"; "``, unless the deployment makes the planar pose identifiable: at least
    3 non-collinear anchors and 2 distinct tags, which is when the linear
    stage's design has full rank. Anchors are collinear when their centred
    coordinates' smaller singular value is at most ``COLLINEARITY_RTOL`` times
    the larger; tags are distinct when their centred coordinates have a
    singular value above ``COLLINEARITY_RTOL`` times the largest of the tags
    themselves, each set scaled first by a power of two so that centring it
    cannot overflow. The outcome is invariant to rigid motions of the global frame."""
    reasons = []
    anchors, tags = (np.ldexp(x, -np.frexp(np.abs(x).max())[1]) for x in (deployment.anchors, deployment.tags))
    spread = np.linalg.svd(anchors - anchors.mean(axis=0), compute_uv=False)
    if not (len(anchors) >= 3 and spread[-1] > COLLINEARITY_RTOL * spread[0]):
        reasons.append("need at least 3 non-collinear anchors")
    if not np.linalg.norm(tags - tags.mean(axis=0), 2) > COLLINEARITY_RTOL * np.linalg.norm(tags, 2):
        reasons.append("need at least 2 distinct tags")
    if reasons:
        raise UnobservableDeploymentError("; ".join(reasons))


def predicted_ranges(deployment: Deployment, pose: Pose2) -> np.ndarray:
    """Noise-free ranges (N, M): sqrt(|a_m - R s_i - t|^2 + dh_im^2)."""
    tag_pos = pose.transform(deployment.tags)  # (N, 2)
    diff = deployment.anchors[np.newaxis, :, :] - tag_pos[:, np.newaxis, :]
    return np.sqrt(np.einsum("nmk,nmk->nm", diff, diff) + deployment.dh**2)
