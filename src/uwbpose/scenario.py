"""Declarative scenario files for the CLI (JSON, schema-validated).

A scenario describes a deployment, the true pose, and optionally a sweep
section. Unknown keys are rejected so typos fail loudly instead of being
silently ignored. See the repository README for the schema.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from .core import Deployment, Method, Pose2
from .errors import SchemaError
from .mc import McConfig, SweepAxis, integer_at_least

_TOP_KEYS = {"deployment", "true_pose", "sweep", "repeat_t", "seed"}
_DEPLOYMENT_KEYS = {"anchors", "tags", "sigma", "dh"}
_POSE_KEYS = {"theta_deg", "t"}
_SWEEP_KEYS = {
    "axis",
    "values",
    "trials",
    "estimators",
    "repeat_t",
    "anchor_rect",
    "noise_scale",
}


class Scenario(NamedTuple):
    """Parsed scenario: geometry, truth, and an optional sweep config."""

    deployment: Deployment
    true_pose: Pose2
    repeat_t: int
    config: McConfig | None


def _require_keys(section, allowed: set, required: set, where: str) -> None:
    if not isinstance(section, dict):
        raise SchemaError(f"{where}: must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")


def _integer(value, key: str, low: int, where: str) -> int:
    """The value of ``key`` checked by ``mc.integer_at_least``; a failure is
    a SchemaError that names ``where``."""
    try:
        return integer_at_least(value, key, low)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _parse_sigma(raw, n_tags: int, n_anchors: int, metadata: dict):
    """Sigma forms: scalar, (N, M) nested list, per-anchor list of length M,
    or a flat list of length N*M assigned to pairs in anchor-major order."""
    if isinstance(raw, (int, float)):
        return float(raw)
    if not isinstance(raw, list):
        raise SchemaError("deployment.sigma must be a number or list")
    if raw and isinstance(raw[0], list):
        return np.asarray(raw, dtype=float)
    flat = np.asarray(raw, dtype=float)
    if flat.size == n_anchors:
        return flat
    if flat.size == n_tags * n_anchors:
        metadata["sigma_slot_mapping"] = (
            "flat sigma list assigned anchor-major, tag-minor (assumption)"
        )
        return flat.reshape(n_anchors, n_tags).T
    raise SchemaError(
        f"deployment.sigma list must have length {n_anchors} or {n_tags * n_anchors}"
    )


def _parse_deployment(raw: dict, metadata: dict) -> Deployment:
    _require_keys(raw, _DEPLOYMENT_KEYS, {"anchors", "tags"}, "deployment")
    try:
        tags = np.asarray(raw["tags"], dtype=float)
        anchors = np.asarray(raw["anchors"], dtype=float)
        if anchors.ndim != 2 or tags.ndim != 2:
            raise SchemaError("deployment.anchors and deployment.tags must be lists of [x, y]")
        sigma = _parse_sigma(raw.get("sigma", 1.0), tags.shape[0], anchors.shape[0], metadata)
        return Deployment(anchors=anchors, tags=tags, sigma=sigma, dh=raw.get("dh", 0.0))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"deployment: {exc}") from exc


def _parse_pose(raw: dict) -> Pose2:
    _require_keys(raw, _POSE_KEYS, _POSE_KEYS, "true_pose")
    try:
        return Pose2(math.radians(float(raw["theta_deg"])), raw["t"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"true_pose: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise SchemaError(f"cannot read scenario {path}: {exc}") from exc
    _require_keys(raw, _TOP_KEYS, {"deployment", "true_pose"}, str(path))

    metadata: dict = {}
    deployment = _parse_deployment(raw["deployment"], metadata)
    true_pose = _parse_pose(raw["true_pose"])
    repeat_t = _integer(raw.get("repeat_t", 1), "repeat_t", 1, path)
    seed = _integer(raw.get("seed", 0), "seed", 0, path)

    config = None
    if "sweep" in raw:
        sweep = raw["sweep"]
        _require_keys(sweep, _SWEEP_KEYS, {"axis", "values", "trials"}, "sweep")
        try:
            axis = SweepAxis(sweep["axis"])
        except ValueError:
            raise SchemaError(
                f"sweep.axis must be one of {[a.value for a in SweepAxis]}"
            ) from None
        try:
            estimators = tuple(Method(e) for e in sweep.get("estimators", [m.value for m in Method]))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"sweep.estimators: {exc}") from exc
        rect = sweep.get("anchor_rect", [[0.0, 0.0], [50.0, 50.0]])
        trials = _integer(sweep["trials"], "trials", 1, "sweep")
        sweep_repeat_t = _integer(sweep.get("repeat_t", repeat_t), "repeat_t", 1, "sweep")
        try:
            config = McConfig(
                deployment=deployment,
                true_pose=true_pose,
                axis=axis,
                axis_values=tuple(sweep["values"]),
                trials=trials,
                seed=seed,
                estimators=estimators,
                repeat_t=sweep_repeat_t,
                anchor_rect=((float(rect[0][0]), float(rect[0][1])), (float(rect[1][0]), float(rect[1][1]))),
                noise_scale=float(sweep.get("noise_scale", 1.0)),
                metadata=dict(metadata),
            )
        except (TypeError, ValueError, LookupError) as exc:
            raise SchemaError(f"sweep: {exc}") from exc

    return Scenario(deployment, true_pose, repeat_t, config)
