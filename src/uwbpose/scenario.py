"""Declarative scenario files for the CLI (JSON, schema-validated).

A scenario describes a deployment, the true pose, and optionally a sweep
section. Unknown keys are rejected so typos fail loudly instead of being
silently ignored. Values go unchanged to the types that check them
(``Deployment``, ``Pose2``, ``McConfig``), except a flat N*M ``sigma``
list, a form only scenarios have. See the repository README for the schema.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .core import Deployment, Pose2
from .errors import SchemaError, integer_at_least, read_json, require_keys, schema_errors
from .mc import McConfig

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
    """Parsed scenario: geometry, truth, an optional sweep config, and notes,
    (key, value) pairs on how the file was read, which ``simulate`` prints."""

    deployment: Deployment
    true_pose: Pose2
    repeat_t: int
    config: McConfig | None
    notes: tuple[tuple[str, str], ...]


def _parse_sigma(raw, n_tags: int, n_anchors: int, notes: list):
    """A flat list of sigmas, the one form only scenarios have: per anchor
    when of length M, unchanged, or of length N*M, assigned to pairs in
    anchor-major order and recorded in ``notes``; any other length is a
    SchemaError. Other values go to ``Deployment`` unchanged, which checks them."""
    if not isinstance(raw, list) or any(isinstance(value, list) for value in raw) or len(raw) == n_anchors:
        return raw
    if len(raw) != n_tags * n_anchors:
        raise SchemaError(f"deployment.sigma list must have length {n_anchors} or {n_tags * n_anchors}")
    notes.append(("sigma_slot_mapping", "flat sigma list assigned anchor-major, tag-minor (assumption)"))
    return np.asarray(raw).reshape(n_anchors, n_tags).T


def _parse_deployment(raw: dict, notes: list) -> Deployment:
    require_keys(raw, _DEPLOYMENT_KEYS, {"anchors", "tags"}, "deployment")
    with schema_errors("deployment"):  # the geometry first, so that the sigma forms can be told apart by N and M
        deployment = Deployment(anchors=raw["anchors"], tags=raw["tags"], dh=raw.get("dh", 0.0))
        sigma = _parse_sigma(raw.get("sigma", 1.0), deployment.num_tags, deployment.num_anchors, notes)
        return dataclasses.replace(deployment, sigma=sigma)


def _parse_pose(raw: dict) -> Pose2:
    require_keys(raw, _POSE_KEYS, _POSE_KEYS, "true_pose")
    with schema_errors("true_pose"):
        return Pose2(math.radians(raw["theta_deg"]), raw["t"])


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    raw = read_json(path, "scenario")
    require_keys(raw, _TOP_KEYS, {"deployment", "true_pose"}, str(path))

    notes: list = []
    deployment = _parse_deployment(raw["deployment"], notes)
    true_pose = _parse_pose(raw["true_pose"])
    with schema_errors(str(path)):
        repeat_t = integer_at_least(raw.get("repeat_t", 1), "repeat_t", 1)
        seed = integer_at_least(raw.get("seed", 0), "seed", 0)

    config = None
    if "sweep" in raw:
        sweep = raw["sweep"]
        require_keys(sweep, _SWEEP_KEYS, {"axis", "values", "trials"}, "sweep")
        optional = {key: sweep[key] for key in ("estimators", "anchor_rect", "noise_scale") if key in sweep}
        with schema_errors("sweep"):
            config = McConfig(
                deployment=deployment,
                true_pose=true_pose,
                axis=sweep["axis"],
                axis_values=sweep["values"],
                trials=sweep["trials"],
                seed=seed,
                repeat_t=sweep.get("repeat_t", repeat_t),
                **optional,
            )

    return Scenario(deployment, true_pose, repeat_t, config, tuple(notes))
