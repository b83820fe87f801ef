"""Exception types shared across the package, the per-problem status codes of the stacked
estimators, one for each way an estimate fails, the one rule that turns a rejected input value
into a SchemaError, and the reader, key check and number check of every JSON input file."""

import contextlib
import enum
import json
import math
import numbers
import sys


class EstimationError(Exception):
    """Base class for failures raised by the estimation pipeline."""


class SingularSystemError(EstimationError):
    """A least-squares system lost rank; the message names the rank found and the column count."""


class DegenerateProjectionError(EstimationError):
    """Rotation projection is undefined (zero or fully collapsed input)."""


class DegenerateGeometryError(EstimationError):
    """Tag or anchor geometry cannot support the requested fit."""


class NearSingularityError(EstimationError):
    """A predicted range or information denominator fell below its floor."""


class UnobservableDeploymentError(EstimationError):
    """Deployment fails the anchor/tag observability conditions."""


class UnobservableAtPoseError(EstimationError):
    """Constrained information matrix is singular at the evaluation pose."""


class InsufficientDataError(EstimationError):
    """Not enough usable samples for the requested computation."""


class SchemaError(Exception):
    """Malformed external input: scenario, log, deployment, or model file."""


@contextlib.contextmanager
def schema_errors(where: str, kinds=(TypeError, ValueError)):
    """Re-raise an exception of ``kinds`` from the block as SchemaError ``<where>: <exc>``, its cause dropped."""
    try:
        yield
    except kinds as exc:
        raise SchemaError(f"{where}: {exc}") from None


def read_json(path, what: str):
    """The JSON document in ``path``, UTF-8 with any leading BOM ignored. SchemaError,
    naming ``what``, when the file cannot be read or parsed, repeats a key in an object, or
    holds ``true``, ``false`` or an integer beyond the float range anywhere: no field of any
    input file is boolean, and every number becomes a float."""
    with schema_errors(f"cannot read {what} {path}", (OSError, ValueError)), open(path, encoding="utf-8-sig") as handle:
        nodes = [json.load(handle, object_pairs_hook=unique_keys)]
    for node in nodes:  # grows as it goes: every value of the document
        if isinstance(node, bool):
            raise SchemaError(f"{what} {path}: true and false are not values of any field")
        if isinstance(node, int) and abs(node) > sys.float_info.max:
            raise SchemaError(f"{what} {path}: an integer is beyond the float range")
        nodes.extend(node.values() if isinstance(node, dict) else node if isinstance(node, list) else ())
    return nodes[0]


def unique_keys(pairs: list) -> dict:
    """(key, value) ``pairs``, such as a JSON object's, as a dict; ValueError names a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def require_keys(section, allowed: set, required: set, where: str) -> None:
    """SchemaError, naming ``where``, unless ``section`` is a JSON object
    with every ``required`` key and no key beyond ``allowed``."""
    if not isinstance(section, dict):
        raise SchemaError(f"{where}: must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")


def finite_number(value) -> bool:
    """True for a finite real number that is not a boolean."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def integer_at_least(value, name: str, low: int) -> int:
    """``value`` as an int of at least ``low``. Integers and integral floats
    qualify; booleans, strings, fractions, NaN and infinities raise
    ValueError, naming ``name``."""
    integral = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


class Status(enum.IntEnum):
    """Outcome of one problem in a stacked estimator call.

    Each nonzero code stands for an error class, which ``estimators.estimate``
    raises for a problem of its own. ``OVERFLOW`` marks a problem whose moments
    or arithmetic leave the float range; a deployment that overflows gives it
    to every problem, as a rank-deficient linear design gives ``SINGULAR_SYSTEM``.
    """

    OK = 0
    DEGENERATE_PROJECTION = 1
    DEGENERATE_GEOMETRY = 2
    NEAR_SINGULARITY = 3
    SINGULAR_SYSTEM = 4
    OVERFLOW = 5

    @property
    def error(self) -> type[EstimationError]:
        """Exception class of a nonzero code."""
        return _STATUS_ERRORS[self]


_STATUS_ERRORS = {
    Status.DEGENERATE_PROJECTION: DegenerateProjectionError,
    Status.DEGENERATE_GEOMETRY: DegenerateGeometryError,
    Status.NEAR_SINGULARITY: NearSingularityError,
    Status.SINGULAR_SYSTEM: SingularSystemError,
    Status.OVERFLOW: EstimationError,
}
