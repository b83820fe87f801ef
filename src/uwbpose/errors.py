"""Exception types shared across the package, and the per-problem status
codes of the stacked estimator kernels that stand for some of them."""

import enum


class EstimationError(Exception):
    """Base class for failures raised by the estimation pipeline."""


class UnderdeterminedDeploymentError(EstimationError):
    """Fewer anchors than the linear stage needs; repetitions do not count."""


class SingularSystemError(EstimationError):
    """A least-squares system lost rank.

    Carries the numeric rank that was actually found.
    """

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class DegenerateProjectionError(EstimationError):
    """Rotation projection is undefined (zero or fully collapsed input)."""


class DegenerateGeometryError(EstimationError):
    """Tag or anchor geometry cannot support the requested fit."""


class NearSingularityError(EstimationError):
    """A predicted range or information denominator fell below its floor.

    ``tag_index``/``anchor_index`` identify the offending pair when known.
    """

    def __init__(self, message: str, tag_index: int | None = None, anchor_index: int | None = None):
        super().__init__(message)
        self.tag_index = tag_index
        self.anchor_index = anchor_index


class UnobservableDeploymentError(EstimationError):
    """Deployment fails the anchor/tag observability conditions."""


class UnobservableAtPoseError(EstimationError):
    """Constrained information matrix is singular at the evaluation pose."""


class InsufficientDataError(EstimationError):
    """Not enough usable samples for the requested computation."""


class SchemaError(Exception):
    """Malformed external input: scenario, log, deployment, or model file."""


class Status(enum.IntEnum):
    """Outcome of one problem in a stacked estimator call.

    Failures shared by every problem of a stack (too few anchors, a
    rank-deficient linear design, degenerate tags) are raised instead. Each
    nonzero code stands for an error class, which ``estimators.estimate``
    raises for a problem of its own.
    """

    OK = 0
    DEGENERATE_PROJECTION = 1
    DEGENERATE_GEOMETRY = 2
    NEAR_SINGULARITY = 3

    @property
    def error(self) -> type[EstimationError]:
        """Exception class of a nonzero code."""
        return _STATUS_ERRORS[self]


_STATUS_ERRORS = {
    Status.DEGENERATE_PROJECTION: DegenerateProjectionError,
    Status.DEGENERATE_GEOMETRY: DegenerateGeometryError,
    Status.NEAR_SINGULARITY: NearSingularityError,
}
