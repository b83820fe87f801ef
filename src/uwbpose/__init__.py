"""Planar rigid-body pose estimation from anchor-to-tag range measurements.

A closed-form consistent estimator (projected squared-range least squares
plus SO(2) projection), refined by one Gauss-Newton step, with a
divide-and-conquer alternative, constrained lower-bound analysis, a
Monte-Carlo harness, and a preprocessing pipeline for real range logs.
"""

from .core import (
    Deployment,
    Method,
    Pose2,
    PoseStack,
    RangeBatch,
    check_observability,
    predicted_ranges,
    rotation_matrix,
    wrap_angle,
    wrap_angles,
)
from .crlb import CrlbResult, constrained_crlb, fisher_info
from .dac import stacked_dac, stacked_fit_poses, stacked_localize_tags
from .errors import (
    DegenerateGeometryError,
    DegenerateProjectionError,
    EstimationError,
    InsufficientDataError,
    NearSingularityError,
    SchemaError,
    SingularSystemError,
    Status,
    UnobservableAtPoseError,
    UnobservableDeploymentError,
)
from .estimators import estimate, estimate_methods, estimate_stacked
from .gnrefine import stacked_gn_step
from .linstage import solve_uls, stacked_uls
from .mc import McConfig, McResult, McRow, SweepAxis, run_sweep
from .preprocess import (
    BiasModel,
    Epochs,
    GroundTruthLog,
    NamedDeployment,
    RangeLog,
    align_and_batch,
    calibrate_bias,
    reject_outliers,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
