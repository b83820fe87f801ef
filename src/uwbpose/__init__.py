"""Planar rigid-body pose estimation from anchor-to-tag range measurements.

A closed-form consistent estimator (projected squared-range least squares
plus SO(2) projection), refined by one Gauss-Newton step, with a
divide-and-conquer alternative, constrained lower-bound analysis, a
Monte-Carlo harness, and a preprocessing pipeline for real range logs.
"""

from .core import (
    Deployment,
    EstimateReport,
    Method,
    ObservabilityVerdict,
    Pose2,
    RangeBatch,
    check_observability,
    ml_cost,
    predicted_ranges,
    rotation_angle,
    rotation_matrix,
    wrap_angle,
)
from .crlb import CrlbResult, FisherInfo, constrained_crlb, fisher_info
from .dac import estimate_dac, fit_pose_from_fixes, localize_tags
from .errors import (
    DegenerateGeometryError,
    DegenerateProjectionError,
    EstimationError,
    InsufficientDataError,
    NearSingularityError,
    SchemaError,
    SingularSystemError,
    UnderdeterminedDeploymentError,
    UnobservableAtPoseError,
    UnobservableDeploymentError,
)
from .estimators import ESTIMATORS
from .gnrefine import GnWorkspace, build_gn_workspace, estimate_gn_uls, gn_step
from .linstage import (
    LinearSystem,
    build_linear_system,
    estimate_uls,
    project_so2,
    rotation_from_y,
    solve_uls,
)
from .mc import McConfig, McResult, McRow, SweepAxis, run_outlier_stress, run_sweep, synthesize_ranges
from .preprocess import (
    BiasModel,
    EpochPolicy,
    GroundTruthLog,
    NamedDeployment,
    RangeLog,
    align_and_batch,
    calibrate_bias,
    estimate_sigma,
    reject_outliers,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
