"""Monte-Carlo harness: sweeps and RMSE-versus-bound tables.

Each axis value draws the per-pair range moments of all its trials at once,
without the ranges themselves (``_axis_setup``), from the standard library's
Mersenne Twister keyed by (seed, axis index). Its 64-bit words become
normals by Box and Muller (1958) and Gamma variates by Marsaglia and Tsang
(ACM TOMS 26(3), 2000) in numpy, so a sweep never imports ``numpy.random``
(sweep numbers changed once, in distribution only, when these replaced a
Philox generator). A ``repeat_t`` axis is one group, as its values share a
deployment; each value of another axis is a group, drawn after the one
before it is estimated. One ``estimate_methods`` call per group runs each
stage once for the estimators that start from it, and aggregation is by
trial index, so results are bit-identical for a fixed seed. Wall-clock
timings are the one exception: ``mean_time_s``, the time of the stages an
estimator used (``gn-uls`` includes its ULS stage) divided by the call's
trial count, shared by the values of a call, is nondeterministic.
"""

from __future__ import annotations

import csv
import enum
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Deployment, Method, Pose2, check_observability, predicted_ranges
from .crlb import constrained_crlb, fisher_info
from .errors import EstimationError, finite_number, integer_at_least
from .estimators import estimate_methods, failure_tally


class SweepAxis(str, enum.Enum):
    """What a sweep varies: ranging repetitions, anchor count, or noise level."""

    REPEAT_T = "repeat_t"
    ANCHOR_COUNT = "anchor_count"
    NOISE_SIGMA = "noise_sigma"


@dataclass(frozen=True)
class McConfig:
    """Scenario definition for a sweep; a ValueError names the field that
    breaks a rule. ``axis`` and ``estimators`` (non-empty, each once) may be names.

    ``axis_values`` must be positive finite numbers, increasing, and integers
    for the ``repeat_t`` and ``anchor_count`` axes. For anchor-count sweeps
    every value must be at least 3, new anchors are placed uniformly on
    ``anchor_rect`` and the deployment's sigma and dh must be uniform so they
    extend to the new anchors. ``anchor_rect`` must be numbers, finite with
    low < high on both axes. ``noise_scale``, a finite number >= 0,
    multiplies the synthesized noise only; estimators keep using the
    deployment's configured sigma (0 gives noiseless batches).
    """

    deployment: Deployment
    true_pose: Pose2
    axis: SweepAxis
    axis_values: tuple
    trials: int
    seed: int
    estimators: tuple[Method, ...] = (Method.ULS, Method.GN_ULS, Method.DAC, Method.GN_DAC)
    repeat_t: int = 1
    anchor_rect: tuple = ((0.0, 0.0), (50.0, 50.0))
    noise_scale: float = 1.0

    def __post_init__(self):
        try:
            object.__setattr__(self, "axis", SweepAxis(self.axis))
        except ValueError:
            raise ValueError(f"axis must be one of {[a.value for a in SweepAxis]}, got {self.axis!r}") from None
        try:
            estimators = tuple(map(Method, self.estimators))
        except (TypeError, ValueError):  # not a list, or an unknown name
            estimators = ()
        if not estimators or len(set(estimators)) < len(estimators):
            names = [m.value for m in Method]
            raise ValueError(f"estimators must be a non-empty list of distinct {names}, got {self.estimators!r}")
        object.__setattr__(self, "estimators", estimators)
        values = tuple(self.axis_values) if np.iterable(self.axis_values) else ()
        if not (values and all(finite_number(v) and v > 0 for v in values)):
            raise ValueError("axis values must be positive and finite numbers")
        values = tuple(map(float, values))
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("axis values must be strictly increasing")
        if self.axis is not SweepAxis.NOISE_SIGMA and not all(v.is_integer() for v in values):
            raise ValueError(f"{self.axis.value} axis values must be integers")
        if self.axis is SweepAxis.ANCHOR_COUNT:
            if values[0] < 3:
                raise ValueError("anchor-count sweep values must be >= 3")
            if np.ptp(self.deployment.sigma) != 0.0 or np.ptp(self.deployment.dh) != 0.0:
                raise ValueError("anchor-count sweeps require uniform sigma and dh")
        object.__setattr__(self, "axis_values", values)
        for name, low in (("repeat_t", 1), ("trials", 1), ("seed", 0)):
            object.__setattr__(self, name, integer_at_least(getattr(self, name), name, low))
        anchors = int(values[-1]) if self.axis is SweepAxis.ANCHOR_COUNT else self.deployment.num_anchors
        if 8 * self.trials * self.deployment.num_tags * anchors > np.iinfo(np.intp).max:
            raise ValueError(f"trials must keep the (trials, N, M) moments within numpy's index range, got {self.trials}")
        if not (finite_number(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError(f"noise_scale must be a finite number >= 0, got {self.noise_scale!r}")
        try:
            (x0, y0), (x1, y1) = self.anchor_rect
        except (TypeError, ValueError):  # not two pairs
            x0 = y0 = x1 = y1 = None
        if not (all(map(finite_number, (x0, y0, x1, y1))) and x0 < x1 and y0 < y1):
            raise ValueError(f"anchor_rect must be [[x0, y0], [x1, y1]] with low < high, got {self.anchor_rect!r}")
        object.__setattr__(self, "anchor_rect", ((float(x0), float(y0)), (float(x1), float(y1))))


class McRow(NamedTuple):
    """One aggregated result line for an (axis value, estimator) pair. The
    RMSEs and ``mean_time_s`` are NaN when every trial failed, ``sqrt_crlb``
    where the bound does not exist at the true pose."""

    axis_value: float
    estimator: str
    rotation_rmse: float
    translation_rmse: float
    combined_rmse: float
    sqrt_crlb: float
    mean_time_s: float
    failures: int
    trials: int


class McResult(NamedTuple):
    """Sweep output rows plus provenance metadata, (key, value) string pairs as in ``Scenario.notes``."""

    rows: tuple[McRow, ...]
    metadata: tuple[tuple[str, str], ...]


# 64-bit words per getrandbits call: 2**26 bits, far below a C int, and 8 MB.
_WORDS_PER_CALL = 2**20


def _uniform(rng: random.Random, shape) -> np.ndarray:
    """Uniforms on (0, 1]: the top 53 bits of each 64-bit word, plus one. The words come
    ``_WORDS_PER_CALL`` at a time, as ``getrandbits`` takes a C int of bits, into an array
    allocated first; the words of consecutive calls are those of one call."""
    words = np.empty(math.prod(shape), "<u8")
    for start in range(0, words.size, _WORDS_PER_CALL):
        chunk = words[start : start + _WORDS_PER_CALL]
        chunk[:] = np.frombuffer(rng.getrandbits(64 * chunk.size).to_bytes(8 * chunk.size, "little"), "<u8")
    return (((words >> 11) + 1) * 2.0**-53).reshape(shape)


def _normal(rng: random.Random, shape) -> np.ndarray:
    """Standard normals by Box-Muller, both of each pair used."""
    n = math.prod(shape)
    u = _uniform(rng, (2, (n + 1) // 2))
    radius, angle = np.sqrt(-2.0 * np.log(u[0])), 2.0 * math.pi * u[1]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n].reshape(shape)


def _gamma(rng: random.Random, k: float, shape) -> np.ndarray:
    """Gamma(k) variates by Marsaglia-Tsang, redrawing only the rejected
    entries; for k < 1, Gamma(k + 1) times U^(1/k). Exact zeros at k = 0."""
    if k == 0:
        return np.zeros(shape)
    d = k + (k < 1) - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(math.prod(shape))
    todo = np.arange(out.size)
    while todo.size:
        x, u = _normal(rng, todo.shape), _uniform(rng, todo.shape)
        v = (1.0 + c * x) ** 3
        ok = v > 0
        ok[ok] = np.log(u[ok]) < 0.5 * x[ok] ** 2 + d - d * v[ok] + d * np.log(v[ok])
        out[todo[ok]] = d * v[ok]
        todo = todo[~ok]
    if k < 1:
        out *= _uniform(rng, out.shape) ** (1.0 / k)
    return out.reshape(shape)


def _axis_setup(config: McConfig, axis_index: int) -> tuple[Deployment, int, np.ndarray, np.ndarray]:
    """Deployment, repetition count and the per-pair moments ``mean_d`` and
    ``mean_d2``, each (trials, N, M), of every trial at one axis value. The
    stream (seed, axis index) places the extra anchors of an anchor-count
    axis, and the stream (seed, axis index, 1) draws the moments.

    The ranges themselves are never drawn. With iid Gaussian noise of scale
    ``s``, a pair's mean range and the variance ``mean_d2 - mean_d**2`` are
    independent, with laws N(g, s²/T) and s² χ²(T-1) / T (Cochran's
    theorem), and χ²(k) is twice a Gamma(k/2) variate. At T = 1 the
    variance is exactly 0.
    """
    value = config.axis_values[axis_index]
    dep, t_eff = config.deployment, config.repeat_t
    if config.axis is SweepAxis.REPEAT_T:
        t_eff = int(value)
    elif config.axis is SweepAxis.NOISE_SIGMA:
        dep = Deployment(anchors=dep.anchors, tags=dep.tags, sigma=value, dh=dep.dh)
    else:  # ANCHOR_COUNT: uniform sigma/dh extend to the generated anchors.
        target = int(value)
        low, high = np.array(config.anchor_rect)
        u = _uniform(random.Random(f"{config.seed}:{axis_index}"), (max(target - dep.num_anchors, 0), 2))
        extra = low + (high - low) * (1.0 - u)
        anchors = np.vstack([dep.anchors[:target], extra])
        dep = Deployment(anchors=anchors, tags=dep.tags, sigma=float(dep.sigma.flat[0]), dh=float(dep.dh.flat[0]))
    rng = random.Random(f"{config.seed}:{axis_index}:1")
    scale = config.noise_scale * dep.sigma
    shape = (config.trials, dep.num_tags, dep.num_anchors)
    normal, spread = _normal(rng, shape), _gamma(rng, (t_eff - 1) / 2.0, shape)
    with np.errstate(over="ignore", invalid="ignore"):  # a trial whose moments overflow gets Status.OVERFLOW
        mean_d = predicted_ranges(dep, config.true_pose) + scale * normal / math.sqrt(t_eff)
        return dep, t_eff, mean_d, mean_d * mean_d + (2.0 / t_eff) * scale * scale * spread


def _run_axes(config: McConfig, group: list) -> tuple[list[McRow], list[str]]:
    """Run all trials at the axis values of ``group``, (axis index, *setup)
    tuples whose ``_axis_setup`` results share one deployment, in one
    ``estimate_methods`` call, so their rows report one per-trial time, and
    aggregate per value and estimator. Returns the rows and, for each row
    with failures, an entry ``"<axis value> <estimator> <Error>=<count> ..."``.
    """
    pose, trials = config.true_pose, config.trials
    bounds = []
    for _, dep, t_eff, _, _ in group:
        e = int(np.frexp(dep.sigma.max())[1])  # the bound is linear in sigma: 2**-e keeps F in range
        unit = Deployment(anchors=dep.anchors, tags=dep.tags, sigma=np.ldexp(dep.sigma, -e), dh=dep.dh)
        try:
            bounds.append(math.ldexp(constrained_crlb(fisher_info(unit, t_eff, pose), pose).sqrt_trace, e))
        except (EstimationError, OverflowError):  # no bound at this pose (a tag on an anchor) or no float bound
            bounds.append(float("nan"))
    moments = (group[0][k] if len(group) == 1 else np.concatenate([setup[k] for setup in group]) for k in (3, 4))
    results = estimate_methods(group[0][1], *moments, config.estimators)
    # Squared errors of every method and trial in one pass, NaN where a trial failed; each row sums those of
    # its successful trials. |R(theta) - R(theta_true)|_F^2 = 2 ((cos diff)^2 + (sin diff)^2)
    theta = np.array([results[method][0].theta for method in config.estimators])
    d_cos, d_sin = np.cos(theta) - np.cos(pose.theta), np.sin(theta) - np.sin(pose.theta)
    rot_sq = 2.0 * (d_cos * d_cos + d_sin * d_sin)
    trans_sq = np.sum((np.array([results[method][0].t for method in config.estimators]) - pose.t) ** 2, axis=2)
    rows, failures = [], []
    for j, ((i, *_), bound) in enumerate(zip(group, bounds)):
        value, part = config.axis_values[i], slice(j * trials, (j + 1) * trials)
        for m, method in enumerate(config.estimators):
            status = results[method][0].status[part]
            ok = status == 0
            count = int(ok.sum())
            if count:
                rot = float(np.sqrt(np.sum(rot_sq[m, part][ok]) / count))
                trans = float(np.sqrt(np.sum(trans_sq[m, part][ok]) / count))
                combined = float(np.hypot(rot, trans))
                mean_time = results[method][1] / (len(group) * trials)
            else:
                rot = trans = combined = mean_time = float("nan")
            if kinds := failure_tally(status):
                failures.append(f"{value!r} {method.value} {kinds}")
            rows.append(McRow(value, method.value, rot, trans, combined, bound, mean_time, trials - count, trials))
    return rows, failures


def run_sweep(config: McConfig) -> McResult:
    """Synthesize, estimate, and aggregate over every axis value.

    Refuses unobservable deployments before running any trial. Per-trial
    estimator failures are recorded, excluded from the RMSE, and reported in
    the ``failures`` column and, by error class, in the
    ``failures_by_error`` metadata: one entry per row with failures, in row
    order, or ``none``.
    """
    check_observability(config.deployment)
    indices = range(len(config.axis_values))
    rows, failures = [], []
    for group in [indices] if config.axis is SweepAxis.REPEAT_T else [[i] for i in indices]:  # one deployment each
        group_rows, group_failures = _run_axes(config, [(i, *_axis_setup(config, i)) for i in group])
        rows.extend(group_rows)
        failures.extend(group_failures)
    meta = (
        ("axis", config.axis.value),
        ("trials", str(config.trials)),
        ("seed", str(config.seed)),
        ("combined_rmse", "sqrt(rotation_rmse^2 + translation_rmse^2), comparable to sqrt_crlb"),
        ("failures_by_error", "; ".join(failures) or "none"),
    )
    return McResult(tuple(rows), meta)


def write_csv(result: McResult, stream, include_timing: bool = True) -> None:
    """Write rows as RFC-4180 CSV (header, CRLF, '.' decimal, UTF-8).

    The columns are ``McRow``'s fields in order; floats are written with
    ``repr``. With ``include_timing`` off the nondeterministic wall-time
    column is left empty so that equal seeds produce byte-identical files.
    """
    writer = csv.writer(stream)
    writer.writerow(McRow._fields)
    for row in result.rows:
        cells = list(row)
        if not include_timing:
            cells[McRow._fields.index("mean_time_s")] = ""
        writer.writerow([repr(cell) if isinstance(cell, float) else cell for cell in cells])
