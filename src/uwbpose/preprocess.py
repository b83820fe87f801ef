"""Real-measurement pipeline: outlier rejection, calibration, batching.

Raw range logs carry (timestamp, anchor id, tag id, range) records at a
nominal frequency. The pipeline rejects spikes with a causal sliding-window
rule, fits a linear distance-dependent bias against ground truth, and
finally aligns the de-biased streams into one (epochs, tags, anchors) range
array ready for the stacked estimators.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field
from itertools import chain, compress

import numpy as np

from .core import Deployment, read_only
from .errors import (
    EstimationError, InsufficientDataError, SchemaError, finite_number, integer_at_least, read_json, require_keys,
    schema_errors, unique_keys,
)

# Additive term of the rejection rule, a generic UWB error bound in meters.
REJECTION_BOUND_M = 0.1


def flag_stream(values: np.ndarray, window: int, slack: float) -> np.ndarray:
    """Causal spike flags for one measurement stream.

    Sample ``t`` is flagged when it exceeds the minimum of the previous
    ``window`` raw samples by more than ``slack``. The first ``window``
    samples are never flagged. The minimum is exact, from doubling spans.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    flags = np.zeros(n, dtype=bool)
    if n <= window:
        return flags
    low, span = values, 1  # low[i] = min(values[i : i + span])
    while 2 * span <= window:
        low = np.minimum(low[:-span], low[span:])
        span *= 2
    prev_min = np.minimum(low[: n - window], low[window - span : n - span])
    flags[window:] = values[window:] > prev_min + slack
    return flags


@dataclass(frozen=True)
class RangeLog:
    """Flat record arrays of raw ranging data plus the nominal frequency.

    The per-record ids ``anchor`` and ``tag`` (str, or Latin-1 byte arrays
    as ``from_csv`` reads them) are not stored: ``stream_keys`` lists the
    (anchor, tag) streams by first appearance, and record i's ids are
    ``stream_keys[stream_id[i]]``. Unequal column lengths, non-finite values,
    negative ranges and timestamps that decrease within a stream raise
    SchemaError; a ``frequency`` that is no finite number above 0 raises
    ValueError. ``dropped_negative`` counts records rejected at ingestion.
    """

    t: np.ndarray
    anchor: InitVar[Sequence[str] | np.ndarray]
    tag: InitVar[Sequence[str] | np.ndarray]
    range_m: np.ndarray
    frequency: float
    dropped_negative: int = 0
    stream_keys: tuple[tuple[str, str], ...] = field(init=False, repr=False, compare=False)
    stream_id: np.ndarray = field(init=False, repr=False, compare=False)
    _stream_records: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self, anchor, tag):
        t, r = read_only(self.t, float), read_only(self.range_m, float)
        n = len(t)
        if not (n == len(anchor) == len(tag) == len(r)):
            raise SchemaError("log columns must have equal length")
        if not (finite_number(self.frequency) and self.frequency > 0):
            raise ValueError(f"frequency must be a finite number above 0, got {self.frequency!r}")
        if not np.all(np.isfinite(t)):
            raise SchemaError("timestamps must be finite")
        _check_ranges(r)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "range_m", r)

        # Sort keys that tell streams apart: the nonzero 8-byte words of byte
        # ids, or else the index of each record's first (anchor, tag) record.
        # A stable sort groups each stream in record order; the streams are
        # then numbered by their first record.
        if byte_ids := all(getattr(ids, "dtype", np.dtype(object)).kind == "S" for ids in (anchor, tag)):
            padded = (np.ascontiguousarray(ids, f"S{-(-ids.itemsize // 8) * 8}")[:, None] for ids in (anchor, tag))
            keys = [word for ids in padded for word in ids.view(np.uint64).T if word.any()] or [np.zeros(n, np.intp)]
        else:
            anchor, tag, firsts = tuple(anchor), tuple(tag), {}
            keys = [np.fromiter(map(firsts.setdefault, zip(anchor, tag), range(n)), np.intp, n)]
        order = read_only(np.lexsort(keys))  # and so are its views, the stream records
        bounds = np.flatnonzero(np.any([np.diff(key[order]) != 0 for key in keys], axis=0)) + 1
        records = sorted(np.split(order, bounds), key=lambda indices: indices[0]) if n else []
        pairs = [(anchor[indices[0]], tag[indices[0]]) for indices in records]
        stream_keys = tuple((a.decode("latin-1"), g.decode("latin-1")) for a, g in pairs) if byte_ids else tuple(pairs)
        grouped = np.repeat(np.arange(len(records)), [len(indices) for indices in records])
        order = np.concatenate(records) if records else order
        stream_id = np.empty(n, dtype=np.intp)
        stream_id[order] = grouped
        object.__setattr__(self, "stream_keys", stream_keys)
        object.__setattr__(self, "stream_id", read_only(stream_id))
        object.__setattr__(self, "_stream_records", tuple(records))

        decreasing = (np.diff(t[order]) < 0) & (np.diff(grouped) == 0)
        if decreasing.any():
            key = stream_keys[grouped[int(np.argmax(decreasing))]]
            raise SchemaError(f"timestamps decrease within stream {key}")

    def __len__(self) -> int:
        return len(self.t)

    def streams(self) -> dict[tuple[str, str], np.ndarray]:
        """Indices of each (anchor, tag) stream, in record order."""
        return dict(zip(self.stream_keys, self._stream_records))

    @classmethod
    def from_csv(cls, path, frequency: float) -> "RangeLog":
        """Load ``t,anchor,tag,range`` CSV with ``_read_table``; negative ranges
        are dropped, and SchemaError names ``path``."""
        columns = [("t", float), ("anchor", "S32"), ("tag", "S32"), ("range", float)]
        t, anchor, tag, r = _read_table(path, columns)
        keep = r >= 0
        if not keep.all():
            anchor, tag = anchor[keep], tag[keep]
        with schema_errors(str(path), (SchemaError,)):
            return cls(
                t=t[keep], anchor=anchor, tag=tag, range_m=r[keep],
                frequency=frequency, dropped_negative=len(keep) - int(keep.sum()),
            )


def _check_ranges(r: np.ndarray) -> None:
    if len(r) and (not np.all(np.isfinite(r)) or np.any(r < 0)):
        raise SchemaError("ranges must be finite and nonnegative")


@dataclass(frozen=True)
class GroundTruthLog:
    """Timestamped reference poses; yaw stored in radians.

    Raises SchemaError unless there is at least one pose, every value is
    finite and the timestamps strictly increase.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    yaw: np.ndarray

    def __post_init__(self):
        for name in ("t", "x", "y", "yaw"):
            arr = read_only(getattr(self, name), float)
            if not np.all(np.isfinite(arr)):
                raise SchemaError(f"ground-truth {name} values must be finite")
            object.__setattr__(self, name, arr)
        if len(self.t) == 0:
            raise SchemaError("ground-truth log has no data rows")
        if np.any(np.diff(self.t) <= 0):
            raise SchemaError("ground-truth timestamps must be strictly increasing")

    @classmethod
    def from_csv(cls, path) -> "GroundTruthLog":
        """Load ``t,x,y,yaw_deg`` CSV."""
        t, x, y, yaw_deg = _read_table(path, [(name, float) for name in ("t", "x", "y", "yaw_deg")])
        with schema_errors(str(path), (SchemaError,)):
            return cls(t=t, x=x, y=y, yaw=np.deg2rad(yaw_deg))

    def interpolate(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions (K, 2) and yaws (K,) at the requested times.

        Yaw is unwrapped before interpolation so crossings of the angle cut
        do not corrupt intermediate values. Times outside the logged span
        are the caller's responsibility to mask.
        """
        xs = np.interp(times, self.t, self.x)
        ys = np.interp(times, self.t, self.y)
        yaw = np.interp(times, self.t, np.unwrap(self.yaw))
        return np.column_stack([xs, ys]), yaw


def _read_table(path, columns: list) -> list:
    """The (name, float or bytes dtype) ``columns`` of a UTF-8 CSV file, any leading BOM
    ignored, with that header, as float arrays and Latin-1 byte or str arrays. One ``np.loadtxt``
    call parses text with a data row and no ``"``, ``\\r``, \\x00 (which byte
    arrays drop) or \\x1c-\\x1f (which ``loadtxt`` strips around numbers and
    ``float()`` does not). Text it refuses, with a non-finite number, or
    with a text field that fills its width goes to ``_read_columns`` and
    ``_floats``, which accept the finite numbers ``float()`` reads or raise
    SchemaError at the line."""
    with schema_errors(f"cannot open {path}", (OSError,)), open(path, encoding="utf-8-sig", newline="") as handle:
        with schema_errors(f"{path}: not UTF-8 text", (UnicodeDecodeError,)):
            text = handle.read()
    header, numeric = [name for name, _ in columns], [kind is float for _, kind in columns]
    head, _, body = text.partition("\n")
    plain = not any(c in text for c in '\x00"\r\x1c\x1d\x1e\x1f') and body.lstrip()
    if plain and [h.strip() for h in head.split(",")] == header:
        try:
            table = np.loadtxt(io.StringIO(body), columns, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            pass
        else:
            out = [table[name] if num else np.ascontiguousarray(table[name]) for name, num in zip(header, numeric)]
            full = any(c.view(np.uint8)[c.itemsize - 1::c.itemsize].any() for c in out if c.dtype.kind == "S")  # cut?
            if not full and np.isfinite(list(compress(out, numeric))).all():
                return out
    fields, lines = _read_columns(path, text, header)
    floats = iter(_floats(path, lines, *compress(fields, numeric)))
    return [next(floats) if num else np.array(column, dtype=object) for column, num in zip(fields, numeric)]


def _read_columns(path, text: str, header: list[str]) -> tuple[list[list[str]], np.ndarray]:
    """The ``header`` columns of CSV ``text`` (from ``path``) as lists of strings, and the
    line of each row, its ``csv.reader`` record number: blank lines count but are skipped."""
    with schema_errors(str(path), (csv.Error,)):  # e.g. a field over csv.field_size_limit()
        records = list(csv.reader(io.StringIO(text, newline="")))
    if not records:
        raise SchemaError(f"{path}: empty file, header required")
    if [h.strip() for h in records.pop(0)] != header:
        raise SchemaError(f"{path}: header must be {','.join(header)}")
    k, widths = len(header), np.fromiter(map(len, records), np.intp, len(records))
    if (bad := np.flatnonzero((widths != k) & (widths != 0))).size:
        raise SchemaError(f"{path}:{bad[0] + 2}: expected {k} fields")
    fields = list(chain.from_iterable(records))  # a blank line is an empty record
    return [fields[j::k] for j in range(k)], np.flatnonzero(widths) + 2


def _floats(path, lines: np.ndarray, *columns) -> list[np.ndarray]:
    """The string ``columns`` as float arrays; SchemaError names the first
    line with a non-numeric or non-finite field."""
    try:
        arrays = [np.fromiter(map(float, col), float, len(lines)) for col in columns]
    except ValueError:
        arrays = None
    if arrays is None or not np.isfinite(arrays).all():
        for line, row in zip(lines.tolist(), zip(*columns)):
            try:
                values = list(map(float, row))
            except ValueError:
                raise SchemaError(f"{path}:{line}: non-numeric field") from None
            if not all(map(math.isfinite, values)):
                raise SchemaError(f"{path}:{line}: non-finite field")
    return arrays


@dataclass(frozen=True)
class NamedDeployment:
    """Deployment whose anchors and tags carry the string ids used in logs:
    one distinct id per anchor and per tag, or ValueError."""

    deployment: Deployment
    anchor_ids: tuple[str, ...]
    tag_ids: tuple[str, ...]

    def __post_init__(self):
        for kind, count in (("anchor", self.deployment.num_anchors), ("tag", self.deployment.num_tags)):
            ids = tuple(getattr(self, f"{kind}_ids"))
            if len(ids) != count or len(set(ids)) != count:
                raise ValueError(f"one distinct id per {kind} required, got {ids!r}")
            object.__setattr__(self, f"{kind}_ids", ids)

    def slots(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Tag and anchor indices of each (anchor id, tag id) stream key, in
        order; SchemaError names the first unknown id, its anchor first."""
        anchors = {anchor_id: j for j, anchor_id in enumerate(self.anchor_ids)}
        tags = {tag_id: i for i, tag_id in enumerate(self.tag_ids)}
        slots = []
        for anchor_id, tag_id in keys:
            if anchor_id not in anchors:
                raise SchemaError(f"unknown anchor id {anchor_id!r}")
            if tag_id not in tags:
                raise SchemaError(f"unknown tag id {tag_id!r}")
            slots.append((tags[tag_id], anchors[anchor_id]))
        return tuple(np.array(slots, dtype=np.intp).reshape(-1, 2).T)

    @classmethod
    def from_json(cls, path) -> "NamedDeployment":
        """Load ``{"anchors": {id: [x, y]}, "tags": {...}, "sigma": ..., "dh": ...}``."""
        raw = read_json(path, "deployment")
        require_keys(raw, {"anchors", "tags", "sigma", "dh"}, {"anchors", "tags"}, str(path))
        for key in ("anchors", "tags"):
            if not isinstance(raw[key], dict) or not raw[key]:
                raise SchemaError(f"{path}: {key!r} must be a non-empty object")
        anchors, tags = raw["anchors"], raw["tags"]
        with schema_errors(str(path)):
            deployment = Deployment([*anchors.values()], [*tags.values()], raw.get("sigma", 1.0), raw.get("dh", 0.0))
        return cls(deployment=deployment, anchor_ids=tuple(anchors), tag_ids=tuple(tags))


@dataclass(frozen=True)
class BiasModel:
    """Linear range-bias model ``measured = true * (1 + alpha) + beta + noise``.

    ``sigma`` is the estimated noise standard deviation. ``per_pair``, given
    as a mapping or as pairs, holds ((anchor id, tag id), (alpha, beta))
    pairs, one per key, sorted by key: ``remove`` uses that alpha and beta
    for that key in place of the pooled pair. Every id must be a string,
    every coefficient finite and every alpha above -1, so that ``remove`` is
    defined; ValueError otherwise.
    """

    alpha: float
    beta: float
    sigma: float
    residual_rms: float = 0.0
    per_pair: tuple[tuple[tuple[str, str], tuple[float, float]], ...] = ()

    def __post_init__(self):
        per_pair = dict(self.per_pair)
        for key in per_pair:
            if not (isinstance(key, tuple) and len(key) == 2 and all(isinstance(i, str) for i in key)):
                raise ValueError(f"per_pair keys must be (anchor id, tag id) pairs of strings, got {key!r}")
        object.__setattr__(self, "per_pair", tuple(sorted((key, (a, b)) for key, (a, b) in per_pair.items())))
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        for alpha, beta in [(self.alpha, self.beta), *per_pair.values()]:
            if not (math.isfinite(alpha) and math.isfinite(beta) and alpha > -1.0):
                raise ValueError(f"bias coefficients must be finite with alpha > -1, got {alpha}, {beta}")

    @classmethod
    def identity(cls) -> "BiasModel":
        """No-op model: de-biasing returns ranges unchanged."""
        return cls(alpha=0.0, beta=0.0, sigma=1.0)

    def remove(self, measured, key=None):
        """Invert the linear model: subtract ``alpha*d/(1+alpha) + beta/(1+alpha)``."""
        alpha, beta = dict(self.per_pair).get(key, (self.alpha, self.beta))
        return (np.asarray(measured, dtype=float) - beta) / (1.0 + alpha)

    def to_json(self) -> str:
        payload = {
            "alpha": self.alpha,
            "beta": self.beta,
            "sigma": self.sigma,
            "residual_rms": self.residual_rms,
            "per_pair": [
                {"anchor": a, "tag": t, "alpha": alpha, "beta": beta} for (a, t), (alpha, beta) in self.per_pair
            ],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json_file(cls, path) -> "BiasModel":
        """The ``to_json`` form; SchemaError on an unknown key, a coefficient
        that is no finite JSON number or a repeated (anchor, tag) pair."""
        raw, where = read_json(path, "bias model"), f"cannot read bias model {path}"
        require_keys(raw, {"alpha", "beta", "sigma", "residual_rms", "per_pair"}, {"alpha", "beta", "sigma"}, where)
        entries = raw.get("per_pair", [])
        if not isinstance(entries, list):
            raise SchemaError(f"{where}: per_pair must be a list")
        pair_keys = {"anchor", "tag", "alpha", "beta"}
        for entry in entries:
            require_keys(entry, pair_keys, pair_keys, f"{where}: per_pair")
        coefficients = [raw[key] for key in ("alpha", "beta", "sigma", "residual_rms") if key in raw]
        pairs = [(entry["alpha"], entry["beta"]) for entry in entries]
        if not all(map(finite_number, chain(coefficients, *pairs))):
            raise SchemaError(f"{where}: coefficients must be finite numbers")
        with schema_errors(where):
            items = [((entry["anchor"], entry["tag"]), tuple(map(float, pair))) for entry, pair in zip(entries, pairs)]
            return cls(*map(float, coefficients), per_pair=unique_keys(items))


def reject_outliers(log: RangeLog, window: int, v_max: float) -> tuple[RangeLog, np.ndarray]:
    """Sliding-window spike rejection over every (anchor, tag) stream.

    A sample is flagged when it exceeds the minimum of the previous
    ``window`` samples by more than ``window * v_max / frequency`` plus a
    fixed 0.1 m bound. Flagged samples are replaced by ``np.interp`` in time
    between their nearest unflagged neighbors, and a flagged tail by the last
    unflagged sample; the first ``window`` samples are never flagged, so there
    is one. The rule is causal: flags at a timestamp depend only on earlier samples.
    ``window`` must be an integer at least 1 and ``v_max`` a finite number above 0,
    as the CLI's flags; ValueError names either otherwise.
    """
    window = integer_at_least(window, "window", 1)
    if not (finite_number(v_max) and v_max > 0):
        raise ValueError(f"v_max must be a finite number above 0, got {v_max!r}")
    slack = window * v_max / log.frequency + REJECTION_BOUND_M
    mask = np.zeros(len(log), dtype=bool)
    values = np.array(log.range_m)
    for indices in log.streams().values():
        stream = log.range_m[indices]
        flags = flag_stream(stream, window, slack)
        mask[indices] = flags
        if flags.any():
            times = log.t[indices]
            values[indices[flags]] = np.interp(times[flags], times[~flags], stream[~flags])
    _check_ranges(values)
    cleaned = copy.copy(log)  # the same records and stream index
    object.__setattr__(cleaned, "range_m", read_only(values))
    return cleaned, mask


def calibrate_bias(log: RangeLog, truth: GroundTruthLog, named: NamedDeployment) -> BiasModel:
    """Fit the linear bias of measured versus true range by ordinary LS.

    True ranges come from ground-truth poses interpolated at the log
    timestamps; records outside the ground-truth time span are ignored, and
    so are the ids of streams with none inside (``NamedDeployment.slots``).
    Run outlier rejection first. Raises EstimationError when fewer than 10
    usable samples overlap, when a true range overflows a float, or when the
    fit is no valid model (``BiasModel``).
    """
    if len(log) == 0:
        raise InsufficientDataError("empty range log")
    inside = (log.t >= truth.t[0]) & (log.t <= truth.t[-1])
    if inside.sum() < 10:
        raise InsufficientDataError(
            f"only {int(inside.sum())} samples overlap the ground-truth span, need 10"
        )
    positions, yaws = truth.interpolate(log.t[inside])
    dep = named.deployment
    stream_id = log.stream_id[inside]
    used = np.flatnonzero(np.bincount(stream_id, minlength=len(log.stream_keys)))
    stream_tag, stream_anchor = np.zeros((2, len(log.stream_keys)), dtype=np.intp)
    stream_tag[used], stream_anchor[used] = named.slots([log.stream_keys[k] for k in used])
    a_idx, t_idx = stream_anchor[stream_id], stream_tag[stream_id]
    measured = log.range_m[inside]

    cos_y, sin_y = np.cos(yaws), np.sin(yaws)
    tags = dep.tags[t_idx]
    tag_global_x = cos_y * tags[:, 0] - sin_y * tags[:, 1] + positions[:, 0]
    tag_global_y = sin_y * tags[:, 0] + cos_y * tags[:, 1] + positions[:, 1]
    anchors = dep.anchors[a_idx]
    dh = dep.dh[t_idx, a_idx]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        true_range = np.sqrt((anchors[:, 0] - tag_global_x) ** 2 + (anchors[:, 1] - tag_global_y) ** 2 + dh**2)
    if not np.all(np.isfinite(true_range)):
        raise EstimationError("true ranges overflow; check the deployment and ground-truth coordinates")

    design = np.column_stack([true_range, np.ones_like(true_range)])
    with np.errstate(over="ignore", invalid="ignore"):  # BiasModel checks the fit
        coeffs, _, _, _ = np.linalg.lstsq(design, measured - true_range, rcond=None)
        residual = measured - true_range - design @ coeffs
        rms = float(np.sqrt(np.mean(residual**2)))
    try:
        return BiasModel(float(coeffs[0]), float(coeffs[1]), rms if rms > 0 else np.finfo(float).tiny, rms)
    except ValueError as exc:  # e.g. alpha <= -1 from ranges that do not grow with the true ones
        raise EstimationError(f"calibration gives no valid bias model: {exc}") from None


@dataclass(frozen=True)
class Epochs:
    """Epochs aligned from a range log: ``times`` (K,) and the de-biased
    ranges (K, N, M), one repetition per (tag, anchor) pair and epoch, both read-only."""

    times: np.ndarray
    ranges: np.ndarray

    def __post_init__(self):
        for name in ("times", "ranges"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

    def __len__(self) -> int:
        return len(self.times)


def align_and_batch(
    log: RangeLog,
    bias: BiasModel,
    named: NamedDeployment,
    *,
    rate_hz: float | None = None,
    max_gap_periods: float = 3.0,
) -> Epochs:
    """De-bias and align the log onto a grid of epochs at ``rate_hz``, by
    default the log frequency.

    Every stream id must name an anchor or tag of ``named``, or SchemaError
    names the first unknown one in stream order (``NamedDeployment.slots``);
    so must every per-pair key of ``bias``, or SchemaError names the key.
    Every (anchor, tag) pair of the deployment must appear in the log, or no
    epoch is emitted. Stream values are linearly interpolated at each epoch
    time; an epoch is dropped when any stream does not span the epoch time
    or has nearest samples more than ``max_gap_periods`` log periods apart,
    rather than emitted as a partial batch. Every emitted epoch holds the
    full N x M measurement grid. A grid of more epochs than the log has
    records is a SchemaError. As with the CLI's flags, ``rate_hz`` must be a
    finite number above 0 and ``max_gap_periods`` one at least 0, or
    ValueError names it.
    """
    if rate_hz is not None and not (finite_number(rate_hz) and rate_hz > 0):
        raise ValueError(f"rate_hz must be a finite number above 0, got {rate_hz!r}")
    if not (finite_number(max_gap_periods) and max_gap_periods >= 0):
        raise ValueError(f"max_gap_periods must be a finite number at least 0, got {max_gap_periods!r}")
    tag_slot, anchor_slot = named.slots(log.stream_keys)
    for (anchor_id, tag_id), _ in bias.per_pair:
        if anchor_id not in named.anchor_ids or tag_id not in named.tag_ids:
            raise SchemaError(f"bias model per_pair {(anchor_id, tag_id)!r} is no (anchor id, tag id) of the deployment")
    dep = named.deployment
    n, m = dep.num_tags, dep.num_anchors
    none = Epochs(times=np.zeros(0), ranges=np.zeros((0, n, m)))
    # Distinct streams of known, distinct ids fill all N x M slots iff there are N * M.
    if len(log.stream_keys) < n * m:
        return none
    streams = log.streams()

    rate = rate_hz if rate_hz is not None else log.frequency
    horizon = max_gap_periods / log.frequency
    start = max(log.t[idx][0] for idx in streams.values())
    end = min(log.t[idx][-1] for idx in streams.values())
    if end < start:
        return none
    span = float(end - start) * rate  # a Python float: inf, not an int overflow, when too large
    if span >= len(log):
        raise SchemaError(
            f"rate {rate:g} Hz needs {np.floor(span) + 1:.6g} epochs, more than the {len(log)} log records"
        )
    count = int(span) + 1
    epochs = start + np.arange(count) / rate

    grid = np.empty((count, n, m))
    ok = np.ones(count, dtype=bool)
    for (key, indices), i, j in zip(streams.items(), tag_slot, anchor_slot):
        ts = log.t[indices]
        with np.errstate(over="ignore"):  # an epoch whose ranges overflow gets Status.OVERFLOW
            vals = bias.remove(log.range_m[indices], key=key)
        grid[:, i, j] = np.interp(epochs, ts, vals)
        position = np.searchsorted(ts, epochs)
        left = np.clip(position - 1, 0, len(ts) - 1)
        right = np.clip(position, 0, len(ts) - 1)
        exact = ts[right] == epochs
        gap = ts[right] - ts[left]
        ok &= exact | ((position > 0) & (position < len(ts)) & (gap <= horizon))

    return Epochs(times=epochs[ok], ranges=grid[ok])
