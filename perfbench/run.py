#!/usr/bin/env python3
"""uwbpose benchmark: two Monte-Carlo sweeps and a log replay.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-smallT --seed 1 --seconds 30 --trace 0

The run generates its inputs from ``--seed`` into a scratch directory inside
the checkout, then starts fresh interpreters (``worker.py``) that import
``uwbpose.cli`` from ``src/`` and call ``main`` in-process, one workload
repetition each, until ``--seconds`` have passed. It checks every output,
prints a provenance line and one line per metric, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads, so that the sweep's
# own thread pool is the only parallelism.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
from worker import LAYERS, MEASURED_LAYERS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
NPROC = len(os.sched_getaffinity(0))
# Workers may cache bytecode next to the sources, as an installed package
# has it; only the first repetition in a fresh checkout compiles.
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

METHODS = ("uls", "gn-uls", "dac", "gn-dac")
ERROR_TYPES = (
    "UnderdeterminedDeploymentError",
    "SingularSystemError",
    "DegenerateProjectionError",
    "DegenerateGeometryError",
    "NearSingularityError",
    "UnobservableDeploymentError",
    "UnobservableAtPoseError",
    "InsufficientDataError",
    "other",
)
SWEEPS = {
    "sweep-smallT": {"axis": (1, 10), "estimators": METHODS, "trials": 600, "threads": 1},
    "sweep-bigT": {"axis": (1000, 10000), "estimators": ("uls", "gn-uls", "dac"), "trials": 50, "threads": NPROC},
}
WORKLOADS = (*SWEEPS, "log-replay")
MIN_REPS = 4
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "estimates_per_s": "1/s",
    "peak_rss_mb": "MB",
    "crlb_ratio": "ratio",
    "pos_rmse_cm": "cm",
    "rot_rmse_deg": "deg",
}


def _per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    for layer in MEASURED_LAYERS:
        units[f"{layer}.ns_per_meas"] = "ns"
    for name in ("mc.synthesize_ranges", "preprocess.from_csv", "preprocess.reject_outliers",
                 "preprocess.calibrate_bias", "preprocess.align_and_batch"):
        units[f"{name}.self_s"] = "s"
    units["preprocess.streams.calls"] = "count"
    units["crlb.fisher_info.calls"] = "count"
    for method in METHODS:
        units[f"estimate.{method}.p50_us"] = "us"
        units[f"estimate.{method}.p99_us"] = "us"
    for kind in ERROR_TYPES:
        units[f"estimators.failed.{kind}"] = "count"
    units.update({
        "failed_frac": "ratio",
        "preprocess.records": "count",
        "preprocess.outlier_frac": "ratio",
        "preprocess.grid_epochs": "count",
        "preprocess.epoch_yield": "ratio",
        "preprocess.alpha_offset_se": "se",
        "preprocess.beta_offset_se": "se",
        "cli.bytes_written": "bytes",
        "trace.overhead_frac": "ratio",
        "trace.untraced_s": "s",
        "trace.root_s": "s",
        "trace.spans": "count",
    })
    return units


PER_LAYER = _per_layer_units()


# -- running repetitions ---------------------------------------------------


def run_worker(workdir: str, rep: int, spec: dict, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    spec_path = os.path.join(workdir, f"spec-{rep}.json")
    result_path = os.path.join(workdir, f"result-{rep}.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    with open(os.path.join(workdir, f"out-{rep}.txt"), "w") as out, open(os.path.join(workdir, f"err-{rep}.txt"), "w+") as err:
        spawn_t = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, WORKER, spec_path, result_path, repr(spawn_t)],
            stdout=out, stderr=err, cwd=workdir, env=WORKER_ENV,
        )
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"repetition {rep} exceeded the run's time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or not os.path.exists(result_path):
            err.seek(0)
            raise RuntimeError(f"repetition {rep} exited with {code}:\n{err.read()[-2000:]}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


class Workload:
    """Inputs, per-repetition commands and output checks of one workload."""

    figures: dict = {}  # log-replay accuracy and calibration figures
    grid_epochs = 0  # epochs on the log's estimation grid

    def __init__(self, name: str, seed: int, workdir: str):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.checks = checks.Checks()
        self.estimates = self.failed = 0

    def spec(self, rep: int, traced: bool) -> dict:
        raise NotImplementedError

    def record(self, rep: int, result: dict) -> int:
        """Check one repetition's outputs; return its estimator call count."""
        raise NotImplementedError

    def accuracy(self) -> dict:
        raise NotImplementedError

    def _base_spec(self, rep, traced, probe, commands, outputs):
        return {
            "src": SRC,
            "probe": probe,
            "commands": commands,
            "outputs": outputs,
            "trace": traced,
            "spans": os.path.join(self.workdir, f"spans-{rep}.npz"),
        }


class Sweep(Workload):
    """``simulate`` on the reference geometry. Repetitions 0 and 1 share a
    Monte-Carlo seed, so their CSVs must be byte-identical; later ones draw
    fresh seeds and pool into the accuracy figures."""

    def __init__(self, name, seed, workdir):
        super().__init__(name, seed, workdir)
        self.cfg = SWEEPS[name]
        self.inputs = gen.write_sweep(workdir, seed, self.cfg["axis"], self.cfg["estimators"], self.cfg["trials"])
        bounds = checks.constrained_bound(
            gen.REF_ANCHORS, gen.REF_TAGS, gen.REF_SIGMA, math.radians(gen.REF_THETA_DEG), gen.REF_T, 1
        )[0]
        self.bounds = {float(v): bounds / v for v in self.cfg["axis"]}
        self.sqrt_bounds = {v: math.sqrt(float(np.trace(b))) for v, b in self.bounds.items()}
        self.tables: dict[int, dict] = {}
        self.digests: dict[int, str] = {}
        self.sha256 = self.inputs.sha256

    @staticmethod
    def subseed(rep: int) -> int:
        return max(rep - 1, 0)

    def spec(self, rep, traced):
        out = os.path.join(self.workdir, f"sweep-{rep}.csv")
        seed = gen.derived_seed(self.seed, 2, self.subseed(rep))
        argv = ["simulate", "--scenario", self.inputs.scenario, "--out", out,
                "--threads", str(self.cfg["threads"]), "--seed", str(seed)]
        return self._base_spec(rep, traced, ["scenario", self.inputs.scenario], [argv], [out])

    def record(self, rep, result):
        with open(os.path.join(self.workdir, f"sweep-{rep}.csv"), encoding="utf-8", newline="") as handle:
            text = handle.read()
        sub = self.subseed(rep)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if sub in self.digests:
            self.checks.require(digest == self.digests[sub], f"sweep CSV differs between repetitions of seed {sub}")
            return self._count(self.tables[sub])
        rows = checks.parse_sweep_csv(
            text, self.cfg["axis"], self.cfg["estimators"], self.cfg["trials"], self.sqrt_bounds, self.checks
        )
        self.digests[sub] = digest
        self.tables[sub] = rows
        return self._count(rows)

    def _count(self, rows) -> int:
        self.failed += sum(row["failures"] for row in rows.values())
        return len(rows) * self.cfg["trials"]

    def accuracy(self):
        top = float(self.cfg["axis"][-1])
        tables = [t for t in self.tables.values() if t]
        if not tables:
            return {}
        pooled = checks.pooled_accuracy(tables, (top, "gn-uls"), self.cfg["trials"])
        bound = self.bounds[top]
        ratio = pooled["combined_rmse"] / self.sqrt_bounds[top]
        if self.name == "sweep-bigT":
            se = ratio * checks.ratio_standard_error(bound, pooled["count"])
            low, high = checks.BAND[0] - checks.BAND_SE * se, checks.BAND[1] + checks.BAND_SE * se
            self.checks.require(
                low <= ratio <= high,
                f"gn-uls crlb_ratio {ratio:.4f} over {pooled['count']} trials is outside [{low:.4f}, {high:.4f}]",
            )
        return {
            "crlb_ratio": ratio,
            "pos_rmse_cm": 100.0 * pooled["translation_rmse"],
            # Chordal rotation RMSE to an angle: |R(a) - R(b)|_F = sqrt(2) |a - b| to first order.
            "rot_rmse_deg": math.degrees(pooled["rotation_rmse"] / math.sqrt(2.0)),
            "pooled_trials": pooled["count"],
        }


class LogReplay(Workload):
    """``calibrate`` then ``estimate --method gn-uls --bias --truth`` on a
    synthetic 100 Hz log. Every repetition replays the same files, so every
    ``poses.csv`` must be byte-identical."""

    def __init__(self, name, seed, workdir):
        super().__init__(name, seed, workdir)
        self.inputs = gen.write_log(workdir, seed)
        self.sha256 = self.inputs.sha256
        self.grid_epochs = self.inputs.times.size
        self.digest = None

    def spec(self, rep, traced):
        g = self.inputs
        bias = os.path.join(self.workdir, f"bias-{rep}.json")
        poses = os.path.join(self.workdir, f"poses-{rep}.csv")
        rejection = ["--window", str(gen.LOG_WINDOW), "--vmax", repr(gen.LOG_VMAX)]
        commands = [
            ["calibrate", "--ranges", g.ranges, "--truth", g.truth, "--deployment", g.deployment, "--out", bias, *rejection],
            ["estimate", "--ranges", g.ranges, "--deployment", g.deployment, "--out", poses,
             "--method", "gn-uls", "--bias", bias, "--truth", g.truth, *rejection],
        ]
        return self._base_spec(rep, traced, ["deployment", g.deployment], commands, [bias, poses, poses + ".summary.csv"])

    def _read(self, name: str) -> str:
        with open(os.path.join(self.workdir, name), encoding="utf-8", newline="") as handle:
            return handle.read()

    def record(self, rep, result):
        read = self._read
        poses = read(f"poses-{rep}.csv")
        digest = hashlib.sha256(poses.encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
            self.figures = checks.check_log_replay(
                self.inputs, poses, read(f"poses-{rep}.csv.summary.csv"), read(f"bias-{rep}.json"), self.checks
            )
        else:
            self.checks.require(digest == self.digest, f"poses.csv of repetition {rep} differs from repetition 0")
        self.failed += self.figures.get("failed", 0)
        return self.figures.get("epochs", 0)

    def accuracy(self):
        return {k: self.figures[k] for k in ("crlb_ratio", "pos_rmse_cm", "rot_rmse_deg") if k in self.figures}


# -- metrics ---------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: dict, result: dict, workload: Workload) -> dict:
    """Per-layer metrics of one traced repetition."""
    agg = tracer.aggregate(spans)
    by_layer, by_function = {}, {}
    for name, row in agg.items():
        for key, table in ((tracer.layer_of(name), by_layer), (tracer.function_of(name), by_function)):
            entry = table.setdefault(key, {"calls": 0, "self_s": 0.0, "entry_n": 0})
            for field in entry:
                entry[field] += row[field]
    empty = {"calls": 0, "self_s": 0.0, "entry_n": 0}
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer.get(layer, empty)["self_s"]
        m[f"{layer}.calls"] = by_layer.get(layer, empty)["calls"]
    for layer in MEASURED_LAYERS:
        row = by_layer.get(layer, empty)
        m[f"{layer}.ns_per_meas"] = row["self_s"] * 1e9 / row["entry_n"] if row["entry_n"] else 0.0
    for name in ("mc.synthesize_ranges", "preprocess.from_csv", "preprocess.reject_outliers",
                 "preprocess.calibrate_bias", "preprocess.align_and_batch"):
        m[f"{name}.self_s"] = by_function.get(name, empty)["self_s"]
    m["preprocess.streams.calls"] = by_function.get("preprocess.streams", empty)["calls"]
    m["crlb.fisher_info.calls"] = by_function.get("crlb.fisher_info", empty)["calls"]
    # Per-call latency at each method's largest problem size.
    duration = spans["end"] - spans["start"]
    calls = 0
    for method in METHODS:
        name = f"estimators.{method}"
        mask = spans["name"] == (spans["names"].index(name) if name in spans["names"] else -1)
        calls += int(mask.sum())
        if mask.any():
            mask &= spans["n"] == spans["n"][mask].max()
        for q, label in ((50, "p50_us"), (99, "p99_us")):
            m[f"estimate.{method}.{label}"] = float(np.percentile(duration[mask], q)) * 1e6 if mask.any() else 0.0
    failures = dict(result["failures"])
    known = {kind: failures.pop(kind, 0) for kind in ERROR_TYPES[:-1]}
    known["other"] = sum(failures.values())
    for kind, count in known.items():
        m[f"estimators.failed.{kind}"] = count
    m["failed_frac"] = sum(known.values()) / calls if calls else 0.0
    counters = result["counters"]
    grid = workload.grid_epochs
    m["preprocess.records"] = counters.get("records", 0)
    m["preprocess.outlier_frac"] = counters.get("outliers", 0) / counters["outlier_base"] if counters.get("outlier_base") else 0.0
    m["preprocess.grid_epochs"] = grid
    m["preprocess.epoch_yield"] = counters.get("epochs_emitted", 0) / grid if grid else 0.0
    m["preprocess.alpha_offset_se"] = workload.figures.get("alpha_se", 0.0)
    m["preprocess.beta_offset_se"] = workload.figures.get("beta_se", 0.0)
    m["cli.bytes_written"] = result["bytes_written"]
    root = [i for i, n in enumerate(spans["names"]) if n == tracer.ROOT]
    root_mask = np.isin(spans["name"], root)
    m["trace.root_s"] = float(np.sum(spans["end"][root_mask] - spans["start"][root_mask]))
    m["trace.spans"] = int(spans["name"].size)
    workload.checks.require(
        tracer.check_nesting(spans) <= 1e-6 * max(m["trace.root_s"], 1.0),
        "span self times do not add up to the root span",
    )
    return m


def load_spans(path: str) -> dict:
    with np.load(path) as data:
        spans = {key: data[key] for key in data.files}
    spans["names"] = [str(x) for x in spans["names"]]
    return spans


# -- provenance --------------------------------------------------------------


def provenance(args, workload: Workload) -> dict:
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": workload.sha256,
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_pin": BLAS_PIN,
    }
    info["cgroup_cpu_max"] = None
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            with open(path, encoding="ascii") as handle:
                info["cgroup_cpu_max"] = handle.read().strip()
            break
        except OSError:
            continue
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "uwbpose", "*.py"))):
        with open(path, "rb") as handle:
            digest.update(handle.read())
    info["src_sha256"] = digest.hexdigest()
    info["commit"] = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            info["commit"] = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return info


# -- main --------------------------------------------------------------------


def run(args) -> dict:
    started = time.monotonic()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = (LogReplay if args.workload == "log-replay" else Sweep)(args.workload, args.seed, workdir)
        deadline = started + args.seconds
        limit = started + RUN_LIMIT_S
        untraced, traced = [], []
        rep = 0
        while rep < MIN_REPS or time.monotonic() < deadline:
            is_traced = bool(args.trace) and rep % 2 == 1
            result = run_worker(workdir, rep, workload.spec(rep, is_traced), limit)
            if not workload.checks.require(all(code == 0 for code in result["codes"]), f"repetition {rep} exit codes {result['codes']}"):
                break
            result["estimates"] = workload.record(rep, result)
            workload.estimates += result["estimates"]
            if is_traced:
                result["layers"] = layer_metrics(load_spans(os.path.join(workdir, f"spans-{rep}.npz")), result, workload)
                traced.append(result)
            else:
                untraced.append(result)
            rep += 1

        accuracy = workload.accuracy()
        info = provenance(args, workload)
        info["repetitions"] = {
            "untraced_walls_s": [round(sum(r["walls"]), 4) for r in untraced],
            "traced_walls_s": [round(sum(r["walls"]), 4) for r in traced],
            "setup_s": [round(r["setup_s"], 4) for r in untraced],
        }
        info["pooled_trials"] = accuracy.pop("pooled_trials", None)
        info["failed_checks"] = workload.checks.failures
        info["probe_errors"] = sum(r["counters"].get("probe_errors", 0) for r in traced)
        if args.trace:
            metrics = {}
            if traced and untraced:
                metrics = {name: _median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
                untraced_s = statistics.fmean(sum(r["walls"]) for r in untraced)
                metrics["trace.untraced_s"] = untraced_s
                metrics["trace.overhead_frac"] = statistics.fmean(sum(r["walls"]) for r in traced) / untraced_s - 1.0
            units = PER_LAYER
        else:
            metrics = {
                "setup_s": _median([r["setup_s"] for r in untraced]),
                # Summed work over summed time: CPU speed on shared hosts drifts
                # over seconds, and a median of per-repetition rates jumps
                # between the fast and slow modes where a ratio of sums moves
                # smoothly with their mix.
                "estimates_per_s": sum(r["estimates"] for r in untraced) / sum(sum(r["walls"]) for r in untraced),
                "peak_rss_mb": _median([r["maxrss_mb"] for r in untraced]),
                **accuracy,
            }
            units = END_TO_END
        missing = set(units) - set(metrics)
        workload.checks.require(not missing, f"metrics not measured: {sorted(missing)}")
        return {
            "info": info,
            "correct": not workload.checks.failures,
            "attempted": workload.estimates,
            "failed": workload.failed,
            "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit so that workers are stopped and the scratch
    # directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(SRC, "uwbpose", "cli.py")):
        print(f"error: no uwbpose sources under {SRC}", file=sys.stderr)
        return 2
    try:
        report = run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info = report.pop("info")
    print("# provenance " + json.dumps(info, sort_keys=True))
    for check in info["failed_checks"]:
        print(f"check failed: {check}", file=sys.stderr)
    for name, metric in report["metrics"].items():
        print(f"# {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
