"""Command-line front end: simulate, crlb, estimate, calibrate.

Every command is deterministic given its inputs, seed, and flags, and no
command leaves a partial output file behind on failure (outputs are written
to a temporary file and renamed on success). Exit codes: 0 success, 1
runtime failure, 2 malformed input, 3 unobservable deployment.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import mc
from .core import Method, check_observability, wrap_angles
from .crlb import constrained_crlb, fisher_info
from .errors import EstimationError, SchemaError, Status, UnobservableDeploymentError, schema_errors
from .estimators import estimate_stacked, failure_tally
from .preprocess import (
    BiasModel,
    GroundTruthLog,
    NamedDeployment,
    RangeLog,
    align_and_batch,
    calibrate_bias,
    reject_outliers,
)
from .scenario import load_scenario

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_SCHEMA = 2
EXIT_UNOBSERVABLE = 3


def _atomic_write_text(outputs: dict[str, str]) -> None:
    """Write each text of ``outputs`` to a new file beside its path, then rename them all. On failure the
    new files and the outputs already renamed are removed, and an OSError names the path."""
    created = []  # the new files, each replaced by its path once renamed
    try:
        for path, text in outputs.items():
            for attempt in itertools.count():  # created as open(path, "w") creates a file: mode 0o666 less the umask
                tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.getpid()}-{attempt}")
                with contextlib.suppress(FileExistsError):  # a name in use
                    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                    break
            created.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        for i, path in enumerate(outputs):
            os.replace(created[i], path)
            created[i] = path
        created.clear()  # every output in place: nothing to remove
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        for name in created:
            with contextlib.suppress(OSError):
                os.unlink(name)


def _bounded(kind, low=None, above: bool = False):
    """argparse type for a finite ``kind`` (int or float) that is at least
    ``low``, or above it with ``above``; any finite value when ``low`` is
    None. An integer beyond the float range is not finite here, as in every
    input file. argparse prefixes the message with the flag."""
    name = "an integer" if kind is int else "a finite number"
    if low is not None:
        name += f" {'above' if above else 'at least'} {low}"

    def parse(text: str):
        try:
            value = kind(text)
            finite = math.isfinite(value)  # OverflowError for an integer beyond the float range
        except (ValueError, OverflowError):
            finite = False
        if finite and (low is None or value > low or (value == low and not above)):
            return value
        import argparse

        raise argparse.ArgumentTypeError(f"must be {name}, got {text}")

    return parse


def _cmd_simulate(args) -> None:
    scenario = load_scenario(args.scenario)
    if scenario.config is None:
        raise SchemaError(f"{args.scenario}: scenario has no sweep section")
    overrides = {name: getattr(args, name) for name in ("seed", "trials") if getattr(args, name) is not None}
    with schema_errors("sweep"):  # McConfig's rule on an overridden trial count
        config = dataclasses.replace(scenario.config, **overrides)
    result = mc.run_sweep(config)

    buffer = io.StringIO()
    mc.write_csv(result, buffer, include_timing=args.timing)
    _atomic_write_text({args.out: buffer.getvalue()})

    print(f"wrote {len(result.rows)} rows to {args.out}")
    for key, value in sorted([*result.metadata, *scenario.notes]):
        print(f"# {key}: {value}")
    print(f"{'axis':>12} {'estimator':>12} {'combined_rmse':>14} {'sqrt_crlb':>12} {'ratio':>8} {'ms':>8} {'fail':>5}")
    for row in result.rows:
        ratio = row.combined_rmse / row.sqrt_crlb if row.sqrt_crlb > 0 else float("nan")
        print(
            f"{row.axis_value:>12g} {row.estimator:>12} {row.combined_rmse:>14.6g} "
            f"{row.sqrt_crlb:>12.6g} {ratio:>8.3f} {row.mean_time_s * 1e3:>8.3f} {row.failures:>5d}"
        )


def _cmd_crlb(args) -> None:
    scenario = load_scenario(args.scenario)
    check_observability(scenario.deployment)
    repeat_t = args.repeat_t if args.repeat_t is not None else scenario.repeat_t
    result = constrained_crlb(fisher_info(scenario.deployment, repeat_t, scenario.true_pose), scenario.true_pose)
    print("verdict: observable")
    print(f"repeat_t: {repeat_t}")
    print(f"sqrt_trace_crlb: {result.sqrt_trace!r}")
    print(f"rotation_block_trace: {result.rotation_block_trace!r}")
    print(f"translation_block_trace: {result.translation_block_trace!r}")


def _load_ranges(args) -> RangeLog:
    log = RangeLog.from_csv(args.ranges, frequency=args.freq)
    cleaned, mask = reject_outliers(log, window=args.window, v_max=args.vmax)
    print(
        f"{args.ranges}: {len(log) + log.dropped_negative} records read, "
        f"{log.dropped_negative} negative dropped, {int(mask.sum())} outliers rejected",
        file=sys.stderr,
    )
    return cleaned


def _cmd_estimate(args) -> None:
    named = NamedDeployment.from_json(args.deployment)
    check_observability(named.deployment)
    log = _load_ranges(args)
    bias = BiasModel.from_json_file(args.bias) if args.bias else BiasModel.identity()
    truth = GroundTruthLog.from_csv(args.truth) if args.truth else None
    epochs = align_and_batch(log, bias, named, rate_hz=args.rate, max_gap_periods=args.max_gap)
    if not len(epochs):
        raise EstimationError("no epochs: the log needs every (anchor, tag) pair of the deployment, over one"
                              " common span, with gaps of at most --max-gap periods")
    if truth is not None:
        span = (epochs.times >= truth.t[0]) & (epochs.times <= truth.t[-1])
        if not span.any():
            raise EstimationError("no epochs overlap the ground-truth span")

    with np.errstate(over="ignore"):  # an epoch whose squares overflow fails alone, with Status.OVERFLOW
        squares = epochs.ranges**2
    poses = estimate_stacked(named.deployment, epochs.ranges, squares, args.method)
    ok = poses.status == 0
    yaw_deg = np.degrees(wrap_angles(poses.theta + math.radians(args.yaw_offset_deg)))
    statuses = ["ok" if code == 0 else f"error:{Status(code).error.__name__}" for code in poses.status.tolist()]
    if truth is not None:  # scored before anything is written, so a failure leaves no output
        inside = ok & span
        if not inside.any():
            raise EstimationError(f"every epoch in the ground-truth span failed: {failure_tally(poses.status[span])}")
        positions, yaws = truth.interpolate(epochs.times[inside])
        est_yaw = np.radians(yaw_deg[inside])
        yaw_err = np.degrees(np.arctan2(np.sin(est_yaw - yaws), np.cos(est_yaw - yaws)))
        with np.errstate(over="ignore"):  # checked below
            pos_rmse_cm = float(np.sqrt(np.mean(np.sum((poses.t[inside] - positions) ** 2, axis=1)))) * 100.0
        if not math.isfinite(pos_rmse_cm):
            raise EstimationError("position errors against the ground truth overflow")
        rot_rmse_deg = float(np.sqrt(np.mean(yaw_err**2)))

    # The rows csv.writer would write: reprs and fixed identifiers need no quotes.
    lines, label = ["t,x,y,yaw_deg,method,status\r\n"], args.method
    for epoch_time, (x, y), yaw, status in zip(epochs.times.tolist(), poses.t.tolist(), yaw_deg.tolist(), statuses):
        lines.append(f"{epoch_time!r},{x!r},{y!r},{yaw!r},{label},{status}\r\n" if status == "ok"
                     else f"{epoch_time!r},,,,{label},{status}\r\n")
    outputs = {args.out: "".join(lines)}
    if truth is not None:
        summary = f"method,position_rmse_cm,rotation_rmse_deg\r\n{label},{pos_rmse_cm!r},{rot_rmse_deg!r}\r\n"
        outputs[args.out + ".summary.csv"] = summary
    _atomic_write_text(outputs)
    print(f"wrote {len(epochs)} epochs to {args.out} ({int(ok.sum())} ok)")
    print(f"failures_by_error: {failure_tally(poses.status) or 'none'}", file=sys.stderr)
    if truth is not None:
        print("method  position_rmse_cm  rotation_rmse_deg")
        print(f"{label:>6}  {pos_rmse_cm:>16.3f}  {rot_rmse_deg:>17.3f}")


def _cmd_calibrate(args) -> None:
    named = NamedDeployment.from_json(args.deployment)
    log = _load_ranges(args)
    truth = GroundTruthLog.from_csv(args.truth)
    model = calibrate_bias(log, truth, named)
    _atomic_write_text({args.out: model.to_json() + "\n"})
    for name in ("alpha", "beta", "sigma", "residual_rms"):
        print(f"{name}: {getattr(model, name):.9g}")
    print(f"wrote model to {args.out}")


_POSITIVE_INT, _POSITIVE_FLOAT = _bounded(int, 1), _bounded(float, 0, above=True)
# The flags estimate and calibrate share.
_REPLAY_FLAGS = {
    "--ranges": dict(required=True, help="range log CSV: t,anchor,tag,range"),
    "--deployment": dict(required=True, help="deployment JSON with anchor and tag ids"),
    "--out": dict(required=True),
    "--freq": dict(type=_POSITIVE_FLOAT, default=100.0, help="ranging frequency in Hz"),
    "--vmax": dict(type=_POSITIVE_FLOAT, default=1.0, help="velocity bound for outlier rejection, m/s"),
    "--window": dict(type=_POSITIVE_INT, default=5, help="outlier rejection window length"),
}
# Each subcommand's help, handler and flags, as add_argument takes them.
COMMANDS = {
    "simulate": ("run a Monte-Carlo sweep from a scenario file", _cmd_simulate, {
        "--scenario": dict(required=True),
        "--out": dict(required=True),
        "--seed": dict(type=_bounded(int, 0), default=None, help="override the scenario seed"),
        "--threads": dict(type=_POSITIVE_INT, default=1, help="accepted for compatibility, no effect; draws are serial"),
        "--trials": dict(type=_POSITIVE_INT, default=None, help="override the scenario trial count"),
        "--timing": dict(
            action="store_true", default=False, help="include wall times in the CSV (nondeterministic column)"
        ),
    }),
    "crlb": ("print the lower bound for a scenario", _cmd_crlb, {
        "--scenario": dict(required=True),
        "--repeat-t": dict(type=_POSITIVE_INT, default=None),
    }),
    "estimate": ("estimate poses from a range log", _cmd_estimate, {
        **_REPLAY_FLAGS,
        "--truth": dict(default=None),
        "--method": dict(choices=[m.value for m in Method], default=Method.GN_ULS.value),
        "--bias": dict(default=None, help="bias model file from the calibrate command"),
        "--yaw-offset-deg": dict(type=_bounded(float), default=0.0),
        "--rate": dict(type=_POSITIVE_FLOAT, default=None, help="estimation rate in Hz"),
        "--max-gap": dict(type=_bounded(float, 0), default=3.0, help="drop epochs with gaps beyond this many periods"),
    }),
    "calibrate": ("fit the linear range-bias model", _cmd_calibrate, {**_REPLAY_FLAGS, "--truth": dict(required=True)}),
}


def _build_parser():
    """The argparse parser of every subcommand in ``COMMANDS``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="uwbpose",
        description="Planar pose estimation from anchor-to-tag range measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, flags) in COMMANDS.items():
        command = sub.add_parser(name, help=text)
        command.set_defaults(func=func)
        for flag, spec in flags.items():
            command.add_argument(flag, **spec)
    return parser


def _accept_exact(argv: list) -> SimpleNamespace | None:
    """``_build_parser().parse_args(argv)`` for a subcommand and its exact
    flags, each once, each value not starting with "-" and accepted, every
    required one present; None for anything else, which argparse parses."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, flags = COMMANDS[argv[0]]
    values, tokens = {}, iter(argv[1:])
    for token in tokens:
        spec = flags.get(token)
        if spec is None or token in values:
            return None
        if spec.get("action") == "store_true":
            values[token] = True
            continue
        text = next(tokens, "-")  # a missing value fails like an option
        if text.startswith("-") or ("choices" in spec and text not in spec["choices"]):
            return None
        try:
            values[token] = spec["type"](text) if "type" in spec else text
        except Exception:  # the flag's type refused it: argparse parses again and reports it
            return None
    if any(spec.get("required") and flag not in values for flag, spec in flags.items()):
        return None
    dests = {flag[2:].replace("-", "_"): values.get(flag, spec.get("default")) for flag, spec in flags.items()}
    return SimpleNamespace(command=argv[0], func=func, **dests)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _accept_exact(argv) or _build_parser().parse_args(argv)
    try:
        args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except UnobservableDeploymentError as exc:
        print(f"error: deployment not observable: {exc}", file=sys.stderr)
        return EXIT_UNOBSERVABLE
    except (EstimationError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)  # a MemoryError may have no message
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
