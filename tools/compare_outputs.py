"""Run the same uwbpose commands in two source trees and compare what they write.

    python3 tools/compare_outputs.py BASE HEAD

BASE and HEAD are checkouts or ``git archive`` exports of this repository;
each command runs as ``python -m uwbpose.cli`` with that tree's ``src/`` on
the path, in that tree's own output directory under one temporary
directory. The commands:

- the two benchmark sweeps (``perfbench`` ``sweep-smallT`` and
  ``sweep-bigT``) at workload seeds 3 and 7;
- ``calibrate``, then ``estimate --bias --truth`` with each of the four
  methods, on the ``perfbench/gen.py`` replay log of seeds 3 and 7;
- ``estimate`` with ``gn-uls`` and ``gn-dac`` on the log of seed 7 with a
  deployment whose ``dh`` is 1e308, which fails both closed-form stages for
  every epoch alike, so every row and the ``failures_by_error`` tally print
  an error, and ``estimate --truth`` with ``gn-uls`` there, which exits 1
  with the tally of the failed epochs in the ground-truth span;
- ``estimate`` with ``gn-uls`` on the log of seed 7 with its first record
  set to 1e200, whose square overflows, so that epoch alone fails, and on
  the log of seed 7 with tag ``t0`` at (1e308, 0), whose linear design
  overflows, so every epoch fails;
- ``crlb`` on both bundled ``crlb_*`` scenarios, at their own ``repeat_t``
  and at 4;
- the bundled ``sim_*`` sweeps with ``--trials 20``;
- two sweeps whose ``failures_by_error`` is not ``none``: a tag on an
  anchor at zero noise, where every Gauss-Newton step fails its problem, and
  an ``anchor_count`` axis whose first three anchors are collinear, where
  value 3 fails every method for the deployment as a whole.

Inputs come from this repository's ``perfbench/gen.py`` and ``scenarios/``,
and from ``FAILING_SWEEPS`` below, written into each output directory. Before comparing, each directory's path
is replaced by ``<DIR>``, and the wall-time ``ms`` column of the ``simulate``
summary table by ``-``. Exit codes, stdout, stderr and every file a command
writes or changes must then be equal byte for byte. A command that runs
longer than ``TIMEOUT_S`` is stopped, and its exit code reads ``timeout``.
Prints one line per command and exits 1 on any difference. For each output
that differs, the line gives the largest relative difference between its
corresponding numbers, or says that the texts differ in more than numbers.
"""

import argparse
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402

# The two sweeps of perfbench/run.py: repeat_t values, estimators and trials.
SWEEPS = {
    "sweep-smallT": ((1, 10), ("uls", "gn-uls", "dac", "gn-dac"), 600),
    "sweep-bigT": ((1000, 10000), ("uls", "gn-uls", "dac"), 50),
}
SEEDS = (3, 7)
METHODS = ("uls", "gn-uls", "dac", "gn-dac")
# Scenarios of the two sweeps with failures, by name.
FAILING_SWEEPS = {
    "tag-on-anchor": {
        "deployment": {"anchors": [[50.0, 0.0], [50.0, 50.0], [0.0, 50.0]], "tags": [[3.0, 0.0], [3.0, 3.0]],
                       "sigma": 0.1},
        "true_pose": {"theta_deg": 0.0, "t": [47.0, 0.0]},
        "seed": 101,
        "sweep": {"axis": "repeat_t", "values": [5, 20], "trials": 7, "noise_scale": 0.0},
    },
    "collinear-anchors": {
        "deployment": {"anchors": [[0.0, 0.0], [25.0, 0.0], [50.0, 0.0], [0.0, 50.0]],
                       "tags": [[3.0, 0.0], [3.0, 3.0]], "sigma": 0.1},
        "true_pose": {"theta_deg": 60.0, "t": [0.0, 25.0]},
        "seed": 101,
        "sweep": {"axis": "anchor_count", "values": [3, 4, 6], "trials": 5},
    },
}
# Seconds after which a command counts as hung; every command here takes a few at most.
TIMEOUT_S = 60
# A decimal number as the commands print them, or nan or inf; the text between numbers is compared as is.
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\b(?:nan|inf)\b")
# A row of the simulate summary table: axis, estimator, rmse, bound, ratio, ms, failures.
SUMMARY_ROW = re.compile(rb"^( *\S+ +\S+ +\S+ +\S+ +\S+ +)\S+( +\d+)$", re.MULTILINE)


def commands(workdir: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of every command, its inputs written into ``workdir``."""
    runs = []
    for name, (axis, estimators, trials) in SWEEPS.items():
        for seed in SEEDS:
            scenario = os.path.join(workdir, f"{name}-{seed}.scenario")
            os.replace(gen.write_sweep(workdir, seed, axis, estimators, trials).scenario, scenario)
            out = f"{name}-{seed}.csv"
            runs.append((f"{name} seed {seed}", ["simulate", "--scenario", scenario, "--out", out,
                                                 "--seed", str(gen.derived_seed(seed, 2, 0))]))
    for seed in SEEDS:
        log_dir = os.path.join(workdir, f"log-{seed}")
        os.mkdir(log_dir)
        log = gen.write_log(log_dir, seed)
        files = ["--ranges", log.ranges, "--deployment", log.deployment, "--truth", log.truth,
                 "--window", str(gen.LOG_WINDOW), "--vmax", repr(gen.LOG_VMAX)]
        bias = f"bias-{seed}.json"
        runs.append((f"calibrate log {seed}", ["calibrate", *files, "--out", bias]))
        for method in METHODS:
            out = f"poses-{seed}-{method}.csv"
            runs.append((f"estimate log {seed} {method}",
                         ["estimate", *files, "--bias", bias, "--method", method, "--out", out]))
    # The last seed's log again, on a deployment whose dh**2 overflows.
    overflowing = os.path.join(workdir, "deployment-dh-1e308.json")
    document = json.loads(pathlib.Path(log.deployment).read_text(encoding="utf-8"))
    pathlib.Path(overflowing).write_text(json.dumps({**document, "dh": 1e308}), encoding="utf-8")
    for method, truth in (("gn-uls", []), ("gn-dac", []), ("gn-uls", ["--truth", log.truth])):
        runs.append((f"estimate log {seed} dh 1e308 {method}{' truth' * bool(truth)}",
                     ["estimate", "--ranges", log.ranges, "--deployment", overflowing, "--window", str(gen.LOG_WINDOW),
                      "--vmax", repr(gen.LOG_VMAX), "--method", method, *truth, "--out", f"poses-dh-1e308-{method}.csv"]))
    # The last seed's log with its first record set to 1e200, and on a deployment with tag t0 at (1e308, 0).
    lines = pathlib.Path(log.ranges).read_text(encoding="utf-8").splitlines(keepends=True)
    huge = os.path.join(workdir, "ranges-first-1e200.csv")
    pathlib.Path(huge).write_text("".join([lines[0], lines[1][: lines[1].rindex(",")] + ",1e200\n", *lines[2:]]),
                                  encoding="utf-8")
    far = os.path.join(workdir, "deployment-t0-1e308.json")
    pathlib.Path(far).write_text(json.dumps({**document, "tags": {**document["tags"], "t0": [1e308, 0.0]}}),
                                 encoding="utf-8")
    for label, ranges, deployment in (("first record 1e200", huge, log.deployment), ("t0 1e308", log.ranges, far)):
        runs.append((f"estimate log {seed} {label} gn-uls",
                     ["estimate", "--ranges", ranges, "--deployment", deployment, "--window", str(gen.LOG_WINDOW),
                      "--vmax", repr(gen.LOG_VMAX), "--method", "gn-uls",
                      "--out", f"poses-{label.replace(' ', '-')}.csv"]))
    for path in sorted((ROOT / "scenarios").glob("*.scenario")):
        scenario = shutil.copy(path, workdir)
        if path.name.startswith("crlb_"):
            runs.append((f"crlb {path.stem}", ["crlb", "--scenario", scenario]))
            runs.append((f"crlb {path.stem} repeat-t 4", ["crlb", "--scenario", scenario, "--repeat-t", "4"]))
        else:
            out = f"{path.stem}.csv"
            runs.append((f"simulate {path.stem} trials 20",
                         ["simulate", "--scenario", scenario, "--out", out, "--trials", "20"]))
    for name, document in FAILING_SWEEPS.items():
        scenario = os.path.join(workdir, f"{name}.scenario")
        pathlib.Path(scenario).write_text(json.dumps(document), encoding="utf-8")
        runs.append((f"simulate {name}", ["simulate", "--scenario", scenario, "--out", f"{name}.csv"]))
    return runs


def snapshot(directory: str) -> dict[str, tuple[int, int]]:
    """(size, mtime in ns) of every file under ``directory``, by relative path."""
    found = {}
    for path in pathlib.Path(directory).rglob("*"):
        if path.is_file():
            stat = path.stat()
            found[str(path.relative_to(directory))] = (stat.st_size, stat.st_mtime_ns)
    return found


def run(tree: str, workdir: str, argv: list[str]) -> dict[str, bytes]:
    """Exit code (``timeout`` after ``TIMEOUT_S``), stdout, stderr and each
    file written or changed by one command, with ``workdir`` masked, by name."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    before = snapshot(workdir)
    try:
        done = subprocess.run([sys.executable, "-m", "uwbpose.cli", *argv], cwd=workdir, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
        result = {"exit code": str(done.returncode).encode(), "stdout": done.stdout, "stderr": done.stderr}
    except subprocess.TimeoutExpired as exc:  # the child is killed; what it printed so far is kept
        result = {"exit code": b"timeout", "stdout": exc.stdout or b"", "stderr": exc.stderr or b""}
    after = snapshot(workdir)
    for name in sorted(name for name in after if before.get(name) != after[name]):
        result[name] = pathlib.Path(workdir, name).read_bytes()
    result = {key: value.replace(workdir.encode(), b"<DIR>") for key, value in result.items()}
    if argv[0] == "simulate":
        result["stdout"] = SUMMARY_ROW.sub(rb"\1-\2", result["stdout"])
    return result


def number_gap(base: bytes, head: bytes) -> str:
    """How two outputs differ: the largest relative difference between their
    corresponding numbers, ``|a - b| / max(|a|, |b|)``, when the text between
    the numbers is the same, else that they differ in more than numbers."""
    if NUMBER.split(base) != NUMBER.split(head):
        return "text differs in more than numbers"
    gap = 0.0
    for a, b in zip(map(float, NUMBER.findall(base)), map(float, NUMBER.findall(head))):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        gap = max(gap, abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a) and math.isfinite(b) else math.inf)
    return f"largest relative difference {gap:.3g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="source tree of the parent")
    parser.add_argument("head", help="source tree of the change")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: os.path.realpath(os.path.join(tmp, side)) for side in ("base", "head")}
        for directory in dirs.values():
            os.mkdir(directory)
        runs = {side: commands(directory) for side, directory in dirs.items()}
        differing = 0
        for (label, base_argv), (_, head_argv) in zip(runs["base"], runs["head"]):
            base = run(os.path.abspath(args.base), dirs["base"], base_argv)
            head = run(os.path.abspath(args.head), dirs["head"], head_argv)
            diffs = sorted(key for key in base.keys() | head.keys() if base.get(key) != head.get(key))
            differing += bool(diffs)
            outputs = len(base) - 3
            gaps = [f"{key} ({number_gap(base.get(key, b''), head.get(key, b''))})" for key in diffs]
            print(f"{'DIFFERS' if diffs else 'same':>7}  {label}: exit {base['exit code'].decode()}, "
                  f"{outputs} output file{'s' * (outputs != 1)}" + (f"; differs in {', '.join(gaps)}" if diffs else ""))
        print(f"{differing} of {len(runs['base'])} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
