"""One workload repetition in a fresh interpreter.

Usage: ``python3 worker.py <spec.json> <result.json> <spawn_monotonic>``.

The spec names the source tree, the set-up probe (the scenario or
deployment file to parse after importing ``uwbpose.cli``), the CLI commands
to run in-process, their output files and whether to trace. The result file
receives set-up time, per-command wall times and exit codes, peak resident
memory and output sizes; a traced repetition also writes its spans once, at
the end, next to the result.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

# Package modules, in dependency order; each is one traced layer.
LAYERS = ("core", "linstage", "gnrefine", "dac", "crlb", "estimators", "mc", "preprocess", "scenario", "cli")
# Layers whose entry spans record the measurement count n of their batch.
MEASURED_LAYERS = ("linstage", "gnrefine", "dac")
# Counters read from return values at layer boundaries.
PROBES = {
    "preprocess.RangeLog.from_csv": lambda log: {"records": len(log)},
    "preprocess.reject_outliers": lambda res: {"outlier_base": len(res[1]), "outliers": int(res[1].sum())},
    "preprocess.align_and_batch": lambda res: {"epochs_emitted": len(res)},
}


def _setup_probe(kind: str, path: str) -> None:
    if kind == "scenario":
        from uwbpose.scenario import load_scenario

        load_scenario(path)
    else:
        from uwbpose.preprocess import NamedDeployment

        NamedDeployment.from_json(path)


def main(spec_path: str, result_path: str, spawn_t: float) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    import uwbpose.cli as cli

    _setup_probe(*spec["probe"])
    setup_s = time.monotonic() - spawn_t

    tracer = None
    if spec["trace"]:
        import importlib

        import numpy as np

        import tracer as tracing
        import uwbpose

        for layer in LAYERS:
            try:
                importlib.import_module(f"uwbpose.{layer}")
            except ModuleNotFoundError:
                pass  # a removed module reports zero

        tracer = tracing.Tracer()
        tracer.install(uwbpose, LAYERS, MEASURED_LAYERS, PROBES, dispatch=("estimators", "ESTIMATORS"))

    walls, codes = [], []

    def run_commands():
        for argv in spec["commands"]:
            start = time.perf_counter()
            codes.append(cli.main(argv))
            walls.append(time.perf_counter() - start)
            sys.stdout.flush()

    if tracer is None:
        run_commands()
    else:
        with tracer.span(tracing.ROOT):
            run_commands()

    result = {
        "setup_s": setup_s,
        "walls": walls,
        "codes": codes,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": sum(os.path.getsize(p) for p in spec["outputs"] if os.path.exists(p)),
    }
    if tracer is not None:
        spans = tracer.spans()
        names = spans.pop("names")
        np.savez(spec["spans"], names=np.array(names), **spans)
        result["failures"] = dict(tracer.failures)
        result["counters"] = dict(tracer.counters)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], float(sys.argv[3])))
