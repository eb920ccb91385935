"""Run one workload in this interpreter and print its result as JSON.

    PYTHONPATH=src DLTL_THREADS=1 python3 perfbench/worker.py \
        --workload kernel-limit --seed 0 --seconds 25 --trace 0

run.py starts it with that environment; it is not meant to be called
directly except when debugging. After one warm-up pass it repeats the
workload's operation list until --seconds have passed (at least
MIN_PASSES times), timing each operation with tracing off and rescaling
it by the speed probe around it (speed.py). With --trace 1 every untraced
pass is followed by a traced one, whose spans give the per-layer metrics.
Every operation's output is checked right after it runs, outside the
timed region and with tracing paused.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

# dltl before anything that loads numpy: its __init__ turns DLTL_THREADS
# into the BLAS thread variables, which numpy reads once, on import.
import dltl  # noqa: F401  isort: skip
import checks
import speed
import workloads
from spans import Tracer

MIN_PASSES = 3
REFERENCE_FILE = Path(__file__).with_name("reference.json")


class Pass(NamedTuple):
    scaled_s: float     # summed operation times, rescaled by the speed probe
    wall_s: float       # summed operation wall times
    probe_s: float      # median probe time of the pass
    counts: dict
    outputs: dict       # reference fields by operation


class Runner:
    """Runs passes over one operation list and keeps the tallies."""

    def __init__(self, ops, refs: dict | None, tracer: Tracer | None = None):
        self.ops = ops
        self.refs = refs
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, op, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{op.name}: {message}")

    def _check(self, op, result) -> dict:
        fields = op.fields(result)
        if self.refs is not None:
            if op.name not in self.refs:
                raise checks.CheckFailed("no reference recorded")
            checks.check_fields(fields, self.refs[op.name])
        if op.oracle is not None:
            op.oracle(result)
        return fields

    def run_pass(self) -> Pass:
        state: dict = {}
        scaled = wall = 0.0
        counts = dict.fromkeys(workloads.COUNTS, 0)
        outputs = {}
        probes = [speed.probe()]
        for op in self.ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.call(state)
                ok = True
            except Exception as exc:  # a failing operation must not stop the run
                ok = False
                self._fail(op, f"raised {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - t0
            probes.append(speed.probe())
            wall += elapsed
            scaled += speed.scale(elapsed, probes[-2], probes[-1])
            if not ok:
                continue
            if self.tracer is not None:
                self.tracer.paused = True
            try:
                outputs[op.name] = self._check(op, result)
                for key, value in op.counts(result).items():
                    counts[key] += int(value)
            except Exception as exc:  # a failed check counts as a failed operation
                self._fail(op, f"check failed: {type(exc).__name__}: {exc}")
            finally:
                if self.tracer is not None:
                    self.tracer.paused = False
        return Pass(scaled, wall, statistics.median(probes), counts, outputs)


def load_refs(workload: str, seed: int) -> dict:
    doc = json.loads(REFERENCE_FILE.read_text())
    return doc[workload][str(workloads.input_seed(seed))]


def timed_passes(runner: Runner, seconds: float) -> list[Pass]:
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass())
    return passes


def traced_passes(runner: Runner, seconds: float) -> tuple[list[Pass], dict]:
    """Alternate untraced and traced passes, so both see the same machine
    speed; per-layer metrics are medians over the traced passes, in raw
    wall seconds like the spans they come from."""
    tracer = Tracer(workloads.LAYERS)
    passes, traced, per_pass = [], [], []
    start = time.perf_counter()
    while len(per_pass) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass())
        runner.tracer = tracer
        with tracer:
            traced.append(runner.run_pass().wall_s)
            per_pass.append(tracer.take())
        runner.tracer = None
    # median_low keeps counts whole; they repeat exactly across passes
    layer = {key: statistics.median_low(p[key] for p in per_pass) for key in per_pass[0]}
    layer["trace.pass_s"] = statistics.median(traced)
    return passes, layer


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    modules = workloads.LAYERS if trace else workloads.WORKLOADS[workload].modules
    for name in modules:
        importlib.import_module(f"dltl.{name}")
    runner = Runner(workloads.build(workload, seed), load_refs(workload, seed))
    runner.run_pass()  # warm-up: caches filled, lazy set-up done
    if trace:
        passes, layer = traced_passes(runner, seconds)
    else:
        passes = timed_passes(runner, seconds)
    times = [p.scaled_s for p in passes]
    out = {
        "pass_s": statistics.median(times),
        "pass_quartiles_s": statistics.quantiles(times, n=4, method="inclusive"),
        "pass_wall_s": statistics.median(p.wall_s for p in passes),
        "probe_s": statistics.median(p.probe_s for p in passes),
        "passes": len(passes),
        "counts": passes[-1].counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
    }
    if trace:
        layer["trace.overhead"] = layer["trace.pass_s"] / out["pass_wall_s"]
        out["per_layer"] = layer
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
