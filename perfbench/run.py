"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload kernel-limit --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout. It starts every interpreter it needs
with PYTHONPATH=src and DLTL_THREADS=1 (BLAS on one thread) and waits for
each to end:

1. preflight: one interpreter imports each dltl module and reports which
   fail (dltl.import_failed);
2. setup: SETUP_REPEATS (9) fresh interpreters import the workload's dltl
   modules; setup_s is the median of their wall times rescaled by the
   speed probe (speed.py). --trace 1 adds one run under `-X importtime`
   for import.scipy_s and import.dltl_s;
3. the workload itself in worker.py, which times the passes, checks every
   output and reports peak memory.

The last line of standard output is the result: `correct`, `attempted`,
`failed` and the metrics named in BENCHMARK.json (end_to_end ones, or
per_layer ones with --trace 1). The line before it is a human-readable
summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import ALL_MODULES, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 150
# Variables through which a caller could give BLAS more threads; dropped so
# that DLTL_THREADS decides.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

PREFLIGHT = """
import importlib, json
failed = []
for name in {modules!r}:
    try:
        importlib.import_module("dltl." + name)
    except Exception:
        failed.append(name)
print(json.dumps(failed))
"""


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(root / "src")
    env["DLTL_THREADS"] = "1"
    return env


def python(args: list[str], root: Path, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args], cwd=root, env=child_env(root),
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        raise BenchError(f"{' '.join(args[:2])} exited {proc.returncode}: {' | '.join(tail)}")
    return proc


def import_statement(modules) -> str:
    return "import " + ", ".join(f"dltl.{m}" for m in modules)


def preflight(root: Path) -> list[str]:
    proc = python(["-c", PREFLIGHT.format(modules=ALL_MODULES)], root, 60)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(root: Path, modules) -> tuple[float, float]:
    """Median (probe-scaled, wall) time of a fresh interpreter's imports."""
    scaled, wall = [], []
    before = speed.probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        python(["-c", import_statement(modules)], root, 60)
        wall.append(time.perf_counter() - t0)
        after = speed.probe()
        scaled.append(speed.scale(wall[-1], before, after))
        before = after
    return statistics.median(scaled), statistics.median(wall)


def import_profile(root: Path, modules) -> dict[str, float]:
    proc = python(["-X", "importtime", "-c", import_statement(modules)], root, 60)
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict[str, float]:
    """import.dltl_s: cumulative import time of the top-level dltl imports;
    import.scipy_s: cumulative time of the outermost scipy imports."""
    # -X importtime prints a module after its imports, indented two spaces
    # per level, so a line's children are the deeper lines just above it.
    stack: list[dict] = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cum_us, name = line.split("|")
        level = (len(name) - len(name.lstrip(" "))) // 2
        node = {"name": name.strip(), "cum": int(cum_us) / 1e6, "level": level, "children": []}
        while stack and stack[-1]["level"] > level:
            node["children"].insert(0, stack.pop())
        stack.append(node)

    def outermost(nodes, prefix):
        total = 0.0
        for n in nodes:
            if n["name"] == prefix or n["name"].startswith(prefix + "."):
                total += n["cum"]
            else:
                total += outermost(n["children"], prefix)
        return total

    return {
        "import.dltl_s": sum(n["cum"] for n in stack if n["name"].startswith("dltl")),
        "import.scipy_s": outermost(stack, "scipy"),
    }


def run_worker(root: Path, args) -> dict:
    proc = python(
        [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        root, WORKER_TIMEOUT_S,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_specs(root: Path, key: str) -> dict[str, str]:
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one dltl benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dltl" / "__init__.py").is_file():
        print("run.py: no src/dltl here; run it from the root of a dltl checkout", file=sys.stderr)
        return 2
    modules = WORKLOADS[args.workload].modules
    try:
        specs = metric_specs(root, "per_layer" if args.trace else "end_to_end")
        failed_imports = preflight(root)
        setup_s, setup_wall_s = setup_seconds(root, modules)
        imports = import_profile(root, modules) if args.trace else {}
        result = run_worker(root, args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    values = {
        "pass_s": result["pass_s"],
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "pass.wall_s": result["pass_wall_s"],
        "setup.wall_s": setup_wall_s,
        "speed.probe_s": result["probe_s"],
        "dltl.import_failed": len(failed_imports),
    }
    values.update(imports)
    values.update(result.get("per_layer", {}))
    values.update(result["counts"])
    missing = [name for name in specs if name not in values]
    if missing:
        print(f"run.py: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for err in result["errors"]:
        print(f"failed: {err}", file=sys.stderr)
    q1, q2, q3 = result["pass_quartiles_s"]
    print(
        f"# {args.workload} seed={args.seed}: pass_s median {result['pass_s']:.4f} over "
        f"{result['passes']} passes (quartiles {q1:.4f} {q2:.4f} {q3:.4f}), "
        f"wall {result['pass_wall_s']:.4f}, probe {result['probe_s'] * 1e3:.2f} ms; "
        f"fail_frac {result['failed'] / result['attempted']:.4f}; "
        f"dltl.import_failed {len(failed_imports)} {failed_imports}"
    )
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
