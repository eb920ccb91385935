"""End-to-end wall time of every golden flag set of the dltl CLI.

    python3 tools/cli_times.py [--runs N] [--case NAME ...]

Run it from the root of a checkout. Each case of tests/test_golden.py runs
as `python -m dltl.cli <flags> --format csv --out FILE` in a fresh
interpreter with PYTHONPATH=src and DLTL_THREADS=1 (BLAS on one thread),
on the seeded input files that test_golden.write_inputs writes to a
temporary directory. The time includes interpreter start and imports.

Prints one JSON line per case: {"case", "runs", "median_s", "min_s",
"max_s"}. A case that exits non-zero stops the script with exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import CASES, write_inputs  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), DLTL_THREADS="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)  # DLTL_THREADS decides
    return env


def time_case(name: str, paths: dict[str, str], runs: int, out: str) -> dict:
    argv = [tok.format(**paths) for tok in CASES[name].split()]
    cmd = [sys.executable, "-m", "dltl.cli", *argv, "--format", "csv", "--out", out]
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
    return {"case": name, "runs": runs, "median_s": round(statistics.median(times), 4),
            "min_s": round(min(times), 4), "max_s": round(max(times), 4)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Time the dltl CLI end to end on the golden flag sets.")
    parser.add_argument("--runs", type=int, default=5, help="fresh interpreters per case (default 5)")
    parser.add_argument("--case", action="extend", nargs="+", choices=sorted(CASES),
                        help="time only these cases (repeatable; default: every case)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        for name in args.case or sorted(CASES):
            print(json.dumps(time_case(name, paths, args.runs, os.path.join(tmp, "out"))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
