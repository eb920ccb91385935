"""End-to-end wall time of every golden flag set of the dltl CLI.

    python3 tools/cli_times.py [--runs N] [--case NAME ...]

Run it from the root of a checkout. Each case of tests/test_golden.py runs
as `python -m dltl.cli <flags> --format csv --out FILE` in a fresh
interpreter with PYTHONPATH=src and DLTL_THREADS=1 (BLAS on one thread),
on the seeded input files that test_golden.write_inputs writes to a
temporary directory. The time includes interpreter start and imports.

The golden cases are dominated by start-up. Three cases at scale run only
when named with --case: ntk-kernel-m1000, ntk-kernel-m2000 and
ntk-kernel-m1000-json run `ntk-kernel --kind nngp --widths 3,64,1 --act
relu` on m = 1000 or 2000 rows drawn from default_rng(0),
x = standard_normal((m, 3)) and then y = standard_normal(m). The first two
write the m^2-row gram table (--format csv), the third the JSON document
that holds the m x m gram (--format json).
Each child's peak resident set size is read from its own resource usage
(os.wait4, ru_maxrss in KB, as perfbench/worker.py reads its own).

Prints one JSON line per case: {"case", "runs", "median_s", "min_s",
"max_s", "max_rss_mb"}, where max_rss_mb is the largest peak RSS of the
case's runs. A case that exits non-zero stops the script with exit 1.
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

import numpy as np  # noqa: E402
from test_golden import CASES, _write_dataset, write_inputs  # noqa: E402

# case at scale -> (rows m, output format)
SCALE_CASES = {"ntk-kernel-m1000": (1000, "csv"), "ntk-kernel-m2000": (2000, "csv"),
               "ntk-kernel-m1000-json": (1000, "json")}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), DLTL_THREADS="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)  # DLTL_THREADS decides
    return env


def case_argv(name: str, paths: dict[str, str], tmp: str) -> list[str]:
    """The flags of a golden case, or of a case at scale with its dataset
    written to tmp, --format included."""
    if name not in SCALE_CASES:
        return [tok.format(**paths) for tok in CASES[name].split()] + ["--format", "csv"]
    m, fmt = SCALE_CASES[name]
    rng = np.random.default_rng(0)
    x = rng.standard_normal((m, 3))
    data = os.path.join(tmp, f"rows{m}.csv")
    _write_dataset(data, x, rng.standard_normal(x.shape[0]))
    return ["ntk-kernel", "--data", data, "--kind", "nngp", "--widths", "3,64,1", "--act", "relu", "--format", fmt]


def time_case(name: str, argv: list[str], runs: int, out: str) -> dict:
    cmd = [sys.executable, "-m", "dltl.cli", *argv, "--out", out]
    times, rss_kb = [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        stderr = proc.stderr.read()  # to EOF first, so a full pipe cannot stall the child
        _, status, usage = os.wait4(proc.pid, 0)
        times.append(time.perf_counter() - t0)
        proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        rss_kb.append(usage.ru_maxrss)
        if proc.returncode != 0:
            raise SystemExit(f"{name} exited {proc.returncode}: {stderr.strip()}")
    return {"case": name, "runs": runs, "median_s": round(statistics.median(times), 4),
            "min_s": round(min(times), 4), "max_s": round(max(times), 4),
            "max_rss_mb": round(max(rss_kb) / 1024.0, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Time the dltl CLI end to end on the golden flag sets.")
    parser.add_argument("--runs", type=int, default=5, help="fresh interpreters per case (default 5)")
    parser.add_argument("--case", action="extend", nargs="+", choices=sorted(CASES) + sorted(SCALE_CASES),
                        help="time only these cases (repeatable; default: every golden case)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        for name in args.case or sorted(CASES):
            argv = case_argv(name, paths, tmp)
            print(json.dumps(time_case(name, argv, args.runs, os.path.join(tmp, "out"))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
