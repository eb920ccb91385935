"""Compare the outputs of every benchmark operation between two source trees.

    python3 tools/op_fields.py TREE_A TREE_B [--workload W ...] [--seeds 0-15]

TREE_A and TREE_B are checkouts of this repository (a directory holding
src/dltl and perfbench/). For each tree, one fresh interpreter with
PYTHONPATH=TREE/src:TREE/perfbench and DLTL_THREADS=1 (BLAS on one thread)
builds each workload's operations with perfbench/workloads.py's `build`
for every seed, runs one pass over them in order, as the benchmark does, and
keeps each operation's reference fields (`Op.fields`) or the error it
raised. Nothing is timed, and perfbench/ is only read.

Every field is then compared with np.array_equal (nan equal to nan, lists
compared entry by entry). Prints one line per differing (workload, seed,
operation, field), then a summary line; exits 1 if any field differs.
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# Runs in the child interpreter: argv is OUT_FILE, then the seeds as one
# comma-separated list, then the workload names. dltl is imported before
# numpy so that DLTL_THREADS takes effect, as in perfbench/worker.py.
CHILD = """
import pickle, sys
import dltl
import workloads

out, seeds, names = sys.argv[1], [int(s) for s in sys.argv[2].split(",")], sys.argv[3:]
results = {}
for name in names:
    for seed in seeds:
        state, ops = {}, {}
        for op in workloads.build(name, seed):
            try:
                ops[op.name] = op.fields(op.call(state))
            except Exception as exc:
                ops[op.name] = {"<error>": f"{type(exc).__name__}: {exc}"}
        results[name, seed] = ops
with open(out, "wb") as fh:
    pickle.dump(results, fh)
"""

WORKLOADS = ("kernel-limit", "kernel-sampled", "theory-sweep")


def seed_range(text: str) -> list[int]:
    """'A-B' (inclusive) or a single seed."""
    lo, _, hi = text.partition("-")
    try:
        seeds = list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B or one seed, got {text!r}") from None
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"expected a nonempty range of seeds >= 0, got {text!r}")
    return seeds


def run_tree(tree: Path, workloads: list[str], seeds: list[int], out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "perfbench")]), DLTL_THREADS="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)  # DLTL_THREADS decides
    cmd = [sys.executable, "-c", CHILD, str(out), ",".join(map(str, seeds)), *workloads]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: exited {proc.returncode}: {proc.stderr.strip()}")
    with open(out, "rb") as fh:
        return pickle.load(fh)  # written by the child above


def same(a, b) -> bool:
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    try:
        return bool(np.array_equal(a, b, equal_nan=True))
    except TypeError:  # strings and objects have no nan
        return bool(np.array_equal(a, b))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare every benchmark operation's fields between two trees.")
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", action="extend", nargs="+", choices=WORKLOADS,
                        help="compare only these workloads (repeatable; default: all three)")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-15"),
                        help="input seeds, A-B inclusive or one seed (default 0-15)")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    with tempfile.TemporaryDirectory() as tmp:
        a = run_tree(args.tree_a.resolve(), names, args.seeds, Path(tmp, "a.pickle"))
        b = run_tree(args.tree_b.resolve(), names, args.seeds, Path(tmp, "b.pickle"))
    ops = differ = 0
    for (name, seed), ops_a in a.items():
        ops_b = b[name, seed]
        for op in sorted(set(ops_a) | set(ops_b)):
            ops += 1
            fields_a, fields_b = ops_a.get(op, {"<missing>": op}), ops_b.get(op, {"<missing>": op})
            for field in sorted(set(fields_a) | set(fields_b)):
                if field not in fields_a or field not in fields_b or not same(fields_a[field], fields_b[field]):
                    differ += 1
                    print(f"{name} seed {seed} {op} {field}: differs")
    print(f"{ops} operations ({len(names)} workloads x {len(args.seeds)} seeds): {differ} fields differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
