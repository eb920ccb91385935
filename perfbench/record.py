"""Record the reference outputs that every benchmark run is checked against.

    PYTHONPATH=src DLTL_THREADS=1 python3 perfbench/record.py

Runs two passes of every workload on each of the REFERENCE_SEEDS input
seeds and writes the summaries of the first pass to reference.json. The
second pass must match the first, and every oracle must hold, or nothing
is written. Record only from a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import sys

from worker import REFERENCE_FILE, Runner  # imports dltl before numpy
import checks
import workloads


def record() -> dict:
    doc: dict = {}
    for name in workloads.WORKLOADS:
        doc[name] = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            runner = Runner(workloads.build(name, seed), None)
            outputs = runner.run_pass().outputs
            refs = {op: {f: checks.summarize(v) for f, v in fields.items()} for op, fields in outputs.items()}
            runner.refs = refs
            runner.run_pass()
            if runner.failed:
                raise SystemExit(f"{name} seed {seed}: {runner.errors}")
            doc[name][str(seed)] = refs
            print(f"{name} seed {seed}: {len(refs)} operations", file=sys.stderr)
    return doc


if __name__ == "__main__":
    REFERENCE_FILE.write_text(json.dumps(record(), separators=(",", ":")) + "\n")
