"""Every benchmark operation still matches its recorded reference.

One checked pass per workload at one reference seed, through the
benchmark's own runner: a change that moves an operation's output past the
reference tolerance, or makes it raise, fails here before a benchmark run.
Only reads perfbench/.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_matches_the_references(name):
    ops = workloads.build(name, SEED)
    runner = worker.Runner(ops, worker.load_refs(name, SEED))
    runner.run_pass()
    assert runner.failed == 0, runner.errors
    assert runner.attempted == len(ops)
