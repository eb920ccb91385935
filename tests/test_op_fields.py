"""Smoke test of tools/op_fields.py: the tree against itself, one workload,
one seed, in two fresh interpreters."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "op_fields.py"


def test_tree_equals_itself():
    argv = [str(ROOT), str(ROOT), "--workload", "theory-sweep", "--seeds", "3"]
    proc = subprocess.run([sys.executable, str(TOOL), *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["16 operations (1 workloads x 1 seeds): 0 fields differ"]
