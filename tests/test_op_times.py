"""Smoke test of tools/op_times.py: one component case, one run, alone and
paired against the same checkout."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "op_times.py"


def test_times_one_case_once():
    proc = subprocess.run([sys.executable, str(TOOL), "--runs", "1", "--case", "forward_backward.w8"],
                          capture_output=True, text=True, check=True)
    (line,) = proc.stdout.splitlines()
    doc = json.loads(line)
    assert (doc["case"], doc["per"], doc["runs"]) == ("forward_backward.w8", "call", 1)
    assert doc["calls"] >= 1
    assert 0 < doc["min_us"] == doc["median_us"] == doc["max_us"]


def test_times_the_hessian_vector_products_per_call():
    proc = subprocess.run([sys.executable, str(TOOL), "--runs", "1", "--case", "hessian_vec.L1", "hessian_vec.L3"],
                          capture_output=True, text=True, check=True)
    docs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(d["case"], d["per"]) for d in docs] == [("hessian_vec.L1", "call"), ("hessian_vec.L3", "call")]
    assert all(d["median_us"] > 0 for d in docs)


def test_pairs_two_trees():
    proc = subprocess.run([sys.executable, str(TOOL), "--pair", str(ROOT), str(ROOT), "--rounds", "2",
                           "--runs", "1", "--case", "nngp_recursion.relu"],
                          capture_output=True, text=True, check=True)
    (line,) = proc.stdout.splitlines()
    doc = json.loads(line)
    assert (doc["case"], doc["rounds"]) == ("nngp_recursion.relu", 2)
    assert len(doc["a_us"]) == len(doc["b_us"]) == 2 and all(t > 0 for t in doc["a_us"] + doc["b_us"])
    assert doc["b_lower_rounds"] in ("0/2", "1/2", "2/2")


def test_times_both_monte_carlo_replicates():
    """The shared-pass chain (one input) and the golden wick-mc spec (two
    inputs), each per replicate: 20 at each of three widths."""
    proc = subprocess.run([sys.executable, str(TOOL), "--runs", "1", "--case", "mc_scaling_check.replicate",
                           "mc_scaling_check.replicate_vec"], capture_output=True, text=True, check=True)
    docs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(d["case"], d["per"]) for d in docs] == [("mc_scaling_check.replicate", 60),
                                                     ("mc_scaling_check.replicate_vec", 60)]
    assert all(d["median_us"] > 0 for d in docs)


def test_times_the_limit_grams_per_pair_and_layer():
    """kernel-limit's two limiting_ntk grams: 120 ReLU columns make 7,260
    pairs and 32 tanh columns 528, each through the 4 layers of
    (10, 512, 512, 512, 1)."""
    proc = subprocess.run([sys.executable, str(TOOL), "--runs", "1", "--case", "pair_kernels.relu",
                           "pair_kernels.tanh"], capture_output=True, text=True, check=True)
    docs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(d["case"], d["per"]) for d in docs] == [("pair_kernels.relu", 7260 * 4), ("pair_kernels.tanh", 528 * 4)]
    assert all(d["median_us"] > 0 for d in docs)
