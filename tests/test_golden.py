"""Golden outputs of every subcommand.

Each flag set below runs through cli.main in-process, once with --format
csv and once with --format json, and must reproduce its file under
tests/golden byte for byte (the --mc-out side table too). Input files are
written fresh from fixed seeds for every run.

The golden files are written by this module's main block:

    PYTHONPATH=src python tests/test_golden.py

Regenerate them only from a commit whose output is trusted: numpy's SIMD
tanh and exp can move last bits from one CPU to another, so a regenerated
file can hide a change instead of showing it.
"""

import csv
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dltl.cli import main
from dltl.netcore import NetConfig, init_weights, save_weights

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("csv", "json")


def _write_dataset(path, x, y):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["y"] + [f"x{i}" for i in range(1, x.shape[1] + 1)])
        for xi, yi in zip(x, y):
            writer.writerow([repr(float(yi))] + [repr(float(v)) for v in xi])


def _save_net(path, widths, activation, seed, **kwargs):
    config = NetConfig(widths=widths, activation=activation, **kwargs)
    save_weights(path, config, init_weights(config, seed=seed))


def write_inputs(root: Path) -> dict[str, str]:
    """Seeded datasets, weight files and contraction specs; name -> path."""
    paths = {}

    def dataset(name, seed, m, d, signed=False):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, d))
        y = rng.standard_normal(m)
        if signed:
            y = np.where(y > 0, 1.0, -1.0)
        paths[name] = str(root / f"{name}.csv")
        _write_dataset(paths[name], x, y)

    def net(name, widths, activation, seed, **kwargs):
        paths[name] = str(root / f"{name}.json")
        _save_net(paths[name], widths, activation, seed, **kwargs)

    def spec(name, doc):
        paths[name] = str(root / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")

    dataset("data", 10, 4, 3)
    dataset("query", 12, 3, 3)
    dataset("signed", 11, 12, 4, signed=True)
    dataset("path_data", 13, 5, 6)
    net("net_a", (6, 8, 4, 1), "linear", 11)
    net("net_b", (6, 8, 4, 1), "linear", 12)
    net("ntk_relu", (3, 8, 1), "relu", 21, parameterization="ntk", sigma_w2=2.0)
    net("ntk_tanh", (3, 8, 8, 1), "tanh", 22, parameterization="ntk", sigma_w2=1.5)
    net("ntk_linear", (3, 6, 6, 1), "linear", 23, parameterization="ntk", sigma_w2=1.0)
    net("u0_net", (3, 5, 1), "relu", 24)
    net("bounds_net", (4, 6, 1), "relu", 30)
    spec("spec", {"m": 4, "depth": 1, "contractions": [], "inputs": [[1.2]] * 4})
    spec("spec_deep", {"m": 6, "depth": 2, "contractions": [[1, 2], [3, 4]], "inputs": [[0.7]] * 6})
    spec("spec_8x2", {"m": 8, "depth": 2, "inputs": [[1.0]] * 8})
    spec("spec_vec", {"m": 4, "depth": 1, "contractions": [[1, 2]],
                      "inputs": [[1.0, 0.5], [0.3, -1.0], [1.0, 0.5], [0.3, -1.0]]})
    paths["mc_out"] = str(root / "mc_out.csv")
    return paths


# name -> argv; {key} is replaced by the input file of that name
CASES = {
    "phase-relu": "phase --act relu --sigma-w2 1:3:0.5",
    "phase-tanh": "phase --act tanh --sigma-w2 0.5:2:0.5 --q0 0.5",
    "phase-leaky": "phase --act leaky_relu:0.2 --sigma-w2 1:3:0.5",
    "lengthmap-tanh": "lengthmap --act tanh --sigma-w2 1.5 --depth 6",
    "lengthmap-leaky": "lengthmap --act leaky_relu:0.1 --sigma-w2 1.8 --q0 2 --depth 4",
    "spectrum-analytic": "spectrum --analytic --depth 2 --points 41",
    "spectrum-empirical": "spectrum --empirical --width 8 --replicates 3 --bins 6 --seed 7",
    "spectrum-empirical-tanh": "spectrum --empirical --width 8 --replicates 3 --bins 6 --seed 7 --act tanh",
    "spectrum-empirical-leaky": (
        "spectrum --empirical --width 8 --replicates 3 --bins 6 --seed 7 --act leaky_relu:0.2"
    ),
    "spectrum-empirical-orthogonal": (
        "spectrum --empirical --width 8 --replicates 3 --bins 6 --seed 7 --init orthogonal"
    ),
    "spectrum-empirical-orthogonal-deep": (
        "spectrum --empirical --width 8 --replicates 3 --bins 6 --seed 7 --init orthogonal --depth 3 --sigma-w2 2"
    ),
    "lindyn": "lindyn --depth 2 --svals 1.0,0.7 --max-steps 2000 --seed 3",
    "path": "path --weights-a {net_a} --weights-b {net_b} --data {path_data} --grid-points 8",
    "ntk-kernel-relu-limiting": "ntk-kernel --data {data} --widths 3,16,16,1 --act relu --sigma-w2 2",
    "ntk-kernel-tanh-limiting": "ntk-kernel --data {data} --widths 3,16,16,1 --act tanh --sigma-w2 1.5",
    "ntk-kernel-tanh-nngp": "ntk-kernel --data {data} --kind nngp --widths 3,16,1 --act tanh --sigma-w2 1.2",
    "ntk-kernel-leaky-limiting": (
        "ntk-kernel --data {data} --widths 3,16,16,1 --act leaky_relu:0.2 --sigma-w2 1.7"
    ),
    "ntk-kernel-leaky-nngp": "ntk-kernel --data {data} --kind nngp --widths 3,16,16,1 --act leaky_relu:0.2",
    "ntk-kernel-linear-limiting": "ntk-kernel --data {data} --widths 3,16,16,1 --act linear --sigma-w2 1",
    "ntk-kernel-linear-empirical": "ntk-kernel --data {data} --kind empirical --weights {ntk_linear}",
    "ntk-train-limiting": "ntk-train --weights {ntk_relu} --data {data} --query {query} --times 0,1,inf",
    "ntk-train-tanh-limiting": "ntk-train --weights {ntk_tanh} --data {data} --query {query} --times 0.5,inf",
    "ntk-train-times": (
        "ntk-train --weights {ntk_relu} --data {data} --query {query} --times 0,0.25,0.5,1,2,5,10,inf"
    ),
    "ntk-train-tanh-times": (
        "ntk-train --weights {ntk_tanh} --data {data} --query {query} --times 0,0.25,0.5,1,2,5,10,inf"
    ),
    "ntk-train-empirical": "ntk-train --weights {ntk_relu} --data {data} --kernel empirical --times 0,2,inf",
    "ntk-train-last-layer": "ntk-train --weights {ntk_relu} --data {data} --query {query} --kernel last-layer",
    "du-monitor": "du-monitor --dim 3 --train-size 4 --n 32 --eta 0.5 --t-max 2 --seed 5",
    "align": "align --data {data} --points 16",
    "align-mc-u0": "align --data {data} --points 8 --method mc --mc-samples 2000 --u0-weights {u0_net} --seed 4",
    "wick": "wick --spec {spec}",
    "wick-deep": "wick --spec {spec_deep}",
    "wick-8x2": "wick --spec {spec_8x2}",
    "wick-mc": "wick --spec {spec_vec} --mc --widths 4,8,16 --replicates 30 --seed 2 --mc-out {mc_out}",
    "bounds": "bounds --weights {bounds_net} --data {signed} --replicates 20 --seed 9",
}


def run_case(name: str, fmt: str, paths: dict[str, str], out: str) -> dict[str, bytes]:
    """Run one flag set; golden file name -> the bytes it produced."""
    argv = [tok.format(**paths) for tok in CASES[name].split()]
    code = main(argv + ["--format", fmt, "--out", out])
    assert code == 0, f"{name} exited {code}"
    files = {f"{name}.{fmt}": Path(out).read_bytes()}
    if "--mc-out" in argv:
        files[f"{name}.{fmt}.mc-out.csv"] = Path(paths["mc_out"]).read_bytes()
        os.remove(paths["mc_out"])
    return files


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden_inputs"))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, fmt, inputs, tmp_path):
    for golden, got in run_case(name, fmt, inputs, str(tmp_path / "out")).items():
        assert got == (GOLDEN / golden).read_bytes(), f"{golden} differs"


def test_every_subcommand_is_covered():
    from dltl.cli import build_parser

    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert {argv.split()[0] for argv in CASES.values()} == set(subparsers)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        for name in sorted(CASES):
            for fmt in FORMATS:
                for golden, data in run_case(name, fmt, paths, os.path.join(tmp, "out")).items():
                    (GOLDEN / golden).write_bytes(data)
    sys.exit(0)
