"""Time per component kernel of dltl: one seeded call per named component.

    python3 tools/op_times.py [--runs N] [--case NAME ...] [--tree DIR]
    python3 tools/op_times.py --pair TREE_A TREE_B [--rounds K] [--runs N] [--case NAME ...]

Run it from any directory. The first form times the dltl of DIR/src (by
default this checkout) in this interpreter, with DLTL_THREADS=1 (BLAS on one
thread). Each case of CASES is built from fixed seeds and called once to
warm up and once more to pick how many calls make one run (at least RUN_S
of work), then timed over N runs. Every run is bracketed by perfbench/speed.py's
probe and rescaled by it, as the benchmark rescales its passes. The case's
time is per unit: one call, one Monte Carlo replicate, one network layer or
one pair's network layer, as its "per" field says. The hessian_vec.L1 and
hessian_vec.L3 cases time one Hessian-vector product of mc_scaling_check's
chain at depth 1 and 3, per call, through wick's private _hessian_vec.
mc_scaling_check.replicate runs the benchmark's chain, whose four factors
share one input and so one pass and one weight-gradient list per replicate,
read at both ends of the chain; mc_scaling_check.replicate_vec runs the
golden wick-mc spec, whose two inputs take two passes per replicate.
pair_kernels.relu and pair_kernels.tanh run the benchmark's two limiting_ntk
grams (120 ReLU and 32 tanh columns), per pair and network layer. Prints one
JSON line per case:
{"case", "per", "calls", "runs", "median_us", "min_us", "max_us"}.

The second form alternates two source trees, K rounds of one fresh
interpreter per tree (TREE_A first in even rounds, TREE_B first in odd
ones), and prints one JSON line per case: the per-round medians of each
tree, the median of those, b_over_a (median B / median A - 1) and the number
of rounds in which B was faster. K defaults to 10, the pair count a claimed
gain needs (faster in at least nine of ten): the host's speed drifts between
fresh interpreters more than the probe rescale removes, and 4 rounds have
shown a +10.8 % change that 10 rounds did not confirm.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# each run is at least this much work, so the timer's resolution does not matter
RUN_S = 0.02


def _forward_backward(width):
    """One forward and one backward pass at a width of mc_scaling_check."""
    import numpy as np

    from dltl.netcore import NetConfig, backward, forward, init_weights

    config = NetConfig((1, width, 1), "linear", parameterization="ntk")
    weights, x = init_weights(config, 1), np.array([1.1])

    def call():
        backward(config, weights, forward(config, weights, x), 0)

    return call, "call"


def _hessian_vec(depth):
    """One Hessian-vector product of mc_scaling_check's chain, from the
    pass at its input: a linear net of width 16 and the given depth, v the
    weight gradient at another input."""
    import numpy as np

    from dltl import wick
    from dltl.netcore import NetConfig, forward, init_weights, output_grads, weight_grads

    config = NetConfig((1,) + (16,) * depth + (1,), "linear", parameterization="ntk")
    weights = init_weights(config, 1)

    def pass_at(x):
        trace = forward(config, weights, np.array([x]))
        return trace.inputs, output_grads(config, weights, trace, 0)

    v, at = weight_grads(config, *pass_at(0.7)), pass_at(1.1)
    return (lambda: wick._hessian_vec(config, weights, v, *at)), "call"


def _mc_replicate():
    """mc_scaling_check on the benchmark's chain spec, per replicate: 20
    replicates at each of widths 8, 16, 32 (the call's exact diagram count
    and slope fit, about 5 % of it, are spread over the 60)."""
    import numpy as np

    from dltl import wick

    spec = wick.ContractionSpec(m=4, contractions=((1, 2), (2, 3), (3, 4)), inputs=(np.array([1.1]),) * 4)
    return (lambda: wick.mc_scaling_check(spec, 1, widths=[8, 16, 32], replicates=20, seed=5)), 60


def _mc_replicate_vec():
    """mc_scaling_check on the golden wick-mc spec, per replicate: two
    distinct 2-D inputs, a contracted pair and two points, so each replicate
    runs two forward and two backprop passes; 20 replicates at each of
    widths 4, 8, 16."""
    import numpy as np

    from dltl import wick

    x, y = np.array([1.0, 0.5]), np.array([0.3, -1.0])
    spec = wick.ContractionSpec(m=4, contractions=((1, 2),), inputs=(x, y, x, y))
    return (lambda: wick.mc_scaling_check(spec, 1, widths=[4, 8, 16], replicates=20, seed=2)), 60


def _tangent_gram():
    """The empirical NTK gram of the golden ntk-kernel-linear-empirical call."""
    import numpy as np

    from dltl import ntk
    from dltl.netcore import NetConfig, init_weights

    config = NetConfig((3, 6, 6, 1), "linear", parameterization="ntk")
    weights, x = init_weights(config, 23), np.random.default_rng(10).standard_normal((3, 4))
    return (lambda: ntk._tangent_gram(config, weights, x)), "call"


def _length_map(act):
    from dltl.meanfield import length_map
    from dltl.netcore import Activation

    act = Activation.parse(act)
    return (lambda: length_map(1.2, 1.5, act)), "call"


def _corr_map(act):
    from dltl.meanfield import corr_map
    from dltl.netcore import Activation

    act = Activation.parse(act)
    return (lambda: corr_map(0.3, 1.0, 1.2, 1.5, act)), "call"


def _nngp_recursion(act):
    """The NNGP/NTK pair recursion of a golden ntk-kernel net, per layer."""
    import numpy as np

    from dltl.ntk import nngp_recursion
    from dltl.netcore import NetConfig

    config = NetConfig((3, 16, 16, 1), act, parameterization="ntk", sigma_w2=1.5)
    x, x_prime = np.random.default_rng(10).standard_normal((2, 3))
    return (lambda: nngp_recursion(x, x_prime, config)), config.n_layers


def _pair_kernels(act, m, sigma_w2):
    """A limiting_ntk gram of kernel-limit, widths (10, 512, 512, 512, 1), per
    pair and layer: each of its m (m + 1) / 2 pairs runs the recursion
    through every layer."""
    import numpy as np

    from dltl.ntk import limiting_ntk
    from dltl.netcore import NetConfig

    config = NetConfig((10, 512, 512, 512, 1), act, parameterization="ntk", sigma_w2=sigma_w2)
    x = np.random.default_rng(10).standard_normal((10, m))
    return (lambda: limiting_ntk(x, config)), m * (m + 1) // 2 * config.n_layers


def _product_wishart():
    """The depth-2 product-Wishart curve at the CLI's default 2001 points."""
    from dltl.spectra import product_wishart_spectrum

    return (lambda: product_wishart_spectrum(2, points=2001)), "call"


def _exact_correlation():
    """The diagram sum of the golden wick-8x2 spec."""
    import numpy as np

    from dltl import wick

    spec = wick.ContractionSpec(m=8, contractions=(), inputs=(np.array([1.0]),) * 8)
    return (lambda: wick.exact_correlation(spec, 2)), "call"


# name -> zero-argument factory returning (call, per): per is "call" or the
# number of units one call holds
CASES = {
    "forward_backward.w8": lambda: _forward_backward(8),
    "forward_backward.w16": lambda: _forward_backward(16),
    "forward_backward.w32": lambda: _forward_backward(32),
    "hessian_vec.L1": lambda: _hessian_vec(1),
    "hessian_vec.L3": lambda: _hessian_vec(3),
    "mc_scaling_check.replicate": _mc_replicate,
    "mc_scaling_check.replicate_vec": _mc_replicate_vec,
    "tangent_gram": _tangent_gram,
    "length_map.relu": lambda: _length_map("relu"),
    "length_map.tanh": lambda: _length_map("tanh"),
    "corr_map.relu": lambda: _corr_map("relu"),
    "corr_map.tanh": lambda: _corr_map("tanh"),
    "nngp_recursion.relu": lambda: _nngp_recursion("relu"),
    "nngp_recursion.tanh": lambda: _nngp_recursion("tanh"),
    "pair_kernels.relu": lambda: _pair_kernels("relu", 120, 2.0),
    "pair_kernels.tanh": lambda: _pair_kernels("tanh", 32, 1.5),
    "product_wishart.depth2": _product_wishart,
    "exact_correlation.8x2": _exact_correlation,
}


def time_case(name: str, runs: int, probe, scale) -> dict:
    call, per = CASES[name]()
    units = 1 if per == "call" else per
    call()  # warm-up
    t0 = time.perf_counter()
    call()  # the size of one run
    calls = max(1, math.ceil(RUN_S / max(time.perf_counter() - t0, 1e-9)))
    times = []
    for _ in range(runs):
        before = probe()
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        wall = time.perf_counter() - t0
        times.append(scale(wall, before, probe()) / (calls * units) * 1e6)
    return {"case": name, "per": per, "calls": calls, "runs": runs,
            "median_us": round(statistics.median(times), 3),
            "min_us": round(min(times), 3), "max_us": round(max(times), 3)}


def measure(tree: Path, names: list[str], runs: int) -> None:
    """Time the dltl of tree/src in this interpreter; one JSON line per case."""
    os.environ["DLTL_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.pop(var, None)  # DLTL_THREADS decides
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import dltl  # noqa: F401  (before numpy, so that DLTL_THREADS takes effect)
    from speed import probe, scale

    for name in names:
        print(json.dumps(time_case(name, runs, probe, scale)), flush=True)


def paired(trees: list[Path], names: list[str], runs: int, rounds: int) -> None:
    medians = {name: ([], []) for name in names}
    for r in range(rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--tree", str(trees[side]),
                   "--runs", str(runs), "--case", *names]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{trees[side]}: exited {proc.returncode}: {proc.stderr.strip()}")
            for line in proc.stdout.splitlines():
                doc = json.loads(line)
                medians[doc["case"]][side].append(doc["median_us"])
    for name, (a, b) in medians.items():
        ma, mb = statistics.median(a), statistics.median(b)
        print(json.dumps({"case": name, "a": str(trees[0]), "b": str(trees[1]), "rounds": rounds,
                          "a_median_us": round(ma, 3), "b_median_us": round(mb, 3),
                          "b_over_a": round(mb / ma - 1.0, 4),
                          "b_lower_rounds": f"{sum(y < x for x, y in zip(a, b))}/{rounds}",
                          "a_us": a, "b_us": b}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Time dltl's component kernels, one seeded call each.")
    parser.add_argument("--runs", type=int, default=15, help="timed runs per case (default 15)")
    parser.add_argument("--case", action="extend", nargs="+", choices=sorted(CASES),
                        help="time only these cases (repeatable; default: every case)")
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout whose src/dltl is timed (default: this one)")
    parser.add_argument("--pair", type=Path, nargs=2, metavar=("TREE_A", "TREE_B"),
                        help="alternate fresh interpreters on two checkouts")
    parser.add_argument("--rounds", type=int, default=10, help="rounds of --pair (default 10)")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.rounds < 1:
        parser.error("--runs and --rounds must be at least 1")
    names = args.case or list(CASES)
    if args.pair:
        paired([tree.resolve() for tree in args.pair], names, args.runs, args.rounds)
    else:
        measure(args.tree.resolve(), names, args.runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
