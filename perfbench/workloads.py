"""The benchmark's workloads: seeded inputs and a fixed list of operations.

Each workload is one closed loop: a single caller runs its operations one
at a time, each a call into a layer's public functions. `inputs(name,
seed)` draws every input from the seed; `build(name, seed)` returns the
operation list over those inputs. The list and the input sizes do not
depend on the seed, only the input values do, so a pass costs the same
work on every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from checks import CheckFailed, close

# Layers whose public functions are traced, and the two that are listed
# but not timed until they import again.
LAYERS = ("netcore", "meanfield", "ntk", "wick", "lindyn", "landscape", "genbounds")
ALL_MODULES = LAYERS + ("spectra", "cli")

# Work counts computed from the inputs and outputs, reported per pass.
COUNTS = ("ntk.pairs", "netcore.feature_bytes", "wick.diagrams", "lindyn.gd_steps", "genbounds.dr_steps")

# Inputs come from seed % REFERENCE_SEEDS, so every run has recorded
# reference outputs to be checked against.
REFERENCE_SEEDS = 16

# The frozen Dziugaite-Roy toy problem of tests/test_genbounds.py.
DR_FROZEN_BOUND = 1.1010605836853613


@dataclass
class Op:
    """One timed call. `call(state)` may read results of earlier operations
    of the pass from `state`; `fields` reduces the result to reference
    quantities; `oracle` raises CheckFailed when an analytic property
    fails; `counts` gives the computed work counts of one call."""

    name: str
    call: Callable[[dict], object]
    fields: Callable[[object], dict]
    oracle: Callable[[object], None] | None = None
    counts: Callable[[object], dict] = field(default=lambda result: {})


@dataclass(frozen=True)
class Workload:
    name: str
    modules: tuple[str, ...]   # the dltl modules it imports (timed as setup_s)
    inputs: Callable[[np.random.Generator], dict]
    ops: Callable[[dict], list[Op]]


def _keep(state: dict, key: str, value):
    """Store a result for later operations of the same pass."""
    state[key] = value
    return value


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _pairs(rng, m: int, k: int = 3) -> list[tuple[int, int]]:
    return [tuple(int(v) for v in rng.integers(0, m, size=2)) for _ in range(k)]


def _square(m: int) -> int:
    return m * (m + 1) // 2


def _gram_entry_oracle(x, config, pairs, value_of: str):
    """Sampled gram entries must equal the per-pair recursion."""

    def oracle(gram):
        from dltl import ntk

        g = gram.matrix
        for i, j in pairs:
            # grams evaluate the pair with i <= j; at 64 Gauss-Hermite nodes
            # the tanh recursion is not symmetric in its arguments
            i, j = min(i, j), max(i, j)
            state = ntk.nngp_recursion(x[:, i], x[:, j], config)
            want = state.ntk_value() if value_of == "ntk" else state.nngp_value()
            close(g[i, j], want, math.sqrt(g[i, i] * g[j, j]), f"entry ({i}, {j})")

    return oracle


def _interpolates(f_lin, y, n_back: int) -> None:
    """At t = inf the query columns that are train points get their labels."""
    scale = float(np.linalg.norm(y))
    for got, want in zip(f_lin[-n_back:], y[:n_back]):
        close(got, want, scale, "interpolated train label")


def _train_query(rng, n0: int, m: int, n_new: int, n_back: int):
    """Train columns, labels, and query columns ending in n_back train points."""
    x_train = rng.standard_normal((n0, m))
    y = rng.standard_normal(m)
    x_query = np.concatenate([rng.standard_normal((n0, n_new)), x_train[:, :n_back]], axis=1)
    return x_train, y, x_query


# -- kernel-limit ----------------------------------------------------------
# Analytic infinite-width kernels: the per-pair NNGP/NTK recursion (closed
# form for ReLU, Gauss-Hermite for tanh) takes most of the pass.


def _kernel_limit_inputs(rng) -> dict:
    from dltl.netcore import NetConfig, init_weights

    relu = NetConfig((10, 512, 512, 512, 1), "relu", parameterization="ntk", sigma_w2=2.0)
    tanh = NetConfig((10, 512, 512, 512, 1), "tanh", parameterization="ntk", sigma_w2=1.5)
    x_train, y, x_query = _train_query(rng, 10, 40, 12, 4)
    return {
        "relu": relu,
        "tanh": tanh,
        "x_relu": rng.standard_normal((10, 120)),
        "x_tanh": rng.standard_normal((10, 32)),
        "x_train": x_train,
        "y": y,
        "x_query": x_query,
        "n_back": 4,
        "weights": init_weights(relu, seed=_seed(rng)),
        "pairs_relu": _pairs(rng, 120),
        "pairs_tanh": _pairs(rng, 32),
        "pairs_train": _pairs(rng, 40),
    }


def _kernel_limit_ops(inp: dict) -> list[Op]:
    from dltl import ntk

    relu, tanh, x_train, y, x_query = inp["relu"], inp["tanh"], inp["x_train"], inp["y"], inp["x_query"]
    m, mq, n_back = x_train.shape[1], x_query.shape[1], inp["n_back"]
    train_pairs = mq * m + _square(m) + _square(mq)

    def gram_op(name, call, x, config, pairs, value_of):
        return Op(
            name,
            call,
            lambda g: {"gram": g.matrix},
            _gram_entry_oracle(x, config, pairs, value_of),
            lambda g: {"ntk.pairs": _square(x.shape[1])},
        )

    def posterior_oracle(result):
        mean, cov = result
        scale = float(np.max(np.abs(cov)))
        for i in range(mq - n_back, mq):
            close(cov[i, i], 0.0, scale, "posterior variance at a train point")
        _interpolates(mean, y, n_back)

    ops = [
        gram_op("limiting_ntk.relu", lambda s: ntk.limiting_ntk(inp["x_relu"], relu),
                inp["x_relu"], relu, inp["pairs_relu"], "ntk"),
        gram_op("limiting_ntk.tanh", lambda s: ntk.limiting_ntk(inp["x_tanh"], tanh),
                inp["x_tanh"], tanh, inp["pairs_tanh"], "ntk"),
        gram_op("nngp_gram.relu", lambda s: ntk.nngp_gram(x_train, relu),
                x_train, relu, inp["pairs_train"], "nngp"),
        Op(
            "linearize.limiting",
            lambda s: _keep(s, "sol", ntk.linearize(relu, inp["weights"], x_train, y, eta=1.0)),
            lambda sol: {"eigvals": sol.eigvals, "f0_train": sol.f0_train},
            None,
            lambda sol: {"ntk.pairs": _square(m)},
        ),
    ]
    for t in (1.0, 10.0, math.inf):
        ops.append(
            Op(
                f"linearized_train.t={t}",
                lambda s, t=t: ntk.linearized_train(s["sol"], x_query, t),
                lambda p: {"f_lin": p.f_lin, "gp_mean": p.gp_mean, "gp_cov": p.gp_cov},
                (lambda p: _interpolates(p.f_lin, y, n_back)) if math.isinf(t) else None,
                lambda p: {"ntk.pairs": train_pairs},
            )
        )
    ops.append(
        Op(
            "bayes_posterior",
            lambda s: ntk.bayes_posterior(None, x_train, y, x_query, relu),
            lambda r: {"mean": r[0], "cov": r[1]},
            posterior_oracle,
            lambda r: {"ntk.pairs": train_pairs},
        )
    )
    return ops


# -- kernel-sampled --------------------------------------------------------
# Finite-width networks: single-example forward/backward passes in netcore
# (empirical NTK features, Monte Carlo replicates) take most of the pass;
# the kernel recursion is never called. The (m k) x P feature matrix of the
# m = 200 empirical NTK sets peak memory.


def _kernel_sampled_inputs(rng) -> dict:
    from dltl import wick
    from dltl.netcore import NetConfig, init_weights

    relu = NetConfig((10, 256, 256, 256, 1), "relu", parameterization="ntk", sigma_w2=2.0)
    x_train, y, x_query = _train_query(rng, 10, 40, 12, 4)
    du_x = rng.standard_normal((10, 20))
    return {
        "relu": relu,
        "weights": init_weights(relu, seed=_seed(rng)),
        "x_big": rng.standard_normal((10, 200)),
        "x_train": x_train,
        "y": y,
        "x_query": x_query,
        "n_back": 4,
        "chain": wick.ContractionSpec(
            m=4, contractions=((1, 2), (2, 3), (3, 4)), inputs=(np.array([rng.uniform(0.8, 1.4)]),) * 4
        ),
        "mc_seed": _seed(rng),
        "moments_cfg": NetConfig((10, 256, 256, 256, 1), "tanh", sigma_w2=1.5),
        "moments_x": rng.standard_normal(10),
        "moments_seed": _seed(rng),
        "du_x": du_x / np.linalg.norm(du_x, axis=0),
        "du_y": rng.uniform(-0.8, 0.8, size=20),
        "du_seed": _seed(rng),
    }


def _kernel_sampled_ops(inp: dict) -> list[Op]:
    from dltl import meanfield, ntk, wick

    relu, weights, x_train, y, x_query = inp["relu"], inp["weights"], inp["x_train"], inp["y"], inp["x_query"]
    n_params = sum(w.size for w in weights)
    n_back = inp["n_back"]

    def feature_bytes(rows: int) -> dict:
        return {"netcore.feature_bytes": rows * n_params * 8}

    def mc_oracle(rep):
        for mean, se, exact in zip(rep.means, rep.std_errs, rep.exacts):
            if not abs(mean - exact) <= 4.0 * se:
                raise CheckFailed(f"Monte Carlo mean {mean:.6g} is {abs(mean - exact) / se:.1f} SE off {exact:.6g}")

    def du_oracle(traj):
        if not traj.loss[-1] < traj.loss[0]:
            raise CheckFailed("gradient descent did not reduce the loss")

    ops = [
        Op(
            "empirical_ntk",
            lambda s: ntk.empirical_ntk(relu, weights, inp["x_big"]),
            lambda g: {"gram": g.matrix},
            None,
            lambda g: feature_bytes(inp["x_big"].shape[1]),
        ),
        Op(
            "linearize.empirical",
            lambda s: _keep(s, "sol", ntk.linearize(relu, weights, x_train, y, eta=1.0, kernel="empirical")),
            lambda sol: {"eigvals": sol.eigvals, "f0_train": sol.f0_train},
            None,
            lambda sol: feature_bytes(x_train.shape[1]),
        ),
    ]
    for t in (10.0, math.inf):
        ops.append(
            Op(
                f"linearized_train.t={t}",
                lambda s, t=t: ntk.linearized_train(s["sol"], x_query, t),
                lambda p: {"f_lin": p.f_lin},
                (lambda p: _interpolates(p.f_lin, y, n_back)) if math.isinf(t) else None,
                lambda p: feature_bytes(x_train.shape[1] + x_query.shape[1]),
            )
        )
    ops += [
        Op(
            "mc_scaling_check.chain",
            lambda s: wick.mc_scaling_check(inp["chain"], 1, widths=[8, 16, 32], replicates=600, seed=inp["mc_seed"]),
            lambda r: {"means": r.means, "std_errs": r.std_errs, "exacts": r.exacts},
            mc_oracle,
        ),
        Op(
            "simulate_moments",
            lambda s: meanfield.simulate_moments(
                inp["moments_cfg"], inp["moments_x"], replicates=60, seed=inp["moments_seed"]
            ),
            lambda r: {"q": r.q, "delta": r.delta, "q_se": r.q_se},
        ),
        Op(
            "du_convergence_monitor",
            lambda s: ntk.du_convergence_monitor(inp["du_x"], inp["du_y"], n=1024, eta=0.5, T=10.0, seed=inp["du_seed"]),
            lambda r: {"loss": r.loss, "lambda_min_h": r.lambda_min_h, "h_drift": r.h_drift},
            du_oracle,
        ),
    ]
    return ops


# -- theory-sweep ----------------------------------------------------------
# Many small scalar calls across every timed layer, the way a parameter
# sweep makes them, plus grams of at most 8 inputs. Per-call overhead shows
# here, and so does setup_s. Costs must not move with the seed: the
# sigma_w^2 grid is fixed and stays clear of the tanh edge at 1, where the
# fixed-point iteration slows down, and the GD targets lie in a narrow band.


def _theory_sweep_inputs(rng) -> dict:
    from dltl import genbounds, wick
    from dltl.netcore import Activation, NetConfig, init_weights

    x_scalar = np.array([rng.uniform(0.8, 1.4)])
    vecs = rng.standard_normal((2, 3))
    path_cfg = NetConfig((6, 8, 4, 1), "linear")
    toy_x = np.random.default_rng(0).standard_normal((20, 3))
    dr_x = rng.standard_normal((40, 5))
    dr_y = np.sign(dr_x @ rng.standard_normal(5))
    dr_y[dr_y == 0] = 1.0
    bound_cfg = NetConfig((5, 32, 32, 1), "relu")
    h_x = rng.standard_normal((5, 8))

    def prior(dim):
        return genbounds.GaussianPosterior(
            mean=np.zeros(dim), log_var=-3.0 * np.ones(dim), prior_mean=np.zeros(dim), prior_log_var=-3.0
        )

    return {
        "acts": {k: Activation(k) for k in ("tanh", "relu", "linear")},
        "tanh_grid": np.concatenate([np.linspace(0.5, 0.9, 20), np.linspace(1.2, 4.0, 40)]),
        "tanh_q0": rng.uniform(0.5, 2.0, size=10),
        "homog_grid": np.sort(rng.uniform(0.2, 4.0, size=40)),
        "edge_q0": rng.uniform(0.5, 2.0, size=3),
        "cs": np.sort(rng.uniform(-1.0, 1.0, size=32)),
        "qs": rng.uniform(0.5, 2.0, size=(6, 2)),
        "modes": [
            (float(rng.uniform(0.005, 0.02)), float(rng.uniform(0.9, 0.97)), float(rng.uniform(1.0, 1.5)), L)
            for L in (1, 2, 3, 4, 6, 8, 12, 16)
            for _ in range(4)
        ],
        "gd_runs": [
            (width, L, eta, np.sort(rng.uniform(1.0, 1.1, size=3))[::-1], _seed(rng))
            for width, L, eta in ((16, 3, 0.03), (16, 2, 0.03), (12, 4, 0.03))
        ],
        "specs": [
            (wick.ContractionSpec(m=8, inputs=(x_scalar,) * 8), 1),
            (wick.ContractionSpec(m=6, inputs=(x_scalar,) * 6), 2),
            (wick.ContractionSpec(m=6, contractions=((1, 2), (3, 4)), inputs=(x_scalar,) * 6), 2),
            (wick.ContractionSpec(m=6, contractions=((1, 2),), inputs=(vecs[0], vecs[1]) * 3), 1),
        ],
        "path_cfg": path_cfg,
        "path_wa": init_weights(path_cfg, seed=_seed(rng)),
        "path_wb": init_weights(path_cfg, seed=_seed(rng)),
        "path_x": rng.standard_normal((6, 5)),
        "path_y": rng.standard_normal(5),
        "path_sign": np.where(rng.standard_normal(5) >= 0, 1.0, -1.0),
        "toy_post": prior(3),
        "toy_data": (toy_x, np.sign(toy_x @ np.array([1.0, -0.5, 0.25]))),
        "dr_post": prior(5),
        "dr_data": (dr_x, dr_y),
        "bound_cfg": bound_cfg,
        "bound_w": init_weights(bound_cfg, seed=_seed(rng)),
        "bound_data": (rng.standard_normal((64, 5)), np.where(rng.standard_normal(64) >= 0, 1.0, -1.0)),
        "small_tanh": NetConfig((5, 64, 64, 1), "tanh", parameterization="ntk", sigma_w2=1.5),
        "small_relu": NetConfig((5, 64, 64, 1), "relu", parameterization="ntk", sigma_w2=2.0),
        "x_small": rng.standard_normal((5, 8)),
        "h_x": h_x / np.linalg.norm(h_x, axis=0),
        "h_y": rng.uniform(-0.8, 0.8, size=8),
        "h_u0": 0.1 * rng.standard_normal(8),
    }


def _theory_sweep_ops(inp: dict) -> list[Op]:
    from dltl import genbounds, landscape, lindyn, meanfield, ntk, wick

    acts = inp["acts"]

    def phases(act, grid, q0s):
        return lambda s: [meanfield.phase_classify(float(sw), acts[act], q0=float(q0)) for q0 in q0s for sw in grid]

    def phase_fields(points, finite_q=True):
        # labels as one letter each: ordered, chaotic, edge
        out = {"phase": "".join(p.phase[0] for p in points), "chi1": [p.chi1 for p in points]}
        if finite_q:
            out["q_inf"] = [p.q_inf for p in points]
        return out

    def maps(act):
        return lambda s: [
            (meanfield.corr_map(float(c), q1, q2, 1.5, acts[act]), meanfield.chi_map(float(c), q1, q2, 1.5, acts[act]))
            for q1, q2 in inp["qs"]
            for c in inp["cs"]
        ]

    def mode_times(s):
        out = []
        for u0, uf, sv, L in inp["modes"]:
            sched = lindyn.opt_schedule(u0, uf, sv, L)
            out.append((sched, lindyn.mode_time(u0, uf, sv, sched.eta_opt, L)))
        return out

    def gd(s):
        return [
            lindyn.simulate_deep_linear_gd(width, L, svals, eta=eta, seed=seed)
            for width, L, eta, svals, seed in inp["gd_runs"]
        ]

    def wick_fields(counts):
        return {
            "terms": [[t.power_of_inv_n, t.coefficient, repr(t.monomial)] for c in counts for t in c.terms],
            "values": [c.evaluate(16) for c in counts],
        }

    def path(y, loss):
        return lambda s: landscape.constant_loss_path(
            inp["path_cfg"], inp["path_wa"], inp["path_wb"], inp["path_x"], y, loss=loss
        )

    def path_oracle(trace):
        if not trace.max_rise() <= 1e-6 or not trace.meeting_loss < 1e-6:
            raise CheckFailed("path rises or misses epsilon")

    def path_fields(trace):
        return {
            "segments": [seg.name for seg in trace.segments],
            "losses": np.concatenate([seg.losses for seg in trace.segments]),
        }

    def dr(post, data):
        return lambda s: genbounds.dziugaite_roy_optimize(post, data, b=100.0, c=0.1, delta=0.05, steps=150)

    def dr_fields(rep):
        d = rep.details
        return {"bound": rep.bound, "j_star": d["j_star"], "steps_taken": d["steps_taken"], "kl": d["kl"]}

    def dr_frozen_oracle(rep):
        close(rep.bound, DR_FROZEN_BOUND, DR_FROZEN_BOUND, "frozen Dziugaite-Roy bound")

    def dr_steps(rep):
        return {"genbounds.dr_steps": rep.details["steps_taken"]}

    def norm_bounds(s):
        w, (x, y) = inp["bound_w"], inp["bound_data"]
        stats = genbounds.margin_stats(w, inp["bound_cfg"], (x, y), gamma=0.1)
        profile = genbounds.norm_profile(w)
        bart = genbounds.bartlett_bound(profile, float(np.linalg.norm(x)), 0.1, 50_000, 0.05, margin_risk=stats.hard_risk)
        ney = genbounds.neyshabur_bound(w, 0.1, 3.0, 50_000, 0.05, margin_stats=stats)
        return stats, bart, ney

    def h_align(s):
        h = ntk.h_infinity_gram(inp["h_x"])
        return h, ntk.alignment(h, inp["h_y"], inp["h_u0"], points=64)

    return [
        Op("phase_classify.tanh", phases("tanh", inp["tanh_grid"], inp["tanh_q0"]), phase_fields),
        Op("phase_classify.relu", phases("relu", inp["homog_grid"], inp["edge_q0"]),
           lambda r: phase_fields(r, finite_q=False)),
        Op("phase_classify.linear", phases("linear", inp["homog_grid"], inp["edge_q0"]),
           lambda r: phase_fields(r, finite_q=False)),
        Op(
            "edge_of_chaos.tanh",
            lambda s: [meanfield.edge_of_chaos(acts["tanh"], q0=float(q0)) for q0 in inp["edge_q0"]],
            lambda r: {"sigma_w2": r},
        ),
        Op("corr_chi_maps.tanh", maps("tanh"), lambda r: {"values": np.asarray(r)}),
        Op("corr_chi_maps.relu", maps("relu"), lambda r: {"values": np.asarray(r)}),
        Op(
            "mode_time",
            mode_times,
            lambda r: {
                "eta_opt": [s.eta_opt for s, _ in r],
                "t_opt": [s.t_opt for s, _ in r],
                "t_formula": [t.t_formula for _, t in r],
                "t_rk4": [t.t_rk4 for _, t in r],
            },
        ),
        Op(
            "simulate_deep_linear_gd",
            gd,
            lambda r: {
                "steps_to_tol": [g.steps_to_tol for g in r],
                "losses": np.concatenate([g.losses for g in r]),
                "u_final": np.concatenate([g.u[-1] for g in r]),
            },
            None,
            lambda r: {"lindyn.gd_steps": sum(g.steps_to_tol for g in r)},
        ),
        Op(
            "exact_correlation",
            lambda s: [wick.exact_correlation(spec, L) for spec, L in inp["specs"]],
            wick_fields,
            None,
            lambda r: {"wick.diagrams": sum(len(c.diagrams) for c in r)},
        ),
        Op("constant_loss_path.square", path(inp["path_y"], "square"), path_fields, path_oracle),
        Op("constant_loss_path.logistic", path(inp["path_sign"], "logistic"), path_fields, path_oracle),
        Op("dziugaite_roy.frozen", dr(inp["toy_post"], inp["toy_data"]), dr_fields, dr_frozen_oracle, dr_steps),
        Op("dziugaite_roy.seeded", dr(inp["dr_post"], inp["dr_data"]), dr_fields, None, dr_steps),
        Op(
            "norm_bounds",
            norm_bounds,
            lambda r: {"hard_risk": r[0].hard_risk, "bartlett": r[1].bound, "neyshabur": r[2].bound},
        ),
        Op(
            "tiny_grams",
            lambda s: (ntk.limiting_ntk(inp["x_small"], inp["small_tanh"]), ntk.nngp_gram(inp["x_small"], inp["small_relu"])),
            lambda r: {"ntk_tanh": r[0].matrix, "nngp_relu": r[1].matrix},
            None,
            lambda r: {"ntk.pairs": 2 * _square(inp["x_small"].shape[1])},
        ),
        Op("h_infinity_alignment", h_align, lambda r: {"h": r[0].matrix, "curve": r[1].curve}),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kernel-limit", ("ntk",), _kernel_limit_inputs, _kernel_limit_ops),
        Workload("kernel-sampled", ("ntk", "wick", "meanfield"), _kernel_sampled_inputs, _kernel_sampled_ops),
        Workload(
            "theory-sweep",
            ("meanfield", "lindyn", "wick", "landscape", "genbounds", "ntk"),
            _theory_sweep_inputs,
            _theory_sweep_ops,
        ),
    )
}


def input_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def inputs(name: str, seed: int) -> dict:
    """Every input of the workload, drawn from the seed."""
    index = list(WORKLOADS).index(name)
    return WORKLOADS[name].inputs(np.random.default_rng([index, input_seed(seed)]))


def build(name: str, seed: int) -> list[Op]:
    """The workload's operations on the inputs drawn from the seed."""
    return WORKLOADS[name].ops(inputs(name, seed))
