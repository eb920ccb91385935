"""Property-based checks of the batched gradient path: batched backprop
against single-input backward column by column, and the layer-wise
empirical tangent gram against an explicit gradient-feature gram. The
whole-array loops of lindyn, wick and meanfield against the scalar loops
they replaced, kept here as references; the NNGP recursion's pair moments
against meanfield's correlation maps. Also a fuzz of the CLI's count, list,
range and tolerance flags and of every subcommand that reads input files:
every value exits 0, 1 or 2."""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dltl import cli, lindyn, meanfield, ntk, wick
from dltl.netcore import (
    Activation, NetConfig, backprop, backward, forward, haar_orthogonal, init_weights, save_weights,
)

REL_TOL = 1e-12

activations = st.one_of(
    st.sampled_from(["linear", "relu", "tanh"]),
    st.floats(0.05, 0.95).map(lambda a: f"leaky_relu:{a!r}"),
)


@st.composite
def nets(draw):
    n0 = draw(st.integers(1, 4))
    hidden = draw(st.lists(st.integers(1, 8), min_size=0, max_size=2))
    k = draw(st.integers(1, 3))
    config = NetConfig(
        widths=(n0, *hidden, k),
        activation=draw(activations),
        parameterization=draw(st.sampled_from(["ntk", "standard"])),
        sigma_w2=draw(st.floats(0.5, 2.5)),
    )
    return config, init_weights(config, seed=draw(st.integers(0, 2**32 - 1)))


def _columns(draw, n0, m):
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).standard_normal((n0, m))


def _feature_rows(config, weights, x):
    """One flattened parameter gradient per (example, output), example major."""
    rows = []
    for i in range(x.shape[1]):
        trace = forward(config, weights, x[:, i])
        for a in range(config.widths[-1]):
            grads = backward(config, weights, trace, output_index=a).grads
            rows.append(np.concatenate([g.ravel() for g in grads]))
    return np.array(rows)


def _assert_rel_close(got, want):
    assert got.shape == want.shape
    scale = float(np.max(np.abs(want), initial=0.0))
    assert float(np.max(np.abs(got - want), initial=0.0)) <= REL_TOL * scale


@settings(max_examples=60, deadline=None)
@given(data=st.data(), net=nets())
def test_batched_backprop_matches_single_columns(data, net):
    config, weights = net
    m = data.draw(st.integers(1, 6))
    x = _columns(data.draw, config.widths[0], m)
    seeds = _columns(data.draw, config.widths[-1], m)
    batched = backprop(config, weights, forward(config, weights, x), seeds)
    for j in range(m):
        single = backward(config, weights, forward(config, weights, x[:, j]), seed_grad=seeds[:, j])
        for g_batch, g_single in zip(batched, single.g, strict=True):
            _assert_rel_close(g_batch[:, j], g_single)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), net=nets())
def test_empirical_gram_matches_feature_gram(data, net):
    config, weights = net
    x = _columns(data.draw, config.widths[0], data.draw(st.integers(1, 6)))
    feats = _feature_rows(config, weights, x)
    gram = ntk.empirical_ntk(config, weights, x).matrix
    _assert_rel_close(gram, feats @ feats.T)
    np.testing.assert_array_equal(gram, gram.T)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), net=nets())
def test_cross_gram_matches_feature_gram(data, net):
    config, weights = net
    x_a = _columns(data.draw, config.widths[0], data.draw(st.integers(1, 6)))
    x_b = _columns(data.draw, config.widths[0], data.draw(st.integers(1, 6)))
    cross = ntk._tangent_gram(config, weights, x_a, x_b)
    _assert_rel_close(cross, _feature_rows(config, weights, x_a) @ _feature_rows(config, weights, x_b).T)


# -- deep linear GD: stacked layers against the per-layer loop ---------------


def _reference_deep_linear_gd(width, L, svals, eta, seed, u0, max_steps):
    """Per-layer GD loop: list-held weights, full prefix and suffix products,
    one gradient matmul pair per layer. Returns (losses, u, steps_to_tol)
    or raises as simulate_deep_linear_gd does."""
    targets = np.zeros(width)
    targets[: len(svals)] = svals
    tol_loss = 1e-4 * float(np.sum(np.asarray(svals) ** 2))
    u_init = np.full(width, u0)
    rng = np.random.default_rng(seed)
    rots = [np.eye(width)] + [haar_orthogonal(width, rng) for _ in range(L)] + [np.eye(width)]
    d_init = np.diag(u_init ** (1.0 / (L + 1)))
    weights = [rots[l + 1] @ d_init @ rots[l].T for l in range(L + 1)]
    s_mat = np.diag(targets)
    losses, u_hist = [], []
    for k in range(max_steps + 1):
        prefix = [np.eye(width)]
        for w in weights:
            prefix.append(w @ prefix[-1])
        suffix = [np.eye(width)]
        for w in reversed(weights):
            suffix.append(suffix[-1] @ w)
        suffix.reverse()
        p = prefix[-1]
        resid = s_mat - p
        loss = 0.5 * float(np.sum(resid**2))
        losses.append(loss)
        u_hist.append(np.diag(p).copy())
        if not math.isfinite(loss):
            raise RuntimeError(f"GD diverged at step {k} with eta = {eta}: the loss is {loss}")
        if loss <= tol_loss:
            return np.array(losses), np.array(u_hist), k
        if k == 0:
            loss0 = loss
        elif loss > 10.0 * loss0:
            raise RuntimeError(f"GD diverged at step {k} with eta = {eta}")
        if k == max_steps:
            break
        weights = [
            weights[l] - eta * (-suffix[l + 1].T @ resid @ prefix[l].T) for l in range(L + 1)
        ]
    raise RuntimeError(f"loss {losses[-1]:g} still above tol {tol_loss:g} after {max_steps} steps")


def _outcome(call):
    try:
        return call()
    except RuntimeError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    width=st.integers(1, 6),
    L=st.integers(0, 4),
    eta=st.floats(0.005, 0.5),
    u0=st.floats(0.01, 0.5),
    seed=st.integers(0, 2**32 - 1),
    max_steps=st.integers(0, 400),
)
def test_stacked_gd_equals_per_layer_loop(data, width, L, eta, u0, seed, max_steps):
    svals = data.draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=width))
    want = _outcome(lambda: _reference_deep_linear_gd(width, L, svals, eta, seed, u0, max_steps))
    got = _outcome(lambda: lindyn.simulate_deep_linear_gd(
        width, L, svals, eta, seed=seed, u0=u0, max_steps=max_steps
    ))
    if isinstance(want, str):
        assert got == want
        return
    losses, u, steps = want
    assert got.steps_to_tol == steps
    np.testing.assert_array_equal(got.losses, losses)
    np.testing.assert_array_equal(got.u, u)


# -- arrival time: whole-array Simpson against the RK4 stepping loop ----------


def _reference_arrival_time(u0, uf, s, eta, L, steps=4096):
    ex = (1.0 - L) / (1.0 + L)

    def g(v):
        u = math.exp(v)
        return u**ex / (eta * (L + 1) * (s - u))

    v, h = math.log(u0), (math.log(uf) - math.log(u0)) / steps
    t = 0.0
    for _ in range(steps):
        k1 = g(v)
        k2 = g(v + 0.5 * h)
        k4 = g(v + h)
        t += (h / 6.0) * (k1 + 4.0 * k2 + k4)
        v += h
    return t


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(1, 16),
    s=st.floats(0.5, 2.0),
    eta=st.floats(1e-3, 1.0),
    start=st.floats(1e-4, 0.5),
    stop=st.floats(0.0, 0.99),
)
def test_arrival_time_matches_stepping_loop(L, s, eta, start, stop):
    u0 = start * s
    uf = u0 + stop * (s - u0)
    want = _reference_arrival_time(u0, uf, s, eta, L)
    assert abs(lindyn._arrival_time_rk4(u0, uf, s, eta, L) - want) <= 1e-14 * abs(want)


# -- double-line loops: per-level tables against one union-find ----------------


def _reference_loops(edges_by_type, m, depth):
    """Components of the depth * m level vertices, one union-find over all."""
    parent = list(range(depth * m))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    for t, edges in enumerate(edges_by_type):
        rows = [0] if t == 0 else [depth - 1] if t == depth else [t - 1, t]
        for row in rows:
            for p, q in edges:
                union(row * m + p - 1, row * m + q - 1)
    return len({find(v) for v in range(depth * m)})


@st.composite
def diagram_specs(draw):
    # (m, L) pairs whose enumeration stays in the thousands of diagrams
    m, L = draw(st.sampled_from([(2, 1), (2, 3), (4, 1), (4, 2), (4, 3), (6, 1), (6, 2), (8, 1)]))
    pairs = st.tuples(st.integers(1, m), st.integers(1, m))
    contractions = draw(st.lists(pairs, min_size=1 if m == 8 else 0, max_size=m // 2))
    return wick.ContractionSpec(m=m, contractions=tuple(contractions), inputs=(1.0,) * m), L


@settings(max_examples=40, deadline=None)
@given(spec_depth=diagram_specs())
def test_diagram_loops_match_level_union_find(spec_depth):
    spec, L = spec_depth
    count = wick.exact_correlation(spec, L)
    for info in count.diagrams:
        want = _reference_loops(info.edges_by_type, spec.m, L)
        assert info.loops == want
        assert wick.double_line_loops(info.edges_by_type, spec.m, L) == want


# -- length-map fixed point: hoisted iteration against the public map -----------


@settings(max_examples=60, deadline=None)
@given(
    sigma_w2=st.one_of(st.floats(0.3, 0.9, exclude_max=True), st.floats(1.2, 4.0, exclude_min=True)),
    q0=st.floats(0.0, 3.0),
)
def test_tanh_fixed_point_matches_iterated_length_map(sigma_w2, q0):
    act, tol = Activation("tanh"), 1e-10
    q, k = q0, 0
    while True:
        k += 1
        q_next = meanfield.length_map(q, sigma_w2, act).q_next
        if abs(q_next - q) <= tol:
            break
        q = q_next
    assert k < 512  # the Newton polish never fires on this range
    got = meanfield.length_fixed_point(sigma_w2, act, q0=q0, tol=tol)
    assert (got.q_inf, got.iterations, got.marginal) == (q_next, k, False)


# -- pair moments: the NNGP recursion's rule against meanfield's maps ------------


correlations = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))
variances = st.floats(1e-3, 1e3)


@settings(max_examples=300, deadline=None)
@given(
    act=st.one_of(st.sampled_from(["linear", "relu"]), st.floats(0.05, 0.95).map(lambda a: f"leaky_relu:{a!r}")),
    c=correlations, q11=variances, q22=variances, sigma_w2=st.floats(0.1, 4.0),
)
def test_polar_pair_moments_match_closed_forms(act, c, q11, q22, sigma_w2):
    """The polar rule of ntk and the arc-cosine closed forms of meanfield
    compute the same two moments for the piecewise-linear kinds."""
    act = Activation.parse(act)
    m_phi, m_deriv = ntk._pair_moments(c, q11, q22, sigma_w2, act, meanfield.GH_NODES)
    scale = sigma_w2 * math.sqrt(q11 * q22)
    assert abs(m_phi - meanfield.corr_map(c, q11, q22, sigma_w2, act)) <= 1e-12 * scale
    assert abs(m_deriv - meanfield.chi_map(c, q11, q22, sigma_w2, act)) <= 1e-12 * sigma_w2


@settings(max_examples=30, deadline=None)
@given(c=correlations, q11=variances, q22=variances, sigma_w2=st.floats(0.1, 4.0))
def test_smooth_pair_moments_are_the_correlation_maps(c, q11, q22, sigma_w2):
    act = Activation("tanh")
    got = ntk._pair_moments(c, q11, q22, sigma_w2, act, meanfield.GH_NODES)
    assert got == (meanfield.corr_map(c, q11, q22, sigma_w2, act), meanfield.chi_map(c, q11, q22, sigma_w2, act))


# -- CLI fuzz -------------------------------------------------------------------


svals_texts = st.lists(
    st.one_of(st.floats().map(repr), st.just(""), st.sampled_from(["x", "1e400", "-0"])),
    max_size=4,
).map(",".join)


@settings(max_examples=80, deadline=None)
@given(argv=st.one_of(
    st.integers(-3, 300).map(lambda p: ["spectrum", "--analytic", "--depth", "2", "--points", str(p)]),
    st.integers(-3, 3).map(lambda r: ["spectrum", "--empirical", "--width", "3", "--replicates", str(r)]),
    svals_texts.map(lambda t: ["lindyn", "--depth", "2", "--max-steps", "30", f"--svals={t}"]),
))
def test_cli_count_and_list_flags_exit_cleanly(argv):
    """Nothing escapes cli.main: an exception other than the domain and
    usage errors it maps to exit 1 and 2 fails the test with its traceback."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2)


float_texts = st.one_of(
    st.floats().map(repr), st.sampled_from(["inf", "-inf", "nan", "0", "-0", "1e-300", "1e308", "x", ""])
)
range_texts = st.tuples(float_texts, float_texts, float_texts).map(":".join)


@settings(max_examples=80, deadline=None)
@given(argv=st.one_of(
    st.tuples(st.sampled_from(["relu", "linear"]), range_texts).map(
        lambda a: ["phase", "--act", a[0], f"--sigma-w2={a[1]}"]
    ),
    st.tuples(st.sampled_from(["tanh", "relu"]), float_texts).map(
        lambda a: ["phase", "--act", a[0], "--sigma-w2", "0.5:2:0.5", f"--tol={a[1]}"]
    ),
    st.tuples(float_texts, float_texts).map(
        lambda a: ["lindyn", "--depth", "2", "--max-steps", "30", f"--eta={a[0]}", f"--tol-loss={a[1]}"]
    ),
))
def test_cli_range_and_tolerance_flags_exit_cleanly(argv):
    """As above, over phase's grid and tolerance and lindyn's rate and stop
    loss; a non-finite grid end or step is a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if argv[0] == "phase" and any(x in argv[-1] for x in ("inf", "nan")) and "--sigma-w2=" in argv[-1]:
        assert code == 2 and "usage error" in err.getvalue()


# -- CLI fuzz over the subcommands that read input files -------------------------


def mostly(valid, invalid):
    """A valid value three times in four, otherwise an invalid one."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else invalid)


def floats_in(lo, hi):
    return mostly(st.floats(lo, hi).map(repr), float_texts)


def ints_in(lo, hi):
    return mostly(st.integers(lo, hi), st.sampled_from([-1, 0])).map(str)


activation_texts = mostly(
    st.sampled_from(["linear", "relu", "tanh", "leaky_relu:0.2"]),
    st.sampled_from(["leaky_relu:2", "leaky_relu:nan", "sigmoid"]),
)


@st.composite
def datasets(draw, d, max_rows=5, signed=False):
    """("data", x, y): up to max_rows rows of d features, labels in (-1, 1)
    or signed, and now and then one poisoned entry."""
    m = draw(st.integers(1, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = rng.standard_normal((m, d)), rng.uniform(-0.9, 0.9, m)
    if signed:
        y = np.where(y > 0, 1.0, -1.0)
    poison = draw(mostly(st.none(), st.sampled_from([0.0, 1e300, math.inf, math.nan])))
    if poison is not None:
        x[draw(st.integers(0, m - 1)), draw(st.integers(0, d - 1))] = poison
    return ("data", x, y)


@st.composite
def weight_files(draw, n0, acts=("linear", "relu", "tanh", "leaky_relu:0.2"), decreasing=False):
    """("net", config, seed) for a small net on n0 inputs, one output
    three times in four."""
    hidden = draw(st.lists(st.integers(2, 6), max_size=2))
    if decreasing:
        hidden = sorted(set(hidden), reverse=True)
    config = NetConfig(
        widths=(n0, *hidden, draw(mostly(st.just(1), st.just(2)))),
        activation=draw(st.sampled_from(acts)),
        parameterization=draw(st.sampled_from(["ntk", "standard"])),
        sigma_w2=draw(st.floats(0.5, 2.5)),
    )
    return ("net", config, draw(st.integers(0, 2**32 - 1)))


@st.composite
def wick_specs(draw):
    m = draw(mostly(st.sampled_from([2, 4]), st.sampled_from([-1, 0, 3, 9])))
    factor = mostly(st.integers(1, max(m, 1)), st.integers(0, max(m, 0) + 1))
    scalar = draw(st.booleans())
    n_inputs = draw(mostly(st.just(m), st.integers(0, 5)))
    doc = {
        "m": m,
        "depth": draw(mostly(st.integers(1, 2), st.integers(-1, 3))),
        "contractions": draw(st.lists(st.lists(factor, min_size=2, max_size=2), max_size=2)),
        "inputs": [[draw(st.floats(-2, 2))] if scalar else [1.0, draw(st.floats(-2, 2))]
                   for _ in range(n_inputs)],
    }
    return ("spec", doc)


def _write_inputs(root, files):
    """Write each drawn file under root; name -> path."""
    paths = {}
    for name, entry in files.items():
        path = paths[name] = os.path.join(root, name)
        if entry[0] == "data":
            _, x, y = entry
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["y"] + [f"x{i}" for i in range(1, x.shape[1] + 1)])
                writer.writerows([repr(float(yi))] + [repr(float(v)) for v in xi] for xi, yi in zip(x, y))
        elif entry[0] == "net":
            save_weights(path, entry[1], init_weights(entry[1], seed=entry[2]))
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(entry[1], fh)
    return paths


@st.composite
def file_subcommands(draw):
    """(argv, files) for one of the eight subcommands that read input files
    or build a net from flags; argv names each file as {name}."""
    sub = draw(st.sampled_from(["lengthmap", "path", "ntk-kernel", "ntk-train", "du-monitor", "align", "wick", "bounds"]))
    d = draw(st.integers(1, 3))
    other_d = mostly(st.just(d), st.just(d + 1))
    if sub == "lengthmap":
        return ["lengthmap", "--act", draw(activation_texts), f"--sigma-w2={draw(floats_in(0.1, 4.0))}",
                f"--q0={draw(floats_in(0.0, 10.0))}", "--depth", draw(ints_in(1, 40)),
                "--nodes", draw(ints_in(4, 80))], {}
    if sub == "path":
        files = {"data": draw(datasets(d, max_rows=d)),
                 "a": draw(weight_files(d, ("linear", "leaky_relu:0.2", "relu"), decreasing=True))}
        files["b"] = draw(mostly(
            st.integers(0, 2**32 - 1).map(lambda s: ("net", files["a"][1], s)),
            weight_files(d, decreasing=True),
        ))
        return ["path", "--weights-a", "{a}", "--weights-b", "{b}", "--data", "{data}",
                "--loss", draw(st.sampled_from(["square", "logistic"])),
                f"--epsilon={draw(floats_in(1e-6, 1.0))}", "--grid-points", draw(ints_in(2, 12))], files
    if sub == "ntk-kernel":
        files = {"data": draw(datasets(d)), "net": draw(weight_files(draw(other_d)))}
        source = draw(mostly(st.sampled_from([["--weights", "{net}"], ["--widths", f"{d},4,1"]]),
                             st.sampled_from([["--widths", "0,4,1"], ["--widths", "x"], []])))
        return ["ntk-kernel", "--data", "{data}", "--kind", draw(st.sampled_from(["limiting", "empirical", "nngp"])),
                *source, "--act", draw(activation_texts), f"--sigma-w2={draw(floats_in(0.5, 2.5))}",
                "--nodes", draw(ints_in(4, 24))], files
    if sub == "ntk-train":
        files = {"data": draw(datasets(d)), "net": draw(weight_files(draw(other_d))),
                 "query": draw(datasets(draw(other_d)))}
        times = ",".join(draw(st.lists(mostly(st.sampled_from(["0", "0.5", "3", "inf"]),
                                              st.sampled_from(["-1", "nan", "x"])), max_size=3)))
        return ["ntk-train", "--weights", "{net}", "--data", "{data}",
                *draw(st.sampled_from([[], ["--query", "{query}"]])), f"--eta={draw(floats_in(0.1, 2.0))}",
                f"--times={times}", "--kernel", draw(st.sampled_from(["limiting", "empirical", "last-layer"])),
                "--nodes", draw(ints_in(4, 24))], files
    rates = mostly(st.floats(0.05, 1.0).map(repr), st.sampled_from(["0", "-1", "nan", "inf"]))
    if sub == "du-monitor":
        files = {"data": draw(datasets(d, signed=draw(mostly(st.just(False), st.just(True)))))}
        source = draw(st.sampled_from([["--data", "{data}"], ["--dim", draw(ints_in(1, 4)),
                                                               "--train-size", draw(ints_in(1, 5))]]))
        horizon = draw(mostly(st.floats(0.1, 3.0).map(repr), st.sampled_from(["0", "-1", "nan", "inf"])))
        return ["du-monitor", *source, "--n", draw(ints_in(1, 16)), f"--eta={draw(rates)}",
                f"--t-max={horizon}"], files
    if sub == "align":
        files = {"data": draw(datasets(d)), "u0": draw(weight_files(draw(other_d)))}
        return ["align", "--data", "{data}", "--points", draw(ints_in(2, 40)),
                "--method", draw(st.sampled_from(["angle", "mc"])), "--mc-samples", draw(ints_in(1, 300)),
                *draw(st.sampled_from([[], ["--u0-weights", "{u0}"]]))], files
    if sub == "wick":
        mc = draw(st.sampled_from([[], ["--mc", "--mc-out", "{mc}"], ["--mc"]]))
        widths = ",".join(draw(st.lists(ints_in(1, 6), min_size=draw(mostly(st.just(3), st.just(2))), max_size=4)))
        return ["wick", "--spec", "{spec}", *mc, f"--widths={widths}", "--replicates", draw(ints_in(2, 8))], \
            {"spec": draw(wick_specs())}
    files = {"data": draw(datasets(d, max_rows=8, signed=draw(mostly(st.just(True), st.just(False))))),
             "net": draw(weight_files(draw(other_d)))}
    return ["bounds", "--weights", "{net}", "--data", "{data}",
            "--family", draw(st.sampled_from(["bartlett", "neyshabur", "pacbayes", "all"])),
            f"--gamma={draw(floats_in(0.1, 2.0))}", f"--delta={draw(floats_in(0.01, 0.5))}",
            f"--sigma={draw(floats_in(0.01, 0.5))}",
            *draw(st.sampled_from([[], [f"--b-norm={draw(floats_in(0.1, 5.0))}"]])),
            "--replicates", draw(ints_in(1, 6))], files


@settings(max_examples=200, deadline=None)
@given(case=file_subcommands(), fmt=st.sampled_from(["csv", "json"]))
def test_cli_file_subcommands_exit_cleanly(case, fmt):
    """As above, over generated datasets, weight files and contraction
    specs: every call exits 0, 1 or 2 and raises nothing."""
    argv, files = case
    with tempfile.TemporaryDirectory() as root:
        paths = _write_inputs(root, files)
        paths["mc"] = os.path.join(root, "mc")
        argv = [tok.format(**paths) for tok in argv] + ["--format", fmt, "--out", os.path.join(root, "out")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    assert code in (0, 1, 2)
