"""Property-based checks of the batched gradient path: batched backprop
against single-input backward column by column, and the layer-wise
empirical tangent gram against an explicit gradient-feature gram. Also a
fuzz of the CLI's count and list flags: every value exits 0, 1 or 2."""

import contextlib
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dltl import cli, ntk
from dltl.netcore import NetConfig, backprop, backward, forward, init_weights

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
