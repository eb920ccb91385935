"""Network primitives: activations, init statistics, forward/backward/jacobian
against finite differences and a per-call reference loop, weight-file round
trips."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dltl import landscape, meanfield, ntk, spectra
from dltl.netcore import (
    Activation,
    NetConfig,
    backprop,
    backward,
    forward,
    haar_orthogonal,
    init_weights,
    jacobian,
    load_weights,
    save_weights,
)


class TestActivation:
    def test_parse_round_trip(self):
        for text in ("linear", "relu", "tanh", "leaky_relu:0.2"):
            act = Activation.parse(text)
            assert str(act) == text
            assert Activation.parse(str(act)) == act

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            Activation.parse("gelu")
        with pytest.raises(ValueError):
            Activation.parse("leaky_relu")  # missing slope
        with pytest.raises(ValueError):
            Activation("leaky_relu", alpha=1.5)
        with pytest.raises(ValueError):
            Activation("relu", alpha=0.3)

    def test_values_and_derivatives(self):
        z = np.linspace(-3.0, 3.0, 101)
        h = 1e-6
        for text in ("linear", "relu", "tanh", "leaky_relu:0.25"):
            act = Activation.parse(text)
            fd = (act(z + h) - act(z - h)) / (2 * h)
            # the kink at 0 breaks central differences; skip a neighborhood
            mask = np.abs(z) > 1e-3
            np.testing.assert_allclose(act.deriv(z)[mask], fd[mask], atol=1e-8)

    @pytest.mark.parametrize("z", [
        np.float64(0.7), np.array(-1.3), np.linspace(-4.0, 4.0, 9),
        np.random.default_rng(3).standard_normal((2, 3, 4)),
    ])
    def test_tanh_derivative_is_one_minus_tanh_squared(self, z):
        """The derivative works in one buffer; it equals 1 - tanh(z)^2 bit
        for bit, keeps a 0-d input's scalar result and leaves z alone."""
        before = np.array(z, copy=True)
        got = Activation("tanh").deriv(z)
        want = 1.0 - np.tanh(z) ** 2
        assert np.shape(got) == np.shape(z) and type(got) is type(want)
        assert np.array_equal(got, want)
        assert np.array_equal(z, before)

    def test_derivative_at_zero_is_left_value(self):
        assert Activation.parse("relu").deriv(0.0) == 0.0
        assert Activation.parse("leaky_relu:0.3").deriv(0.0) == 0.3

    def test_inverse(self):
        z = np.linspace(-2.0, 2.0, 41)
        for text in ("linear", "leaky_relu:0.25"):
            act = Activation.parse(text)
            np.testing.assert_allclose(act.inverse(act(z)), z, atol=1e-12)

    def test_homogeneous_flag(self):
        z = np.linspace(-2.0, 2.0, 11)
        for text in ("linear", "relu", "leaky_relu:0.25"):
            act = Activation.parse(text)
            assert act.slopes is not None
            np.testing.assert_allclose(act(3.5 * z), 3.5 * act(z), atol=1e-14)
        assert Activation.parse("tanh").slopes is None


class TestNetConfig:
    def test_depth_counts_hidden_layers(self):
        config = NetConfig(widths=(3, 8, 8, 2), activation="relu")
        assert config.depth == 2
        assert config.n_layers == 3

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            NetConfig(widths=(3,), activation="relu")
        with pytest.raises(ValueError):
            NetConfig(widths=(3, 0, 1), activation="relu")
        with pytest.raises(ValueError):
            NetConfig(widths=(3, 4, 1), activation="relu", parameterization="mup")
        with pytest.raises(ValueError):
            NetConfig(widths=(3, 4, 1), activation="relu", sigma_w2=0.0)

    @pytest.mark.parametrize("sigma_w2", [float("nan"), float("inf")])
    def test_rejects_nonfinite_sigma(self, sigma_w2):
        with pytest.raises(ValueError, match="sigma_w2 must be positive and finite"):
            NetConfig(widths=(3, 4, 1), activation="relu", sigma_w2=sigma_w2)

    def test_equal_configs_hash_alike(self):
        a = NetConfig((3, 1), "leaky_relu:0.2", sigma_w2=2.0)
        b = NetConfig((3, 1), Activation("leaky_relu", 0.2), sigma_w2=2.0)
        assert a == b and hash(a) == hash(b)
        table = {a: "first", NetConfig((3, 1), "relu"): "second"}
        assert table[b] == "first"
        assert table[NetConfig((3, 1), "relu")] == "second"
        assert NetConfig((3, 1), "tanh") not in table

    def test_orthogonal_ntk_forbidden(self):
        with pytest.raises(ValueError):
            NetConfig(
                widths=(4, 4, 4),
                activation="linear",
                parameterization="ntk",
                init="orthogonal",
            )

    def test_scales(self):
        std = NetConfig(widths=(4, 16, 1), activation="relu")
        assert std.scales == (1.0, 1.0)
        ntk = NetConfig(
            widths=(4, 16, 1), activation="relu", parameterization="ntk", sigma_w2=2.0
        )
        assert ntk.scales == (float(np.sqrt(2.0 / 4.0)), float(np.sqrt(2.0 / 16.0)))
        assert all(type(c) is float for c in ntk.scales)
        # derived from the other fields: not an argument, not in repr or eq
        assert "scales" not in repr(ntk)
        with pytest.raises(TypeError):
            NetConfig(widths=(4, 16, 1), activation="relu", scales=(1.0, 1.0))

    @pytest.mark.parametrize("width", [8.9, 8.0, "8", True, np.bool_(True), np.float64(8.0)])
    def test_rejects_widths_that_are_not_integers(self, width):
        with pytest.raises(ValueError, match="widths must be integers"):
            NetConfig(widths=(3, width, 1), activation="relu")

    def test_numpy_integer_widths(self):
        config = NetConfig(widths=np.array([3, 8, 1]), activation="relu")
        assert config.widths == (3, 8, 1) and all(type(n) is int for n in config.widths)


class TestInit:
    def test_haar_orthogonal(self):
        rng = np.random.default_rng(0)
        q = haar_orthogonal(16, rng)
        np.testing.assert_allclose(q @ q.T, np.eye(16), atol=1e-12)

    def test_haar_eigenphases_are_not_qr_biased(self):
        # plain QR clusters eigenphases near +1; the sign fix restores
        # rotation invariance, so the mean phase is ~0
        rng = np.random.default_rng(1)
        phases = []
        for _ in range(200):
            q = haar_orthogonal(8, rng)
            phases.extend(np.angle(np.linalg.eigvals(q)))
        assert abs(np.mean(np.cos(phases))) < 0.05

    def test_gaussian_variance_scaling(self):
        config = NetConfig(widths=(400, 300, 1), activation="relu", sigma_w2=2.0)
        w = init_weights(config, seed=3)
        assert w[0].shape == (300, 400)
        # var = sigma_w2 / fan_in, se of the sample var ~ sqrt(2/N) * var
        np.testing.assert_allclose(np.var(w[0]), 2.0 / 400, rtol=0.02)

    def test_ntk_unit_variance(self):
        config = NetConfig(
            widths=(400, 300, 1), activation="relu", parameterization="ntk", sigma_w2=2.0
        )
        w = init_weights(config, seed=3)
        np.testing.assert_allclose(np.var(w[0]), 1.0, rtol=0.02)

    def test_orthogonal_init_square_only(self):
        config = NetConfig(widths=(8, 8, 8), activation="linear", init="orthogonal", sigma_w2=1.3)
        w = init_weights(config, seed=5)
        np.testing.assert_allclose(w[0] @ w[0].T, 1.3 * np.eye(8), atol=1e-12)
        bad = NetConfig(widths=(8, 4, 8), activation="linear", init="orthogonal")
        with pytest.raises(ValueError):
            init_weights(bad, seed=5)

    def test_deterministic_in_seed(self):
        config = NetConfig(widths=(5, 7, 2), activation="tanh")
        w1 = init_weights(config, seed=11)
        w2 = init_weights(config, seed=11)
        for a, b in zip(w1, w2):
            np.testing.assert_array_equal(a, b)


class TestForwardBackward:
    def _setup(self, parameterization="standard", activation="tanh"):
        config = NetConfig(
            widths=(4, 6, 5, 2),
            activation=activation,
            parameterization=parameterization,
            sigma_w2=1.7,
        )
        weights = init_weights(config, seed=7)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(4)
        return config, weights, x

    def test_forward_linear_is_matrix_product(self):
        config = NetConfig(widths=(3, 5, 2), activation="linear")
        w = init_weights(config, seed=2)
        x = np.arange(3.0)
        out = forward(config, w, x).output
        np.testing.assert_allclose(out, w[1] @ w[0] @ x, atol=1e-14)

    def test_forward_batch_matches_loop(self):
        config, weights, _ = self._setup()
        rng = np.random.default_rng(9)
        xs = rng.standard_normal((4, 6))
        batch = forward(config, weights, xs)
        for j in range(6):
            single = forward(config, weights, xs[:, j])
            np.testing.assert_allclose(batch.output[:, j], single.output, atol=1e-14)

    def test_forward_rejects_wrong_dim(self):
        config, weights, _ = self._setup()
        with pytest.raises(ValueError):
            forward(config, weights, np.zeros(5))

    @pytest.mark.parametrize("parameterization", ["standard", "ntk"])
    def test_weight_gradients_match_finite_differences(self, parameterization):
        config, weights, x = self._setup(parameterization)
        trace = forward(config, weights, x)
        grads = backward(config, weights, trace, output_index=1)
        h = 1e-6
        for l in range(config.n_layers):
            w = weights[l]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1), (0, w.shape[1] - 1)]:
                bumped = [m.copy() for m in weights]
                bumped[l][idx] += h
                up = forward(config, bumped, x).output[1]
                bumped[l][idx] -= 2 * h
                down = forward(config, bumped, x).output[1]
                fd = (up - down) / (2 * h)
                np.testing.assert_allclose(grads[l][idx], fd, atol=1e-6)

    def test_backprop_is_linear_in_the_seed(self):
        config, weights, x = self._setup()
        trace = forward(config, weights, x)
        g0 = backprop(config, weights, trace, np.array([1.0, 0.0]))
        g1 = backprop(config, weights, trace, np.array([0.0, 1.0]))
        both = backprop(config, weights, trace, np.array([2.0, -1.0]))
        for l in range(config.n_layers):
            np.testing.assert_allclose(both[l], 2.0 * g0[l] - g1[l], atol=1e-12)

    def test_backward_argument_validation(self):
        config, weights, x = self._setup()
        batch_trace = forward(config, weights, np.zeros((4, 3)))
        with pytest.raises(ValueError):
            backward(config, weights, batch_trace, output_index=0)

    @pytest.mark.parametrize("activation", ["linear", "relu", "leaky_relu:0.3"])
    def test_weight_gradients_match_finite_differences_per_activation(self, activation):
        """backward against central differences for the piecewise-linear
        kinds; the seeded input keeps every unit off the relu kink."""
        config, weights, x = self._setup(activation=activation)
        trace = forward(config, weights, x)
        grads = backward(config, weights, trace, output_index=0)
        h = 1e-6
        for l in range(config.n_layers):
            w = weights[l]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1), (w.shape[0] - 1, 0)]:
                bumped = [m.copy() for m in weights]
                bumped[l][idx] += h
                up = forward(config, bumped, x).output[0]
                bumped[l][idx] -= 2 * h
                down = forward(config, bumped, x).output[0]
                np.testing.assert_allclose(grads[l][idx], (up - down) / (2 * h), atol=1e-6)

    @pytest.mark.parametrize("activation", ["tanh", "leaky_relu:0.3", "linear", "relu"])
    def test_jacobian_matches_finite_differences(self, activation):
        config, weights, x = self._setup(activation=activation)
        j = jacobian(config, weights, x)
        assert j.shape == (2, 6)
        # differentiate the output wrt h_1 by replaying the tail of the net
        trace = forward(config, weights, x)
        h1 = trace.h[0]
        act = config.activation

        def tail_out(h):
            cur = h
            for l in range(1, config.n_layers):
                cur = config.scales[l] * (weights[l] @ act(cur))
            return cur

        eps = 1e-6
        for k in range(6):
            e = np.zeros(6)
            e[k] = eps
            fd = (tail_out(h1 + e) - tail_out(h1 - e)) / (2 * eps)
            np.testing.assert_allclose(j[:, k], fd, atol=1e-6)

    def test_jacobian_excludes_first_layer(self):
        config, weights, x = self._setup()
        j1 = jacobian(config, weights, x)
        scaled = [5.0 * weights[0]] + [w.copy() for w in weights[1:]]
        # W_0 changes h_1 and hence the D_l, so compare on a linear net instead
        lin = NetConfig(widths=(4, 6, 5, 2), activation="linear")
        wl = init_weights(lin, seed=7)
        j_lin = jacobian(lin, wl, x)
        wl2 = [5.0 * wl[0]] + [w.copy() for w in wl[1:]]
        np.testing.assert_allclose(jacobian(lin, wl2, x), j_lin, atol=1e-12)
        assert j1.shape == (2, 6)


def _reference_scale(config, l):
    """The forward scale as it was computed on every call before NetConfig
    kept scales."""
    if config.parameterization == "standard":
        return 1.0
    return float(np.sqrt(config.sigma_w2 / config.widths[l]))


def _reference_forward(config, weights, x):
    hs, xs, cur = [], [], x
    for l in range(config.n_layers):
        h = _reference_scale(config, l) * (weights[l] @ cur)
        hs.append(h)
        if l < config.n_layers - 1:
            cur = config.activation(h)
            xs.append(cur)
    return hs, xs


def _reference_backprop(config, weights, hs, seed_grad):
    gs = [seed_grad]
    for l in range(config.n_layers - 1, 0, -1):
        g = _reference_scale(config, l) * config.activation.deriv(hs[l - 1]) * (weights[l].T @ gs[0])
        gs.insert(0, g)
    return gs


def _all_equal(arrays, reference):
    return all(np.array_equal(a, b) for a, b in zip(arrays, reference, strict=True))


@settings(max_examples=80, deadline=None)
@given(
    widths=st.lists(st.integers(1, 7), min_size=2, max_size=5),
    activation=st.sampled_from(["linear", "relu", "leaky_relu:0.2", "tanh"]),
    parameterization=st.sampled_from(["standard", "ntk"]),
    sigma_w2=st.floats(0.1, 4.0),
    other_sigma_w2=st.floats(0.1, 4.0),
    batch=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_passes_equal_the_per_call_reference_loop(
    widths, activation, parameterization, sigma_w2, other_sigma_w2, batch, seed, data
):
    """forward, backprop (single input and column batch), backward and
    jacobian equal, bit for bit, a loop that recomputes each layer's scale
    per call, prepends each gradient and takes np.outer."""
    config = NetConfig(tuple(widths), activation, parameterization=parameterization, sigma_w2=sigma_w2)
    assert config.scales == tuple(_reference_scale(config, l) for l in range(config.n_layers))
    other = dataclasses.replace(config, sigma_w2=other_sigma_w2)
    assert other.scales == tuple(_reference_scale(other, l) for l in range(other.n_layers))
    weights = init_weights(config, seed)
    rng = np.random.default_rng(seed)
    x, xb = rng.standard_normal(widths[0]), rng.standard_normal((widths[0], batch))
    for inp in (x, xb):
        trace = forward(config, weights, inp)
        hs, xs = _reference_forward(config, weights, inp)
        assert _all_equal(trace.h, hs) and _all_equal(trace.x, xs)
        seed_grad = rng.standard_normal(trace.output.shape)
        reference = _reference_backprop(config, weights, hs, seed_grad)
        assert _all_equal(backprop(config, weights, trace, seed_grad), reference)
    trace = forward(config, weights, x)
    hs, xs = _reference_forward(config, weights, x)
    i = data.draw(st.integers(0, widths[-1] - 1), label="output_index")
    e_i = np.zeros_like(hs[-1])
    e_i[i] = 1.0
    gs, inputs = _reference_backprop(config, weights, hs, e_i), [x, *xs]
    grads = [_reference_scale(config, l) * np.outer(gs[l], inputs[l]) for l in range(config.n_layers)]
    assert _all_equal(backprop(config, weights, trace, e_i), gs)
    assert _all_equal(backward(config, weights, trace, i), grads)
    j = np.eye(widths[1])
    for l in range(1, config.n_layers):
        j = (_reference_scale(config, l) * weights[l]) @ (config.activation.deriv(hs[l - 1])[:, None] * j)
    assert np.array_equal(jacobian(config, weights, x), j)


class TestWeightFiles:
    def test_round_trip(self, tmp_path):
        config = NetConfig(
            widths=(3, 8, 2), activation="leaky_relu:0.1",
            parameterization="ntk", sigma_w2=2.0,
        )
        weights = init_weights(config, seed=13)
        path = tmp_path / "w.json"
        save_weights(path, config, weights)
        config2, weights2 = load_weights(path)
        assert config2.widths == config.widths
        assert config2.activation == config.activation
        assert config2.parameterization == "ntk"
        assert config2.sigma_w2 == 2.0
        for a, b in zip(weights, weights2):
            np.testing.assert_array_equal(a, b)

    def test_standard_files_omit_sigma(self, tmp_path):
        import json

        config = NetConfig(widths=(3, 4, 1), activation="relu", sigma_w2=2.0)
        weights = init_weights(config, seed=1)
        path = tmp_path / "w.json"
        save_weights(path, config, weights)
        doc = json.loads(path.read_text())
        assert set(doc) == {"version", "widths", "activation", "parameterization", "weights"}
        config2, _ = load_weights(path)
        # forward pass of a standard-parameterization net ignores sigma_w2
        assert config2.sigma_w2 == 1.0

    def test_version_check(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"version": 2}')
        with pytest.raises(ValueError):
            load_weights(path)


# -- the shared argument checks, at every entry point behind one ----------------

_RELU, _TANH = Activation("relu"), Activation("tanh")
_NTK_NET = NetConfig((3, 4, 1), "relu", parameterization="ntk")
_PATH_NET = NetConfig((6, 8, 4, 1), "linear")
_POSITIVE = "sigma_w2 must be positive and finite"

# (call(value), the first value out of range, the message up to ", got value")
# for every argument that netcore's _check_positive, _check_nonnegative or
# _check_at_least guards
BOUNDARY_CALLS = [
    pytest.param(lambda v: meanfield.length_map(1.0, v, _RELU), 0.0, _POSITIVE, id="length_map.sigma_w2"),
    pytest.param(lambda v: meanfield.length_map(v, 1.0, _TANH), -1e-300, "q must be finite and nonnegative",
                 id="length_map.q"),
    pytest.param(lambda v: meanfield.corr_map(0.5, 1.0, 1.0, v, _RELU), 0.0, _POSITIVE, id="corr_map.sigma_w2"),
    pytest.param(lambda v: meanfield.chi_map(0.5, 1.0, 1.0, v, _TANH), 0.0, _POSITIVE, id="chi_map.sigma_w2"),
    pytest.param(lambda v: meanfield.chi1(v, 1.0, _TANH), 0.0, _POSITIVE, id="chi1.sigma_w2"),
    pytest.param(lambda v: meanfield.chi1(1.0, v, _TANH), -1e-300, "q must be finite and nonnegative", id="chi1.q"),
    pytest.param(lambda v: meanfield.length_fixed_point(v, _TANH), 0.0, _POSITIVE,
                 id="length_fixed_point.sigma_w2"),
    pytest.param(lambda v: meanfield.length_fixed_point(1.5, _TANH, q0=v), -1e-300,
                 "q0 must be finite and nonnegative", id="length_fixed_point.q0"),
    pytest.param(lambda v: meanfield.gauss_ev(np.tanh, v), -1e-300, "variance must be finite and nonnegative",
                 id="gauss_ev.q"),
    pytest.param(lambda v: NetConfig((3, 1), "relu", sigma_w2=v), 0.0, _POSITIVE, id="NetConfig.sigma_w2"),
    pytest.param(lambda v: ntk.linearize(_NTK_NET, init_weights(_NTK_NET, seed=0), np.eye(3), np.zeros(3), eta=v),
                 0.0, "eta must be positive and finite", id="linearize.eta"),
    pytest.param(lambda v: ntk.h_infinity_gram(np.eye(2), method="mc", mc_samples=v), 0,
                 "mc_samples must be at least 1", id="h_infinity_gram.mc_samples"),
    pytest.param(lambda v: ntk.du_convergence_monitor(0.5 * np.eye(2), [0.1, -0.1], n=v, eta=0.1, T=1.0), 0,
                 "hidden width n must be at least 1", id="du_convergence_monitor.n"),
    pytest.param(lambda v: ntk.alignment(ntk.h_infinity_gram(np.eye(2)), np.ones(2), np.zeros(2), points=v), 1,
                 "points must be at least 2", id="alignment.points"),
    pytest.param(lambda v: spectra.empirical_spectrum(NetConfig((2, 2), "linear"), replicates=v), 0,
                 "replicates must be at least 1", id="empirical_spectrum.replicates"),
    pytest.param(lambda v: landscape.constant_loss_path(_PATH_NET, init_weights(_PATH_NET, seed=1),
                                                        init_weights(_PATH_NET, seed=2), np.ones((6, 2)),
                                                        np.zeros(2), grid_points=v),
                 1, "grid_points must be at least 2", id="constant_loss_path.grid_points"),
]


@pytest.mark.parametrize("call, first, message", BOUNDARY_CALLS)
@pytest.mark.parametrize("value", ["first", math.nan], ids=["first_out_of_range", "nan"])
def test_shared_check_rejects_at_its_boundary(call, first, message, value):
    """nan and the first value out of range each raise the shared check's
    exact message, which names the argument and the value."""
    value = first if value == "first" else value
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == f"{message}, got {value}"


def test_grid_points_cap_is_checked_before_allocating():
    """The cap sits beside the list because nan fails the `>= 2` check
    first, so it has no nan case of its own. 10^8 points once ran past a
    60 s timeout."""
    weights = init_weights(_PATH_NET, seed=1)
    first = landscape.MAX_GRID_POINTS + 1
    with pytest.raises(ValueError) as exc:
        landscape.constant_loss_path(_PATH_NET, weights, weights, np.ones((6, 2)), np.zeros(2), grid_points=first)
    assert str(exc.value) == f"grid_points must be at most 100000, got {first}"
