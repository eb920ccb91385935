"""Tests for tangent-kernel machinery: covariance recursion, limit and
empirical kernels, closed-form linearized training, the bayesian posterior
identity, the two-layer convergence monitor, and kernel-label alignment."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from dltl import meanfield, ntk
from dltl.netcore import NetConfig, backward, forward, init_weights


def _relu_config(widths, sigma_w2=2.0):
    return NetConfig(widths=widths, activation="relu", parameterization="ntk", sigma_w2=sigma_w2)


class TestKernelGram:
    def test_accepts_psd_and_reports_lambda_min(self):
        mat = np.array([[2.0, 1.0], [1.0, 2.0]])
        gram = ntk.KernelGram(mat, tag="nngp")
        np.testing.assert_allclose(gram.lambda_min(), 1.0, atol=1e-12)
        assert gram.size == 2

    def test_lambda_min_is_the_validated_spectrum(self):
        """lambda_min reads the eigvalsh spectrum the constructor computed
        to validate the gram, so it equals a fresh eigvalsh bit for bit."""
        a = np.random.default_rng(3).standard_normal((7, 5))
        mat = a @ a.T
        gram = ntk.KernelGram(mat, tag="nngp")
        assert gram.lambda_min() == float(np.linalg.eigvalsh(mat)[0])
        np.testing.assert_array_equal(gram.eigvals, np.linalg.eigvalsh(mat))
        assert gram == ntk.KernelGram(mat, tag="nngp")

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetry"):
            ntk.KernelGram(np.array([[1.0, 0.5], [0.2, 1.0]]), tag="nngp")

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            ntk.KernelGram(np.array([[1.0, 2.0], [2.0, 1.0]]), tag="nngp")

    def test_rejects_bad_tag_and_shape(self):
        with pytest.raises(ValueError, match="unknown kernel tag"):
            ntk.KernelGram(np.eye(2), tag="mystery")
        with pytest.raises(ValueError, match="square"):
            ntk.KernelGram(np.ones((2, 3)), tag="nngp")


class TestRecursion:
    def test_linear_network_closed_form(self):
        """For a linear activation every layer multiplies q12 by sigma_w^2 and
        chi_l = sigma_w^2, so Theta_0 = (L+1) sigma_w^{2(L+1)} x.x' / n_0."""
        config = NetConfig(widths=(4, 7, 7, 7, 1), activation="linear",
                           parameterization="ntk", sigma_w2=1.3)
        rng = np.random.default_rng(0)
        x, xp = rng.standard_normal(4), rng.standard_normal(4)
        state = ntk.nngp_recursion(x, xp, config)
        L = config.depth
        base = float(x @ xp) / 4.0
        np.testing.assert_allclose(state.nngp_value(), 1.3 ** (L + 1) * base, rtol=1e-12)
        np.testing.assert_allclose(
            state.ntk_value(), (L + 1) * 1.3 ** (L + 1) * base, rtol=1e-12
        )

    def test_relu_matches_arccos_maps(self):
        """The polar quadrature reproduces the closed-form relu pair moments
        layer by layer."""
        config = _relu_config((5, 8, 8, 1))
        rng = np.random.default_rng(1)
        x, xp = rng.standard_normal(5), rng.standard_normal(5)
        state = ntk.nngp_recursion(x, xp, config)
        act = config.activation
        for l in range(config.depth):
            c = state.q12[l] / math.sqrt(state.q11[l] * state.q22[l])
            q_next = meanfield.corr_map(c, state.q11[l], state.q22[l], 2.0, act)
            chi = meanfield.chi_map(c, state.q11[l], state.q22[l], 2.0, act)
            np.testing.assert_allclose(state.q12[l + 1], q_next, atol=1e-12)
            np.testing.assert_allclose(state.chi[l], chi, atol=1e-12)

    def test_tanh_matches_quadrature_oracle(self):
        """One tanh layer against an adaptive 2-D quadrature."""
        config = NetConfig(widths=(3, 6, 1), activation="tanh",
                           parameterization="ntk", sigma_w2=1.5)
        rng = np.random.default_rng(2)
        x, xp = rng.standard_normal(3), rng.standard_normal(3)
        state = ntk.nngp_recursion(x, xp, config)
        q11, q12, q22 = state.q11[0], state.q12[0], state.q22[0]
        c = q12 / math.sqrt(q11 * q22)

        def pair_ev(f):
            def inner(z2, z1):
                u = math.sqrt(q11) * z1
                v = math.sqrt(q22) * (c * z1 + math.sqrt(1 - c * c) * z2)
                w = math.exp(-0.5 * (z1 * z1 + z2 * z2)) / (2 * math.pi)
                return f(u) * f(v) * w

            val, _ = integrate.dblquad(inner, -8, 8, -8, 8, epsabs=1e-11)
            return val

        np.testing.assert_allclose(state.q12[1], 1.5 * pair_ev(math.tanh), atol=1e-8)
        np.testing.assert_allclose(
            state.chi[0], 1.5 * pair_ev(lambda z: 1.0 / math.cosh(z) ** 2), atol=1e-8
        )

    def test_coincident_inputs_collapse(self):
        """x = x' forces q12 = q11 = q22 down the whole recursion."""
        config = _relu_config((4, 5, 5, 1))
        x = np.random.default_rng(3).standard_normal(4)
        state = ntk.nngp_recursion(x, x, config)
        np.testing.assert_allclose(state.q12, state.q11, rtol=1e-12)
        np.testing.assert_allclose(state.q11, state.q22, rtol=1e-12)

    def test_state_validation(self):
        with pytest.raises(ValueError, match="Cauchy-Schwarz"):
            ntk.KernelRecursionState(
                q11=np.array([1.0, 1.0]), q12=np.array([0.5, 2.0]),
                q22=np.array([1.0, 1.0]), chi=np.array([1.0]),
            )
        with pytest.raises(ValueError, match="one chi per"):
            ntk.KernelRecursionState(
                q11=np.array([1.0, 1.0]), q12=np.array([0.5, 0.5]),
                q22=np.array([1.0, 1.0]), chi=np.array([1.0, 1.0]),
            )

    def test_input_validation(self):
        config = _relu_config((4, 5, 1))
        with pytest.raises(ValueError, match="share a dimension"):
            ntk.nngp_recursion(np.ones(4), np.ones(3), config)
        with pytest.raises(ValueError, match="config expects"):
            ntk.nngp_recursion(np.ones(5), np.ones(5), config)


class TestGrams:
    def test_limiting_ntk_structure(self):
        config = _relu_config((3, 8, 1))
        x = np.random.default_rng(4).standard_normal((3, 5))
        gram = ntk.limiting_ntk(x, config)
        assert gram.tag == "limiting_ntk"
        assert gram.size == 5
        assert gram.lambda_min() > 0

    def test_limiting_requires_ntk_parameterization(self):
        config = NetConfig(widths=(3, 8, 1), activation="relu")
        with pytest.raises(ValueError, match="ntk parameterization"):
            ntk.limiting_ntk(np.eye(3), config)

    def test_last_layer_collapses_to_nngp(self):
        config = _relu_config((3, 8, 1))
        x = np.random.default_rng(5).standard_normal((3, 4))
        frozen = ntk.limiting_ntk(x, config, last_layer_only=True)
        nngp = ntk.nngp_gram(x, config)
        np.testing.assert_allclose(frozen.matrix, nngp.matrix, atol=1e-12)

    def test_multi_output_is_kron(self):
        config = _relu_config((3, 8, 2))
        x = np.random.default_rng(6).standard_normal((3, 3))
        scalar = ntk.limiting_ntk(x, config)
        block = ntk.limiting_ntk(x, config, outputs=2)
        np.testing.assert_allclose(block.matrix, np.kron(scalar.matrix, np.eye(2)), atol=1e-12)

    def test_empirical_matches_hand_gradients(self):
        """For f = W_1 W_0 x the tangent kernel is
        ||W_1||^2 x.x' + (W_0 x).(W_0 x')."""
        config = NetConfig(widths=(2, 3, 1), activation="linear")
        weights = init_weights(config, seed=7)
        x = np.random.default_rng(8).standard_normal((2, 4))
        gram = ntk.empirical_ntk(config, weights, x)
        w0, w1 = weights
        expect = float(w1.ravel() @ w1.ravel()) * (x.T @ x) + (w0 @ x).T @ (w0 @ x)
        np.testing.assert_allclose(gram.matrix, expect, atol=1e-10)

    def test_empirical_multi_output_layout(self):
        """Rows are example major, output minor; each entry is a gradient
        inner product computed independently by backward."""
        config = _relu_config((3, 6, 2))
        weights = init_weights(config, seed=9)
        x = np.random.default_rng(10).standard_normal((3, 2))
        gram = ntk.empirical_ntk(config, weights, x)
        assert gram.size == 4
        flat = []
        for i in range(2):
            trace = forward(config, weights, x[:, i])
            for a in range(2):
                grads = backward(config, weights, trace, output_index=a).grads
                flat.append(np.concatenate([g.ravel() for g in grads]))
        expect = np.array([[gi @ gj for gj in flat] for gi in flat])
        np.testing.assert_allclose(gram.matrix, expect, atol=1e-12)


class TestLinearizedTraining:
    def _setup(self, kernel="limiting", seed=11, widths=(3, 16, 1)):
        config = _relu_config(widths)
        weights = init_weights(config, seed=seed)
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal((3, 4))
        y = rng.standard_normal(4)
        sol = ntk.linearize(config, weights, x, y, eta=1.0, kernel=kernel)
        return config, weights, x, y, sol

    def test_infinite_time_interpolates(self):
        """t = inf drives the train outputs exactly onto the labels."""
        for kernel in ("limiting", "empirical", "last_layer"):
            _, _, x, y, sol = self._setup(kernel=kernel)
            pred = ntk.linearized_train(sol, x, math.inf)
            np.testing.assert_allclose(pred.f_lin, y, atol=1e-8)

    def test_zero_time_is_initial_model(self):
        config, weights, x, y, sol = self._setup()
        pred = ntk.linearized_train(sol, x, 0.0)
        np.testing.assert_allclose(pred.f_lin, sol.f0_train, atol=1e-12)
        np.testing.assert_allclose(pred.gp_mean, 0.0, atol=1e-12)
        nngp = ntk.nngp_gram(x, config)
        np.testing.assert_allclose(pred.gp_cov, nngp.matrix, atol=1e-10)

    def test_closed_form_matches_euler(self):
        """The matrix exponential agrees with explicit Euler integration of
        df/dt = -(eta/m) Theta (f - y) on train and query points."""
        config, weights, x, y, sol = self._setup()
        rng = np.random.default_rng(12)
        xq = rng.standard_normal((3, 2))
        theta = sol.gram.matrix
        theta_cross, _ = ntk._pair_kernels(xq, x, config, sol.nodes)
        f = sol.f0_train.copy()
        fq = forward(config, sol.weights, xq).output.ravel()
        dt, T = 1e-4, 2.0
        for _ in range(int(T / dt)):
            resid = f - y
            fq = fq - dt * (sol.eta / sol.m) * theta_cross @ resid
            f = f - dt * (sol.eta / sol.m) * theta @ resid
        np.testing.assert_allclose(ntk.linearized_train(sol, x, T).f_lin, f, atol=1e-4)
        np.testing.assert_allclose(ntk.linearized_train(sol, xq, T).f_lin, fq, atol=1e-4)

    def test_last_layer_limit_is_bayes_posterior(self):
        """Training only the output layer to t = inf reproduces the exact GP
        posterior mean and covariance under the NNGP prior."""
        config, weights, x, y, sol = self._setup(kernel="last_layer")
        xq = np.random.default_rng(13).standard_normal((3, 3))
        pred = ntk.linearized_train(sol, xq, math.inf)
        mean, cov = ntk.bayes_posterior(None, x, y, xq, config)
        np.testing.assert_allclose(pred.gp_mean, mean, atol=1e-8)
        np.testing.assert_allclose(pred.gp_cov, cov, atol=1e-8)

    def test_full_kernel_limit_is_not_bayes(self):
        """Training every layer leaves a systematic gap to the posterior."""
        config, weights, x, y, sol = self._setup(kernel="limiting")
        xq = np.random.default_rng(14).standard_normal((3, 3))
        pred = ntk.linearized_train(sol, xq, math.inf)
        _, cov = ntk.bayes_posterior(None, x, y, xq, config)
        assert float(np.max(np.abs(pred.gp_cov - cov))) > 1e-3

    def test_keeps_read_only_views_of_the_weights(self):
        """The solution shares the caller's weight memory instead of copying
        it, and cannot write into it; the caller's arrays stay writeable."""
        for kernel in ("limiting", "empirical", "last_layer"):
            _, weights, _, _, sol = self._setup(kernel=kernel)
            for kept, given in zip(sol.weights, weights, strict=True):
                assert np.shares_memory(kept, given)
                assert not kept.flags.writeable
                assert given.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    kept[0, 0] = 1.0

    def test_multi_output_interpolation(self):
        config = _relu_config((3, 8, 2))
        weights = init_weights(config, seed=15)
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 3))
        y = rng.standard_normal(6)
        sol = ntk.linearize(config, weights, x, y, eta=1.0)
        pred = ntk.linearized_train(sol, x, math.inf)
        np.testing.assert_allclose(pred.f_lin, y, atol=1e-8)

    def test_singular_gram_rejected(self):
        config = _relu_config((3, 8, 1))
        weights = init_weights(config, seed=17)
        x = np.random.default_rng(18).standard_normal((3, 3))
        x = np.concatenate([x, x[:, :1]], axis=1)
        with pytest.raises(ValueError, match="singular"):
            ntk.linearize(config, weights, x, np.zeros(4), eta=1.0)

    def test_argument_validation(self):
        config, weights, x, y, sol = self._setup()
        for eta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="eta must be positive and finite"):
                ntk.linearize(config, sol.weights, x, y, eta=eta)
        with pytest.raises(ValueError, match="unknown kernel"):
            ntk.linearize(config, sol.weights, x, y, eta=1.0, kernel="mystery")
        with pytest.raises(ValueError, match="label entries"):
            ntk.linearize(config, sol.weights, x, y[:-1], eta=1.0)
        for t in (-1.0, math.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                ntk.linearized_train(sol, x, t)

    def test_overflowing_time_is_the_trained_limit(self):
        """eta lambda t / m overflowing to inf is the t -> infinity limit,
        reached without a warning."""
        _, _, x, _, sol = self._setup()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = ntk.linearized_train(sol, x, 1e308)
        np.testing.assert_array_equal(far.f_lin, ntk.linearized_train(sol, x, math.inf).f_lin)


class TestBayesPosterior:
    def test_matches_direct_solve(self):
        config = _relu_config((3, 8, 1))
        rng = np.random.default_rng(19)
        x = rng.standard_normal((3, 4))
        y = rng.standard_normal(4)
        xq = rng.standard_normal((3, 2))
        mean, cov = ntk.bayes_posterior(None, x, y, xq, config)
        q_train = ntk.nngp_gram(x, config).matrix
        _, q_cross = ntk._pair_kernels(xq, x, config, ntk.GH_NODES)
        _, q_query = ntk._pair_kernels(xq, None, config, ntk.GH_NODES)
        np.testing.assert_allclose(mean, q_cross @ np.linalg.solve(q_train, y), atol=1e-10)
        np.testing.assert_allclose(
            cov, q_query - q_cross @ np.linalg.solve(q_train, q_cross.T), atol=1e-10
        )

    def test_train_points_have_zero_posterior_variance(self):
        """Noise-free regression pins the posterior at the data."""
        config = _relu_config((3, 8, 1))
        rng = np.random.default_rng(20)
        x = rng.standard_normal((3, 4))
        y = rng.standard_normal(4)
        mean, cov = ntk.bayes_posterior(None, x, y, x, config)
        np.testing.assert_allclose(mean, y, atol=1e-8)
        np.testing.assert_allclose(np.diag(cov), 0.0, atol=1e-8)

    def test_validation(self):
        config = _relu_config((3, 8, 2))
        with pytest.raises(ValueError, match="scalar outputs"):
            ntk.bayes_posterior(None, np.eye(3), np.ones(4), np.eye(3), config)
        config1 = _relu_config((3, 8, 1))
        wrong = ntk.nngp_gram(np.eye(3)[:, :2], config1)
        with pytest.raises(ValueError, match="does not match"):
            ntk.bayes_posterior(wrong, np.eye(3), np.ones(3), np.eye(3), config1)


class TestHInfinityGram:
    def test_diagonal_is_half_norm(self):
        """theta = 0 on the diagonal gives ||x||^2 / 2."""
        x = np.random.default_rng(21).standard_normal((4, 3))
        h = ntk.h_infinity_gram(x)
        np.testing.assert_allclose(np.diag(h.matrix), 0.5 * np.sum(x * x, axis=0), atol=1e-12)

    def test_opposite_inputs_decouple(self):
        """theta = pi kills the shared arc: no weight activates both."""
        x = np.array([[1.0, -1.0], [0.0, 0.0]])
        h = ntk.h_infinity_gram(x)
        np.testing.assert_allclose(h.matrix[0, 1], 0.0, atol=1e-12)

    def test_angle_matches_monte_carlo(self):
        """The closed-form arc measure agrees with indicator sampling."""
        x = np.random.default_rng(22).standard_normal((5, 4))
        x /= np.linalg.norm(x, axis=0)
        exact = ntk.h_infinity_gram(x, method="angle")
        mc = ntk.h_infinity_gram(x, method="mc", mc_samples=400_000, seed=23)
        np.testing.assert_allclose(mc.matrix, exact.matrix, atol=5e-3)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown method"):
            ntk.h_infinity_gram(np.eye(2), method="exactly")
        with pytest.raises(ValueError, match="column dataset"):
            ntk.h_infinity_gram(np.ones(3))


class TestOverflowingInputs:
    """An input whose squared norm overflows is rejected by each path's own
    check, without numpy's RuntimeWarning on the way."""

    x = np.array([[0.5, 1.0], [1e300, 0.3]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call, message", [
        (lambda x: ntk.h_infinity_gram(x), "non-finite entries"),
        (lambda x: ntk.h_infinity_gram(x, method="mc", mc_samples=50), "non-finite entries"),
        (lambda x: ntk.nngp_gram(x, _relu_config((2, 4, 1))), "q must be finite"),
        (lambda x: ntk.limiting_ntk(x, NetConfig(widths=(2, 4, 1), activation="tanh",
                                                parameterization="ntk")), "q must be finite"),
        (lambda x: ntk.du_convergence_monitor(x, np.array([0.1, 0.2]), n=4, eta=0.1, T=1.0), "unit ball"),
    ])
    def test_rejected_without_a_warning(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(self.x)

    def test_gram_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="non-finite entries"):
            ntk.KernelGram(np.array([[np.inf, 0.0], [0.0, 1.0]]), tag="nngp")


class TestDuMonitor:
    def _inputs(self, m=4, d=6, seed=5):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((d, m))
        x /= np.linalg.norm(x, axis=0)
        y = rng.uniform(-0.8, 0.8, size=m)
        return x, y

    def test_loss_under_envelope_and_displacement_bounded(self):
        """At moderate width the loss stays below 1.1 exp(-lambda_0 t) loss(0)
        and no neuron moves further than 1.1 R'."""
        x, y = self._inputs()
        traj = ntk.du_convergence_monitor(x, y, n=2048, eta=0.5, T=40.0, seed=3)
        envelope = 1.1 * np.exp(-traj.lambda0 * traj.t) * traj.loss[0]
        assert np.all(traj.loss <= envelope)
        assert np.max(traj.max_displacement) <= 1.1 * traj.r_prime
        assert traj.loss[-1] < 1e-6 * traj.loss[0]

    def test_gram_stays_near_infinite_width(self):
        """lambda_min(H(t)) stays within the drift of lambda_0, and the drift
        itself starts at zero and stays small at width 2048."""
        x, y = self._inputs(seed=6)
        traj = ntk.du_convergence_monitor(x, y, n=2048, eta=0.5, T=20.0, seed=4)
        assert traj.h_drift[0] == 0.0
        assert np.max(traj.h_drift) < 0.2
        assert np.min(traj.lambda_min_h) > 0.5 * traj.lambda0

    def test_grid_and_r_prime_formula(self):
        x, y = self._inputs(seed=7)
        traj = ntk.du_convergence_monitor(x, y, n=256, eta=0.25, T=5.0, seed=5)
        np.testing.assert_allclose(traj.t, np.arange(traj.t.size) * 0.25, atol=1e-12)
        expect = (2.0 / traj.lambda0) * math.sqrt(x.shape[1] / 256) * math.sqrt(traj.loss[0])
        np.testing.assert_allclose(traj.r_prime, expect, rtol=1e-12)

    def test_validation(self):
        x, y = self._inputs()
        with pytest.raises(ValueError, match="unit ball"):
            ntk.du_convergence_monitor(2.0 * x, y, n=16, eta=0.1, T=1.0)
        with pytest.raises(ValueError, match="inside"):
            ntk.du_convergence_monitor(x, np.ones_like(y), n=16, eta=0.1, T=1.0)
        with pytest.raises(ValueError, match="positive"):
            ntk.du_convergence_monitor(x, y, n=16, eta=0.0, T=1.0)
        with pytest.raises(ValueError, match="one label per column"):
            ntk.du_convergence_monitor(x, y[:-1], n=16, eta=0.1, T=1.0)

    @pytest.mark.parametrize("eta, T", [(1e-9, 20.0), (1e-300, 1e300)])
    def test_step_count_is_capped(self, eta, T):
        """ceil(T / eta) steps once ran unchecked; 1e-9 asked for four
        arrays of 2e10 floats, and an overflowing T / eta for infinitely many."""
        x, y = self._inputs()
        with pytest.raises(ValueError, match="exceeds the cap"):
            ntk.du_convergence_monitor(x, y, n=16, eta=eta, T=T)


class TestAlignment:
    def _gram(self, m=5, seed=24):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, m))
        x /= np.linalg.norm(x, axis=0)
        return ntk.h_infinity_gram(x), rng.standard_normal(m), rng.standard_normal(m)

    def test_curve_formula_and_parseval(self):
        h, y, u0 = self._gram()
        t_grid = np.linspace(0.0, 5.0, 50)
        report = ntk.alignment(h, y, u0, t_grid=t_grid)
        resid = y - u0
        np.testing.assert_allclose(report.curve[0], resid @ resid, rtol=1e-12)
        np.testing.assert_allclose(report.projections @ report.projections,
                                   resid @ resid, rtol=1e-12)
        manual = np.exp(-2.0 * np.outer(report.t, report.eigvals)) @ report.projections**2
        np.testing.assert_allclose(report.curve, manual, rtol=1e-12)
        assert np.all(np.diff(report.curve) <= 1e-12)

    def test_default_grid_brackets_the_decay(self):
        """The automatic grid starts before the fastest mode turns over and
        ends after the slowest positive mode has died."""
        h, y, u0 = self._gram(seed=28)
        report = ntk.alignment(h, y, u0)
        resid = y - u0
        np.testing.assert_allclose(report.curve[0], resid @ resid, rtol=0.05)
        assert report.curve[-1] < 1e-8 * report.curve[0]

    def test_matches_gradient_flow_oracle(self):
        """RK4 on u' = -H (u - y) lands on the spectral prediction."""
        h, y, u0 = self._gram(seed=25)
        t_grid = np.linspace(0.0, 3.0, 31)
        report = ntk.alignment(h, y, u0, t_grid=t_grid)
        k = h.matrix
        u = u0.copy()
        curve = [float((y - u) @ (y - u))]
        sub = 64
        for i in range(1, t_grid.size):
            dt = (t_grid[i] - t_grid[i - 1]) / sub
            for _ in range(sub):
                k1 = -k @ (u - y)
                k2 = -k @ (u + 0.5 * dt * k1 - y)
                k3 = -k @ (u + 0.5 * dt * k2 - y)
                k4 = -k @ (u + dt * k3 - y)
                u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            curve.append(float((y - u) @ (y - u)))
        np.testing.assert_allclose(report.curve, curve, atol=1e-9)

    def test_time_to_fraction(self):
        h, y, u0 = self._gram(seed=26)
        report = ntk.alignment(h, y, u0)
        t_half = report.time_to_fraction(0.5)
        idx = np.searchsorted(report.t, t_half)
        assert report.curve[idx] <= 0.5 * report.curve[0]
        if idx > 0:
            assert report.curve[idx - 1] > 0.5 * report.curve[0]
        with pytest.raises(ValueError, match="fraction"):
            report.time_to_fraction(1.5)

    def test_validation(self):
        h, y, u0 = self._gram(seed=27)
        with pytest.raises(ValueError, match="match the gram"):
            ntk.alignment(h, y[:-1], u0[:-1])
