"""Tests for the generalization-bound calculators that `dltl bounds` and
the benchmark serve: norm profiles, the spectral margin bound, the
PAC-Bayes spectral and McAllester bounds, the Dziugaite-Roy optimizer and
margin statistics."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest

from dltl import genbounds as gb
from dltl.netcore import NetConfig


class TestNormProfile:
    def test_norm_chain_on_random_matrices(self):
        """spectral <= frobenius <= two_one holds for every matrix."""
        rng = np.random.default_rng(1)
        for _ in range(50):
            shape = (int(rng.integers(1, 8)), int(rng.integers(1, 8)))
            profile = gb.norm_profile([rng.standard_normal(shape)])
            s, f, b = profile.spectral[0], profile.frobenius[0], profile.two_one[0]
            assert s <= f + 1e-12
            assert f <= b + 1e-12

    def test_norm_values_on_known_matrix(self):
        w = np.array([[3.0, 0.0], [0.0, 4.0]])
        profile = gb.norm_profile([w])
        np.testing.assert_allclose(profile.spectral[0], 4.0, rtol=1e-12)
        np.testing.assert_allclose(profile.frobenius[0], 5.0, rtol=1e-12)
        np.testing.assert_allclose(profile.two_one[0], 7.0, rtol=1e-12)
        assert profile.shapes == ((2, 2),)
        assert profile.max_width == 2

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_orthogonal_layers_are_at_the_chain_ends(self, n):
        """An n x n orthogonal matrix has spectral norm 1, Frobenius norm
        sqrt(n) and n unit columns, so its (2,1)-norm is n."""
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        prof = gb.norm_profile([q, -q.T])
        np.testing.assert_allclose(prof.spectral, 1.0, rtol=1e-12)
        np.testing.assert_allclose(prof.frobenius, math.sqrt(n), rtol=1e-12)
        np.testing.assert_allclose(prof.two_one, n, rtol=1e-12)
        assert prof.shapes == ((n, n), (n, n)) and prof.max_width == n

    def test_chain_violations_rejected(self):
        with pytest.raises(ValueError, match="norm chain"):
            gb.NormProfile(spectral=(2.0,), frobenius=(1.0,), two_one=(3.0,),
                           shapes=((2, 2),))
        with pytest.raises(ValueError, match="norm chain"):
            gb.NormProfile(spectral=(1.0,), frobenius=(3.0,), two_one=(2.0,),
                           shapes=((2, 2),))
        with pytest.raises(ValueError, match="one entry per layer"):
            gb.NormProfile(spectral=(1.0, 1.0), frobenius=(1.0,), two_one=(1.0,),
                           shapes=((2, 2),))


class TestSpectralComplexities:
    def test_covering_complexity_all_ones(self):
        """Two unit layers give (1 + 1)^{3/2} = 2 sqrt(2)."""
        value = gb.spectral_complexity_covering((1.0, 1.0), (1.0, 1.0))
        np.testing.assert_allclose(value, 2.0 * math.sqrt(2.0), rtol=1e-12)

    def test_covering_complexity_homogeneous(self):
        """Scaling every s_l and b_l by beta scales the value by beta^{L+1}."""
        rng = np.random.default_rng(2)
        s = tuple(rng.uniform(0.5, 2.0, size=3))
        b = tuple(v * rng.uniform(1.0, 2.0) for v in s)
        base = gb.spectral_complexity_covering(s, b)
        beta = 1.7
        scaled = gb.spectral_complexity_covering(
            tuple(beta * v for v in s), tuple(beta * v for v in b)
        )
        np.testing.assert_allclose(scaled / base, beta**3, rtol=1e-10)
        np.testing.assert_allclose(
            gb.spectral_complexity_covering((1.7, 1.7), (1.7, 1.7)),
            2.0 * math.sqrt(2.0) * 2.89,
            rtol=1e-12,
        )

    def test_ratio_complexity_identity_layers(self):
        """R(I_2, I_2) = 1 * sqrt(2 + 2) = 2."""
        np.testing.assert_allclose(
            gb.spectral_complexity_ratio([np.eye(2), np.eye(2)]), 2.0, rtol=1e-12
        )

    def test_ratio_complexity_rescaling_invariant(self):
        """Balanced rescaling W_l -> (beta / |W_l|_2) W_l with beta the
        geometric mean of the spectral norms leaves R unchanged."""
        rng = np.random.default_rng(3)
        weights = [rng.standard_normal((4, 4)) for _ in range(3)]
        base = gb.spectral_complexity_ratio(weights)
        spectrals = [np.linalg.svd(w, compute_uv=False)[0] for w in weights]
        beta = math.exp(np.mean(np.log(spectrals)))
        rescaled = [(beta / s) * w for w, s in zip(weights, spectrals)]
        np.testing.assert_allclose(gb.spectral_complexity_ratio(rescaled), base, rtol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            gb.spectral_complexity_covering((0.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="zero layer"):
            gb.spectral_complexity_ratio([np.zeros((2, 2))])


class TestBartlettBound:
    def _unit_profile(self):
        return gb.NormProfile(spectral=(1.0, 1.0), frobenius=(1.0, 1.0),
                              two_one=(1.0, 1.0), shapes=((4, 4), (4, 4)))

    def test_frozen_value(self):
        report = gb.bartlett_bound(self._unit_profile(), x_norm_f=2.0, gamma=1.0,
                                   m=50_000, delta=0.05)
        np.testing.assert_allclose(report.bound, 0.04426317985476634, rtol=1e-10)
        assert report.details["in_validity_regime"]
        assert report.family == "bartlett"

    def test_margin_risk_added(self):
        base = gb.bartlett_bound(self._unit_profile(), 2.0, 1.0, 50_000, 0.05)
        shifted = gb.bartlett_bound(self._unit_profile(), 2.0, 1.0, 50_000, 0.05,
                                    margin_risk=0.25)
        np.testing.assert_allclose(shifted.bound - base.bound, 0.25, rtol=1e-12)

    def test_monotone_in_m_and_gamma(self):
        rng = np.random.default_rng(4)
        profile = self._unit_profile()
        for _ in range(20):
            m = int(rng.integers(10_000, 100_000))
            gamma = float(rng.uniform(0.5, 2.0))
            base = gb.bartlett_bound(profile, 2.0, gamma, m, 0.05).bound
            assert gb.bartlett_bound(profile, 2.0, gamma, 4 * m, 0.05).bound < base
            assert gb.bartlett_bound(profile, 2.0, 2 * gamma, m, 0.05).bound < base

    def test_out_of_regime_clamps_to_one(self):
        report = gb.bartlett_bound(self._unit_profile(), 2.0, 1e-4, 10, 0.05)
        assert not report.details["in_validity_regime"]
        assert report.bound == 1.0

    def test_validation(self):
        profile = self._unit_profile()
        with pytest.raises(ValueError, match="gamma"):
            gb.bartlett_bound(profile, 2.0, 0.0, 100, 0.05)
        with pytest.raises(ValueError, match="X"):
            gb.bartlett_bound(profile, 0.0, 1.0, 100, 0.05)
        with pytest.raises(ValueError, match="margin risk"):
            gb.bartlett_bound(profile, 2.0, 1.0, 100, 0.05, margin_risk=1.5)


class TestNeyshaburBound:
    def test_identity_layers_penalty_formula(self):
        """With R(theta) = 2 for two identity layers the penalty follows the
        explicit formula term by term."""
        weights = [np.eye(2), np.eye(2)]
        report = gb.neyshabur_bound(weights, gamma=1.0, B=1.0, m=1000, delta=0.05)
        depth, width, comp = 2, 2, 2.0
        expect_sq = (
            math.log(8.0 * depth * 1000 / 0.05)
            + math.log(1000) / (2.0 * depth)
            + 8.0 * math.e**4 * (comp / 1.0) ** 2 * depth**2 * width
            * math.log(2.0 * depth * width)
        ) / (2.0 * 1000 - 1.0)
        np.testing.assert_allclose(report.bound, math.sqrt(expect_sq), rtol=1e-12)
        assert report.details["margin_risk"] is None

    def test_margin_stats_added(self):
        config = NetConfig(widths=(2, 3, 1), activation="relu")
        rng = np.random.default_rng(5)
        weights = [rng.standard_normal((3, 2)), rng.standard_normal((1, 3))]
        x = rng.standard_normal((8, 2))
        y = np.sign(rng.standard_normal(8))
        stats = gb.margin_stats(weights, config, (x, y), gamma=0.5)
        base = gb.neyshabur_bound(weights, 0.5, 1.0, 8, 0.1)
        with_risk = gb.neyshabur_bound(weights, 0.5, 1.0, 8, 0.1, margin_stats=stats)
        np.testing.assert_allclose(with_risk.bound - base.bound, stats.hard_risk,
                                   rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            gb.neyshabur_bound([np.eye(2)], gamma=-1.0, B=1.0, m=10, delta=0.1)
        with pytest.raises(ValueError, match="no weight"):
            gb.neyshabur_bound([], gamma=1.0, B=1.0, m=10, delta=0.1)


def _kl(post):
    return gb.gaussian_kl(post.mean, post.log_var, post.prior_mean, post.prior_log_var)


class TestGaussianKL:
    def test_zero_for_matching_distributions(self):
        post = gb.GaussianPosterior(mean=np.ones(3), log_var=np.full(3, -1.0),
                                    prior_mean=np.ones(3), prior_log_var=-1.0)
        assert _kl(post) == 0.0

    def test_unit_mean_shift(self):
        """Equal unit variances, one dimension, unit shift: KL = 1/2."""
        post = gb.GaussianPosterior(mean=np.array([1.0]), log_var=np.array([0.0]),
                                    prior_mean=np.array([0.0]), prior_log_var=0.0)
        np.testing.assert_allclose(_kl(post), 0.5, rtol=1e-12)

    def test_adds_over_coordinates(self):
        """Diagonal posterior and isotropic prior factor over coordinates, so
        the KL of the whole is the sum of the KLs of any split."""
        rng = np.random.default_rng(7)
        mean, log_var, prior_mean = rng.standard_normal((3, 6))

        def kl(part):
            return gb.gaussian_kl(mean[part], log_var[part], prior_mean[part], -0.4)

        whole = kl(slice(None))
        np.testing.assert_allclose(kl(slice(0, 2)) + kl(slice(2, 6)), whole, rtol=1e-12)

    def test_against_direct_formula(self):
        rng = np.random.default_rng(6)
        mean = rng.standard_normal(4)
        log_var = rng.uniform(-2.0, 1.0, size=4)
        prior_mean = rng.standard_normal(4)
        lam_star = 0.3
        post = gb.GaussianPosterior(mean=mean, log_var=log_var,
                                    prior_mean=prior_mean, prior_log_var=lam_star)
        shift = mean - prior_mean
        expect = 0.5 * (
            math.exp(-lam_star) * (np.sum(np.exp(log_var)) + shift @ shift)
            + 4 * lam_star - np.sum(log_var) - 4
        )
        np.testing.assert_allclose(_kl(post), expect, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="sizes differ"):
            gb.GaussianPosterior(mean=np.ones(2), log_var=np.ones(3),
                                 prior_mean=np.ones(2), prior_log_var=0.0)
        with pytest.raises(ValueError, match="finite"):
            gb.GaussianPosterior(mean=np.array([np.inf]), log_var=np.zeros(1),
                                 prior_mean=np.zeros(1), prior_log_var=0.0)


def _shifted_posterior(kl: float) -> gb.GaussianPosterior:
    """A one-parameter unit-variance posterior whose KL to N(0, 1) is
    |mu|^2 / 2 = kl."""
    return gb.GaussianPosterior(mean=np.array([math.sqrt(2.0 * kl)]), log_var=np.zeros(1),
                                prior_mean=np.zeros(1), prior_log_var=0.0)


class TestMcAllester:
    def test_frozen_zero_kl_value(self):
        """sqrt(log(4m/delta) / (2m - 1)) at m = 1000, delta = 0.05, for a
        posterior equal to its prior and a zero risk."""
        report = gb.pacbayes_mcallester(1000, 0.05, posterior=_shifted_posterior(0.0), risk_fn=lambda t: 0.0)
        assert report.details["kl"] == 0.0
        np.testing.assert_allclose(report.bound, 0.07515127952493642, rtol=1e-12)
        np.testing.assert_allclose(
            report.bound, math.sqrt(math.log(4000 / 0.05) / 1999), rtol=1e-12
        )

    def test_monotone_in_kl_and_m(self):
        rng = np.random.default_rng(7)

        def bound(m, kl):
            return gb.pacbayes_mcallester(m, 0.05, posterior=_shifted_posterior(kl), risk_fn=lambda t: 0.0).bound

        for _ in range(20):
            m = int(rng.integers(100, 50_000))
            kl = float(rng.uniform(0.0, 50.0))
            base = bound(m, kl)
            assert bound(m, kl + 1.0) > base
            assert bound(4 * m, kl) < base

    def test_posterior_kl_enters_the_penalty(self):
        """A unit mean shift under unit variances has KL 1/2, and the bound
        is sqrt((log(4m/delta) + 1/2) / (2m - 1)) at zero risk."""
        post = gb.GaussianPosterior(mean=np.array([1.0]), log_var=np.array([0.0]),
                                    prior_mean=np.array([0.0]), prior_log_var=0.0)
        report = gb.pacbayes_mcallester(500, 0.1, posterior=post, risk_fn=lambda t: 0.0)
        np.testing.assert_allclose(report.details["kl"], 0.5, rtol=1e-12)
        np.testing.assert_allclose(report.bound, math.sqrt((math.log(4 * 500 / 0.1) + 0.5) / 999), rtol=1e-12)

    def test_risk_sampling(self):
        """A constant risk_fn contributes itself with zero standard error."""
        post = gb.GaussianPosterior(mean=np.zeros(2), log_var=np.zeros(2),
                                    prior_mean=np.zeros(2), prior_log_var=0.0)
        report = gb.pacbayes_mcallester(1000, 0.05, posterior=post,
                                        risk_fn=lambda theta: 0.25, samples=50)
        np.testing.assert_allclose(
            report.bound, 0.25 + report.details["penalty"], rtol=1e-12
        )
        assert report.details["empirical_risk_se"] == 0.0

    def test_validation(self):
        post = _shifted_posterior(0.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            gb.pacbayes_mcallester(100, 0.05, posterior=post,
                                   risk_fn=lambda t: 2.0, samples=5)
        with pytest.raises(ValueError, match="at least 2 posterior samples"):
            gb.pacbayes_mcallester(100, 0.05, posterior=post, risk_fn=lambda t: 0.0, samples=1)


class TestDziugaiteRoy:
    def _toy(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 3))
        y = np.sign(x @ np.array([1.0, -0.5, 0.25]))
        post = gb.GaussianPosterior(
            mean=np.zeros(3), log_var=-3.0 * np.ones(3),
            prior_mean=np.zeros(3), prior_log_var=-3.0,
        )
        return post, (x, y)

    def test_frozen_trajectory(self):
        """150 GD steps on the fixed toy problem: frozen start and end."""
        post, data = self._toy()
        report = gb.dziugaite_roy_optimize(post, data, b=100.0, c=0.1,
                                           delta=0.05, steps=150)
        trace = report.details["objective_trace"]
        np.testing.assert_allclose(trace[0], 1.6691266084067649, rtol=1e-9)
        np.testing.assert_allclose(report.bound, 1.1010605836853613, rtol=1e-9)
        assert report.details["steps_taken"] == 150

    def test_trace_non_increasing(self):
        """The line search only accepts strict decreases."""
        post, data = self._toy()
        report = gb.dziugaite_roy_optimize(post, data, b=100.0, c=0.1,
                                           delta=0.05, steps=150)
        trace = np.array(report.details["objective_trace"])
        assert np.all(np.diff(trace) < 0)

    def test_bound_is_surrogate_plus_penalty_on_grid(self):
        post, data = self._toy()
        report = gb.dziugaite_roy_optimize(post, data, b=100.0, c=0.1,
                                           delta=0.05, steps=60)
        d = report.details
        np.testing.assert_allclose(report.bound, d["surrogate_loss"] + d["penalty"],
                                   rtol=1e-12)
        np.testing.assert_allclose(
            d["lambda_star"], math.log(0.1) - d["j_star"] / 100.0, rtol=1e-12
        )
        np.testing.assert_allclose(d["delta_j"],
                                   6 * 0.05 / (math.pi**2 * d["j_star"] ** 2),
                                   rtol=1e-12)

    def test_zero_steps_reports_initial_objective(self):
        post, data = self._toy()
        report = gb.dziugaite_roy_optimize(post, data, b=100.0, c=0.1,
                                           delta=0.05, steps=0)
        assert report.details["steps_taken"] == 0
        assert len(report.details["objective_trace"]) == 1
        np.testing.assert_allclose(report.details["bound_continuous"],
                                   report.details["objective_trace"][0], rtol=1e-12)

    def test_validation(self):
        post, data = self._toy()
        with pytest.raises(ValueError, match="must be positive"):
            gb.dziugaite_roy_optimize(post, data, b=-1.0, c=0.1, delta=0.05, steps=1)
        with pytest.raises(ValueError, match="nonnegative"):
            gb.dziugaite_roy_optimize(post, data, b=100.0, c=0.1, delta=0.05, steps=-1)
        x, y = data
        with pytest.raises(ValueError, match="exactly \\+-1"):
            gb.dziugaite_roy_optimize(post, (x, 0.5 * y), b=100.0, c=0.1,
                                      delta=0.05, steps=1)
        with pytest.raises(ValueError, match="dimension"):
            gb.dziugaite_roy_optimize(post, (x[:, :2], y), b=100.0, c=0.1,
                                      delta=0.05, steps=1)

    @pytest.mark.parametrize("steps", [0, 150])
    def test_one_evaluation_per_point(self, steps):
        """Each probe evaluates the surrogate and the KL once, and the
        gradient of the point a step starts from comes from that same
        evaluation. The toy problem accepts every first probe, so a run
        evaluates the initial point, one probe per step and the grid point,
        and takes gradients at the starts of the steps and the grid point."""
        post, data = self._toy()
        with mock.patch.object(gb, "_logistic_bits", wraps=gb._logistic_bits) as bits, \
                mock.patch.object(gb, "_logistic_bits_deriv", wraps=gb._logistic_bits_deriv) as derivs, \
                mock.patch.object(gb, "gaussian_kl", wraps=gb.gaussian_kl) as kl:
            report = gb.dziugaite_roy_optimize(post, data, b=100.0, c=0.1,
                                               delta=0.05, steps=steps)
        assert report.details["steps_taken"] == steps
        assert bits.call_count == kl.call_count == steps + 2
        assert derivs.call_count == steps + 1

    def test_surrogate_gradients_match_its_loss(self):
        """Central differences of the surrogate's own loss. The tolerance is
        about five times the largest error measured on seeds 0-5 of this
        30 x 4 problem, 3.6e-10."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 4))
        y = np.where(rng.standard_normal(30) > 0, 1.0, -1.0)
        mu, lam = rng.standard_normal(4), rng.uniform(-3.0, 0.0, 4)
        surrogate = gb._logistic_surrogate(x, y)
        g_mu, g_lam = surrogate(mu, lam)[1]()
        np.testing.assert_allclose(g_mu, _central(lambda v: surrogate(v, lam)[0], mu), rtol=0, atol=2e-9)
        np.testing.assert_allclose(g_lam, _central(lambda v: surrogate(mu, v)[0], lam), rtol=0, atol=2e-9)

    @pytest.mark.parametrize("steps", [60, 150])
    def test_rounding_estimate_is_the_bound_slope(self, steps):
        """rounding_penalty_estimate = |d bound / d lam*| / (2 b), with the
        bound written out from the McAllester formula on the lam* grid and
        differentiated centrally. The tolerance is about five times the
        relative error measured at 60 and 150 steps, 3.7e-9."""
        post, data = self._toy()
        m, b, c, delta = 20, 100.0, 0.1, 0.05
        d = gb.dziugaite_roy_optimize(post, data, b=b, c=c, delta=delta, steps=steps).details

        def bound(lam_star):
            kl = gb.gaussian_kl(d["mean"], d["log_var"], post.prior_mean, lam_star)
            log_term = math.log(2 * math.pi**2 * m / (3 * delta)) + 2 * math.log(b * (math.log(c) - lam_star))
            return d["surrogate_loss"] + math.sqrt((log_term + kl) / (2 * m - 1))

        slope = _central(lambda v: bound(float(v[0])), np.array([d["lambda_star"]]))[0]
        np.testing.assert_allclose(d["rounding_penalty_estimate"], abs(slope) / (2 * b), rtol=2e-8)


def _central(f, v, h=1e-6):
    """Central-difference gradient of a scalar f at the vector v."""
    return np.array([(f(v + h * e) - f(v - h * e)) / (2 * h) for e in np.eye(v.size)])


class TestLogisticBitsDeriv:
    """The numpy form of -expit(-z) / log 2 against scipy's expit as the
    oracle. Both round exp, the sum and two quotients, each to about 2 ulp
    of the true value, and numpy's SIMD exp may differ from the C library's
    by 1 ulp, so the two can sit up to 4 ulp apart (3 seen on AVX-512)."""

    ULPS = 4

    def test_matches_scipy_expit(self):
        from scipy.special import expit

        z = np.concatenate([np.linspace(-1e3, 1e3, 400_001), [-1e308, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gb._logistic_bits_deriv(z)
        want = -expit(-z) / math.log(2.0)
        assert np.all(np.abs(got - want) <= self.ULPS * np.spacing(np.abs(want)))
        assert got[-2] == -1.0 / math.log(2.0) and got[-1] == 0.0


class TestMarginStats:
    def _setup(self):
        config = NetConfig(widths=(2, 3, 1), activation="relu")
        rng = np.random.default_rng(8)
        weights = [rng.standard_normal((3, 2)), rng.standard_normal((1, 3))]
        x = rng.standard_normal((12, 2))
        y = np.sign(rng.standard_normal(12))
        return config, weights, x, y

    def test_zero_gamma_is_zero_one_risk(self):
        config, weights, x, y = self._setup()
        stats = gb.margin_stats(weights, config, (x, y), gamma=0.0)
        from dltl.netcore import forward

        scores = forward(config, weights, x.T).output.ravel()
        np.testing.assert_allclose(stats.hard_risk, np.mean(y * scores < 0.0))

    def test_risks_monotone_in_gamma(self):
        config, weights, x, y = self._setup()
        gammas = [0.1, 0.5, 1.0, 2.0]
        hard = [gb.margin_stats(weights, config, (x, y), g).hard_risk for g in gammas]
        assert all(a <= b for a, b in zip(hard, hard[1:]))

    def test_rejects_scores_that_overflow(self):
        """Weights times 1e200 take the output past float range, and a nan
        input makes a nan score, which y f(x) < gamma would count as
        correct."""
        config, weights, x, y = self._setup()
        big = [1e200 * w for w in weights]
        with pytest.raises(ValueError, match="scores are not finite"):
            gb.margin_stats(big, config, (x, y), 0.1)
        x_nan = x.copy()
        x_nan[3, 0] = np.nan
        with pytest.raises(ValueError, match="scores are not finite"):
            gb.margin_stats(weights, config, (x_nan, y), 0.1)

    def test_validation(self):
        config, weights, x, y = self._setup()
        with pytest.raises(ValueError, match="nonnegative"):
            gb.margin_stats(weights, config, (x, y), -0.5)
        with pytest.raises(ValueError, match="exactly \\+-1"):
            gb.margin_stats(weights, config, (x, 0.5 * y), 0.1)
        wide = NetConfig(widths=(2, 3, 2), activation="relu")
        with pytest.raises(ValueError, match="scalar output"):
            gb.margin_stats(weights, wide, (x, y), 0.1)
