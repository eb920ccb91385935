"""Signal-propagation maps: quadrature against closed forms and an
independent scipy oracle, fixed points, phase classification, and the
Monte Carlo moment check."""

import math

import numpy as np
import pytest
from scipy import integrate

from dltl.meanfield import (
    GH_NODES,
    DivergenceError,
    chi1,
    chi_map,
    corr_map,
    edge_of_chaos,
    gauss_ev,
    gauss_ev2,
    gauss_hermite,
    length_fixed_point,
    length_map,
    phase_classify,
    simulate_moments,
)
from dltl.netcore import Activation, NetConfig

TANH = Activation.parse("tanh")
RELU = Activation.parse("relu")
LINEAR = Activation.parse("linear")
LEAKY = Activation.parse("leaky_relu:0.25")


def _quad_ev(f, q):
    """Independent 1-D oracle: E f(z), z ~ N(0, q), via adaptive quadrature."""
    density = lambda z: math.exp(-z * z / (2 * q)) / math.sqrt(2 * math.pi * q)
    val, _ = integrate.quad(lambda z: f(z) * density(z), -np.inf, np.inf)
    return val


def _quad_ev2(f, g, c, q):
    """E f(u) g(v) for (u, v) centered Gaussian with Var q, correlation c.

    The inner integral is split where v crosses 0 so that kinked or stepped
    g do not defeat the adaptive rule.
    """
    s = math.sqrt(1 - c * c)

    def inner(z1):
        def outer(z2):
            u = math.sqrt(q) * z1
            v = math.sqrt(q) * (c * z1 + s * z2)
            return f(u) * g(v) * math.exp(-z2 * z2 / 2) / math.sqrt(2 * math.pi)
        kink = -c * z1 / s
        pts = [kink] if -8 < kink < 8 else None
        val, _ = integrate.quad(outer, -8, 8, points=pts, limit=200)
        return val * math.exp(-z1 * z1 / 2) / math.sqrt(2 * math.pi)

    val, _ = integrate.quad(inner, -8, 8, limit=200)
    return val


class TestQuadrature:
    def test_nodes_integrate_polynomials_exactly(self):
        # physicists' GH with n nodes is exact for degree <= 2n - 1
        z, w = gauss_hermite(8)
        total = w / math.sqrt(math.pi)
        moments = [np.sum(total * (math.sqrt(2) * z) ** k) for k in range(8)]
        np.testing.assert_allclose(moments[0], 1.0, atol=1e-14)
        np.testing.assert_allclose(moments[2], 1.0, atol=1e-13)
        np.testing.assert_allclose(moments[4], 3.0, atol=1e-12)
        np.testing.assert_allclose(moments[6], 15.0, atol=1e-12)
        np.testing.assert_allclose([moments[1], moments[3], moments[5]], 0.0, atol=1e-13)

    def test_gauss_ev_matches_scipy(self):
        for q in (0.3, 1.0, 2.5):
            got = gauss_ev(np.tanh, q)
            want = _quad_ev(math.tanh, q)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gauss_ev2_matches_scipy(self):
        for c in (-0.8, 0.0, 0.5, 0.99):
            got = gauss_ev2(TANH, TANH, c, 1.3, 1.3)
            want = _quad_ev2(math.tanh, math.tanh, c, 1.3)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_gauss_ev2_perfect_correlation(self):
        got = gauss_ev2(TANH, TANH, 1.0, 0.9, 0.9)
        want = gauss_ev(lambda z: np.tanh(z) ** 2, 0.9)
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestLengthMap:
    def test_linear_closed_form(self):
        res = length_map(1.7, 2.0, LINEAR)
        assert res.q_next == pytest.approx(3.4, abs=1e-14)

    def test_relu_closed_form(self):
        # E relu(z)^2 = q/2 for z ~ N(0, q)
        res = length_map(1.7, 2.0, RELU)
        assert res.q_next == pytest.approx(1.7, abs=1e-12)

    def test_leaky_closed_form(self):
        res = length_map(2.0, 1.0, LEAKY)
        assert res.q_next == pytest.approx(2.0 * (1 + 0.25**2) / 2, abs=1e-12)

    def test_tanh_against_oracle(self):
        # 64-node GH carries ~1e-7 for tanh moments; 256 nodes reach 1e-10
        res = length_map(1.5, 2.2, TANH, nodes=256)
        want = 2.2 * _quad_ev(lambda z: math.tanh(z) ** 2, 1.5)
        np.testing.assert_allclose(res.q_next, want, atol=1e-10)

    def test_derivative_matches_finite_differences(self):
        # h large enough that quadrature noise does not dominate the quotient
        h = 1e-4
        for act in (TANH, RELU, LEAKY):
            res = length_map(1.2, 1.8, act, nodes=256, with_derivative=True)
            up = length_map(1.2 + h, 1.8, act, nodes=256).q_next
            down = length_map(1.2 - h, 1.8, act, nodes=256).q_next
            np.testing.assert_allclose(res.dv_dq, (up - down) / (2 * h), atol=1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            length_map(-1.0, 1.0, TANH)
        with pytest.raises(ValueError):
            length_map(1.0, 0.0, TANH)

    def test_overflow_raises_divergence(self):
        with pytest.raises(DivergenceError):
            length_map(5e199, 1e200, RELU)
        with pytest.raises(DivergenceError):
            length_map(1e300, 1e300, LINEAR, with_derivative=True)


class TestCorrelationMaps:
    def test_corr_map_linear(self):
        assert corr_map(0.5, 2.0, 8.0, 1.5, LINEAR) == pytest.approx(0.5 * 4.0 * 1.5)

    def test_corr_map_relu_arccos_kernel(self):
        # E relu(u) relu(v) = q (sin t + (pi - t) cos t) / (2 pi), cos t = c
        for c in (-0.9, -0.3, 0.0, 0.6, 1.0):
            q = 1.3
            t = math.acos(c)
            want = q * (math.sin(t) + (math.pi - t) * c) / (2 * math.pi)
            got = corr_map(c, q, q, 1.0, RELU)
            np.testing.assert_allclose(got, want, atol=1e-14)

    def test_corr_map_leaky_scipy_oracle(self):
        got = corr_map(0.45, 0.8, 0.8, 1.2, LEAKY)
        want = 1.2 * _quad_ev2(
            lambda z: z if z > 0 else 0.25 * z,
            lambda z: z if z > 0 else 0.25 * z,
            0.45,
            0.8,
        )
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_corr_map_consistent_with_length_map(self):
        # c = 1 with equal variances is the length map itself
        for act in (RELU, LEAKY, TANH):
            got = corr_map(1.0, 0.9, 0.9, 1.6, act)
            want = length_map(0.9, 1.6, act).q_next
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_chi_map_relu_arccos_derivative(self):
        # E relu'(u) relu'(v) = (pi - t)/(2 pi), an orthant probability
        for c in (-0.7, 0.0, 0.3, 1.0):
            t = math.acos(c)
            got = chi_map(c, 1.0, 1.0, 2.0, RELU)
            np.testing.assert_allclose(got, 2.0 * (math.pi - t) / (2 * math.pi), atol=1e-14)

    def test_chi_map_leaky_scipy_oracle(self):
        dphi = lambda z: 1.0 if z > 0 else 0.25
        got = chi_map(-0.2, 1.0, 1.0, 1.0, LEAKY)
        want = _quad_ev2(dphi, dphi, -0.2, 1.0)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_chi_map_tanh_oracle(self):
        dphi = lambda z: 1.0 - math.tanh(z) ** 2
        want = 1.4 * _quad_ev2(dphi, dphi, 0.4, 1.1)
        got = chi_map(0.4, 1.1, 1.1, 1.4, TANH)
        np.testing.assert_allclose(got, want, atol=1e-9)


class TestChi1:
    def test_exact_values(self):
        assert chi1(2.0, 1.0, RELU) == pytest.approx(1.0, abs=1e-15)
        assert chi1(1.0, 1.0, LINEAR) == pytest.approx(1.0, abs=1e-15)
        assert chi1(3.0, 0.7, LEAKY) == pytest.approx(1.5 * (1 + 0.0625), abs=1e-14)

    def test_tanh_oracle(self):
        want = 1.76 * _quad_ev(lambda z: (1 - math.tanh(z) ** 2) ** 2, 1.3)
        np.testing.assert_allclose(chi1(1.76, 1.3, TANH, nodes=256), want, atol=1e-10)

    def test_q_independence_for_homogeneous(self):
        for q in (0.1, 1.0, 10.0):
            assert chi1(2.0, q, RELU) == 1.0


class TestFixedPoints:
    def test_tanh_contracts_to_known_point(self):
        res = length_fixed_point(1.5, TANH)
        # fixed point of q -> 1.5 E tanh(sqrt(q) z)^2, bisected independently
        v = lambda q: 1.5 * _quad_ev(lambda z: math.tanh(z) ** 2, q) - q
        lo, hi = 0.01, 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if v(mid) > 0:
                lo = mid
            else:
                hi = mid
        np.testing.assert_allclose(res.q_inf, 0.5 * (lo + hi), atol=1e-9)
        assert not res.marginal

    def test_tanh_ordered_goes_to_zero(self):
        res = length_fixed_point(0.5, TANH)
        assert res.q_inf == pytest.approx(0.0, abs=1e-8)

    def test_marginal_relu(self):
        res = length_fixed_point(2.0, RELU, q0=0.77)
        assert res.marginal
        assert res.q_inf == 0.77

    def test_linear_divergence_raises(self):
        with pytest.raises(DivergenceError) as err:
            length_fixed_point(2.0, LINEAR, q0=1.0)
        assert err.value.last_value > 1.0

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="sigma_w2 must be positive"):
            length_fixed_point(-1.0, TANH)

    def test_residual_at_fixed_point(self):
        res = length_fixed_point(2.5, TANH)
        nxt = length_map(res.q_inf, 2.5, TANH).q_next
        assert abs(nxt - res.q_inf) < 1e-9


class TestPhase:
    def test_tanh_phases(self):
        assert phase_classify(0.5, TANH).phase == "ordered"
        assert phase_classify(1.0, TANH).phase == "edge"
        assert phase_classify(2.0, TANH).phase == "chaotic"

    def test_relu_phases_no_iteration(self):
        p = phase_classify(1.0, RELU)
        assert p.phase == "ordered" and p.q_inf == 0.0
        p = phase_classify(2.0, RELU, q0=0.3)
        assert p.phase == "edge" and p.marginal and p.q_inf == 0.3
        p = phase_classify(3.0, RELU)
        assert p.phase == "chaotic" and np.isinf(p.q_inf)

    @pytest.mark.parametrize("act", [TANH, RELU])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_rejects_bad_tolerance(self, act, tol):
        """A nan tolerance once labelled every point an edge, a negative one
        the marginal relu point ordered."""
        with pytest.raises(ValueError, match="tol must be finite"):
            phase_classify(2.0, act, tol=tol)

    def test_edge_of_chaos_relu(self):
        assert edge_of_chaos(RELU) == pytest.approx(2.0, abs=1e-9)

    def test_edge_of_chaos_leaky(self):
        want = 2.0 / (1 + 0.25**2)
        assert edge_of_chaos(LEAKY) == pytest.approx(want, abs=1e-9)

    def test_edge_of_chaos_no_crossing_raises(self):
        with pytest.raises(ValueError):
            edge_of_chaos(TANH, lo=2.0, hi=4.0)

    def test_edge_of_chaos_chi_is_one(self):
        sw2 = edge_of_chaos(RELU)
        assert chi1(sw2, 1.0, RELU) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("act", [TANH, RELU, LINEAR, LEAKY])
@pytest.mark.parametrize("q", [math.nan, math.inf, -1.0])
def test_lengths_must_be_finite_and_nonnegative(act, q):
    """A nan or inf q0 once came back as q_inf, or as a chi1 of 0, with no
    error."""
    calls = [
        lambda: length_map(q, 1.5, act),
        lambda: chi1(1.5, q, act),
        lambda: length_fixed_point(1.5, act, q0=q),
        lambda: phase_classify(1.5, act, q0=q),
        lambda: edge_of_chaos(act, lo=0.5, hi=4.0, q0=q),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            call()


class TestSimulatedMoments:
    def test_linear_matches_length_map(self):
        # v_l = 1/n_l makes q_l = 1 at every layer for linear nets
        n, L = 128, 4
        config = NetConfig(widths=(n,) * (L + 2), activation="linear", sigma_w2=1.0)
        prof = simulate_moments(config, replicates=100, seed=0)
        assert np.all(np.abs(prof.q - 1.0) <= 3 * prof.q_se)

    def test_relu_matches_length_map(self):
        # x = ones gives q_1 = sigma_w2 |x|^2 / n = 2; the map then holds it
        n, L = 128, 4
        config = NetConfig(widths=(n,) * (L + 2), activation="relu", sigma_w2=2.0)
        prof = simulate_moments(config, replicates=100, seed=1)
        assert np.all(np.abs(prof.q - 2.0) <= 3 * prof.q_se)

    def test_backward_moments_flat_at_edge(self):
        n, L = 128, 4
        config = NetConfig(widths=(n,) * (L + 2), activation="relu", sigma_w2=2.0)
        prof = simulate_moments(config, replicates=100, seed=2)
        # chi1 = 1: delta_l is layer-independent up to MC noise
        spread = prof.delta.max() - prof.delta.min()
        assert spread <= 4 * prof.delta_se.max()

    def test_replicate_validation(self):
        config = NetConfig(widths=(4, 4, 4), activation="relu")
        with pytest.raises(ValueError):
            simulate_moments(config, replicates=1)
