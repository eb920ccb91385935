"""Tests for first-layer reconstruction and non-increasing loss paths."""

import numpy as np
import pytest

from dltl import landscape
from dltl.netcore import NetConfig, forward, init_weights


def _net(widths, activation="linear", seed=0, parameterization="standard"):
    config = NetConfig(widths=widths, activation=activation, parameterization=parameterization)
    return config, init_weights(config, seed=seed)


class TestInverses:
    def test_left_inverse_identity(self):
        """left_inverse(X) @ X = I for full column rank X."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 4))
        np.testing.assert_allclose(landscape.left_inverse(x) @ x, np.eye(4), atol=1e-12)

    def test_right_inverse_identity(self):
        """W @ right_inverse(W) = I for full row rank W."""
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 10))
        np.testing.assert_allclose(w @ landscape.right_inverse(w), np.eye(4), atol=1e-12)

    def test_left_inverse_rejects_wide(self):
        """A matrix with more columns than rows has no left inverse; the Gram
        matrix is singular, so the shape must be rejected up front."""
        with pytest.raises(ValueError, match="more columns than rows"):
            landscape.left_inverse(np.ones((3, 7)))

    def test_right_inverse_rejects_tall(self):
        with pytest.raises(ValueError, match="more rows than columns"):
            landscape.right_inverse(np.ones((7, 3)))

    def test_rank_deficiency_detected(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 3))
        x[:, 2] = x[:, 1]
        with pytest.raises(ValueError, match="rank deficient"):
            landscape.left_inverse(x)
        w = rng.standard_normal((3, 8))
        w[2] = w[1]
        with pytest.raises(ValueError, match="rank deficient"):
            landscape.right_inverse(w)


class TestLosses:
    def test_square_loss_value(self):
        """1/(2m) sum of squared residuals."""
        out = np.array([[1.0, 2.0, 3.0]])
        y = np.array([0.0, 2.0, 1.0])
        np.testing.assert_allclose(landscape.square_loss(out, y), 0.5 * (1.0 + 0.0 + 4.0) / 3)

    def test_logistic_loss_value(self):
        """Mean log(1 + exp(-y h)) against a direct evaluation."""
        out = np.array([[0.5, -1.0, 2.0]])
        y = np.array([1.0, -1.0, -1.0])
        expect = np.mean(np.log1p(np.exp(-y * out[0])))
        np.testing.assert_allclose(landscape.logistic_loss(out, y), expect, rtol=1e-12)

    def test_logistic_loss_stable_at_large_margin(self):
        """logaddexp keeps huge margins finite in both directions."""
        assert landscape.logistic_loss(np.array([[1e4]]), np.array([1.0])) < 1e-12
        big = landscape.logistic_loss(np.array([[-1e4]]), np.array([1.0]))
        np.testing.assert_allclose(big, 1e4, rtol=1e-12)


class TestReconstruct:
    def test_linear_reconstruction_exact(self):
        """The reconstructed W_0 reproduces an arbitrary target output."""
        config, weights = _net((6, 8, 4, 1))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 5))
        h_target = rng.standard_normal((1, 5))
        w0 = landscape.reconstruct_first_layer(config, weights, x, h_target)
        out = forward(config, [w0] + weights[1:], x).h[-1]
        np.testing.assert_allclose(out, h_target, atol=1e-10)

    def test_leaky_relu_reconstruction_exact(self):
        """The inverse-activation chain handles the piecewise-linear case."""
        config, weights = _net((6, 8, 4, 1), activation="leaky_relu:0.3", seed=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 5))
        h_target = rng.standard_normal((1, 5))
        w0 = landscape.reconstruct_first_layer(config, weights, x, h_target)
        out = forward(config, [w0] + weights[1:], x).h[-1]
        np.testing.assert_allclose(out, h_target, atol=1e-10)

    def test_ntk_parameterization_reconstruction(self):
        """Layer scales c_l enter the right inverses and the final division."""
        config, weights = _net((6, 8, 4, 1), parameterization="ntk", seed=6)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 4))
        h_target = rng.standard_normal((1, 4))
        w0 = landscape.reconstruct_first_layer(config, weights, x, h_target)
        out = forward(config, [w0] + weights[1:], x).h[-1]
        np.testing.assert_allclose(out, h_target, atol=1e-10)

    def test_rejects_noninvertible_activation(self):
        config, weights = _net((6, 8, 4, 1), activation="relu")
        with pytest.raises(ValueError, match="not bijective"):
            landscape.reconstruct_first_layer(config, weights, np.eye(6), np.ones((1, 6)))

    def test_rejects_nondecreasing_upper_widths(self):
        config, weights = _net((6, 4, 8, 1))
        with pytest.raises(ValueError, match="strictly decreasing"):
            landscape.reconstruct_first_layer(config, weights, np.eye(6), np.ones((1, 6)))

    def test_rejects_more_samples_than_inputs(self):
        """rank(X) = m requires m <= n_0."""
        config, weights = _net((3, 8, 4, 1))
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 10))
        with pytest.raises(ValueError, match="X has more columns"):
            landscape.reconstruct_first_layer(config, weights, x, np.ones((1, 10)))


class TestConstantLossPath:
    WIDTHS = (6, 8, 4, 1)

    def _data(self, seed=9, m=5):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((self.WIDTHS[0], m)), rng.standard_normal(m)

    def test_square_path_structure(self):
        """Five legs in path order, no leg rising above its start, and a
        meeting point below epsilon."""
        config, wa = _net(self.WIDTHS, seed=10)
        _, wb = _net(self.WIDTHS, seed=11)
        x, y = self._data()
        trace = landscape.constant_loss_path(config, wa, wb, x, y)
        names = [seg.name for seg in trace.segments]
        assert names == ["first_layer_a", "upper_a", "output_a", "output_b", "first_layer_b"]
        assert trace.max_rise() <= 1e-6
        assert trace.meeting_loss < 1e-6
        assert trace.meeting_loss == trace.segments[2].losses[-1]
        assert trace.repair_loss_change == (0.0, 0.0)

    def test_square_path_endpoints_and_junctions(self):
        """The path starts at A, ends at B, and consecutive legs share their
        junction weights exactly."""
        config, wa = _net(self.WIDTHS, seed=12)
        _, wb = _net(self.WIDTHS, seed=13)
        x, y = self._data(seed=14)
        trace = landscape.constant_loss_path(config, wa, wb, x, y)
        for w, ref in zip(trace.segments[0].weights[0], wa):
            np.testing.assert_allclose(w, ref, atol=1e-12)
        for w, ref in zip(trace.segments[-1].weights[-1], wb):
            np.testing.assert_allclose(w, ref, atol=1e-12)
        for prev, nxt in zip(trace.segments[:-1], trace.segments[1:]):
            for w_end, w_start in zip(prev.weights[-1], nxt.weights[0]):
                np.testing.assert_allclose(w_end, w_start, atol=1e-9)

    def test_square_path_loss_frozen_on_first_leg(self):
        """With a linear activation the output is linear in W_0, so the
        first-layer legs hold the loss exactly constant."""
        config, wa = _net(self.WIDTHS, seed=15)
        _, wb = _net(self.WIDTHS, seed=16)
        x, y = self._data(seed=17)
        trace = landscape.constant_loss_path(config, wa, wb, x, y)
        for name in ("first_layer_a", "first_layer_b", "upper_a"):
            seg = next(s for s in trace.segments if s.name == name)
            np.testing.assert_allclose(seg.losses, seg.losses[0], atol=1e-9)

    def test_logistic_path(self):
        """For +-1 labels the target output is a scaled sign pattern whose
        logistic loss sits below epsilon."""
        config, wa = _net(self.WIDTHS, seed=18)
        _, wb = _net(self.WIDTHS, seed=19)
        x, _ = self._data(seed=20)
        y = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        trace = landscape.constant_loss_path(config, wa, wb, x, y, loss="logistic")
        assert trace.max_rise() <= 1e-6
        assert trace.meeting_loss < 1e-6
        assert len(trace.segments) == 5

    def test_identical_endpoints_collapse_to_point(self):
        config, wa = _net(self.WIDTHS, seed=21)
        x, y = self._data(seed=22)
        trace = landscape.constant_loss_path(config, wa, [w.copy() for w in wa], x, y)
        assert len(trace.segments) == 1
        assert trace.segments[0].name == "point"

    def test_rank_repair_reported(self):
        """A rank-deficient upper layer is nudged at 1e-4 scale and the loss
        change is reported; the path itself still goes through."""
        config, wa = _net(self.WIDTHS, seed=23)
        _, wb = _net(self.WIDTHS, seed=24)
        wa[1][1] = wa[1][0]
        x, y = self._data(seed=25)
        trace = landscape.constant_loss_path(config, wa, wb, x, y)
        assert trace.repair_loss_change[0] != 0.0
        assert abs(trace.repair_loss_change[0]) < 1e-3
        assert trace.repair_loss_change[1] == 0.0
        assert trace.max_rise() <= 1e-6
        assert trace.meeting_loss < 1e-6

    def test_upper_leg_subdivides_where_rank_is_lost(self):
        """W_B's top layer is -W_A's, so the straight line passes through
        W_2(1/2) = 0: that grid point is replaced by two sub-legs through a
        random midpoint, 9 + 9 - 1 = 17 points, and the output stays frozen."""
        config, wa = _net(self.WIDTHS, seed=32)
        _, wb = _net(self.WIDTHS, seed=33)
        wb[2] = -wa[2]
        x, y = self._data(seed=34)
        trace = landscape.constant_loss_path(config, wa, wb, x, y, grid_points=9)
        upper = next(s for s in trace.segments if s.name == "upper_a")
        assert len(upper.t) == 17
        assert trace.max_rise() <= 1e-6
        assert trace.meeting_loss < 1e-6

    def test_custom_callable_loss(self):
        """Any convex-in-output callable works; pass the square loss by hand."""
        config, wa = _net(self.WIDTHS, seed=26)
        _, wb = _net(self.WIDTHS, seed=27)
        x, y = self._data(seed=28)
        trace = landscape.constant_loss_path(config, wa, wb, x, y, loss=landscape.square_loss)
        assert trace.meeting_loss < 1e-6

    def test_argument_validation(self):
        config, wa = _net(self.WIDTHS, seed=29)
        _, wb = _net(self.WIDTHS, seed=30)
        x, y = self._data(seed=31)
        with pytest.raises(ValueError, match="unknown loss"):
            landscape.constant_loss_path(config, wa, wb, x, y, loss="hinge")
        with pytest.raises(ValueError, match="epsilon"):
            landscape.constant_loss_path(config, wa, wb, x, y, epsilon=1e-12)
        relu_config = NetConfig(widths=self.WIDTHS, activation="relu")
        with pytest.raises(ValueError, match="not bijective"):
            landscape.constant_loss_path(relu_config, wa, wb, x, y)
