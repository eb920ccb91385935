"""Tests for the diagram expansion of deep-linear correlation functions."""

import math
import re

import numpy as np
import pytest

from dltl import wick


X1 = np.array([1.2])


def _scalar_spec(m, contractions=()):
    return wick.ContractionSpec(m=m, contractions=contractions, inputs=(X1,) * m)


class TestPairings:
    def test_double_factorial_counts(self):
        """(2k-1)!! pairings of 2k elements."""
        for k, count in [(1, 1), (2, 3), (3, 15), (4, 105)]:
            assert len(wick.enumerate_pairings(k)) == count

    def test_each_pairing_is_a_partition(self):
        for pairing in wick.enumerate_pairings(3):
            flat = sorted(v for edge in pairing for v in edge)
            assert flat == list(range(6))

    def test_limits(self):
        with pytest.raises(ValueError, match="at least 1"):
            wick.enumerate_pairings(0)
        with pytest.raises(ValueError, match="refusing"):
            wick.enumerate_pairings(7)


class TestContractionSpec:
    def test_derivative_counts_and_components(self):
        spec = _scalar_spec(4, contractions=((1, 2), (2, 3)))
        assert spec.derivative_counts == (1, 2, 1, 0)
        assert spec.cluster_components() == [(1, 2, 3), (4,)]

    def test_input_labels_deduplicate(self):
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        spec = wick.ContractionSpec(m=4, inputs=(x, y, x, y))
        assert spec.input_labels() == (1, 2, 1, 2)
        assert not spec.scalar_inputs

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one factor"):
            wick.ContractionSpec(m=0)
        with pytest.raises(ValueError, match="outside"):
            wick.ContractionSpec(m=2, contractions=((1, 3),), inputs=(X1, X1))
        with pytest.raises(ValueError, match="need 2 inputs"):
            wick.ContractionSpec(m=2, inputs=(X1,))
        with pytest.raises(ValueError, match="share a dimension"):
            wick.ContractionSpec(m=2, inputs=(np.ones(2), np.ones(3)))

    @pytest.mark.parametrize("kwargs, message", [
        ({"m": 2.9}, "m must be an integer, got 2.9"),
        ({"m": True}, "m must be an integer, got True"),
        ({"contractions": ((1.7, 2.2),)}, "contraction (1.7, 2.2) is not a pair of integer factor indices"),
        ({"contractions": ((1, 2, 1),)}, "contraction (1, 2, 1) is not a pair of integer factor indices"),
        ({"contractions": ((1, True),)}, "contraction (1, True) is not a pair of integer factor indices"),
        ({"inputs": (X1, np.array([math.nan]))}, "input of factor 2 must be a finite number or 1-D vector, got [nan]"),
        ({"inputs": (np.array([1.0, -math.inf]),) * 2},
         "input of factor 1 must be a finite number or 1-D vector, got [1.0, -inf]"),
        ({"inputs": (np.array([[1.0]]),) * 2}, "input of factor 1 must be a finite number or 1-D vector, got [[1.0]]"),
        ({"inputs": (np.array([]),) * 2}, "input of factor 1 must be a finite number or 1-D vector, got []"),
    ])
    def test_rejects_non_integer_counts_and_bad_inputs(self, kwargs, message):
        """m 2.9 and the contraction (1.7, 2.2) were once truncated to 2 and
        (1, 2), a three-entry contraction failed to unpack, a nan input gave
        nan means, exacts and slopes, and a 1 x 1 input a TypeError in the
        Monte Carlo estimator."""
        args = {"m": 2, "contractions": (), "inputs": (X1, X1)} | kwargs
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            wick.ContractionSpec(**args)


class TestConjectureExponent:
    def test_component_parity_formula(self):
        """s_C = n_even + n_odd/2 - m/2 over cluster components."""
        assert wick.conjecture_exponent(_scalar_spec(4)) == 0.0
        assert wick.conjecture_exponent(_scalar_spec(4, ((1, 2),))) == 0.0
        assert wick.conjecture_exponent(_scalar_spec(3, ((1, 2), (2, 3)))) == -1.0
        assert wick.conjecture_exponent(_scalar_spec(4, ((1, 2), (2, 3), (3, 4)))) == -1.0
        assert wick.conjecture_exponent(_scalar_spec(2)) == 0.0


class TestDoubleLineLoops:
    def test_shallow_cycles(self):
        """At L = 1 loops are the cycles of the union of the two matchings."""
        m0 = ((1, 2), (3, 4))
        assert wick.double_line_loops((m0, ((1, 2), (3, 4))), 4, 1) == 2
        assert wick.double_line_loops((m0, ((1, 4), (2, 3))), 4, 1) == 1
        assert wick.double_line_loops((m0, ((1, 3), (2, 4))), 4, 1) == 1

    def test_depth_two_parallel_matchings(self):
        """Identical matchings at every type keep the levels disconnected:
        one loop per level row."""
        edges = (((1, 2),), ((1, 2),), ((1, 2),))
        assert wick.double_line_loops(edges, 2, 2) == 2

    def test_rejects_partial_matchings(self):
        with pytest.raises(ValueError, match="perfect matching"):
            wick.double_line_loops((((1, 2),), ((1, 2),)), 4, 1)


class TestExactCorrelation:
    def test_fourth_moment_polynomial(self):
        """E f(x)^4 = (3 + 6/n) (x.x)^2 for one hidden layer."""
        count = wick.exact_correlation(_scalar_spec(4), 1)
        assert [(t.power_of_inv_n, t.coefficient) for t in count.terms] == [(0, 3), (1, 6)]
        assert count.leading_exponent == 0
        np.testing.assert_allclose(count.evaluate(8), (3 + 6 / 8) * 1.2**4, rtol=1e-12)

    def test_contracted_fourth_moment_polynomial(self):
        """E (grad f . grad f) f^2 = (2 + 4/n) (x.x)^2."""
        count = wick.exact_correlation(_scalar_spec(4, ((1, 2),)), 1)
        assert [(t.power_of_inv_n, t.coefficient) for t in count.terms] == [(0, 2), (1, 4)]

    def test_depth_two_fourth_moment(self):
        """Two hidden levels: 27 diagrams collecting to 3 + 12/n + 12/n^2."""
        count = wick.exact_correlation(_scalar_spec(4), 2)
        assert [(t.power_of_inv_n, t.coefficient) for t in count.terms] == [
            (0, 3), (1, 12), (2, 12),
        ]
        assert count.diagram_count == 27

    def test_width_one_collapses_to_scalar_gaussians(self):
        """At n = 1 the net is a product of L+1 independent N(0,1) scalars, so
        E f^m = ((m-1)!!)^{L+1} (x = 1): the polynomial must sum to it. With
        no contractions each diagram is one pairing per type, so the diagram
        count is the same number. m = 8, L = 2 is the largest spec under
        MAX_DIAGRAMS, with 105^3 diagrams."""
        one = np.array([1.0])
        for m, L in ((4, 1), (4, 2), (4, 3), (8, 2)):
            count = wick.exact_correlation(wick.ContractionSpec(m=m, inputs=(one,) * m), L)
            moment = math.prod(range(m - 1, 0, -2))  # E z^m = (m-1)!!
            assert count.evaluate(1) == moment ** (L + 1)
            assert count.diagram_count == moment ** (L + 1)

    def test_sixth_moment_at_width_one(self):
        """E f^6 at n = 1 is (E z^6)^{L+1} = 15^{L+1}."""
        one = np.array([1.0])
        spec = wick.ContractionSpec(m=6, inputs=(one,) * 6)
        count = wick.exact_correlation(spec, 1)
        np.testing.assert_allclose(count.evaluate(1), 15.0**2, rtol=1e-12)
        assert count.diagram_count == 15 * 15

    def test_vector_pair_covariance(self):
        """E f(x1) f(x2) = x1.x2 exactly, any width."""
        x1, x2 = np.array([1.0, 2.0]), np.array([0.5, -1.0])
        spec = wick.ContractionSpec(m=2, inputs=(x1, x2))
        count = wick.exact_correlation(spec, 1)
        assert [(t.power_of_inv_n, t.coefficient, t.monomial) for t in count.terms] == [
            (0, 1, ((1, 2),))
        ]
        np.testing.assert_allclose(count.evaluate(64), float(x1 @ x2), rtol=1e-12)

    def test_gradient_chain_leading_order_matches_conjecture(self):
        """The four-factor chain (the kernel time-derivative correlator)
        decays like 1/n, as the component-parity count predicts."""
        spec = _scalar_spec(4, ((1, 2), (2, 3), (3, 4)))
        count = wick.exact_correlation(spec, 1)
        assert count.leading_exponent == -1
        assert count.leading_exponent == wick.conjecture_exponent(spec)

    def test_odd_factor_count_vanishes(self):
        count = wick.exact_correlation(_scalar_spec(3), 1)
        assert count.terms == ()
        assert count.leading_exponent is None

    def test_validation(self):
        with pytest.raises(ValueError, match="depth"):
            wick.exact_correlation(_scalar_spec(2), 0)
        with pytest.raises(ValueError, match="at most"):
            wick.exact_correlation(_scalar_spec(10), 1)
        vec = wick.ContractionSpec(m=2, inputs=(np.ones(2), np.ones(2)))
        with pytest.raises(ValueError, match="scalars"):
            wick.exact_correlation(vec, 2)
        with pytest.raises(ValueError, match="positive"):
            wick.exact_correlation(_scalar_spec(2), 1).evaluate(0)


    def test_assignment_walk_is_bounded_before_it_starts(self):
        """30 contractions at depth 1 once walked all 2^30 type assignments."""
        spec = _scalar_spec(4, ((1, 2),) * 30)
        with pytest.raises(ValueError, match="30 contractions at depth 1 give more than 2000000 type assignments"):
            wick.exact_correlation(spec, 1)

    def test_depth_limit(self):
        """Depth 63 is the deepest net; past it only specs with no admissible
        diagram (odd m, a self-contraction) still give the zero polynomial."""
        count = wick.exact_correlation(_scalar_spec(2), wick.MAX_DEPTH)
        assert [(t.power_of_inv_n, t.coefficient) for t in count.terms] == [(0, 1)]
        with pytest.raises(ValueError, match="^depth 64 exceeds the supported 63$"):
            wick.exact_correlation(_scalar_spec(2), 64)
        assert wick.exact_correlation(_scalar_spec(3), 100).terms == ()
        assert wick.exact_correlation(_scalar_spec(2, ((1, 1),)), 100).terms == ()


class TestRenderMonomial:
    def test_forms(self):
        assert wick.render_monomial(()) == "1"
        assert wick.render_monomial(((1, 2), (3, 4))) == "x1.x2*x3.x4"
        assert wick.render_monomial((1, 1, 2, 2)) == "x1*x1*x2*x2"


class TestMonteCarloScaling:
    def test_fourth_moment_within_three_se(self):
        """Sampled f^4 agrees with the exact polynomial at every width."""
        rep = wick.mc_scaling_check(_scalar_spec(4), 1, widths=[8, 16, 32],
                                    replicates=3000, seed=0)
        assert rep.exacts is not None
        for mean, se, exact in zip(rep.means, rep.std_errs, rep.exacts):
            assert abs(mean - exact) <= 3 * se

    def test_depth_two_within_three_se(self):
        rep = wick.mc_scaling_check(_scalar_spec(4), 2, widths=[8, 16, 32],
                                    replicates=3000, seed=1)
        for mean, se, exact in zip(rep.means, rep.std_errs, rep.exacts):
            assert abs(mean - exact) <= 3 * se

    def test_chain_estimator_uses_hessian_pipeline(self):
        """The contracted chain runs through gradient and Hessian-vector
        products; its estimate still matches the exact 1/n polynomial."""
        spec = _scalar_spec(4, ((1, 2), (2, 3), (3, 4)))
        rep = wick.mc_scaling_check(spec, 1, widths=[8, 16, 32],
                                    replicates=3000, seed=2)
        for mean, se, exact in zip(rep.means, rep.std_errs, rep.exacts):
            assert abs(mean - exact) <= 3 * se

    def test_vector_inputs_at_depth_two_have_no_exact_values(self):
        """exact_correlation refuses vector inputs at L = 2, so exacts is None;
        E f(x) f(x') = x . x' at every width and depth still checks the means."""
        x1, x2 = np.array([1.0, 0.5, -0.3]), np.array([0.2, -1.0, 0.8])
        spec = wick.ContractionSpec(m=2, inputs=(x1, x2))
        rep = wick.mc_scaling_check(spec, 2, widths=[4, 8, 16], replicates=1000, seed=0)
        assert rep.exacts is None
        for mean, se in zip(rep.means, rep.std_errs):
            assert abs(mean - x1 @ x2) <= 4 * se

    def test_validation(self):
        spec = _scalar_spec(4)
        with pytest.raises(ValueError, match="three widths"):
            wick.mc_scaling_check(spec, 1, widths=[8, 16])
        with pytest.raises(ValueError, match="two distinct widths"):
            wick.mc_scaling_check(spec, 1, widths=[4, 4, 4])
        with pytest.raises(ValueError, match="replicates"):
            wick.mc_scaling_check(spec, 1, widths=[8, 16, 32], replicates=1)
        with pytest.raises(ValueError, match="self-contractions"):
            wick.mc_scaling_check(_scalar_spec(2, ((1, 1),)), 1, widths=[8, 16, 32])
        with pytest.raises(ValueError, match="chain-shaped"):
            wick.mc_scaling_check(
                _scalar_spec(4, ((1, 2), (1, 3), (1, 4))), 1, widths=[8, 16, 32]
            )
        with pytest.raises(ValueError, match="chain-shaped"):
            # a doubled edge is a two-vertex loop: no rank-1 endpoints
            wick.mc_scaling_check(_scalar_spec(2, ((1, 2), (1, 2))), 1, widths=[8, 16, 32])
