"""Tests for the diagram expansion of deep-linear correlation functions."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dltl import wick
from dltl.netcore import NetConfig, backward, forward, init_weights, output_grads, weight_grads


X1 = np.array([1.2])


def _scalar_spec(m, contractions=()):
    return wick.ContractionSpec(m=m, contractions=contractions, inputs=(X1,) * m)


class TestPairings:
    def test_double_factorial_counts(self):
        """(2k-1)!! pairings of 2k elements."""
        for k, count in [(1, 1), (2, 3), (3, 15), (4, 105)]:
            assert len(wick._pairings_of(tuple(range(2 * k)))) == count

    def test_each_pairing_is_a_partition(self):
        for pairing in wick._pairings_of(tuple(range(6))):
            flat = sorted(v for edge in pairing for v in edge)
            assert flat == list(range(6))


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
            wick.ContractionSpec(m=0, inputs=())
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

    @pytest.mark.parametrize("L", [1, 2, 3, 5, 8])
    def test_second_moment_has_no_width_correction(self, L):
        """E f(x)^2 = x^2 at every depth and width: each level contributes
        its one pairing, with no 1/n term."""
        count = wick.exact_correlation(_scalar_spec(2), L)
        assert [(t.power_of_inv_n, t.coefficient) for t in count.terms] == [(0, 1)]
        assert count.diagram_count == 1 and count.leading_exponent == 0
        for n in (1, 8, 1000):
            np.testing.assert_allclose(count.evaluate(n), 1.2**2, rtol=1e-14)

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
        assert wick.render_monomial(((1, 2), (3, 4))) == "x1.x2*x3.x4"
        assert wick.render_monomial((1, 1, 2, 2)) == "x1*x1*x2*x2"


class TestMonteCarloScaling:
    def test_fourth_moment_within_three_se(self):
        """Sampled f^4 agrees with the exact polynomial at every width."""
        rep = wick.mc_scaling_check(_scalar_spec(4), 1, widths=[8, 16, 32],
                                    replicates=3000, seed=0)
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

    def test_chain_ends_share_one_weight_gradient_per_replicate(self, monkeypatch):
        """The benchmark's chain, four factors on one input, builds its weight
        gradients once per replicate and width and reads them at both ends."""
        calls = []

        def counted(*args):
            calls.append(1)
            return weight_grads(*args)

        monkeypatch.setattr(wick, "weight_grads", counted)
        spec = _scalar_spec(4, ((1, 2), (2, 3), (3, 4)))
        wick.mc_scaling_check(spec, 1, widths=[4, 8, 16], replicates=5, seed=3)
        assert len(calls) == 5 * 3

    def test_overflowing_inputs_rejected_without_warnings(self):
        """Finite inputs whose products leave float range: the exact value
        and the sampled moments each raise instead of returning inf or nan."""
        big = np.array([1e200, 1e200])
        spec = wick.ContractionSpec(m=2, inputs=(big, big))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exact value at width 2 is inf"):
                wick.exact_correlation(spec, 1).evaluate(2)
            with pytest.raises(ValueError, match="width 2 have mean inf and variance nan"):
                wick.mc_scaling_check(spec, 1, widths=[2, 3, 4], replicates=3)
            # samples that are finite but whose variance overflows
            spec = wick.ContractionSpec(m=2, inputs=(np.array([1e100]),) * 2)
            with pytest.raises(ValueError, match="variance inf"):
                wick.mc_scaling_check(spec, 1, widths=[2, 3, 4], replicates=3)

    def test_underflowing_inputs_rejected_without_warnings(self):
        """Inputs whose products underflow: an exact value of 0 or a
        subnormal is rejected unless the correlation vanishes exactly, and
        sampled moments too small for the log-log fit raise."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in ([1e-200], [1e-160], [3e-200, 1e-200]):
                spec = wick.ContractionSpec(m=2, inputs=(np.array(x),) * 2)
                with pytest.raises(ValueError, match="exact value at width 2 underflows to .*: the inputs are too small"):
                    wick.exact_correlation(spec, 1).evaluate(2)
                with pytest.raises(ValueError, match="width 2 have mean .* the inputs are too small to fit a slope"):
                    wick.mc_scaling_check(spec, 1, widths=[2, 3, 4], replicates=3)
            # orthogonal and zero inputs: the correlation is 0, not underflow
            orthogonal = wick.ContractionSpec(m=2, inputs=(np.array([1.0, 0.0]), np.array([0.0, 1.0])))
            assert wick.exact_correlation(orthogonal, 1).evaluate(3) == 0.0
            zero = wick.ContractionSpec(m=4, inputs=(np.array([0.0]),) + (np.array([1.0]),) * 3)
            assert wick.exact_correlation(zero, 2).evaluate(5) == 0.0
            # a dot that cancels exactly, though each of its products underflows
            tiny = wick.ContractionSpec(m=2, inputs=(np.array([1e-160, 1e-160]), np.array([1e-160, -1e-160])))
            assert wick.exact_correlation(tiny, 1).evaluate(2) == 0.0

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


def _reference_hessian_vec(config, weights, v, x):
    """H(x) v as wick computed it before one pass served every block:
    substitute v into one block at a time, run a full forward and backward
    pass, and drop the substituted block's own gradient."""
    out = [np.zeros_like(w) for w in weights]
    for p in range(len(weights)):
        sub = list(weights)
        sub[p] = v[p]
        grads = backward(config, sub, forward(config, sub, x), 0)
        for q in range(len(weights)):
            if q != p:
                out[q] += grads[q]
    return out


def _with_zeros(rng, a):
    """a with about a third of its entries set to +0.0 or -0.0."""
    zeros = np.where(rng.random(a.shape) < 0.5, -0.0, 0.0)
    return np.where(rng.random(a.shape) < 1 / 3, zeros, a)


@settings(max_examples=150, deadline=None)
@given(
    widths=st.tuples(st.integers(1, 3), st.lists(st.integers(1, 8), min_size=1, max_size=4), st.integers(1, 2)),
    parameterization=st.sampled_from(["standard", "ntk"]),
    sigma_w2=st.floats(0.1, 4.0),
    seed=st.integers(0, 2**16),
    blocks=st.lists(st.sampled_from(["drawn", 0.0, -0.0]), min_size=5, max_size=5),
)
def test_hessian_vec_equals_substituted_passes(widths, parameterization, sigma_w2, seed, blocks):
    """The one-pass Hessian-vector product equals the substitute-one-block
    passes bit for bit, signed zeros included, on linear nets of depth 1-4
    with zeros of either sign in the weights, in v and in x, and with whole
    blocks of v +0.0 or -0.0."""
    d, hidden, n_out = widths
    config = NetConfig((d, *hidden, n_out), "linear", parameterization=parameterization, sigma_w2=sigma_w2)
    rng = np.random.default_rng(seed)
    weights = [_with_zeros(rng, w) for w in init_weights(config, seed)]
    v = [_with_zeros(rng, rng.standard_normal(w.shape)) if block == "drawn" else np.full(w.shape, block)
         for w, block in zip(weights, blocks)]
    x = _with_zeros(rng, rng.standard_normal(d))
    trace = forward(config, weights, x)
    got = wick._hessian_vec(config, weights, v, trace.inputs, output_grads(config, weights, trace, 0))
    want = _reference_hessian_vec(config, weights, v, x)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _reference_samples(spec, L, n, replicates, seed, w_idx):
    """mc_scaling_check's samples at width n as it drew them before factors
    shared passes: a fresh forward and backward pass per factor, and each
    Hessian-vector product from the substitute-one-block passes."""
    d = spec.input_dim
    scaled = [x * math.sqrt(d) for x in spec.inputs]
    config = NetConfig(widths=(d,) + (n,) * L + (1,), activation="linear", parameterization="ntk")
    samples = np.empty(replicates)
    with np.errstate(all="ignore"):
        for r in range(replicates):
            weights = init_weights(config, seed=seed + 7919 * w_idx + r)

            def grads(f):
                return backward(config, weights, forward(config, weights, scaled[f - 1]), 0)

            value = 1.0
            for kind, comp in wick._chain_components(spec):
                if kind == "point":
                    value *= float(forward(config, weights, scaled[comp[0] - 1]).output[0])
                else:
                    v = grads(comp[0])
                    for mid in comp[1:-1]:
                        v = _reference_hessian_vec(config, weights, v, scaled[mid - 1])
                    value *= wick._block_dot(v, grads(comp[-1]))
            samples[r] = value
    return samples


@st.composite
def _mc_specs(draw):
    """A spec of 1-6 factors split into points and chains, each factor's
    input one of 1-3 vectors of dimension 1-3, so that inputs repeat; about a
    third of the entries are +0.0 or -0.0."""
    m = draw(st.integers(1, 6))
    order = draw(st.permutations(range(1, m + 1)))
    contractions, start = [], 0
    while start < m:
        size = draw(st.integers(1, m - start))
        group = order[start : start + size]
        contractions += list(zip(group, group[1:]))
        start += size
    d = draw(st.integers(1, 3))
    magnitude = st.floats(0.25, 2.0)
    entry = st.one_of(magnitude, magnitude.map(lambda a: -a), st.sampled_from([0.0, -0.0]))
    pool = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=1, max_size=3))
    inputs = tuple(np.array(draw(st.sampled_from(pool))) for _ in range(m))
    return wick.ContractionSpec(m=m, inputs=inputs, contractions=tuple(contractions))


@settings(max_examples=60, deadline=None)
# inputs of opposite zeros, which hold different bits, at width 1
@example(spec=wick.ContractionSpec(m=2, inputs=(0.0, -0.0)), L=1, widths=[1, 2, 3], replicates=3, seed=0)
@given(
    spec=_mc_specs(),
    L=st.integers(1, 3),
    widths=st.lists(st.integers(1, 5), min_size=3, max_size=3, unique=True),
    replicates=st.integers(2, 6),
    seed=st.integers(0, 2**16),
)
def test_mc_scaling_check_equals_a_fresh_pass_per_factor(spec, L, widths, replicates, seed):
    """Factors that share an input share its passes, and the report equals,
    field for field and bit for bit, that of a fresh forward and backward
    pass per factor; where those samples cannot be fitted, both raise the
    same error, and where exact_correlation refuses the spec, the check
    raises exact_correlation's error."""
    try:
        got = wick.mc_scaling_check(spec, L, widths, replicates=replicates, seed=seed)
    except ValueError as exc:
        got = str(exc)
    try:
        exact = wick.exact_correlation(spec, L)
    except ValueError as exc:
        assert got == str(exc)
        return
    means, variances, want = [], [], None
    for w_idx, n in enumerate(widths):
        samples = _reference_samples(spec, L, n, replicates, seed, w_idx)
        with np.errstate(all="ignore"):
            mean, variance = float(samples.mean()), float(samples.var(ddof=1))
        if not (math.isfinite(mean) and math.isfinite(variance) and abs(mean) >= wick._TINY and variance >= wick._TINY):
            want = f"the Monte Carlo samples at width {n} have mean {mean} and variance {variance}"
            break
        means.append(mean)
        variances.append(variance)
    if want is not None:
        assert isinstance(got, str) and got.startswith(want)
        return
    assert got == wick.ScalingReport(
        widths=tuple(widths),
        means=tuple(means),
        std_errs=tuple(math.sqrt(v / replicates) for v in variances),
        variances=tuple(variances),
        exacts=tuple(exact.evaluate(n) for n in widths),
        slope_mean=wick._fit_slope(tuple(widths), np.array(means)),
        slope_variance=wick._fit_slope(tuple(widths), np.array(variances)),
    )
