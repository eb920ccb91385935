"""Property-based checks of the batched gradient path: batched backprop
against single-input backward column by column, and the layer-wise
empirical tangent gram against an explicit gradient-feature gram. The
whole-array loops of lindyn, wick and meanfield against the scalar loops
they replaced, kept here as references; the Wick polynomial against a
listing of its diagrams; landscape's per-leg first-layer solver against
reconstruct_first_layer; the tanh length-map moments, fixed point and edge
of chaos against gauss_ev reference loops; gauss_ev2 on arrays against its
scalar calls and against the full-grid tensor rule it mirrors half of;
the NNGP recursion's pair moments against meanfield's correlation maps,
and the pair-kernel grams against the per-pair recursion; the tanh grams of
inputs spread over two decades as valid kernels (a strict xfail until
ROADMAP item 3 mends the tanh moments); the NNGP diagonal of inputs down
to 10^-200 against the length-map iterates, unless the variances underflow
and the gram is refused; linearized training on a solution queried many
times against fresh solutions; the Dziugaite-Roy optimizer's one
evaluation per point against the loop that evaluated each accepted point
twice; the CLI's CSV renderer against the per-cell formatter it replaced.
Also a fuzz of the CLI's count, list, range and tolerance flags and of
every subcommand that reads input files: every value exits 0, 1 or 2, and
a rejected one warns nothing."""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import sys
import tempfile
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dltl import cli, genbounds, landscape, lindyn, meanfield, ntk, wick
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
            grads = backward(config, weights, trace, output_index=a)
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
        single = backprop(config, weights, forward(config, weights, x[:, j]), seeds[:, j])
        for g_batch, g_single in zip(batched, single, strict=True):
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
    """RK4 steps in the logit v = ln(u / (s - u)), one at a time."""
    ex = (1.0 - L) / (1.0 + L)

    def g(v):
        u = s / (1.0 + math.exp(-v))
        return u**ex / (eta * (L + 1) * s)

    v = math.log(u0) - math.log(s - u0)
    h = (math.log(uf) - math.log(s - uf) - v) / steps
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


# -- the Wick polynomial against a listing of its diagrams ---------------------


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


def _listed_diagrams(spec, L):
    """Every diagram one at a time, as its matchings by type: per weight
    type, every perfect matching of 1..m holding the contraction edges
    assigned to that type."""
    if spec.m % 2:
        return
    matchings = [frozenset(pairing) for pairing in wick._pairings_of(tuple(range(1, spec.m + 1)))]
    for assignment in itertools.product(range(L + 1), repeat=len(spec.contractions)):
        forced = [[tuple(sorted(e)) for e, a in zip(spec.contractions, assignment) if a == t] for t in range(L + 1)]
        # forced edges that share a factor fit no matching; a repeated edge
        # shares two, and a self-contraction (i, i) shares one with itself
        if any(len({v for e in f for v in e}) != 2 * len(f) for f in forced):
            continue
        yield from itertools.product(*[[mt for mt in matchings if mt >= set(f)] for f in forced])


def _reference_expansion(spec, L):
    """(terms, diagram count) tallied over _listed_diagrams, with loops
    counted by _reference_loops."""
    labels = spec.input_labels()
    tally, diagrams = Counter(), 0
    for edges_by_type in _listed_diagrams(spec, L):
        diagrams += 1
        ends = [(labels[p - 1], labels[q - 1]) for p, q in edges_by_type[0]]
        if spec.scalar_inputs:
            monomial = tuple(sorted(v for e in ends for v in e))
        else:
            monomial = tuple(sorted((min(e), max(e)) for e in ends))
        tally[L * spec.m // 2 - _reference_loops(edges_by_type, spec.m, L), monomial] += 1
    return tuple(wick.DiagramTerm(p, c, mono) for (p, mono), c in sorted(tally.items())), diagrams


@st.composite
def diagram_specs(draw):
    # (m, L) pairs whose enumeration stays in the thousands of diagrams
    m, L = draw(st.sampled_from([(2, 1), (2, 3), (4, 1), (4, 2), (4, 3), (6, 1), (6, 2), (8, 1)]))
    pairs = st.tuples(st.integers(1, m), st.integers(1, m))
    contractions = draw(st.lists(pairs, min_size=1 if m == 8 else 0, max_size=m // 2))
    return wick.ContractionSpec(m=m, contractions=tuple(contractions), inputs=(1.0,) * m), L


@st.composite
def labelled_diagram_specs(draw):
    """diagram_specs with inputs drawn from a pool of three, so that the
    diagrams of one spec carry different monomials; vectors at L = 1."""
    spec, L = draw(diagram_specs())
    dim = draw(st.sampled_from([1, 3])) if L == 1 else 1
    pool = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((3, dim))
    picks = draw(st.lists(st.integers(0, 2), min_size=spec.m, max_size=spec.m))
    inputs = tuple(pool[i] for i in picks)
    return wick.ContractionSpec(m=spec.m, contractions=spec.contractions, inputs=inputs), L


_VEC_A, _VEC_B = np.array([0.3, -1.0, 0.5]), np.array([1.1, 0.2, -0.4])


@settings(max_examples=60, deadline=None)
@given(spec_depth=labelled_diagram_specs())
@example(spec_depth=(wick.ContractionSpec(m=8, inputs=(1.2,) * 8), 1))
@example(spec_depth=(wick.ContractionSpec(m=6, contractions=((1, 2), (3, 4)), inputs=(0.7,) * 6), 2))
@example(spec_depth=(wick.ContractionSpec(m=6, contractions=((1, 2),), inputs=(_VEC_A, _VEC_B) * 3), 1))
@example(spec_depth=(wick.ContractionSpec(m=4, inputs=(_VEC_A, _VEC_B, _VEC_A, _VEC_A)), 1))
@example(spec_depth=(wick.ContractionSpec(m=4, contractions=((1, 2), (1, 2)), inputs=(0.7,) * 4), 2))
@example(spec_depth=(wick.ContractionSpec(m=4, contractions=((2, 2), (1, 3)), inputs=(0.7,) * 4), 1))
@example(spec_depth=(wick.ContractionSpec(m=5, contractions=((1, 2),), inputs=(0.7,) * 5), 2))
def test_diagram_terms_tally_the_diagrams(spec_depth):
    """The transfer-product polynomial and diagram count equal the tally of
    (L m / 2 - loops, monomial) over a listing of every diagram, with int
    coefficients."""
    spec, L = spec_depth
    count = wick.exact_correlation(spec, L)
    terms, diagrams = _reference_expansion(spec, L)
    assert count.terms == terms
    assert count.diagram_count == diagrams
    assert all(type(t.coefficient) is int for t in count.terms)


@settings(max_examples=40, deadline=None)
@given(spec_depth=diagram_specs())
def test_diagram_loops_match_level_union_find(spec_depth):
    spec, L = spec_depth
    for edges_by_type in _listed_diagrams(spec, L):
        assert wick.double_line_loops(edges_by_type, spec.m, L) == _reference_loops(edges_by_type, spec.m, L)


# -- first-layer reconstruction: one solver per leg against the public call ----


@st.composite
def reconstructible_nets(draw):
    """Invertible activation, strictly decreasing widths above the first
    layer, X of full column rank (m <= n_0) and a few target outputs."""
    uppers = sorted(draw(st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True)), reverse=True)
    n0 = draw(st.integers(1, 6))
    act = draw(st.one_of(st.just("linear"), st.floats(0.05, 0.95).map(lambda a: f"leaky_relu:{a!r}")))
    config = NetConfig(
        widths=(n0, *uppers),
        activation=act,
        parameterization=draw(st.sampled_from(["ntk", "standard"])),
        sigma_w2=draw(st.floats(0.5, 2.5)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, n0))
    targets = rng.standard_normal((draw(st.integers(1, 6)), uppers[-1], m))
    return config, init_weights(config, seed=int(rng.integers(2**32))), rng.standard_normal((n0, m)), targets


@settings(max_examples=100, deadline=None)
@given(case=reconstructible_nets())
def test_first_layer_solver_equals_reconstruction(case):
    """A solver built once for fixed upper weights and X returns, for every
    target, the W_0 of reconstruct_first_layer bit for bit."""
    config, weights, x, targets = case
    solve = landscape._first_layer_solver(config, weights, landscape.left_inverse(x))
    for h in targets:
        assert np.array_equal(solve(h), landscape.reconstruct_first_layer(config, weights, x, h))


# -- length-map fixed point: hoisted iteration against the public map -----------


@settings(max_examples=60, deadline=None)
@given(
    sigma_w2=st.one_of(st.floats(0.3, 0.9, exclude_max=True), st.floats(1.2, 4.0, exclude_min=True)),
    q0=st.floats(0.0, 3.0),
)
def test_tanh_fixed_point_matches_iterated_length_map(sigma_w2, q0):
    """Above the edge, the hoisted iteration is the plain iteration of the
    public map, which stops at a small step unless it is a step up where
    dV/dq > 1 (the repelling side of q = 0). Below it, V(q) < sigma_w^2 q < q
    makes q* = 0 exact and no step is taken; the plain iteration is the
    oracle that it lands there. From a tiny q0 the escape from 0 can outlast
    the 512 plain steps after which the Newton polish takes over; then the
    gauss_ev reference, polish included, is the oracle."""
    act, tol = Activation("tanh"), 1e-10
    slope = _gauss_length_moments(sigma_w2)[1]
    q = q0
    for k in range(1, 513):
        q_next = meanfield.length_map(q, sigma_w2, act)
        if abs(q_next - q) <= tol and (q_next <= q or slope(q_next) <= 1.0):
            want = (q_next, k)
            break
        q = q_next
    else:
        want = _reference_fixed_point(sigma_w2, q0)
    got = meanfield.length_fixed_point(sigma_w2, act, q0=q0)
    if sigma_w2 < 1.0:
        assert abs(want[0]) <= 1e-8
        assert (got.q_inf, got.iterations, got.marginal) == (0.0, 0, False)
    else:
        assert (got.q_inf, got.iterations, got.marginal) == (*want, False)


# -- tanh length-map moments: the hoisted evaluator against gauss_ev -------------


TANH = Activation("tanh")


def _tanh_second(z):
    t = np.tanh(z)
    return -2.0 * t * (1.0 - t * t)


def _gauss_length_moments(sigma_w2, nodes=meanfield.GH_NODES):
    """(V, dV/dq, chi_1) of tanh as functions of q, each one gauss_ev call
    on the textbook integrand: phi^2, phi'^2 + phi phi'' and phi'^2."""
    def value(q):
        return sigma_w2 * meanfield.gauss_ev(lambda z: TANH(z) ** 2, q, nodes=nodes)

    def slope(q):
        return sigma_w2 * meanfield.gauss_ev(lambda z: TANH.deriv(z) ** 2 + TANH(z) * _tanh_second(z), q, nodes=nodes)

    def chi(q):
        return sigma_w2 * meanfield.gauss_ev(lambda z: TANH.deriv(z) ** 2, q, nodes=nodes)

    return value, slope, chi


def _reference_fixed_point(sigma_w2, q0, tol=1e-10, max_iter=10_000):
    """Plain iteration of the gauss_ev length map with the Newton polish on
    V(q) - q at step 512; (q_inf, iterations), or "diverged". A small step
    up and a Newton landing end it only where dV/dq <= 1. Below
    sigma_w^2 = 1, tanh^2 u < u^2 gives V(q) < q for q > 0, so q* = 0
    exactly, reached in no steps."""
    if sigma_w2 < 1.0:
        return 0.0, 0
    value, slope, _ = _gauss_length_moments(sigma_w2)

    def polish(q):
        q_hi = 10.0 * max(q, 1.0)
        for j in range(1, 201):
            gp = slope(q) - 1.0
            if gp == 0.0:
                return None
            q_new = q - (value(q) - q) / gp
            if q_new < 0.0:
                q_new = 0.5 * q
            if q_new > q_hi:
                return None
            if abs(q_new - q) <= tol:
                ok = abs(value(q_new) - q_new) <= 10.0 * tol * (1.0 + abs(q_new))
                return (q_new, j) if ok and slope(q_new) <= 1.0 else None
            q = q_new
        return None

    q = q0
    for k in range(1, max_iter + 1):
        q_next = value(q)
        if not math.isfinite(q_next) or q_next > 1e12:
            return "diverged"
        if abs(q_next - q) <= tol and (q_next <= q or slope(q_next) <= 1.0):
            return q_next, k
        q = q_next
        if k == 512 and (polished := polish(q)) is not None:
            return polished[0], k + polished[1]
    return "diverged"


def _fixed_point_outcome(sigma_w2, q0):
    try:
        fp = meanfield.length_fixed_point(sigma_w2, TANH, q0=q0)
    except meanfield.DivergenceError:
        return "diverged"
    return fp.q_inf, fp.iterations


def _reference_edge(q0, tol=1e-10):
    """edge_of_chaos(tanh) bisection on [1, 4] on the reference fixed point.
    The upper end is evaluated here only to check that chi_1 - 1 changes
    sign on the bracket, which edge_of_chaos takes as given."""
    def f(sigma_w2):
        q_inf = _reference_fixed_point(sigma_w2, q0)[0]
        return _gauss_length_moments(sigma_w2)[2](q_inf) - 1.0

    lo, hi = 1.0, 4.0
    f_lo = f(lo)
    assert f_lo <= 0.0 < f(hi)
    if abs(f_lo) <= tol:
        return lo
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


@settings(max_examples=300, deadline=None)
@given(
    q=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
    sigma_w2=st.floats(0.0, 10.0, exclude_min=True),
    nodes=st.sampled_from([16, 64, 256]),
)
def test_tanh_length_moments_equal_gauss_ev(q, sigma_w2, nodes):
    """The hoisted V, dV/dq and chi_1 are the gauss_ev expressions bit for bit."""
    value, slope, chi = _gauss_length_moments(sigma_w2, nodes)
    moments = meanfield._length_moments(sigma_w2, nodes)
    assert (moments.value(q), moments.slope(q), moments.chi1(q)) == (value(q), slope(q), chi(q))
    assert meanfield.length_map(q, sigma_w2, TANH, nodes=nodes) == value(q)
    assert meanfield.chi1(sigma_w2, q, TANH, nodes=nodes) == chi(q)


@settings(max_examples=60, deadline=None)
@given(
    sigma_w2=st.one_of(st.floats(0.0, 10.0, exclude_min=True), st.floats(0.9, 1.2)),
    q0=st.floats(0.0, 5.0),
)
@example(sigma_w2=1.0, q0=1.0)      # critical: the polish fires at step 512
@example(sigma_w2=1.0001, q0=1.0)
@example(sigma_w2=0.5, q0=0.0)
def test_tanh_fixed_point_equals_gauss_ev_reference(sigma_w2, q0):
    """length_fixed_point against the gauss_ev loop, Newton polish included,
    so sigma_w^2 near 1 is covered too."""
    assert _fixed_point_outcome(sigma_w2, q0) == _reference_fixed_point(sigma_w2, q0)


@settings(max_examples=8, deadline=None)
@given(q0=st.one_of(st.floats(0.1, 5.0), st.floats(0.0, 1e-11)))
@example(q0=1.0)    # sigma_w^2 = 1 is iterated, and the bisection runs
@example(q0=0.0)    # chi_1(1, 0) = 1: the lower end is the answer
def test_tanh_edge_of_chaos_equals_gauss_ev_reference(q0):
    assert meanfield.edge_of_chaos(TANH, q0=q0) == _reference_edge(q0)


# -- pair moments: the NNGP recursion's rule against meanfield's maps ------------


correlations = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))
variances = st.floats(1e-3, 1e3)


@settings(max_examples=300, deadline=None)
@given(
    act=st.one_of(st.sampled_from(["linear", "relu"]), st.floats(0.05, 0.95).map(lambda a: f"leaky_relu:{a!r}")),
    c=correlations, q11=variances, q22=variances, sigma_w2=st.floats(0.1, 4.0),
)
@example(act="relu", c=1.0, q11=1e3, q22=1e-3, sigma_w2=2.0)
@example(act="relu", c=-1.0, q11=1.0, q22=1.0, sigma_w2=2.0)
@example(act="leaky_relu:0.2", c=0.0, q11=1e-3, q22=1e-3, sigma_w2=4.0)
@example(act="linear", c=1.0 - 1e-15, q11=2.0, q22=0.5, sigma_w2=0.1)
@example(act="relu", c=1.0 - 1e-15, q11=1e3, q22=1e3, sigma_w2=1.0)
def test_polar_pair_moments_match_closed_forms(act, c, q11, q22, sigma_w2):
    """The polar rule of ntk and the arc-cosine closed forms of meanfield
    compute the same two moments for the piecewise-linear kinds, to 1e-13
    of their scales sigma_w^2 sqrt(q11 q22) and sigma_w^2."""
    act = Activation.parse(act)
    m_phi, m_deriv = ntk._pair_moments(c, q11, q22, sigma_w2, act, meanfield.GH_NODES, np.empty((2, 1, 4, 32)))
    scale = sigma_w2 * math.sqrt(q11 * q22)
    assert abs(m_phi - meanfield.corr_map(c, q11, q22, sigma_w2, act)) <= 1e-13 * scale
    assert abs(m_deriv - meanfield.chi_map(c, q11, q22, sigma_w2, act)) <= 1e-13 * sigma_w2


@settings(max_examples=30, deadline=None)
@given(c=correlations, q11=variances, q22=variances, sigma_w2=st.floats(0.1, 4.0))
def test_smooth_pair_moments_are_the_correlation_maps(c, q11, q22, sigma_w2):
    act = Activation("tanh")
    got = ntk._pair_moments(c, q11, q22, sigma_w2, act, meanfield.GH_NODES, None)
    assert got == (meanfield.corr_map(c, q11, q22, sigma_w2, act), meanfield.chi_map(c, q11, q22, sigma_w2, act))


_TANH, _RELU = Activation("tanh"), Activation("relu")
_INTEGRANDS = {"tanh": _TANH, "tanh'": _TANH.deriv, "relu": _RELU}


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    nodes=st.sampled_from([1, 2, 3, 63, 64, 65, 200]),
    f=st.sampled_from(sorted(_INTEGRANDS)),
    block_pairs=st.sampled_from([None, 1, 2, 3]),
)
def test_array_gauss_ev2_is_the_scalar_calls(data, nodes, f, block_pairs):
    """gauss_ev2 on arrays equals its scalar calls entry by entry, exactly,
    with |c| = 1 mixed among interior pairs and over several blocks: the
    default budget holds 8 pairs at 63 and 64 nodes, 7 at 65 and one at 200,
    and block_pairs shrinks it for the smaller rules."""
    size = data.draw(st.integers(1, 20))
    c, q11, q22 = (data.draw(st.lists(s, min_size=size, max_size=size)) for s in (correlations, variances, variances))
    shape = data.draw(st.sampled_from([(size,), (1, size), (size, 1)]))
    f = _INTEGRANDS[f]
    budget = meanfield._BLOCK_BYTES if block_pairs is None else 8 * nodes * nodes * block_pairs
    with mock.patch.object(meanfield, "_BLOCK_BYTES", budget):
        got = meanfield.gauss_ev2(f, *(np.reshape(v, shape) for v in (c, q11, q22)), nodes)
    assert got.shape == shape
    want = [meanfield.gauss_ev2(f, *pair, nodes) for pair in zip(c, q11, q22)]
    assert all(type(v) is float for v in want)
    assert got.ravel().tolist() == want


def _full_grid_tensor_rule(f, c, q11, q22, nodes):
    """gauss_ev2's tensor rule at |c| < 1 as it was before the mirrored half:
    every row of each pair's n x n grid evaluated, in blocks of _BLOCK_BYTES."""
    t, w = meanfield.gauss_hermite(nodes)
    z = math.sqrt(2.0) * t
    n = z.size
    step = max(1, meanfield._BLOCK_BYTES // (8 * n * n))
    buf = np.empty((min(step, c.size), n, n))
    z1, z2 = z[:, None], z[None, :]
    w_row, w_col = w[None, :], w[:, None]
    c3 = c[:, None, None]
    s3, root_q11, root_q22 = np.sqrt(1.0 - c3 * c3), np.sqrt(q11)[:, None, None], np.sqrt(q22)[:, None, None]
    sums = np.empty((c.size, 1, 1))
    for start in range(0, c.size, step):
        block = slice(start, start + step)
        v = np.add(c3[block] * z1, s3[block] * z2, out=buf[: min(step, c.size - start)])
        v *= root_q22[block]
        vals = np.multiply(f(root_q11[block] * z1), f(v), out=v)
        np.matmul(np.matmul(w_row, vals), w_col, out=sums[block])
    return sums[:, 0, 0] / math.pi


interior_correlations = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5]),
                                  st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    nodes=st.sampled_from([1, 2, 3, 63, 64, 65, 200]),
    f=st.sampled_from(sorted(_INTEGRANDS)),
    block_pairs=st.sampled_from([None, 1, 3]),
)
def test_tensor_rule_equals_full_grid(data, nodes, f, block_pairs):
    """Copying the mirror half of the grid for tanh (odd) and tanh' (even)
    gives gauss_ev2 bit for bit the full-grid rule, signed zeros included;
    relu takes the full grid."""
    size = data.draw(st.integers(1, 12))
    c = np.array(data.draw(st.lists(interior_correlations, min_size=size, max_size=size)))
    q11, q22 = (np.array(data.draw(st.lists(st.one_of(st.just(0.0), variances), min_size=size, max_size=size)))
                for _ in range(2))
    f = _INTEGRANDS[f]
    budget = meanfield._BLOCK_BYTES if block_pairs is None else 8 * nodes * nodes * block_pairs
    with mock.patch.object(meanfield, "_BLOCK_BYTES", budget):
        got = meanfield.gauss_ev2(f, c, q11, q22, nodes)
        want = _full_grid_tensor_rule(f, c, q11, q22, nodes)
    assert got.tobytes() == want.tobytes()


# -- pair kernels: the gram path against the per-pair recursion, bit for bit -----


def _half_plane_arc(center1, center2):
    """Intersection of two half-circle arcs given by their center angles.

    Each half-plane {w : w . e(c) > 0} cuts the unit circle in the arc
    (c - pi/2, c + pi/2); two such arcs always intersect in a single arc.
    """
    d = math.remainder(center2 - center1, 2 * math.pi)
    lo = max(-math.pi / 2, d - math.pi / 2)
    hi = min(math.pi / 2, d + math.pi / 2)
    return center1 + lo, center1 + hi


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _reference_polar_moments(c, q11, q22, slopes):
    """The polar rule arc by arc, one 32-node Gauss-Legendre dot product per arc."""
    c = min(1.0, max(-1.0, c))
    d = math.asin(c)
    centers_u = {1.0: 0.0, -1.0: math.pi}
    centers_v = {1.0: math.pi / 2 - d, -1.0: 3 * math.pi / 2 - d}
    m_phi = m_deriv = 0.0
    for su, slope_u in ((1.0, slopes[0]), (-1.0, slopes[1])):
        for sv, slope_v in ((1.0, slopes[0]), (-1.0, slopes[1])):
            lo, hi = _half_plane_arc(centers_u[su], centers_v[sv])
            if hi <= lo:
                continue
            m_deriv += slope_u * slope_v * (hi - lo) / (2 * math.pi)
            half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
            a = mid + half * _GL_NODES
            arc = half * float(_GL_WEIGHTS @ (np.cos(a) * np.sin(a + d)))
            m_phi += slope_u * slope_v * arc / math.pi
    return math.sqrt(q11 * q22) * m_phi, m_deriv


def _reference_pair(x, xp, config):
    """(Theta_0, q_{L+1}) for one pair of contiguous inputs: both diagonals
    advanced alongside the cross term, Theta_0 assembled with np.prod."""
    sw2, act = config.sigma_w2, config.activation
    scale = sw2 / config.widths[0]
    q11, q12, q22, chi = [scale * float(x @ x)], [scale * float(x @ xp)], [scale * float(xp @ xp)], []
    for _ in range(config.depth):
        denom = math.sqrt(q11[-1] * q22[-1])
        c = min(1.0, max(-1.0, q12[-1] / denom if denom > 0 else 0.0))
        if act.slopes is not None:
            m_phi, m_deriv = _reference_polar_moments(c, q11[-1], q22[-1], act.slopes)
            q12.append(sw2 * m_phi)
            chi.append(sw2 * m_deriv)
        else:
            q12.append(meanfield.corr_map(c, q11[-1], q22[-1], sw2, act))
            chi.append(meanfield.chi_map(c, q11[-1], q22[-1], sw2, act))
        q11.append(meanfield.length_map(q11[-1], sw2, act))
        q22.append(meanfield.length_map(q22[-1], sw2, act))
    theta = 0.0
    for l in range(len(q12)):
        theta += q12[l] * float(np.prod(np.array(chi[l:])))
    return theta, q12[-1]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    act=activations,
    depth=st.integers(1, 3),
    n0=st.integers(1, 48),
    sigma_w2=st.floats(0.5, 2.5),
    cross=st.booleans(),
)
def test_pair_kernels_equal_nngp_recursion(data, act, depth, n0, sigma_w2, cross):
    """Every gram entry is nngp_recursion's value on the same pair, and
    the reference loop's, with ==; x_b = None compares the computed half,
    i <= j. Inputs span up to 48 dimensions so a dot product with another
    summation order would show."""
    config = NetConfig(widths=(n0, *[8] * depth, 1), activation=act, parameterization="ntk", sigma_w2=sigma_w2)
    x_a = _columns(data.draw, n0, data.draw(st.integers(1, 6)))
    if data.draw(st.booleans()):
        x_a[:, -1] = x_a[:, 0]  # an exactly collinear pair: c = 1
    x_b = _columns(data.draw, n0, data.draw(st.integers(1, 6))) if cross else None
    theta, nngp = ntk._pair_kernels(x_a, x_b, config, meanfield.GH_NODES)
    rows = x_a if x_b is None else x_b
    for i in range(x_a.shape[1]):
        for j in range(i if x_b is None else 0, rows.shape[1]):
            state = ntk.nngp_recursion(x_a[:, i], rows[:, j], config)
            want = _reference_pair(np.ascontiguousarray(x_a[:, i]), np.ascontiguousarray(rows[:, j]), config)
            assert theta[i, j] == state.ntk_value() == want[0]
            assert nngp[i, j] == state.nngp_value() == want[1]


def test_pair_kernels_check_cauchy_schwarz(monkeypatch):
    """The gram path and nngp_recursion check every layer's cross
    covariance against the Cauchy-Schwarz bound."""
    config = NetConfig(widths=(3, 8, 8, 1), activation="relu", parameterization="ntk", sigma_w2=2.0)
    x = np.random.default_rng(3).standard_normal((3, 4))
    monkeypatch.setattr(ntk, "_pair_moments", lambda c, q11, q22, *args: (2.0 * np.sqrt(q11 * q22) + 1.0, 1.0))
    with pytest.raises(ValueError, match="Cauchy-Schwarz"):
        ntk._pair_kernels(x, None, config, meanfield.GH_NODES)
    with pytest.raises(ValueError, match="Cauchy-Schwarz"):
        ntk._pair_kernels(x, x[:, :2], config, meanfield.GH_NODES)
    with pytest.raises(ValueError, match="Cauchy-Schwarz"):
        ntk.nngp_recursion(x[:, 0], x[:, 1], config)


@settings(max_examples=6, deadline=None)
@given(
    data=st.data(),
    act=activations,
    n0=st.sampled_from([3, 48, 5000]),
    m=st.integers(40, 48),
)
def test_pair_kernels_equal_reference_across_chunks(data, act, n0, m):
    """The gram path runs its pairs in chunks of a fixed byte budget; grams
    with more pairs than one chunk holds, square and cross, with an exactly
    collinear pair, still equal the reference loop entry by entry."""
    config = NetConfig(widths=(n0, 8, 8, 1), activation=act, parameterization="ntk", sigma_w2=1.5)
    x_a = _columns(data.draw, n0, m)
    x_a[:, -1] = x_a[:, 0]  # c = 1
    x_b = _columns(data.draw, n0, 7)
    x_b[:, 3] = x_a[:, 5]
    chunk_pairs = ntk._CHUNK_BYTES // (8 * max(n0, 4 * 32))
    assert m * (m + 1) // 2 > chunk_pairs and 7 * m > chunk_pairs
    for left, right, pairs in (
        (x_a, None, [(i, j) for i in range(m) for j in range(i, m)]),
        (x_b, x_a, [(i, j) for i in range(7) for j in range(m)]),
    ):
        theta, nngp = ntk._pair_kernels(left, right, config, meanfield.GH_NODES)
        cols = x_a if right is None else right
        for i, j in pairs:
            want = _reference_pair(np.ascontiguousarray(left[:, i]), np.ascontiguousarray(cols[:, j]), config)
            assert theta[i, j] == want[0]
            assert nngp[i, j] == want[1]


@st.composite
def spread_columns(draw):
    """A column dataset whose columns sit at scales 10^s, s in [-1, 1]."""
    n0, m = draw(st.integers(1, 4)), draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((n0, m)) * 10.0 ** rng.uniform(-1.0, 1.0, m)


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="ROADMAP item 3: the fixed 64-node Gauss-Hermite rule loses the tanh moments "
                          "as q grows, and the gram falls below the PSD floor")
@settings(max_examples=30, deadline=None)
@example(x=np.random.default_rng(0).standard_normal((3, 20)) * 3, sigma_w2=1.5, depth=2)
@given(x=spread_columns(), sigma_w2=st.floats(0.5, 2.5), depth=st.integers(1, 3))
def test_tanh_grams_of_spread_inputs_are_valid_kernels(x, sigma_w2, depth):
    """The limit NTK and the NNGP gram of a tanh net are symmetric PSD
    grams, which KernelGram checks as it is built, on inputs spread over
    two decades of scale."""
    config = NetConfig(widths=(x.shape[0], *(8,) * depth, 1), activation="tanh",
                       parameterization="ntk", sigma_w2=sigma_w2)
    for gram in (ntk.limiting_ntk(x, config), ntk.nngp_gram(x, config)):
        assert gram.eigvals[0] >= ntk.EIG_FLOOR


@st.composite
def small_columns(draw):
    """A dataset of nonzero 2-3-D columns, each at its own scale 10^-k,
    k in 0..200."""
    n0, m = draw(st.integers(2, 3)), draw(st.integers(1, 6))
    k = np.array(draw(st.lists(st.integers(0, 200), min_size=m, max_size=m)))
    return _columns(draw, n0, m) * 10.0 ** -k


def _length_iterates(x, config):
    """q_1..q_{L+1}(x, x): the first-layer variance, then length_map."""
    q = [config.sigma_w2 / config.widths[0] * float(x @ x)]
    for _ in range(config.depth):
        q.append(meanfield.length_map(q[-1], config.sigma_w2, config.activation))
    return q


@settings(max_examples=80, deadline=None)
# 6 rows of 3 at 1e-100: every relu nngp entry was 0.0, with exit 0
@example(x=np.random.default_rng(0).standard_normal((6, 3)).T * 1e-100, act="relu", sigma_w2=2.0, depth=2)
@given(x=small_columns(), act=st.sampled_from(["relu", "tanh"]), sigma_w2=st.floats(0.5, 2.5), depth=st.integers(1, 3))
def test_grams_of_small_inputs_keep_their_diagonal(x, act, sigma_w2, depth):
    """nngp_gram either rejects inputs whose layer variances underflow in a
    pair's product, or returns every diagonal entry within 1e-12 relative of
    the length-map iterates; it rejects only when some column's variance
    squared is below the smallest normal float."""
    config = NetConfig(widths=(x.shape[0], *(8,) * depth, 1), activation=act, parameterization="ntk",
                       sigma_w2=sigma_w2)
    iterates = [_length_iterates(np.ascontiguousarray(col), config) for col in x.T]
    try:
        gram = ntk.nngp_gram(x, config)
    except ValueError as exc:
        assert re.fullmatch(r"input columns \d+ and \d+ are too small: their layer-\d+ variances .* underflow in "
                            r"their product", str(exc))
        assert min(q * q for qs in iterates for q in qs) < sys.float_info.min
        return
    for i, qs in enumerate(iterates):
        assert abs(gram.matrix[i, i] - qs[-1]) <= REL_TOL * qs[-1]


# -- linearized training: one solution queried many times, against fresh ones ----


def _prediction_lists(pred):
    return [None if v is None else v.tolist() for v in (pred.f_lin, pred.gp_mean, pred.gp_cov)]


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    act=st.sampled_from(["relu", "leaky_relu:0.2", "tanh"]),
    kernel=st.sampled_from(["limiting", "last_layer"]),
    times=st.lists(st.sampled_from([0.0, 0.25, 1.0, 10.0, math.inf]), min_size=2, max_size=4),
)
def test_linearized_train_on_one_solution_equals_fresh_solutions(data, act, kernel, times):
    """A solution called at several t, interleaved with a second query set
    and with an in-place edit of the first, returns == what a freshly built
    solution returns for each call."""
    config = NetConfig(widths=(3, 8, 8, 1), activation=act, parameterization="ntk", sigma_w2=1.5)
    weights = init_weights(config, seed=data.draw(st.integers(0, 2**32 - 1)))
    m = data.draw(st.integers(2, 5))
    x_train = _columns(data.draw, 3, m)
    y = _columns(data.draw, m, 1).ravel()

    def fresh():
        return ntk.linearize(config, weights, x_train, y, eta=1.0, kernel=kernel)

    try:
        sol = fresh()
    except ValueError:  # a singular train gram
        assume(False)
    x_a, x_b = _columns(data.draw, 3, data.draw(st.integers(1, 4))), _columns(data.draw, 3, 2)
    for edit in (False, True):
        if edit:
            x_a[0, 0] += 0.5  # the same array object with new values
        for x, t in [(x_a, t) for t in times] + [(x_b, times[0]), (x_a, times[1])]:
            assert _prediction_lists(ntk.linearized_train(sol, x, t)) == _prediction_lists(
                ntk.linearized_train(fresh(), x, t)
            )


def test_linearized_train_computes_query_kernels_once_per_query_set():
    """The query kernels are computed on the first call for a query set and
    after the set changes, in place or not; f_0 is read from the weights on
    every call, so an edit of the weight arrays still shows."""
    config = NetConfig(widths=(3, 8, 1), activation="relu", parameterization="ntk", sigma_w2=2.0)
    weights = init_weights(config, seed=4)
    rng = np.random.default_rng(5)
    x_train, y, x_query = rng.standard_normal((3, 4)), rng.standard_normal(4), rng.standard_normal((3, 3))
    sol = ntk.linearize(config, weights, x_train, y, eta=1.0)
    with mock.patch.object(ntk, "_pair_kernels", wraps=ntk._pair_kernels) as pair_kernels:
        for t in (0.0, 1.0, math.inf):
            ntk.linearized_train(sol, x_query, t)
        assert pair_kernels.call_count == 2  # Theta(x, X) with q(x, X), then q(x, x)
        ntk.linearized_train(sol, x_query.copy(), 2.0)
        assert pair_kernels.call_count == 2  # the same values in another array
        x_query[1, 2] = -x_query[1, 2]
        ntk.linearized_train(sol, x_query, 2.0)
        assert pair_kernels.call_count == 4
    untouched = ntk.linearize(config, weights, x_train, y, eta=1.0)
    weights[-1] *= -1.0  # both solutions hold views of these arrays
    assert _prediction_lists(ntk.linearized_train(sol, x_query, 2.0)) == _prediction_lists(
        ntk.linearized_train(untouched, x_query, 2.0)
    )
    assert ntk.linearized_train(sol, x_query, 2.0).f_lin.tolist() != ntk.linearized_train(
        ntk.linearize(config, [-w for w in weights], x_train, y, eta=1.0), x_query, 2.0
    ).f_lin.tolist()


# -- Dziugaite-Roy: one evaluator per point against the two-evaluator loop -------


def _reference_dziugaite_roy(post, x, y, b, c, delta, steps):
    """The optimizer with a value-only objective for the probes and a
    separate gradient evaluator run again at each accepted point and at the
    grid point. Returns (bound, details) or raises as the optimizer does."""
    t, w = genbounds.gauss_hermite(genbounds.GH_NODES)
    t, w = math.sqrt(2.0) * t, w / math.sqrt(math.pi)
    x_sq = x * x
    m = y.size
    mu_star = post.prior_mean
    log_c = math.log(c)
    lam_star_cap = log_c - 1.0 / b
    log_grid_const = math.log(2.0 * math.pi**2 * m / (3.0 * delta))
    denom = 2.0 * m - 1.0

    def surrogate_value(mu, lam):
        with np.errstate(over="ignore", invalid="ignore"):
            a = y * (x @ mu)
            v = x_sq @ np.exp(lam)
            z = a[:, None] + np.sqrt(v)[:, None] * t[None, :]
            return float(np.mean(genbounds._logistic_bits(z) @ w))

    def surrogate_value_and_grads(mu, lam):
        a = y * (x @ mu)
        exp_lam = np.exp(lam)
        v = x_sq @ exp_lam
        sigma = np.sqrt(v)
        z = a[:, None] + sigma[:, None] * t[None, :]
        loss = float(np.mean(genbounds._logistic_bits(z) @ w))
        deriv = genbounds._logistic_bits_deriv(z)
        d_a = deriv @ w
        with np.errstate(divide="ignore", invalid="ignore"):
            d_v = np.where(v > 0.0, (deriv @ (w * t)) / (2.0 * sigma), 0.0)
        return loss, (d_a * y) @ x / m, (d_v @ x_sq) * exp_lam / m

    def penalty_parts(mu, lam, lam_star):
        j_cont = b * (log_c - lam_star)
        kl = genbounds.gaussian_kl(mu, lam, mu_star, lam_star)
        log_term = log_grid_const + 2.0 * math.log(j_cont)
        return j_cont, kl, math.sqrt((log_term + kl) / denom)

    def objective(mu, lam, lam_star):
        if lam_star > lam_star_cap:
            return math.inf
        try:
            loss = surrogate_value(mu, lam)
            _, _, penalty = penalty_parts(mu, lam, lam_star)
        except (OverflowError, ValueError):
            return math.inf
        return loss + penalty

    def gradient(mu, lam, lam_star):
        loss, g_mu, g_lam = surrogate_value_and_grads(mu, lam)
        j_cont, kl, penalty = penalty_parts(mu, lam, lam_star)
        shift = mu - mu_star
        exp_neg = math.exp(-lam_star)
        scale = 1.0 / (2.0 * denom * penalty)
        g_mu = g_mu + scale * exp_neg * shift
        g_lam = g_lam + scale * 0.5 * (exp_neg * np.exp(lam) - 1.0)
        d_lam_star = -2.0 * b / j_cont + 0.5 * (
            post.dim - exp_neg * (float(np.sum(np.exp(lam))) + float(shift @ shift))
        )
        return loss + penalty, g_mu, g_lam, scale * d_lam_star

    mu, lam, lam_star = post.mean.copy(), post.log_var.copy(), post.prior_log_var
    current = objective(mu, lam, lam_star)
    if not math.isfinite(current):
        raise ValueError(
            f"non-finite objective at the initial posterior (lam* = {lam_star}, "
            f"grid cap = {lam_star_cap})"
        )
    trace = [current]
    steps_taken = 0
    for _ in range(steps):
        _, g_mu, g_lam, g_lam_star = gradient(mu, lam, lam_star)
        step = 1.0
        accepted = False
        for _ in range(60):
            cand_star = min(lam_star - step * g_lam_star, lam_star_cap)
            cand = objective(mu - step * g_mu, lam - step * g_lam, cand_star)
            if cand < current:
                mu, lam, lam_star, current = mu - step * g_mu, lam - step * g_lam, cand_star, cand
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        trace.append(current)
        steps_taken += 1

    j_star = max(1, round(b * (log_c - lam_star)))
    lam_star_grid = log_c - j_star / b
    loss = surrogate_value(mu, lam)
    _, kl, penalty = penalty_parts(mu, lam, lam_star_grid)
    bound = loss + penalty
    _, _, _, g_lam_star_grid = gradient(mu, lam, lam_star_grid)
    return bound, {
        "objective_trace": tuple(trace),
        "steps_taken": steps_taken,
        "surrogate_loss": loss,
        "kl": kl,
        "penalty": penalty,
        "j_star": j_star,
        "delta_j": 6.0 * delta / (math.pi**2 * j_star**2),
        "lambda_star": lam_star_grid,
        "lambda_star_continuous": lam_star,
        "bound_continuous": current,
        "rounding_shift": bound - current,
        "rounding_penalty_estimate": abs(g_lam_star_grid) / (2.0 * b),
        "mean": mu,
        "log_var": lam,
    }


def _bound_or_error(call):
    try:
        return call()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    d=st.integers(1, 7),
    m=st.integers(1, 59),
    b=st.floats(0.5, 200.0),
    c=st.one_of(st.floats(1e-3, 10.0), st.floats(1e-210, 1e-165)),
    delta=st.floats(1e-3, 0.5),
    steps=st.integers(0, 79),
    x_scale=st.sampled_from([1.0, 30.0, 1e3]),
    prior_offset=st.floats(-0.5, 12.0),
)
@example(data=None, d=3, m=20, b=100.0, c=0.1, delta=0.05, steps=0, x_scale=1.0, prior_offset=1.99)
@example(data=None, d=3, m=20, b=100.0, c=math.exp(-380.0), delta=0.05, steps=20, x_scale=1.0, prior_offset=0.99)
def test_dziugaite_roy_equals_two_evaluator_loop(data, d, m, b, c, delta, steps, x_scale, prior_offset):
    """One evaluation per probe gives the report of the loop that evaluated
    each accepted point twice, field for field with ==, or the same error.
    The prior log-variance sits prior_offset below the grid cap log c - 1/b.
    A grid scale c below about 1e-165 makes the first probes overflow; at
    c = exp(-380) the toy problem takes a step after 34 of them. A negative
    offset puts the prior above the cap, the initial-point error."""
    if data is None:
        rng = np.random.default_rng(0)
        x = rng.standard_normal((m, d))
        y = np.sign(x @ rng.standard_normal(d))
        y[y == 0] = 1.0
        mean, log_var, prior_mean = np.zeros(d), -3.0 * np.ones(d), np.zeros(d)
    else:
        def vector(size, elements):
            return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)))

        x = x_scale * vector(m * d, st.floats(-3.0, 3.0)).reshape(m, d)
        y = vector(m, st.sampled_from([-1.0, 1.0]))
        mean, log_var = vector(d, st.floats(-3.0, 3.0)), vector(d, st.floats(-10.0, 3.0))
        prior_mean = vector(d, st.floats(-3.0, 3.0))
    post = genbounds.GaussianPosterior(
        mean=mean, log_var=log_var, prior_mean=prior_mean, prior_log_var=math.log(c) - 1.0 / b - prior_offset
    )
    want = _bound_or_error(lambda: _reference_dziugaite_roy(post, x, y, b, c, delta, steps))
    got = _bound_or_error(lambda: genbounds.dziugaite_roy_optimize(post, (x, y), b, c, delta, steps))
    if isinstance(want[0], type):
        assert got == want
        return
    bound, details = want
    assert got.bound == bound
    assert got.inputs == {"m": m, "delta": delta, "b": b, "c": c, "steps": steps, "dim": d}
    assert got.details.keys() == details.keys()
    for key, value in details.items():
        if isinstance(value, np.ndarray):
            assert got.details[key].dtype == value.dtype and np.array_equal(got.details[key], value), key
        else:
            assert type(got.details[key]) is type(value) and got.details[key] == value, key


# -- CSV rendering: csv.writer against the per-cell formatter it replaced --------


def _cell(value) -> str:
    """The formatter render_csv once called on every cell."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _render_csv_by_cells(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


# the plain values a handler's rows hold: every float (nan, +-inf, -0.0,
# subnormals) and floats near 1e16, where repr switches to an exponent; ints,
# None, and strings with the characters csv quotes
csv_cells = st.one_of(
    st.floats(),
    st.floats(1e15, 1e17),
    st.floats(-1e17, -1e15),
    st.integers(-(10**30), 10**30),
    st.none(),
    st.text(st.sampled_from(',"\n\r x1.')),
    st.text(),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(csv_cells, min_size=1, max_size=5), max_size=6))
def test_render_csv_equals_the_per_cell_path(rows):
    header = ("a", "b", "c")
    buf = io.StringIO()
    cli.render_csv(header, rows, buf)
    assert buf.getvalue() == _render_csv_by_cells(header, rows)


# -- CLI fuzz -------------------------------------------------------------------


svals_texts = st.lists(
    st.one_of(st.floats().map(repr), st.just(""), st.sampled_from(["x", "1e400", "-0"])),
    max_size=4,
).map(",".join)


# Output fields that hold inf by definition, with the reason.
INF_FIELDS = {
    ("ntk-train", "t"): "t = inf asks for the end of training, the kernel-regression limit",
    ("phase", "q_inf"): "a chaotic piecewise-linear length map grows without bound: q* = inf",
}


def _non_finite_fields(argv, text):
    """(column or key, cell) of every nan or inf in a call's csv or json
    output; the CLI writes a non-finite float as its repr in both."""
    found = []
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        def walk(value, key):
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(v, k)
            elif isinstance(value, list):
                for v in value:
                    walk(v, key)
            elif value in ("nan", "inf", "-inf") or isinstance(value, float) and not math.isfinite(value):
                found.append((key, value))

        walk(json.loads(text), None)
        return found
    rows = list(csv.reader(io.StringIO(text)))
    for row in rows[1:]:
        found += [(col, cell) for col, cell in zip(rows[0], row) if cell in ("nan", "inf", "-inf")]
    return found


def _inf_allowed(argv, field, cell):
    if cell != "inf" or (argv[0], field) not in INF_FIELDS:
        return False
    return argv[0] != "phase" or argv[argv.index("--act") + 1] != "tanh"


def _run_cli(argv):
    """cli.main(argv) with stdout and stderr captured: (exit code, stderr).
    A call that exits 1 or 2 must print its one-line message and nothing
    else, and one that exits 0 must print a finite result, so the three
    fuzzes below also assert that no call raised a RuntimeWarning, and that
    the output of a call that exits 0 (its --out file, or stdout) holds no
    nan and holds inf only where INF_FIELDS allows it: the t column of
    ntk-train and the q_inf of a piecewise-linear phase."""
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always", RuntimeWarning)
        code = cli.main(argv)
    runtime = [f"{w.filename}:{w.lineno}: {w.message}" for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code in (0, 1, 2)
    assert not runtime, runtime
    if code == 0:
        if "--out" in argv:
            with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = out.getvalue()
        bad = [(field, cell) for field, cell in _non_finite_fields(argv, text) if not _inf_allowed(argv, field, cell)]
        assert not bad, bad
    return code, err.getvalue()


@settings(max_examples=80, deadline=None)
@given(argv=st.one_of(
    st.integers(-3, 300).map(lambda p: ["spectrum", "--analytic", "--depth", "2", "--points", str(p)]),
    st.integers(-3, 3).map(lambda r: ["spectrum", "--empirical", "--width", "3", "--replicates", str(r)]),
    svals_texts.map(lambda t: ["lindyn", "--depth", "2", "--max-steps", "30", f"--svals={t}"]),
))
def test_cli_count_and_list_flags_exit_cleanly(argv):
    """Nothing escapes cli.main: an exception other than the domain and
    usage errors it maps to exit 1 and 2 fails the test with its traceback,
    and a rejected call warns nothing."""
    _run_cli(argv)


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
    code, err = _run_cli(argv)
    if argv[0] == "phase" and any(x in argv[-1] for x in ("inf", "nan")) and "--sigma-w2=" in argv[-1]:
        assert code == 2 and "usage error" in err


# -- CLI fuzz over the subcommands that read input files -------------------------


def mostly(valid, invalid):
    """A valid value three times in four, otherwise an invalid one."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else invalid)


def only_valid(valid, invalid):
    """The valid value alone, for a call drawn to take every flag and file."""
    return valid


def floats_in(lo, hi):
    return mostly(st.floats(lo, hi).map(repr), float_texts)


def ints_in(lo, hi, pick=mostly):
    return pick(st.integers(lo, hi), st.sampled_from([-1, 0])).map(str)


activation_texts = mostly(
    st.sampled_from(["linear", "relu", "tanh", "leaky_relu:0.2"]),
    st.sampled_from(["leaky_relu:2", "leaky_relu:nan", "sigmoid"]),
)


@st.composite
def datasets(draw, d, max_rows=5, signed=False, pick=mostly):
    """("data", x, y): up to max_rows rows of d features, labels in (-1, 1)
    or signed, and now and then one poisoned entry, a feature or a label
    (never if pick is only_valid)."""
    m = draw(st.integers(1, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = rng.standard_normal((m, d)), rng.uniform(-0.9, 0.9, m)
    if signed:
        y = np.where(y > 0, 1.0, -1.0)
    poison = draw(pick(st.none(), st.sampled_from([0.0, 1e300, math.inf, math.nan])))
    if poison is not None:
        row, col = draw(st.integers(0, m - 1)), draw(st.integers(-1, d - 1))
        if col < 0:
            y[row] = poison
        else:
            x[row, col] = poison
    return ("data", x, y)


@st.composite
def weight_files(draw, n0, acts=st.sampled_from(["linear", "relu", "tanh", "leaky_relu:0.2"]), decreasing=False,
                 pick=mostly):
    """("net", config, seed, entry) for a small net on n0 inputs with an
    activation drawn from acts, one output three times in four. Now and then
    entry is a bool or a quoted number that replaces the first weight. If
    pick is only_valid, the net has one output and no such entry."""
    hidden = draw(st.lists(st.integers(2, 6), max_size=2))
    if decreasing:
        hidden = sorted(set(hidden), reverse=True)
    config = NetConfig(
        widths=(n0, *hidden, draw(pick(st.just(1), st.just(2)))),
        activation=draw(acts),
        parameterization=draw(st.sampled_from(["ntk", "standard"])),
        sigma_w2=draw(st.floats(0.5, 2.5)),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return ("net", config, seed, draw(pick(st.none(), st.sampled_from([None, True, "0.5"]))))


@st.composite
def wick_specs(draw):
    m = draw(mostly(st.sampled_from([2, 4]), st.sampled_from([-1, 0, 3, 9])))
    factor = mostly(st.integers(1, max(m, 1)), st.integers(0, max(m, 0) + 1))
    scalar = draw(st.booleans())
    n_inputs = draw(mostly(st.just(m), st.integers(0, 5)))
    entry = mostly(st.floats(-2, 2), st.sampled_from([math.nan, math.inf, True, "0.5"]))
    doc = {
        "m": m,
        "depth": draw(mostly(st.integers(1, 2), st.integers(-1, 3))),
        "contractions": draw(st.lists(st.lists(factor, min_size=2, max_size=2), max_size=2)),
        "inputs": [[draw(entry)] if scalar else [1.0, draw(entry)] for _ in range(n_inputs)],
    }
    # now and then a number where an integer belongs, or a three-entry contraction
    key = draw(mostly(st.none(), st.sampled_from(["m", "depth", "contraction", "triple"])))
    if key in ("m", "depth"):
        doc[key] = draw(st.sampled_from([doc[key] + 0.5, float(doc[key]), True]))
    elif key is not None:
        doc["contractions"].append([1.7, 2.2] if key == "contraction" else [1, 2, 1])
    return ("spec", doc)


@st.composite
def valid_wick_specs(draw):
    """A spec that exact_correlation and mc_scaling_check both take: two or
    four factors, contractions that name each factor at most once (chains),
    inputs away from 0, vectors only at depth 1."""
    m = draw(st.sampled_from([2, 4]))
    order = draw(st.permutations(range(1, m + 1)))
    pairs = [list(order[k:k + 2]) for k in range(0, m, 2)]
    scalar = draw(st.booleans())
    entry = st.floats(0.25, 2.0) | st.floats(-2.0, -0.25)
    return ("spec", {
        "m": m,
        "depth": draw(st.integers(1, 2)) if scalar else 1,
        "contractions": pairs[:draw(st.integers(0, len(pairs)))],
        "inputs": [[draw(entry)] if scalar else [1.0, draw(entry)] for _ in range(m)],
    })


def _bad_spec(doc):
    """A spec whose m, depth or contraction entry is not an integer, or
    whose inputs hold a value that is not a finite int or float: it must
    never exit 0."""
    return (
        any(type(doc[key]) is not int for key in ("m", "depth"))
        or any(len(c) != 2 or any(type(v) is not int for v in c) for c in doc["contractions"])
        or not all(type(v) in (int, float) and math.isfinite(v) for x in doc["inputs"] for v in x)
    )


def _bad_file(entry):
    """A dataset with an inf or nan feature or label, or a weight file with
    an entry of the wrong JSON type: a call that reads it must never exit 0."""
    if entry[0] == "data":
        return not (np.isfinite(entry[1]).all() and np.isfinite(entry[2]).all())
    return entry[0] == "net" and entry[3] is not None


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
            weights = init_weights(entry[1], seed=entry[2])
            if len(entry) > 4:
                weights[-1] *= entry[4]
            save_weights(path, entry[1], weights)
            if entry[3] is not None:
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                doc["weights"][0][0][0] = entry[3]
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(entry[1], fh)
    return paths


def rates(pick=mostly):
    return pick(st.floats(0.05, 1.0).map(repr), st.sampled_from(["0", "-1", "nan", "inf"]))


@st.composite
def ntk_train_calls(draw, d, pick):
    """(argv, files) for ntk-train, each flag and file drawn by pick. With
    only_valid every one is valid, the data has at most d rows, so that a
    linear or one-input kernel stays invertible, and a net of the standard
    parameterization, which only the empirical kernel takes, gets it."""
    other_d = pick(st.just(d), st.just(d + 1))
    rows = d if pick is only_valid else 5
    files = {"data": draw(datasets(d, max_rows=rows, pick=pick)), "net": draw(weight_files(draw(other_d), pick=pick)),
             "query": draw(datasets(draw(other_d), pick=pick))}
    times = ",".join(draw(st.lists(pick(st.sampled_from(["0", "0.5", "3", "inf"]),
                                        st.sampled_from(["-1", "nan", "x"])), max_size=3)))
    kernels = ["limiting", "empirical", "last-layer"]
    if pick is only_valid and files["net"][1].parameterization != "ntk":
        kernels = ["empirical"]
    return ["ntk-train", "--weights", "{net}", "--data", "{data}",
            *draw(st.sampled_from([[], ["--query", "{query}"]])), f"--eta={draw(rates(pick))}",
            f"--times={times}", "--kernel", draw(st.sampled_from(kernels)),
            "--nodes", draw(ints_in(4, 24, pick))], files


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
        # a linear net and labels that fit the loss three times in four each,
        # so that a good share of path calls can exit 0
        loss = draw(st.sampled_from(["square", "logistic"]))
        signed = loss == "logistic" and draw(mostly(st.just(True), st.just(False)))
        files = {"data": draw(datasets(d, max_rows=d, signed=signed)),
                 "a": draw(weight_files(d, mostly(st.just("linear"), st.sampled_from(["leaky_relu:0.2", "relu"])),
                                        decreasing=True))}
        files["b"] = draw(mostly(
            st.integers(0, 2**32 - 1).map(lambda s: ("net", files["a"][1], s, None)),
            weight_files(d, decreasing=True),
        ))
        return ["path", "--weights-a", "{a}", "--weights-b", "{b}", "--data", "{data}", "--loss", loss,
                f"--epsilon={draw(floats_in(1e-6, 1.0))}", "--grid-points", draw(ints_in(2, 12))], files
    if sub == "ntk-kernel":
        files = {"data": draw(datasets(d)), "net": draw(weight_files(draw(other_d)))}
        source = draw(mostly(st.sampled_from([["--weights", "{net}"], ["--widths", f"{d},4,1"]]),
                             st.sampled_from([["--widths", "0,4,1"], ["--widths", "x"], []])))
        return ["ntk-kernel", "--data", "{data}", "--kind", draw(st.sampled_from(["limiting", "empirical", "nngp"])),
                *source, "--act", draw(activation_texts), f"--sigma-w2={draw(floats_in(0.5, 2.5))}",
                "--nodes", draw(ints_in(4, 24))], files
    if sub == "ntk-train":
        # a call that takes every flag and file three times in four, so that
        # a good share exit 0; otherwise each is drawn as for the others
        return draw(mostly(ntk_train_calls(d, only_valid), ntk_train_calls(d, mostly)))
    if sub == "du-monitor":
        files = {"data": draw(datasets(d, signed=draw(mostly(st.just(False), st.just(True)))))}
        source = draw(st.sampled_from([["--data", "{data}"], ["--dim", draw(ints_in(1, 4)),
                                                               "--train-size", draw(ints_in(1, 5))]]))
        horizon = draw(mostly(st.floats(0.1, 3.0).map(repr), st.sampled_from(["0", "-1", "nan", "inf"])))
        return ["du-monitor", *source, "--n", draw(ints_in(1, 16)), f"--eta={draw(rates())}",
                f"--t-max={horizon}"], files
    if sub == "align":
        # now and then the u0 net's output layer times 10^k, whose outputs
        # can pass the squared-activation check and still overflow |y - u0|^2
        files = {"data": draw(datasets(d)), "u0": draw(weight_files(draw(other_d)))}
        files["u0"] += (10.0 ** draw(mostly(st.just(0), st.integers(1, 160))),)
        return ["align", "--data", "{data}", "--points", draw(ints_in(2, 40)),
                "--method", draw(st.sampled_from(["angle", "mc"])), "--mc-samples", draw(ints_in(1, 300)),
                *draw(st.sampled_from([[], ["--u0-weights", "{u0}"]]))], files
    if sub == "wick":
        mc = draw(st.sampled_from([[], ["--mc", "--mc-out", "{mc}"], ["--mc"]]))
        widths = ",".join(draw(st.lists(ints_in(1, 6), min_size=draw(mostly(st.just(3), st.just(2))), max_size=4)))
        return ["wick", "--spec", "{spec}", *mc, f"--widths={widths}", "--replicates", draw(ints_in(2, 8))], \
            {"spec": draw(st.one_of(valid_wick_specs(), wick_specs()))}
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
# four unit rows and a (1, 1) net of weight 1.053 scaled by 1e154: each
# output squares to 1.1e308, and |y - u0|^2 overflows
@example(case=(["align", "--data", "{data}", "--points", "3", "--u0-weights", "{u0}"],
               {"data": ("data", np.ones((4, 1)), np.zeros(4)),
                "u0": ("net", NetConfig((1, 1), "linear"), 6, None, 1e154)}), fmt="json")
def test_cli_file_subcommands_exit_cleanly(case, fmt):
    """As above, over generated datasets, weight files and contraction
    specs: every call exits 0, 1 or 2, raises nothing, and warns nothing
    when it exits 1 or 2. A call that reads a data file holding an inf or
    nan feature or label, or a weight file with a bool or a quoted number
    for a weight, never exits 0, and neither does an ntk-train call with a
    rate that is not positive and finite or with a nan time, nor a wick
    call on a spec with a non-integer count or an input that is not a
    finite number."""
    argv, files = case
    poisoned = any("{" + name + "}" in argv and _bad_file(entry) for name, entry in files.items())
    if argv[0] == "wick":
        poisoned |= _bad_spec(files["spec"][1])
    if argv[0] == "ntk-train":
        rate = next(tok for tok in argv if tok.startswith("--eta="))
        times = next(tok for tok in argv if tok.startswith("--times="))
        poisoned |= rate in ("--eta=0", "--eta=-1", "--eta=nan", "--eta=inf") or "nan" in times
    with tempfile.TemporaryDirectory() as root:
        paths = _write_inputs(root, files)
        paths["mc"] = os.path.join(root, "mc")
        argv = [tok.format(**paths) for tok in argv] + ["--format", fmt, "--out", os.path.join(root, "out")]
        code, _ = _run_cli(argv)
    assert code != 0 or not poisoned
