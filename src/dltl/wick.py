"""Exact correlation functions of randomly initialized deep linear networks.

A correlation function here is the expectation of a product of m derivative
tensors of the network output, with the derivative indices contracted in
pairs. For a linear net f(x) = n^{-L/2} W_L ... W_1 W_0 x with unit gaussian
entries the expectation expands, by the Isserlis pairing theorem applied per
weight matrix, into a sum over diagrams: one perfect matching of the factors
per weight type, where contracted derivative pairs force their edge into the
matching of the type they differentiate. Each diagram contributes

    n^{l - L m / 2} * (product of input contractions along type-0 edges),

with l the number of loops of the diagram's double-line expansion (L vertex
levels per factor; a type-0 edge joins level 1, a type-L edge joins level L,
a middle type joins two adjacent levels). No edge joins two levels, so the
diagram sum factors into per-level transfer matrices (the double-line rules
of Dyer & Gur-Ari, arXiv:1909.11304). The module sums the diagrams exactly
that way, evaluates the resulting polynomial in 1/n, places the
cluster-counting exponent prediction s_C = n_e + n_o/2 - m/2 next to it, and
Monte-Carlo-checks both on finite nets sampled through netcore.

Factors are numbered 1..m throughout, matching the subscripts in the
formulas above. Vector inputs are supported at L = 1; deeper nets take
scalar inputs, where the double-line loop count is what replaces the plain
cycle count of the shallow case.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .netcore import NetConfig, forward, init_weights, output_grads, weight_grads

__all__ = [
    "ContractionSpec",
    "DiagramTerm",
    "DiagramCount",
    "ScalingReport",
    "conjecture_exponent",
    "exact_correlation",
    "double_line_loops",
    "render_monomial",
    "mc_scaling_check",
]

MAX_FACTORS = 8
MAX_DIAGRAMS = 2_000_000
MAX_DEPTH = 63
# The smallest normal float: a nonzero value below it in magnitude has lost
# bits to underflow.
_TINY = sys.float_info.min


def _pairings_of(items: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    """All unordered pairings of the items; there are (n-1)!! for n items."""
    if not items:
        return [()]
    first, rest = items[0], items[1:]
    out = []
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for tail in _pairings_of(remaining):
            out.append(((first, partner),) + tail)
    return out


def _is_integer(value) -> bool:
    """An integer that is not a bool: int() would pass 2.9 and True."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ContractionSpec:
    """m derivative-tensor factors with pairwise-contracted indices.

    inputs holds one vector (or scalar) per factor, the factors numbered
    1..m. contractions lists one (i, j) entry per contracted index pair; a
    factor's derivative order is the number of entries naming it.
    """

    m: int
    inputs: tuple
    contractions: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not _is_integer(self.m):
            raise ValueError(f"m must be an integer, got {self.m!r}")
        if self.m < 1:
            raise ValueError("need at least one factor")
        for pair in self.contractions:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(map(_is_integer, pair))):
                raise ValueError(f"contraction {pair!r} is not a pair of integer factor indices")
        pairs = tuple((int(i), int(j)) for i, j in self.contractions)
        object.__setattr__(self, "contractions", pairs)
        for i, j in pairs:
            if not (1 <= i <= self.m and 1 <= j <= self.m):
                raise ValueError(f"contraction ({i}, {j}) names a factor outside 1..{self.m}")
        arrays = tuple(np.atleast_1d(np.asarray(x, dtype=float)) for x in self.inputs)
        object.__setattr__(self, "inputs", arrays)
        if len(arrays) != self.m:
            raise ValueError(f"need {self.m} inputs, got {len(arrays)}")
        if len({x.shape for x in arrays}) > 1:
            raise ValueError("inputs must share a dimension")
        for k, x in enumerate(arrays, 1):
            if x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x)):
                raise ValueError(f"input of factor {k} must be a finite number or 1-D vector, got {x.tolist()}")

    @property
    def input_dim(self) -> int:
        return self.inputs[0].size

    @property
    def scalar_inputs(self) -> bool:
        return self.input_dim == 1

    @property
    def derivative_counts(self) -> tuple[int, ...]:
        counts = [0] * self.m
        for i, j in self.contractions:
            counts[i - 1] += 1
            counts[j - 1] += 1
        return tuple(counts)

    def input_labels(self) -> tuple[int, ...]:
        """Factor -> 1-based index of the first factor with the same input."""
        labels = []
        for idx, x in enumerate(self.inputs):
            for prev in range(idx):
                if np.array_equal(self.inputs[prev], x):
                    labels.append(labels[prev])
                    break
            else:
                labels.append(idx + 1)
        return tuple(labels)

    def cluster_components(self) -> list[tuple[int, ...]]:
        """Connected components of the factor graph drawn by contractions."""
        return _components(self.m, self.contractions)


def conjecture_exponent(spec: ContractionSpec) -> float:
    """s_C = n_e + n_o/2 - m/2 from the parities of the cluster components."""
    sizes = [len(c) for c in spec.cluster_components()]
    n_even = sum(1 for s in sizes if s % 2 == 0)
    n_odd = len(sizes) - n_even
    return n_even + n_odd / 2 - spec.m / 2


@dataclass(frozen=True)
class DiagramTerm:
    power_of_inv_n: int
    coefficient: int
    monomial: tuple


@dataclass(frozen=True)
class DiagramCount:
    """The exact expansion: the collected polynomial and its diagram count."""

    spec: ContractionSpec
    diagram_count: int
    terms: tuple[DiagramTerm, ...]

    @property
    def diagrams(self) -> range:
        """range(diagram_count) for the benchmark counter, until it reads diagram_count."""
        return range(self.diagram_count)

    @property
    def leading_exponent(self) -> float | None:
        """Power of n of the dominant term; None for the zero polynomial."""
        if not self.terms:
            return None
        return -min(term.power_of_inv_n for term in self.terms)

    def monomial_value(self, monomial: tuple) -> float:
        inputs = self.spec.inputs
        value = 1.0
        for entry in monomial:
            if isinstance(entry, tuple):
                value *= float(inputs[entry[0] - 1] @ inputs[entry[1] - 1])
            else:
                value *= float(inputs[entry - 1][0])
        return value

    def evaluate(self, n: int) -> float:
        if n < 1:
            raise ValueError("width must be positive")
        with np.errstate(all="ignore"):  # an overflow fails the check below
            value = sum(
                term.coefficient * float(n) ** (-term.power_of_inv_n) * self.monomial_value(term.monomial)
                for term in self.terms
            )
        if not math.isfinite(value):
            raise ValueError(f"the exact value at width {n} is {value}: the inputs are too large")
        if abs(value) < _TINY and self.terms and self._rational_value(n) != 0:
            raise ValueError(f"the exact value at width {n} underflows to {value}: the inputs are too small")
        return value

    def _rational_value(self, n: int):
        """The polynomial at width n in exact rational arithmetic on the
        inputs' float values: zero only when the correlation vanishes."""
        from fractions import Fraction

        def factor(entry):
            if isinstance(entry, tuple):
                a, b = (self.spec.inputs[label - 1].tolist() for label in entry)
                return sum(Fraction(u) * Fraction(v) for u, v in zip(a, b))
            return Fraction(self.spec.inputs[entry - 1].tolist()[0])

        return sum(
            term.coefficient * Fraction(n) ** -term.power_of_inv_n * math.prod(map(factor, term.monomial))
            for term in self.terms
        )


def _components(m: int, edges) -> list[tuple[int, ...]]:
    """Connected components of the graph on vertices 1..m drawn by edges,
    each sorted, in the order of their smallest vertex."""
    parent = list(range(m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p, q in edges:
        ra, rb = find(p - 1), find(q - 1)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for v in range(m):
        groups.setdefault(find(v), []).append(v + 1)
    return [tuple(g) for g in sorted(groups.values())]


def _involutions(m: int, matchings) -> np.ndarray:
    """Each perfect matching of 1..m as a row mapping every vertex of 0..m-1
    to its partner, in the smallest integer type that holds m, which keeps
    the level tables of _level_loops (rows x rows x m) small in memory."""
    rows = np.empty((len(matchings), m), dtype=np.min_scalar_type(m))
    for row, edges in zip(rows, matchings):
        for p, q in edges:
            row[p - 1], row[q - 1] = q - 1, p - 1
    return rows


def _level_loops(below: np.ndarray, above: np.ndarray) -> np.ndarray:
    """Loops at one index level, which only its two weight types join, for
    every row a of below against every row b of above.

    The union of two perfect matchings is a set of disjoint even cycles,
    and the permutation a o b splits each of them into two cycles, so the
    loop count is half the cycle count of a o b. Pointer doubling finds the
    smallest vertex on every cycle, and each cycle is counted there.
    """
    step = below[:, above]  # step[i, j, v] = a_i(b_j(v))
    m = step.shape[-1]
    low = np.broadcast_to(np.arange(m, dtype=step.dtype), step.shape)
    for _ in range((m - 1).bit_length()):
        low = np.minimum(low, np.take_along_axis(low, step, axis=-1))
        step = np.take_along_axis(step, step, axis=-1)
    return np.count_nonzero(low == np.arange(m), axis=-1) // 2


def double_line_loops(
    edges_by_type: tuple[tuple[tuple[int, int], ...], ...], m: int, depth: int
) -> int:
    """Loop count of the double-line expansion of one diagram: the sum over
    levels r = 1..L of the loops drawn by types r - 1 and r, the quantity
    exact_correlation sums over all diagrams at once."""
    for edges in edges_by_type:
        if sorted(v for e in edges for v in e) != list(range(1, m + 1)):
            raise ValueError(f"{edges} is not a perfect matching of 1..{m}")
    rows = _involutions(m, edges_by_type[: depth + 1])
    # level r pairs type r - 1 with type r: the diagonal of the table
    return int(np.trace(_level_loops(rows[:-1], rows[1:])))


def render_monomial(monomial: tuple) -> str:
    """Human-readable input monomial: "x1.x2*x3.x4" or "x1*x2" for scalars."""
    parts = []
    for entry in monomial:
        if isinstance(entry, tuple):
            parts.append(f"x{entry[0]}.x{entry[1]}")
        else:
            parts.append(f"x{entry}")
    return "*".join(parts)


def _monomial_key(m0_edges: tuple[tuple[int, int], ...], labels: tuple[int, ...], scalar: bool) -> tuple:
    if scalar:
        flat = []
        for p, q in m0_edges:
            flat.extend((labels[p - 1], labels[q - 1]))
        return tuple(sorted(flat))
    pairs = []
    for p, q in m0_edges:
        a, b = labels[p - 1], labels[q - 1]
        pairs.append((min(a, b), max(a, b)))
    return tuple(sorted(pairs))


def exact_correlation(spec: ContractionSpec, L: int) -> DiagramCount:
    """Count every admissible diagram and collect the 1/n polynomial.

    Each contraction edge is assigned one of the L+1 weight types (no factor
    may repeat a type: the network is multilinear in its weight matrices);
    per type, the factors not consumed by an assigned edge are paired in all
    possible ways. Odd m admits no pairing and gives the zero polynomial.

    Loops add up over levels, so the loop polynomial of type-0 matching a is
    row a of T_0 T_1 ... T_{L-1} 1 with T_r[a, b] = x^level_r[a, b], summed
    on int64 coefficient arrays that MAX_DIAGRAMS keeps exact.
    """
    if L < 1:
        raise ValueError("depth must be at least 1")
    if spec.m > MAX_FACTORS:
        raise ValueError(f"at most {MAX_FACTORS} factors are supported")
    if L > 1 and not spec.scalar_inputs:
        raise ValueError("vector inputs are supported at L = 1 only; deeper nets take scalars")
    labels = spec.input_labels()
    scalar = spec.scalar_inputs
    tally: Counter[tuple[int, tuple]] = Counter()
    diagram_count = 0

    if spec.m % 2 == 1:
        return DiagramCount(spec=spec, diagram_count=0, terms=())

    edges = spec.contractions
    if (L + 1) ** len(edges) > MAX_DIAGRAMS:
        raise ValueError(f"{len(edges)} contractions at depth {L} give more than {MAX_DIAGRAMS} type assignments")
    half = spec.m // 2
    for assignment in itertools.product(range(L + 1), repeat=len(edges)):
        forced: list[list[tuple[int, int]]] = [[] for _ in range(L + 1)]
        for (i, j), t in zip(edges, assignment):
            forced[t].append((min(i, j), max(i, j)))
        taken = [{v for e in f for v in e} for f in forced]
        # a factor differentiates each weight at most once, so the forced
        # edges of a type must be disjoint; this also rejects an edge (i, i)
        if any(len(vs) != 2 * len(f) for vs, f in zip(taken, forced)):
            continue
        # per type, every full matching: the forced edges plus one pairing
        # of the factors they leave free (an even number, as m is even)
        matchings = []
        for f, vs in zip(forced, taken):
            rest = tuple(v for v in range(1, spec.m + 1) if v not in vs)
            matchings.append([tuple(sorted(f + list(p))) for p in _pairings_of(rest)])
        count = math.prod(len(ms) for ms in matchings)
        if count > MAX_DIAGRAMS:
            raise ValueError(f"diagram enumeration exceeds {MAX_DIAGRAMS} diagrams")
        # the limit sits at the first admissible assignment, so that a spec
        # with none still gives the zero polynomial at any depth
        if L > MAX_DEPTH:
            raise ValueError(f"depth {L} exceeds the supported {MAX_DEPTH}")
        diagram_count += count
        rows = [_involutions(spec.m, ms) for ms in matchings]
        # poly[c, d]: matchings above type r that close d loops over its c
        poly = np.zeros((len(rows[L]), L * half + 1), dtype=np.int64)
        poly[:, 0] = 1
        for r in reversed(range(L)):
            level = _level_loops(rows[r], rows[r + 1])
            below = np.zeros((len(rows[r]), poly.shape[1]), dtype=np.int64)
            # the union of two perfect matchings holds 1..m/2 loops
            for k in range(1, half + 1):
                below[:, k:] += ((level == k) @ poly)[:, :-k]
            poly = below
        # a type-0 matching fixes the monomial
        for e0, row in zip(matchings[0], poly.tolist()):
            monomial = _monomial_key(e0, labels, scalar)
            for n_loops, c in enumerate(row):
                if c:
                    tally[L * half - n_loops, monomial] += c

    terms = tuple(
        DiagramTerm(power_of_inv_n=p, coefficient=c, monomial=mono) for (p, mono), c in sorted(tally.items())
    )
    return DiagramCount(spec=spec, diagram_count=diagram_count, terms=terms)


# -- Monte Carlo ---------------------------------------------------------------
#
# The estimator draws finite linear nets through netcore (ntk
# parameterization, unit weight variance, so stored entries are N(0,1) and
# the forward pass carries prod_l n_l^{-1/2}). That normalization divides by
# sqrt(n_0) once more than the expansion above assumes, so inputs are fed in
# scaled by sqrt(n_0), which makes the sampled f agree with
# n^{-L/2} W_L ... W_0 x identically in the weights. Every factor of a
# replicate sits at the same weights, so each distinct input gets one
# forward pass, and one backpropagation (seed e_0) if it feeds a chain. A
# chain's ends are weight gradients, built once per replicate for each
# distinct input that ends a chain, next to its pass, and read by every end
# at that input: the benchmark's chain of four factors on one input reads
# one list at both ends. Each interior factor is a Hessian-vector product,
# which on a linear net costs a partial pass per weight block on top of
# the passes (_hessian_vec).


def _block_dot(a: list[np.ndarray], b: list[np.ndarray]) -> float:
    return float(sum(np.vdot(u, v) for u, v in zip(a, b)))


def _hessian_vec(
    config: NetConfig, weights: list[np.ndarray], v: list[np.ndarray], inputs: list[np.ndarray], grads: list[np.ndarray]
) -> list[np.ndarray]:
    """H(x) v for the multilinear chain of a linear net, the only kind
    mc_scaling_check builds, from the pass at x: its layer inputs x_0..x_L
    and the preactivation gradients g_1..g_{L+1} of output 0. Block q sums,
    over the blocks p != q, the gradient of W_q at the weights with W_p
    replaced by v_p.

    W_p enters neither the layer inputs x_0..x_p nor the preactivation
    gradients g_{p+1}..g_{L+1}, and with phi' = 1 no gradient reads a
    preactivation. So the one pass at the weights serves every p, and per p
    only the inputs above p and the gradients below it are recomputed, with
    forward's and backprop's own expressions: each block equals that of a
    full pass at the substituted weights bit for bit.

    A block starts as its first contribution plus 0.0 in place, the bits a
    zero start would give (a -0.0 entry becomes +0.0), and takes the later
    contributions, which only depths L >= 2 have, in the order of p."""
    c = config.scales
    out: list[np.ndarray | None] = [None] * len(weights)
    for p in range(len(weights)):
        sub = list(weights)
        sub[p] = v[p]
        xs = inputs[: p + 1]
        for l in range(p, len(weights) - 1):
            xs.append(c[l] * (sub[l] @ xs[l]))
        gs = grads[p:]
        for l in range(p, 0, -1):
            gs.insert(0, c[l] * (sub[l].T @ gs[0]))
        for q in range(len(weights)):
            if q == p:
                continue
            block = c[q] * (gs[q][:, None] * xs[q][None, :])
            if out[q] is None:
                block += 0.0
                out[q] = block
            else:
                out[q] += block
    return out


def _chain_components(spec: ContractionSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Classify cluster components as evaluable pieces.

    Supported shapes: isolated factors (plain outputs), contracted pairs
    (gradient dots), and open chains whose interior factors carry exactly
    two contractions (iterated Hessian-vector products). Anything else has
    no vector-pipeline evaluation here and is rejected.
    """
    degree = spec.derivative_counts
    adjacency: dict[int, list[int]] = {v: [] for v in range(1, spec.m + 1)}
    for i, j in spec.contractions:
        if i == j:
            raise ValueError("self-contractions vanish identically and have no MC form")
        adjacency[i].append(j)
        adjacency[j].append(i)
    components = []
    for comp in spec.cluster_components():
        if len(comp) == 1:
            components.append(("point", comp))
            continue
        ends = [v for v in comp if degree[v - 1] == 1]
        middles = [v for v in comp if degree[v - 1] == 2]
        if len(ends) != 2 or len(ends) + len(middles) != len(comp):
            raise ValueError(
                "Monte Carlo supports chain-shaped clusters only "
                "(two rank-1 endpoints, rank-2 interior factors)"
            )
        # degrees 1, 2, ..., 2, 1 give k - 1 edges on k connected factors: a
        # tree, hence a simple path, so the walk from one end visits every factor
        order = [ends[0]]
        prev = None
        while True:
            nxt = [u for u in adjacency[order[-1]] if u != prev]
            prev = order[-1]
            order.append(nxt[0])
            if degree[order[-1] - 1] == 1:
                break
        components.append(("chain", tuple(order)))
    return components


@dataclass(frozen=True)
class ScalingReport:
    """Per-width Monte Carlo estimates next to the exact values.

    slope_mean fits log |mean| against log width; slope_variance does the
    same for the replicate variance.
    """

    widths: tuple[int, ...]
    means: tuple[float, ...]
    std_errs: tuple[float, ...]
    variances: tuple[float, ...]
    exacts: tuple[float, ...]
    slope_mean: float
    slope_variance: float


def _fit_slope(widths: tuple[int, ...], values: np.ndarray) -> float:
    """Least-squares slope of log |values| against log widths; the values
    are normal floats, as mc_scaling_check checks."""
    x = np.log(np.asarray(widths, dtype=float))
    return float(np.polyfit(x, np.log(np.abs(values)), 1)[0])


def mc_scaling_check(
    spec: ContractionSpec,
    L: int,
    widths: list[int],
    replicates: int = 2000,
    seed: int = 0,
) -> ScalingReport:
    """Estimate the correlation on finite nets, next to exact_correlation's
    value at each width, and fit its width scaling. A spec that
    exact_correlation refuses raises its error."""
    if len(widths) < 3:
        raise ValueError("need at least three widths to fit a slope")
    if len(set(widths)) < 2:
        raise ValueError("need at least two distinct widths to fit a slope")
    if L < 1:
        raise ValueError("depth must be at least 1")
    if replicates < 2:
        raise ValueError("need at least two replicates")
    components = _chain_components(spec)
    d = spec.input_dim
    scaled = [x * math.sqrt(d) for x in spec.inputs]
    # first[i]: the first factor whose scaled input has the bits of factor
    # i + 1's, whose passes both read (+0.0 and -0.0 differ, as their passes
    # may in the sign of a zero)
    seen: dict[bytes, int] = {}
    first = [seen.setdefault(x.tobytes(), k) for k, x in enumerate(scaled)]
    chained = {first[f - 1] for kind, comp in components if kind == "chain" for f in comp}
    ends = {first[comp[k] - 1] for kind, comp in components if kind == "chain" for k in (0, -1)}
    exact = exact_correlation(spec, L)

    means, ses, variances, exacts = [], [], [], []
    for w_idx, n in enumerate(widths):
        config = NetConfig(
            widths=(d,) + (int(n),) * L + (1,),
            activation="linear",
            parameterization="ntk",
            sigma_w2=1.0,
        )
        samples = np.empty(replicates)
        with np.errstate(all="ignore"):  # an overflow fails the check below
            for r in range(replicates):
                weights = init_weights(config, seed=seed + 7919 * w_idx + r)
                traces = {k: forward(config, weights, scaled[k]) for k in seen.values()}
                passes = {k: (traces[k].inputs, output_grads(config, weights, traces[k], 0)) for k in chained}
                grads = {k: weight_grads(config, *passes[k]) for k in ends}
                value = 1.0
                for kind, comp in components:
                    if kind == "point":
                        value *= float(traces[first[comp[0] - 1]].output[0])
                    else:
                        head, *middles, tail = (first[f - 1] for f in comp)
                        v = grads[head]
                        for mid in middles:
                            v = _hessian_vec(config, weights, v, *passes[mid])
                        value *= _block_dot(v, grads[tail])
                samples[r] = value
            mean, variance = float(samples.mean()), float(samples.var(ddof=1))
        # a sample that is not finite makes the mean so too
        if not (math.isfinite(mean) and math.isfinite(variance)):
            raise ValueError(
                f"the Monte Carlo samples at width {n} have mean {mean} and variance {variance}:"
                " the inputs are too large"
            )
        # the slopes fit log |mean| and log variance: 0 or a subnormal cannot be
        if not (abs(mean) >= _TINY and variance >= _TINY):
            raise ValueError(
                f"the Monte Carlo samples at width {n} have mean {mean} and variance {variance}:"
                " the inputs are too small to fit a slope"
            )
        means.append(mean)
        variances.append(variance)
        ses.append(math.sqrt(variance / replicates))
        exacts.append(exact.evaluate(n))

    return ScalingReport(
        widths=tuple(int(n) for n in widths),
        means=tuple(means),
        std_errs=tuple(ses),
        variances=tuple(variances),
        exacts=tuple(exacts),
        slope_mean=_fit_slope(tuple(widths), np.array(means)),
        slope_variance=_fit_slope(tuple(widths), np.array(variances)),
    )
