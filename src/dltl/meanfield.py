"""Signal propagation at initialization: length and correlation maps.

For a wide net with gaussian weights of variance sigma_w^2 / fan-in, the
per-layer preactivation second moment follows the length map

    V(q | sigma_w^2) = sigma_w^2 * E_{z ~ N(0,1)} phi(sqrt(q) z)^2,

two inputs' covariance follows the correlation map C(c, q11, q22), and the
multiplier governing gradient norms and correlation stability at the fixed
point is

    chi_1 = sigma_w^2 * E (phi'(sqrt(q*) z))^2.

chi_1 < 1 is the ordered phase, chi_1 > 1 the chaotic one, chi_1 = 1 the
edge. The piecewise-linear activations (linear, relu, leaky_relu) get closed
forms; tanh goes through Gauss-Hermite quadrature with 64 nodes per axis
(tests hold a 256-node oracle against these defaults).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .netcore import Activation, NetConfig, _check_nonnegative, _check_positive, forward, init_weights, output_grads

__all__ = [
    "DivergenceError",
    "FixedPointResult",
    "PhasePoint",
    "MomentProfile",
    "gauss_hermite",
    "gauss_ev",
    "gauss_ev2",
    "length_map",
    "corr_map",
    "chi_map",
    "chi1",
    "length_fixed_point",
    "phase_classify",
    "edge_of_chaos",
    "simulate_moments",
]

GH_NODES = 64          # default node count per axis
GH_MAX_NODES = 370     # numpy's hermgauss (2.4) gives weights that are not finite from 371 on
MARGINAL_TOL = 1e-12   # |slope - 1| below this means every q is a fixed point
# The tanh fixed-point iteration: a step |V(q) - q| of at most FIXED_POINT_TOL
# ends it, it gives up after FIXED_POINT_ITERATIONS plain steps, and its
# Newton polish gives up after NEWTON_STEPS steps.
FIXED_POINT_TOL = 1e-10
FIXED_POINT_ITERATIONS = 10_000
NEWTON_STEPS = 200


class DivergenceError(RuntimeError):
    """An iteration left its basin; the message names the last iterate seen."""


def check_nodes(nodes: int) -> int:
    """nodes, if it is a count that gauss_hermite builds a rule for. The CLI
    checks --nodes where it enters: the piecewise-linear kinds never reach
    the rule."""
    if nodes < 1:
        raise ValueError(f"nodes must be a positive integer, got {nodes}")
    if nodes > GH_MAX_NODES:
        raise ValueError(f"nodes must be at most {GH_MAX_NODES}, got {nodes}")
    return nodes


@lru_cache(maxsize=8)
def gauss_hermite(nodes: int = GH_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Physicists' Gauss-Hermite nodes and weights (cached)."""
    with np.errstate(all="ignore"):  # a rule that overflows fails the check below
        t, w = np.polynomial.hermite.hermgauss(check_nodes(nodes))
    if not (np.isfinite(w).all() and (w > 0).all()):
        raise ValueError(f"the {nodes}-node Gauss-Hermite rule has weights that are not finite and positive")
    return t, w


def gauss_ev(f, q: float, nodes: int = GH_NODES) -> float:
    """E_{z ~ N(0,1)} f(sqrt(q) z) by Gauss-Hermite quadrature."""
    _check_nonnegative("variance", q)
    t, w = gauss_hermite(nodes)
    z = math.sqrt(2.0 * q) * t
    return float(w @ f(z)) / math.sqrt(math.pi)


def _check_pair(c: float, q11: float, q22: float) -> None:
    """Reject a correlation outside [-1, 1] (1e-12 slack for rounding) and a
    variance that is negative or not finite; nan fails both tests."""
    if not abs(c) <= 1.0 + 1e-12:
        raise ValueError(f"correlation must lie in [-1, 1], got {c}")
    if not (0.0 <= q11 < math.inf and 0.0 <= q22 < math.inf):
        raise ValueError(f"variances must be finite and nonnegative, got {q11} and {q22}")


# gauss_ev2 takes the tensor rule in blocks of pairs whose node grid stays
# near this many bytes (8 pairs at 64 nodes), and at least one pair.
_BLOCK_BYTES = 256 * 1024


def gauss_ev2(f, c, q11, q22, nodes: int = GH_NODES):
    """E f(u) f(v) for (u, v) centered gaussian with Var u = q11, Var v = q22,
    correlation c. Realized as u = sqrt(q11) z1, v = sqrt(q22)(c z1 +
    sqrt(1-c^2) z2); |c| = 1 collapses to a single axis.

    c, q11 and q22 are scalars or same-shape arrays of pairs. A scalar call
    returns a float, an array call an array of that shape, whose entries are
    bit for bit the scalar calls: a pair's value does not depend on the pairs
    beside it. f is a tanh Activation or its deriv; the piecewise-linear
    kinds have closed forms in corr_map and chi_map and raise here.
    """
    act = f if isinstance(f, Activation) else f.__self__
    if act.slopes is not None:
        raise ValueError(f"gauss_ev2 integrates tanh only; {act} has closed forms in corr_map and chi_map")
    c, q11, q22 = (np.asarray(v, dtype=float) for v in (c, q11, q22))
    shape = c.shape
    if not shape == q11.shape == q22.shape:
        raise ValueError(f"c, q11 and q22 must share a shape, got {shape}, {q11.shape} and {q22.shape}")
    if not shape:
        _check_pair(float(c), float(q11), float(q22))
    else:
        ok = (np.abs(c) <= 1.0 + 1e-12) & (q11 >= 0.0) & (q11 < math.inf) & (q22 >= 0.0) & (q22 < math.inf)
        if not ok.all():
            k = np.flatnonzero(~ok)[0]
            _check_pair(float(c.flat[k]), float(q11.flat[k]), float(q22.flat[k]))
    c, q11, q22 = c.ravel(), q11.ravel(), q22.ravel()
    t, w = gauss_hermite(nodes)
    z = math.sqrt(2.0) * t
    edge = np.abs(c) >= 1.0  # |c| = 1 once clipped into [-1, 1]
    if not edge.any():
        out = _tensor_rule(f, c, q11, q22, z, w)
    elif edge.all():
        out = _axis_rule(f, c, q11, q22, z, w)
    else:
        out = np.empty(c.size)
        out[edge] = _axis_rule(f, c[edge], q11[edge], q22[edge], z, w)
        inner = ~edge
        out[inner] = _tensor_rule(f, c[inner], q11[inner], q22[inner], z, w)
    return float(out[0]) if not shape else out.reshape(shape)


def _axis_rule(f, c, q11, q22, z, w) -> np.ndarray:
    """gauss_ev2 at c = +-1, where v = sign(c) sqrt(q22/q11) u: one sum over
    the nodes z = sqrt(2) t per pair, a stacked dot as 1-D w @ vals is."""
    vals = f(np.sqrt(q11)[:, None] * z) * f((np.copysign(1.0, c) * np.sqrt(q22))[:, None] * z)
    return np.matmul(vals[:, None, :], w[:, None])[:, 0, 0] / math.sqrt(math.pi)


def _tensor_rule(f, c, q11, q22, z, w) -> np.ndarray:
    """gauss_ev2 at |c| < 1 on the n x n tensor grid, in blocks of pairs of
    _BLOCK_BYTES. Each block's grid of values is built in place in one
    (k, n, n) buffer, and each pair's sum w @ vals @ w is one gemv and one
    dot, a stacked (k, 1, n) @ (k, n, n) then (k, 1, n) @ (n, 1): a
    (k, n) @ (n,) gemv would round some sums differently.

    The nodes satisfy z[::-1] == -z exactly, and IEEE products, sums and
    negation are sign-symmetric, as numpy's tanh is, so tanh (odd) and tanh'
    (even) give an integrand f(u) f(v) with vals[n-1-i, n-1-j] ==
    vals[i, j]. So only the first ceil(n/2) rows are evaluated and the rest
    are their reversed copy; the sums still run over the full grid."""
    n = z.size
    rows = n - n // 2
    step = max(1, _BLOCK_BYTES // (8 * n * n))
    buf = np.empty((min(step, c.size), n, n))
    z1, z2 = z[:rows, None], z[None, :]
    w_row, w_col = w[None, :], w[:, None]
    c3 = c[:, None, None]
    s3, root_q11, root_q22 = np.sqrt(1.0 - c3 * c3), np.sqrt(q11)[:, None, None], np.sqrt(q22)[:, None, None]
    sums = np.empty((c.size, 1, 1))
    for start in range(0, c.size, step):
        block = slice(start, start + step)
        vals = buf[: min(step, c.size - start)]
        v = np.add(c3[block] * z1, s3[block] * z2, out=vals[:, :rows])
        v *= root_q22[block]
        np.multiply(f(root_q11[block] * z1), f(v), out=v)
        if rows < n:  # n = 1 has no second half
            vals[:, rows:] = vals[:, n - rows - 1 :: -1, ::-1]
        np.matmul(np.matmul(w_row, vals), w_col, out=sums[block])
    return sums[:, 0, 0] / math.pi


def _second_moment_unit(act: Activation) -> float:
    """E phi(z)^2 for z ~ N(0,1), for a piecewise-linear kind with slopes
    (1, a): (1 + a^2)/2 in closed form, and so is E phi'(z)^2."""
    return 0.5 * (1.0 + act.slopes[1] ** 2)


class _LengthMoments(NamedTuple):
    value: Callable[[float], float]   # q -> V(q | sigma_w^2)
    slope: Callable[[float], float]   # q -> dV/dq
    chi1: Callable[[float], float]    # q -> chi_1 at variance q


def _length_moments(sigma_w2: float, nodes: int) -> _LengthMoments:
    """The three one-dimensional moments of the tanh length map at
    sigma_w^2, for evaluation at many q.

    The piecewise-linear kinds have closed forms, which length_map, chi1 and
    length_fixed_point evaluate instead. The quadrature rule
    is looked up once and the scaled nodes share one buffer across calls.
    Each value is bit for bit the gauss_ev expression of its integrand, with
    u = sqrt(q) z, t = tanh(u) and d = phi'(u) = 1 - t*t:

        V     = sigma_w^2 * E t**2
        dV/dq = sigma_w^2 * E[d**2 + t * (-2.0 * t * d)]  (phi'^2 + phi phi'')
        chi_1 = sigma_w^2 * E d**2

    V is evaluated in place (x*x is numpy's square and a 1-D np.dot is the
    ddot of w @ x); tanh is computed once per value. The expectations are
    not batched over q: a stacked gemv sums in another order.
    """
    t, w = gauss_hermite(nodes)
    z = np.empty_like(t)
    root_pi = math.sqrt(math.pi)
    sqrt, multiply, tanh, dot = math.sqrt, np.multiply, np.tanh, np.dot

    def value(q: float) -> float:
        multiply(sqrt(2.0 * q), t, out=z)
        tanh(z, out=z)
        multiply(z, z, out=z)
        return sigma_w2 * (float(dot(w, z)) / root_pi)

    def slope(q: float) -> float:
        multiply(sqrt(2.0 * q), t, out=z)
        tanh(z, out=z)
        d = 1.0 - z * z
        return sigma_w2 * (float(dot(w, d**2 + z * (-2.0 * z * d))) / root_pi)

    def chi(q: float) -> float:
        multiply(sqrt(2.0 * q), t, out=z)
        tanh(z, out=z)
        d = 1.0 - z * z
        return sigma_w2 * (float(dot(w, d * d)) / root_pi)

    return _LengthMoments(value, slope, chi)


def length_map(q: float, sigma_w2: float, act: Activation, nodes: int = GH_NODES) -> float:
    """V(q | sigma_w^2) = sigma_w^2 * E phi(sqrt(q) z)^2, the next layer's
    variance for an input of current variance q.

    A value that is not finite (overflow) raises DivergenceError. dV/dq is
    _length_moments(...).slope for tanh, which the fixed-point Newton polish
    reads, and chi_1 for the piecewise-linear kinds, whose phi phi'' vanishes
    almost everywhere (phi(0) = 0 kills the relu kink's point mass).
    """
    _check_nonnegative("q", q)
    _check_positive("sigma_w2", sigma_w2)
    if act.slopes is not None:
        # V is exactly linear in q, with slope chi_1
        value = sigma_w2 * q * _second_moment_unit(act)
    else:
        value = _length_moments(sigma_w2, nodes).value(q)
    if not math.isfinite(value):
        raise DivergenceError(
            f"length map overflowed at q = {q:g} (next value {value:g})"
        )
    return value


def corr_map(c: float, q11: float, q22: float, sigma_w2: float, act: Activation) -> float:
    """C(c, q11, q22 | sigma_w^2) = sigma_w^2 * E phi(u) phi(v), the next
    layer's covariance for inputs with current variances q11, q22 and
    correlation c."""
    _check_positive("sigma_w2", sigma_w2)
    if act.slopes is not None:
        _check_pair(c, q11, q22)
        c = min(1.0, max(-1.0, c))
        scale = math.sqrt(q11 * q22)
        # piecewise-linear pair moment in closed form. phi = ((1+a) z +
        # (1-a)|z|)/2 and E u|v| = 0, so only the uv and |u||v| terms
        # survive; E|u||v| = (2/pi)(sqrt(1-c^2) + c asin c) on unit
        # marginals. Tensor quadrature would smear the kink instead.
        a = act.slopes[1]
        abs_term = (2.0 / math.pi) * (math.sqrt(1.0 - c * c) + c * math.asin(c))
        pair = 0.25 * ((1.0 + a) ** 2 * c + (1.0 - a) ** 2 * abs_term)
        return sigma_w2 * scale * pair
    return sigma_w2 * gauss_ev2(act, c, q11, q22)


def chi_map(c: float, q11: float, q22: float, sigma_w2: float, act: Activation) -> float:
    """sigma_w^2 * E phi'(u) phi'(v), the derivative-correlation multiplier."""
    _check_positive("sigma_w2", sigma_w2)
    if act.slopes is not None:
        _check_pair(c, q11, q22)
        c = min(1.0, max(-1.0, c))
        # phi' is a two-level step, so the expectation reduces to orthant
        # probabilities: P(++) = P(--) = (pi - theta)/(2 pi), theta = acos c
        theta = math.acos(c)
        a = act.slopes[1]
        same = (math.pi - theta) / (2.0 * math.pi)
        mixed = theta / (2.0 * math.pi)
        return sigma_w2 * ((1.0 + a * a) * same + 2.0 * a * mixed)
    return sigma_w2 * gauss_ev2(act.deriv, c, q11, q22)


def chi1(sigma_w2: float, q: float, act: Activation, nodes: int = GH_NODES) -> float:
    """chi_1 = sigma_w^2 * E (phi'(sqrt(q) z))^2 at variance q."""
    _check_positive("sigma_w2", sigma_w2)
    _check_nonnegative("q", q)
    if act.slopes is not None:
        return sigma_w2 * _second_moment_unit(act)
    return _length_moments(sigma_w2, nodes).chi1(q)


@dataclass(frozen=True)
class FixedPointResult:
    q_inf: float
    iterations: int
    marginal: bool


def length_fixed_point(sigma_w2: float, act: Activation, q0: float = 1.0) -> FixedPointResult:
    """The length map's fixed point from q0.

    Piecewise-linear activations make the map exactly linear, V(q) = kappa q
    with kappa = sigma_w^2 (1 + a^2)/2, and are answered without iterating:
    kappa = 1 (e.g. relu at sigma_w^2 = 2) leaves every q fixed and returns
    q0 with marginal=True rather than inventing a unique answer; kappa < 1,
    or q0 = 0, gives q* = 0 exactly; kappa > 1 from q0 > 0 grows without
    bound and raises DivergenceError.

    For tanh at sigma_w^2 < 1, tanh(u)^2 < u^2 gives V(q) < sigma_w^2 q < q,
    so q* = 0 exactly; it is returned with iterations = 0, as no map is
    evaluated. sigma_w^2 = 1 is iterated, so that edge_of_chaos, whose
    bracket starts at 1, bisects instead of returning 1 outright.

    Plain iteration stops once a step |V(q) - q| is at most FIXED_POINT_TOL.
    It stalls harmonically where the map's slope at the fixed point is 1
    (tanh at sigma_w^2 = 1); once plain steps have had a fair run, a Newton
    polish on V(q) - q with the analytic derivative finishes the job. Where
    dV/dq exceeds 1 the map repels (tanh at sigma_w^2 > 1 next to q = 0):
    plain steps up from a tiny q0 are tiny but grow, and Newton can land on
    q = 0 itself. So a small step up, and a Newton landing, end the
    iteration only where dV/dq <= 1. A small step down ends it as before:
    V(q) <= q holds above the positive fixed point, and at q = 0, where
    q0 = 0 stays. Divergence (overflow or no convergence within
    FIXED_POINT_ITERATIONS) raises DivergenceError naming the last
    iterate.
    """
    _check_nonnegative("q0", q0)
    _check_positive("sigma_w2", sigma_w2)
    if act.slopes is not None:
        kappa = sigma_w2 * _second_moment_unit(act)
        if abs(kappa - 1.0) <= MARGINAL_TOL:
            return FixedPointResult(q_inf=float(q0), iterations=0, marginal=True)
        if kappa < 1.0 or q0 == 0.0:
            return FixedPointResult(q_inf=0.0, iterations=0, marginal=False)
        raise DivergenceError(
            f"length map V(q) = {kappa:g} q grows without bound from q0 = {q0:g}"
        )
    if sigma_w2 < 1.0:
        return FixedPointResult(q_inf=0.0, iterations=0, marginal=False)
    moments = _length_moments(sigma_w2, GH_NODES)
    length_value, slope, isfinite = moments.value, moments.slope, math.isfinite
    q = float(q0)
    for k in range(1, FIXED_POINT_ITERATIONS + 1):
        q_next = length_value(q)
        if not isfinite(q_next) or q_next > 1e12:
            raise DivergenceError(
                f"length map diverged after {k} iterations (last iterate {q_next:g})"
            )
        if abs(q_next - q) <= FIXED_POINT_TOL and (q_next <= q or slope(q_next) <= 1.0):
            return FixedPointResult(q_inf=q_next, iterations=k, marginal=False)
        q = q_next
        if k == 512:
            polished = _newton_polish(q, moments)
            if polished is not None:
                q_star, extra = polished
                return FixedPointResult(q_inf=q_star, iterations=k + extra, marginal=False)
    raise DivergenceError(
        f"length map did not settle within {FIXED_POINT_ITERATIONS} iterations (last iterate {q:g})"
    )


def _newton_polish(q: float, moments: _LengthMoments) -> tuple[float, int] | None:
    """Newton on g(q) = V(q) - q from a plain-iteration iterate, with V and
    its derivative from moments (_length_moments at the iterated sigma_w^2).

    Returns (fixed point, steps) or None when Newton cannot be trusted
    (derivative vanished, iterate escaped, or the landing point fails the
    fixed-point residual check or has dV/dq > 1, where the map repels).
    """
    length_value, slope = moments.value, moments.slope
    q_hi = 10.0 * max(q, 1.0)
    for j in range(1, NEWTON_STEPS + 1):
        g = length_value(q) - q
        gp = slope(q) - 1.0
        if gp == 0.0:
            return None
        q_new = q - g / gp
        if q_new < 0.0:
            q_new = 0.5 * q  # fixed points live in q >= 0
        if q_new > q_hi:
            return None
        if abs(q_new - q) <= FIXED_POINT_TOL:
            resid = abs(length_value(q_new) - q_new)
            if resid <= 10.0 * FIXED_POINT_TOL * (1.0 + abs(q_new)) and slope(q_new) <= 1.0:
                return q_new, j
            return None
        q = q_new
    return None


@dataclass(frozen=True)
class PhasePoint:
    sigma_w2: float
    q_inf: float
    chi1: float
    phase: str          # "ordered" | "chaotic" | "edge"
    marginal: bool


def phase_classify(
    sigma_w2: float,
    act: Activation,
    q0: float = 1.0,
    tol: float = 1e-6,
) -> PhasePoint:
    """Classify (sigma_w^2, phi) by chi_1 at length_fixed_point's q_inf.

    For the piecewise-linear kinds chi_1 does not depend on q, so it is read
    at q0, and no fixed point needs to exist: a map that grows without bound
    is reported as q_inf = inf (chaotic). A tanh divergence still raises.
    """
    if not (tol >= 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    try:
        fp = length_fixed_point(sigma_w2, act, q0=q0)
    except DivergenceError:
        if act.slopes is None:
            raise
        fp = FixedPointResult(q_inf=math.inf, iterations=0, marginal=False)
    chi = chi1(sigma_w2, q0 if act.slopes is not None else fp.q_inf, act)
    if chi < 1.0 - tol:
        phase = "ordered"
    elif chi > 1.0 + tol:
        phase = "chaotic"
    else:
        phase = "edge"
    return PhasePoint(sigma_w2=sigma_w2, q_inf=fp.q_inf, chi1=chi, phase=phase, marginal=fp.marginal)


def edge_of_chaos(act: Activation, q0: float = 1.0) -> float:
    """sigma_w^2 in [1, 4] where chi_1(sigma_w^2) = 1, with chi_1 evaluated
    at each candidate's own length fixed point from q0.

    The bracket is fixed, and chi_1 - 1 changes sign on it for every kind:
    at sigma_w^2 = 1 it is at most 0 (phi'^2 <= 1 for tanh, and chi_1 =
    (1 + a^2)/2 with a in [0, 1] for the piecewise-linear kinds), and at 4
    it is above 0 (chi_1 = 2 (1 + a^2), and for tanh so seen for q0 from 0
    to 1e4). So only the lower end is evaluated; that call also rejects a
    bad q0, and a chi_1 within 1e-10 of 1 there makes 1 the answer. A
    piecewise-linear kind then returns the closed form 1 / E phi'(z)^2 =
    2 / (1 + a^2); tanh bisects to a bracket of width 1e-10.
    """
    lo, hi, tol = 1.0, 4.0, 1e-10
    f_lo = phase_classify(lo, act, q0=q0).chi1 - 1.0
    if abs(f_lo) <= tol:
        return lo
    if act.slopes is not None:
        return 1.0 / _second_moment_unit(act)
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        f_mid = phase_classify(mid, act, q0=q0).chi1 - 1.0
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class MomentProfile:
    """Per-layer moment estimates over weight replicates.

    q[l] estimates Var h_{l+1}^i as ||h_{l+1}||^2 / n_{l+1} (zero-mean
    preactivations), delta[l] the analogous backward moment ||g_{l+1}||^2 /
    n_{l+1} under a fixed unit seed gradient at the output. Index 0 is the
    first hidden preactivation. Standard errors are over replicates.
    """

    q: np.ndarray
    q_se: np.ndarray
    delta: np.ndarray
    delta_se: np.ndarray


def simulate_moments(config: NetConfig, x: np.ndarray, replicates: int = 200, seed: int = 0) -> MomentProfile:
    """Monte Carlo forward/backward moments of the input x against the
    mean-field maps.

    Weights are resampled per replicate with stream seed + r. The seed
    gradient for the backward moments is the first output basis vector.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates for standard errors")
    x = np.asarray(x, dtype=float)
    n_levels = config.n_layers
    qs = np.empty((replicates, n_levels))
    deltas = np.empty((replicates, n_levels))
    for r in range(replicates):
        weights = init_weights(config, seed + r)
        trace = forward(config, weights, x)
        gs = output_grads(config, weights, trace, 0)
        for l in range(n_levels):
            n_l = config.widths[l + 1]
            qs[r, l] = float(trace.h[l] @ trace.h[l]) / n_l
            deltas[r, l] = float(gs[l] @ gs[l]) / n_l
    return MomentProfile(
        q=qs.mean(axis=0),
        q_se=qs.std(axis=0, ddof=1) / math.sqrt(replicates),
        delta=deltas.mean(axis=0),
        delta_se=deltas.std(axis=0, ddof=1) / math.sqrt(replicates),
    )
