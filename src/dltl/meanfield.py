"""Signal propagation at initialization: length and correlation maps.

For a wide net with gaussian weights of variance sigma_w^2 / fan-in, the
per-layer preactivation second moment follows the length map

    V(q | sigma_w^2) = sigma_w^2 * E_{z ~ N(0,1)} phi(sqrt(q) z)^2,

two inputs' covariance follows the correlation map C(c, q11, q22), and the
multiplier governing gradient norms and correlation stability at the fixed
point is

    chi_1 = sigma_w^2 * E (phi'(sqrt(q*) z))^2.

chi_1 < 1 is the ordered phase, chi_1 > 1 the chaotic one, chi_1 = 1 the
edge. Homogeneous activations (linear, relu, leaky_relu) get closed forms;
everything else goes through Gauss-Hermite quadrature with 64 nodes per axis
(tests hold a 256-node oracle against these defaults).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .netcore import Activation, NetConfig, backprop, forward, init_weights

__all__ = [
    "DivergenceError",
    "LengthMapResult",
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
MARGINAL_TOL = 1e-12   # |slope - 1| below this means every q is a fixed point


class DivergenceError(RuntimeError):
    """An iteration left its basin; carries the last iterate seen."""

    def __init__(self, message: str, last_value: float):
        super().__init__(message)
        self.last_value = last_value


@lru_cache(maxsize=8)
def gauss_hermite(nodes: int = GH_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Physicists' Gauss-Hermite nodes and weights (cached)."""
    if nodes < 1:
        raise ValueError(f"nodes must be a positive integer, got {nodes}")
    t, w = np.polynomial.hermite.hermgauss(nodes)
    return t, w


def gauss_ev(f, q: float, nodes: int = GH_NODES) -> float:
    """E_{z ~ N(0,1)} f(sqrt(q) z) by Gauss-Hermite quadrature."""
    if q < 0:
        raise ValueError(f"variance must be nonnegative, got {q}")
    t, w = gauss_hermite(nodes)
    z = math.sqrt(2.0 * q) * t
    return float(w @ f(z)) / math.sqrt(math.pi)


def gauss_ev2(f, g, c: float, q11: float, q22: float, nodes: int = GH_NODES) -> float:
    """E f(u) g(v) for (u, v) centered gaussian with Var u = q11, Var v = q22,
    correlation c. Realized as u = sqrt(q11) z1, v = sqrt(q22)(c z1 +
    sqrt(1-c^2) z2); |c| = 1 collapses to a single axis.
    """
    if q11 < 0 or q22 < 0:
        raise ValueError("variances must be nonnegative")
    if abs(c) > 1.0 + 1e-12:
        raise ValueError(f"correlation must lie in [-1, 1], got {c}")
    c = min(1.0, max(-1.0, c))
    t, w = gauss_hermite(nodes)
    if abs(c) == 1.0:
        z = math.sqrt(2.0) * t
        vals = f(math.sqrt(q11) * z) * g(math.copysign(1.0, c) * math.sqrt(q22) * z)
        return float(w @ vals) / math.sqrt(math.pi)
    z1 = math.sqrt(2.0) * t[:, None]
    z2 = math.sqrt(2.0) * t[None, :]
    u = math.sqrt(q11) * z1
    v = math.sqrt(q22) * (c * z1 + math.sqrt(1.0 - c * c) * z2)
    vals = f(u) * g(v)
    return float(w @ vals @ w) / math.pi


def _second_moment_unit(act: Activation) -> float:
    """E phi(z)^2 for z ~ N(0,1), for a piecewise-linear kind with slopes
    (1, a): (1 + a^2)/2 in closed form, and so is E phi'(z)^2."""
    return 0.5 * (1.0 + act.slopes[1] ** 2)


@dataclass(frozen=True)
class LengthMapResult:
    q_next: float
    dv_dq: float | None = None


class _LengthMoments(NamedTuple):
    value: Callable[[float], float]   # q -> V(q | sigma_w^2)
    slope: Callable[[float], float]   # q -> dV/dq
    chi1: Callable[[float], float]    # q -> chi_1 at variance q


def _length_moments(sigma_w2: float, act: Activation, nodes: int) -> _LengthMoments:
    """The three one-dimensional moments of the length map at sigma_w^2, for
    evaluation at many q.

    The homogeneous kinds have closed forms, which length_map and chi1
    evaluate without building this. For tanh, the quadrature rule
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
    if act.homogeneous:
        m2 = _second_moment_unit(act)
        kappa = sigma_w2 * m2
        # phi(sqrt(q) z) = sqrt(q) phi(z), so the map is exactly linear in q;
        # for the piecewise-linear kinds phi phi'' vanishes almost everywhere
        # (phi(0) = 0 kills the relu kink's point mass), so dV/dq = chi_1
        return _LengthMoments(lambda q: sigma_w2 * q * m2, lambda q: kappa, lambda q: kappa)
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


def length_map(
    q: float,
    sigma_w2: float,
    act: Activation,
    nodes: int = GH_NODES,
    with_derivative: bool = False,
) -> LengthMapResult:
    """V(q | sigma_w^2) = sigma_w^2 * E phi(sqrt(q) z)^2, optionally with dV/dq.

    A result that is not finite (overflow) raises DivergenceError.
    """
    if not 0.0 <= q < math.inf:
        raise ValueError(f"q must be finite and nonnegative, got {q}")
    if not 0.0 < sigma_w2 < math.inf:
        raise ValueError(f"sigma_w2 must be positive and finite, got {sigma_w2}")
    if act.homogeneous:
        # V is exactly linear in q, with slope chi_1
        m2 = _second_moment_unit(act)
        value = sigma_w2 * q * m2
        deriv = sigma_w2 * m2 if with_derivative else None
    else:
        moments = _length_moments(sigma_w2, act, nodes)
        value = moments.value(q)
        deriv = moments.slope(q) if with_derivative else None
    if not math.isfinite(value) or (deriv is not None and not math.isfinite(deriv)):
        raise DivergenceError(
            f"length map overflowed at q = {q:g} (next value {value:g})", last_value=value
        )
    return LengthMapResult(q_next=value, dv_dq=deriv)


def corr_map(
    c: float,
    q11: float,
    q22: float,
    sigma_w2: float,
    act: Activation,
    nodes: int = GH_NODES,
) -> float:
    """C(c, q11, q22 | sigma_w^2) = sigma_w^2 * E phi(u) phi(v), the next
    layer's covariance for inputs with current variances q11, q22 and
    correlation c."""
    if not 0.0 < sigma_w2 < math.inf:
        raise ValueError(f"sigma_w2 must be positive and finite, got {sigma_w2}")
    if act.slopes is not None:
        if abs(c) > 1.0 + 1e-12:
            raise ValueError(f"correlation must lie in [-1, 1], got {c}")
        if q11 < 0 or q22 < 0:
            raise ValueError("variances must be nonnegative")
        c = min(1.0, max(-1.0, c))
        scale = math.sqrt(q11 * q22)
        if act.kind == "linear":
            return sigma_w2 * c * scale
        # piecewise-linear pair moment in closed form. phi = ((1+a) z +
        # (1-a)|z|)/2 and E u|v| = 0, so only the uv and |u||v| terms
        # survive; E|u||v| = (2/pi)(sqrt(1-c^2) + c asin c) on unit
        # marginals. Tensor quadrature would smear the kink instead.
        a = act.slopes[1]
        abs_term = (2.0 / math.pi) * (math.sqrt(1.0 - c * c) + c * math.asin(c))
        pair = 0.25 * ((1.0 + a) ** 2 * c + (1.0 - a) ** 2 * abs_term)
        return sigma_w2 * scale * pair
    return sigma_w2 * gauss_ev2(act, act, c, q11, q22, nodes=nodes)


def chi_map(
    c: float,
    q11: float,
    q22: float,
    sigma_w2: float,
    act: Activation,
    nodes: int = GH_NODES,
) -> float:
    """sigma_w^2 * E phi'(u) phi'(v), the derivative-correlation multiplier."""
    if not 0.0 < sigma_w2 < math.inf:
        raise ValueError(f"sigma_w2 must be positive and finite, got {sigma_w2}")
    if act.kind == "linear":
        return sigma_w2
    if act.slopes is not None:
        if abs(c) > 1.0 + 1e-12:
            raise ValueError(f"correlation must lie in [-1, 1], got {c}")
        c = min(1.0, max(-1.0, c))
        # phi' is a two-level step, so the expectation reduces to orthant
        # probabilities: P(++) = P(--) = (pi - theta)/(2 pi), theta = acos c
        theta = math.acos(c)
        a = act.slopes[1]
        same = (math.pi - theta) / (2.0 * math.pi)
        mixed = theta / (2.0 * math.pi)
        return sigma_w2 * ((1.0 + a * a) * same + 2.0 * a * mixed)
    return sigma_w2 * gauss_ev2(act.deriv, act.deriv, c, q11, q22, nodes=nodes)


def chi1(sigma_w2: float, q: float, act: Activation, nodes: int = GH_NODES) -> float:
    """chi_1 = sigma_w^2 * E (phi'(sqrt(q) z))^2 at variance q."""
    if not 0.0 < sigma_w2 < math.inf:
        raise ValueError(f"sigma_w2 must be positive and finite, got {sigma_w2}")
    if not 0.0 <= q < math.inf:
        raise ValueError(f"q must be finite and nonnegative, got {q}")
    if act.homogeneous:
        return sigma_w2 * _second_moment_unit(act)
    return _length_moments(sigma_w2, act, nodes).chi1(q)


@dataclass(frozen=True)
class FixedPointResult:
    q_inf: float
    iterations: int
    marginal: bool


def length_fixed_point(
    sigma_w2: float,
    act: Activation,
    q0: float = 1.0,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> FixedPointResult:
    """Iterate the length map to its fixed point from q0.

    Homogeneous activations make the map exactly linear, V(q) = kappa q.
    kappa = 1 (e.g. relu at sigma_w^2 = 2) leaves every q fixed; that case
    returns q0 with marginal=True rather than inventing a unique answer.

    For tanh at sigma_w^2 < 1, tanh(u)^2 < u^2 gives V(q) < sigma_w^2 q < q,
    so q* = 0 exactly; it is returned with iterations = 0, as no map is
    evaluated. sigma_w^2 = 1 is iterated, so that edge_of_chaos, whose default
    bracket starts at lo = 1, bisects instead of returning lo outright.

    Plain iteration stalls harmonically where the map's slope at the fixed
    point is 1 (tanh at sigma_w^2 = 1); once plain steps have had a fair run,
    a Newton polish on V(q) - q with the analytic derivative finishes the job.
    Divergence (overflow or no convergence within max_iter) raises
    DivergenceError carrying the last iterate.
    """
    if not 0.0 <= q0 < math.inf:
        raise ValueError(f"q0 must be finite and nonnegative, got {q0}")
    if not 0.0 < sigma_w2 < math.inf:
        raise ValueError(f"sigma_w2 must be positive and finite, got {sigma_w2}")
    if act.homogeneous:
        kappa = sigma_w2 * _second_moment_unit(act)
        if abs(kappa - 1.0) <= MARGINAL_TOL:
            return FixedPointResult(q_inf=float(q0), iterations=0, marginal=True)
    elif sigma_w2 < 1.0:
        return FixedPointResult(q_inf=0.0, iterations=0, marginal=False)
    moments = _length_moments(sigma_w2, act, GH_NODES)
    length_value, isfinite = moments.value, math.isfinite
    q = float(q0)
    polish_at = min(512, max_iter)
    for k in range(1, max_iter + 1):
        q_next = length_value(q)
        if not isfinite(q_next) or q_next > 1e12:
            raise DivergenceError(
                f"length map diverged after {k} iterations (last iterate {q_next:g})",
                last_value=q_next,
            )
        if abs(q_next - q) <= tol:
            return FixedPointResult(q_inf=q_next, iterations=k, marginal=False)
        q = q_next
        if k == polish_at:
            polished = _newton_polish(q, moments, tol)
            if polished is not None:
                q_star, extra = polished
                return FixedPointResult(q_inf=q_star, iterations=k + extra, marginal=False)
    raise DivergenceError(
        f"length map did not settle within {max_iter} iterations (last iterate {q:g})",
        last_value=q,
    )


def _newton_polish(
    q: float, moments: _LengthMoments, tol: float, max_steps: int = 200
) -> tuple[float, int] | None:
    """Newton on g(q) = V(q) - q from a plain-iteration iterate, with V and
    its derivative from moments (_length_moments at the iterated sigma_w^2).

    Returns (fixed point, steps) or None when Newton cannot be trusted
    (derivative vanished, iterate escaped, or the landing point fails the
    fixed-point residual check).
    """
    length_value, slope = moments.value, moments.slope
    q_hi = 10.0 * max(q, 1.0)
    for j in range(1, max_steps + 1):
        g = length_value(q) - q
        gp = slope(q) - 1.0
        if gp == 0.0:
            return None
        q_new = q - g / gp
        if q_new < 0.0:
            q_new = 0.5 * q  # fixed points live in q >= 0
        if q_new > q_hi:
            return None
        if abs(q_new - q) <= tol:
            resid = abs(length_value(q_new) - q_new)
            if resid <= 10.0 * tol * (1.0 + abs(q_new)):
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
    """Classify (sigma_w^2, phi) by chi_1 at the length fixed point.

    For homogeneous activations chi_1 does not depend on q, so no fixed point
    needs to exist: q_inf is reported as 0, q0 or inf according to the map's
    slope. Otherwise chi_1 is read at length_fixed_point's q_inf.
    """
    if not (tol >= 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if act.homogeneous:
        kappa = sigma_w2 * _second_moment_unit(act)
        marginal = abs(kappa - 1.0) <= MARGINAL_TOL
        if marginal:
            q_inf = float(q0)
        elif kappa < 1.0:
            q_inf = 0.0
        else:
            q_inf = math.inf
        chi = chi1(sigma_w2, q0, act)
    else:
        fp = length_fixed_point(sigma_w2, act, q0=q0)
        marginal = fp.marginal
        q_inf = fp.q_inf
        chi = chi1(sigma_w2, q_inf, act)
    if chi < 1.0 - tol:
        phase = "ordered"
    elif chi > 1.0 + tol:
        phase = "chaotic"
    else:
        phase = "edge"
    return PhasePoint(sigma_w2=sigma_w2, q_inf=q_inf, chi1=chi, phase=phase, marginal=marginal)


def edge_of_chaos(
    act: Activation,
    lo: float = 1.0,
    hi: float = 4.0,
    tol: float = 1e-10,
    q0: float = 1.0,
) -> float:
    """Bisect sigma_w^2 in [lo, hi] for chi_1(sigma_w^2) = 1.

    chi_1 is evaluated at each candidate's own length fixed point. Requires
    chi_1 - 1 to change sign (or vanish) on the bracket.
    """
    f_lo = phase_classify(lo, act, q0=q0).chi1 - 1.0
    if abs(f_lo) <= tol:
        return lo
    f_hi = phase_classify(hi, act, q0=q0).chi1 - 1.0
    if abs(f_hi) <= tol:
        return hi
    if f_lo * f_hi > 0:
        raise ValueError(
            f"chi1 - 1 does not change sign on [{lo}, {hi}] "
            f"(values {f_lo:g}, {f_hi:g})"
        )
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
    replicates: int


def simulate_moments(
    config: NetConfig,
    x: np.ndarray | None = None,
    replicates: int = 200,
    seed: int = 0,
) -> MomentProfile:
    """Monte Carlo forward/backward moments against the mean-field maps.

    Weights are resampled per replicate with stream seed + r. The seed
    gradient for the backward moments is the first output basis vector.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates for standard errors")
    if x is None:
        x = np.ones(config.widths[0])
    x = np.asarray(x, dtype=float)
    n_levels = config.n_layers
    qs = np.empty((replicates, n_levels))
    deltas = np.empty((replicates, n_levels))
    unit = np.zeros(config.widths[-1])
    unit[0] = 1.0
    for r in range(replicates):
        weights = init_weights(config, seed + r)
        trace = forward(config, weights, x)
        gs = backprop(config, weights, trace, unit)
        for l in range(n_levels):
            n_l = config.widths[l + 1]
            qs[r, l] = float(trace.h[l] @ trace.h[l]) / n_l
            deltas[r, l] = float(gs[l] @ gs[l]) / n_l
    return MomentProfile(
        q=qs.mean(axis=0),
        q_se=qs.std(axis=0, ddof=1) / math.sqrt(replicates),
        delta=deltas.mean(axis=0),
        delta_se=deltas.std(axis=0, ddof=1) / math.sqrt(replicates),
        replicates=replicates,
    )
