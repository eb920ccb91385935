"""Calculators for classical and modern generalization bounds.

Every function here evaluates a closed-form bound or optimizes one
numerically; nothing is trained and nothing is proved. The families:

- concentration and capacity: the Hoeffding deviation radius, the Sauer
  growth-function estimate, and the VC Rademacher bound;
- spectral margin bounds: the covering-number complexity R_{s,b} with the
  optimized Dudley entropy integral, plus the union-bound grid that turns
  the a-priori norm-class statement into an a-posteriori one, and the
  PAC-Bayes spectral bound built from per-layer norms;
- PAC-Bayes proper: the McAllester deviation bound with diagonal-gaussian
  posteriors, gradient-descent optimization of that bound over the
  posterior (prior variance restricted to a countable grid so the union
  bound stays valid), and code-length priors for compressed models.

Margins follow the binary convention: labels are +-1, a scalar score z
classifies correctly when y z > 0, and the gamma-margin risk counts
y z < gamma. The soft (ramp) variant is 1 for y z <= 0, 1 - y z / gamma
inside the margin, 0 beyond it.

Datasets are (x, y) pairs with x of shape (m, n_0), one example per row,
which is the natural orientation for risk sums; functions that evaluate a
network transpose internally to the column convention of netcore.forward.

Every calculator returns a BoundReport carrying the intermediate
quantities (complexities, KL terms, grid indices) so a consumer can
re-derive the final number from the report alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .meanfield import GH_NODES, gauss_hermite
from .netcore import NetConfig, forward

__all__ = [
    "MarginStats",
    "NormProfile",
    "BoundReport",
    "GaussianPosterior",
    "MC_POSTERIOR_SAMPLES",
    "classic_bounds",
    "norm_profile",
    "bartlett_bound",
    "a_posteriori_grid",
    "neyshabur_bound",
    "gaussian_kl",
    "pacbayes_mcallester",
    "dziugaite_roy_optimize",
    "code_length_kl",
    "naive_code_length",
    "margin_stats",
]

# Default number of posterior samples for Monte Carlo risk estimates.
MC_POSTERIOR_SAMPLES = 256

# Relative slack for the norm chain check in NormProfile.
_NORM_CHAIN_TOL = 1e-9


@dataclass(frozen=True)
class MarginStats:
    """Per-example margins y_i f(x_i) with the hard and ramp risks at gamma."""

    gamma: float
    margins: np.ndarray
    hard_risk: float
    ramp_risk: float

    def __post_init__(self):
        if not 0.0 <= self.hard_risk <= 1.0:
            raise ValueError(f"hard margin risk {self.hard_risk} outside [0, 1]")
        if not 0.0 <= self.ramp_risk <= 1.0:
            raise ValueError(f"ramp risk {self.ramp_risk} outside [0, 1]")


@dataclass(frozen=True)
class NormProfile:
    """Per-layer norm triple (spectral, Frobenius, sum of column norms).

    two_one[l] is the (2,1)-norm of W_l^T, i.e. the sum over columns j of
    W_l of their euclidean norms. The chain spectral <= frobenius <= two_one
    holds for genuine matrix norms and is enforced here, so hand-built
    profiles must respect it too.
    """

    spectral: tuple[float, ...]
    frobenius: tuple[float, ...]
    two_one: tuple[float, ...]
    shapes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.spectral)
        if not (len(self.frobenius) == len(self.two_one) == len(self.shapes) == n):
            raise ValueError("norm profile fields must have one entry per layer")
        if n == 0:
            raise ValueError("empty norm profile")
        for s, f, b in zip(self.spectral, self.frobenius, self.two_one):
            if not (math.isfinite(s) and math.isfinite(f) and math.isfinite(b)):
                raise ValueError("norm profile entries must be finite")
            slack = _NORM_CHAIN_TOL * max(1.0, f, b)
            if s > f + slack or f > b + slack:
                raise ValueError(
                    f"norm chain violated: spectral {s}, frobenius {f}, two_one {b}"
                )

    @property
    def n_layers(self) -> int:
        return len(self.spectral)

    @property
    def max_width(self) -> int:
        return max(max(shape) for shape in self.shapes)


@dataclass(frozen=True)
class GaussianPosterior:
    """Diagonal gaussian N(mean, diag(exp(log_var))) with an isotropic prior.

    The prior is N(prior_mean, exp(prior_log_var) I); prior_log_var is the
    scalar grid variable optimized in dziugaite_roy_optimize.
    """

    mean: np.ndarray
    log_var: np.ndarray
    prior_mean: np.ndarray
    prior_log_var: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        log_var = np.asarray(self.log_var, dtype=float).ravel()
        prior_mean = np.asarray(self.prior_mean, dtype=float).ravel()
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "log_var", log_var)
        object.__setattr__(self, "prior_mean", prior_mean)
        object.__setattr__(self, "prior_log_var", float(self.prior_log_var))
        if not (mean.size == log_var.size == prior_mean.size):
            raise ValueError("posterior mean, log_var and prior_mean sizes differ")
        if mean.size == 0:
            raise ValueError("empty posterior")
        if not (
            np.all(np.isfinite(mean))
            and np.all(np.isfinite(log_var))
            and np.all(np.isfinite(prior_mean))
            and math.isfinite(self.prior_log_var)
        ):
            raise ValueError("posterior entries must be finite")

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: family tag, inputs, intermediates, final value."""

    family: str
    bound: float
    inputs: dict
    details: dict

    def __post_init__(self):
        if not self.bound >= 0.0:
            raise ValueError(f"bound {self.bound} is negative")

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "bound": self.bound,
            "inputs": self.inputs,
            "details": self.details,
        }


def _check_m_delta(m: int, delta: float) -> tuple[int, float]:
    m = int(m)
    delta = float(delta)
    if m < 1:
        raise ValueError(f"sample size m = {m} must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"confidence delta = {delta} must lie in (0, 1)")
    return m, delta


def classic_bounds(m: int, delta: float, vc_dim: int | None = None) -> dict:
    """Hoeffding radius, Sauer growth estimate, and the VC Rademacher bound.

    hoeffding_eps = sqrt(log(1/delta) / (2m)) bounds R - R_hat for a single
    fixed predictor. With vc_dim = d the growth function is bounded by
    (e m / d)^d (valid for d < m) and the zero-one Rademacher complexity by
    sqrt((2/m) (log 2 + d (1 + log m - log d))).
    """
    m, delta = _check_m_delta(m, delta)
    out = {"hoeffding_eps": math.sqrt(math.log(1.0 / delta) / (2.0 * m))}
    if vc_dim is not None:
        d = int(vc_dim)
        if d < 1:
            raise ValueError(f"vc dimension {d} must be >= 1")
        if d >= m:
            raise ValueError(f"the (e m / d)^d growth form needs d < m, got d={d}, m={m}")
        out["sauer_growth"] = (math.e * m / d) ** d
        out["vc_rademacher"] = math.sqrt(
            (2.0 / m) * (math.log(2.0) + d * (1.0 + math.log(m) - math.log(d)))
        )
    return out


def norm_profile(weights) -> NormProfile:
    """Spectral, Frobenius and column-sum norms for each weight matrix."""
    spectral, frobenius, two_one, shapes = [], [], [], []
    for w in weights:
        w = np.asarray(w, dtype=float)
        if w.ndim != 2:
            raise ValueError(f"weight matrices must be 2-d, got shape {w.shape}")
        svals = np.linalg.svd(w, compute_uv=False)
        spectral.append(float(svals[0]) if svals.size else 0.0)
        frobenius.append(float(np.linalg.norm(w)))
        two_one.append(float(np.sum(np.linalg.norm(w, axis=0))))
        shapes.append((int(w.shape[0]), int(w.shape[1])))
    return NormProfile(
        spectral=tuple(spectral),
        frobenius=tuple(frobenius),
        two_one=tuple(two_one),
        shapes=tuple(shapes),
    )


def spectral_complexity_covering(spectral, two_one) -> float:
    """R_{s,b} = (sum_l (b_l prod_{l' != l} s_{l'})^(2/3))^(3/2).

    Homogeneous of degree L+1 in a joint rescaling of all s_l and b_l.
    """
    s = np.asarray(spectral, dtype=float)
    b = np.asarray(two_one, dtype=float)
    if s.shape != b.shape or s.ndim != 1 or s.size == 0:
        raise ValueError("spectral and two_one must be equal-length 1-d sequences")
    if np.any(s <= 0.0) or np.any(b <= 0.0):
        raise ValueError("covering complexity needs strictly positive norms")
    # prod_{l' != l} s_{l'} in log space; the norms can span many decades
    log_s = np.log(s)
    log_terms = (np.log(b) + (np.sum(log_s) - log_s)) * (2.0 / 3.0)
    return float(np.sum(np.exp(log_terms)) ** 1.5)


def bartlett_bound(
    norms: NormProfile,
    x_norm_f: float,
    gamma: float,
    m: int,
    delta: float,
    margin_risk: float = 0.0,
) -> BoundReport:
    """Spectral margin bound via covering numbers and the Dudley integral.

    With C = sqrt(log(2 max_l n_l^2)) and A = C (|X|_F / gamma) R_{s,b},
    the entropy integral optimized over its split point eps gives
    eps_opt = 3 A / sqrt(m) and a Rademacher complexity of at most
    (12/m) A (1 - log((6/m) A)), valid while (6/m) A < 1. The final bound
    is margin_risk + 2 Rad + sqrt(log(1/delta) / (2m)). Outside the
    validity regime the report is flagged and the bound clamped to the
    trivial value 1.
    """
    m, delta = _check_m_delta(m, delta)
    x_norm_f = float(x_norm_f)
    gamma = float(gamma)
    margin_risk = float(margin_risk)
    if gamma <= 0.0:
        raise ValueError(f"margin gamma = {gamma} must be positive")
    if x_norm_f <= 0.0:
        raise ValueError(f"data norm |X|_F = {x_norm_f} must be positive")
    if not 0.0 <= margin_risk <= 1.0:
        raise ValueError(f"margin risk {margin_risk} outside [0, 1]")

    complexity = spectral_complexity_covering(norms.spectral, norms.two_one)
    c_width = math.sqrt(math.log(2.0 * norms.max_width**2))
    scaled = c_width * (x_norm_f / gamma) * complexity
    eps_opt = 3.0 / math.sqrt(m) * scaled
    log_arg = 6.0 / m * scaled
    hoeffding = math.sqrt(math.log(1.0 / delta) / (2.0 * m))

    in_regime = log_arg < 1.0
    rademacher = 12.0 / m * scaled * (1.0 - math.log(log_arg))
    if in_regime:
        bound = margin_risk + 2.0 * rademacher + hoeffding
    else:
        # the entropy-integral optimization left its regime; risk <= 1 always
        bound = 1.0

    return BoundReport(
        family="bartlett",
        bound=bound,
        inputs={
            "m": m,
            "delta": delta,
            "gamma": gamma,
            "x_norm_f": x_norm_f,
            "margin_risk": margin_risk,
            "spectral": norms.spectral,
            "two_one": norms.two_one,
            "max_width": norms.max_width,
        },
        details={
            "spectral_complexity": complexity,
            "width_constant": c_width,
            "eps_opt": eps_opt,
            "rademacher": rademacher,
            "rademacher_log_arg": log_arg,
            "in_validity_regime": in_regime,
            "hoeffding_term": hoeffding,
        },
    )


def a_posteriori_grid(norms: NormProfile, delta: float) -> dict:
    """Union-bound grid indices for a trained net's norms.

    The norm classes are indexed by s_l(i) = i / L and b_l(j) = j / L with
    L the number of hidden layers, and the failure budget is split as
    delta(i, j) = delta / prod_l i_l (i_l + 1) j_l (j_l + 1), which sums to
    delta over the full grid by telescoping. Returned are the smallest
    indices whose class strictly contains each observed norm.
    """
    _, delta = _check_m_delta(1, delta)
    if norms.n_layers < 2:
        raise ValueError("grid needs at least two layers (one hidden layer)")
    n_hidden = norms.n_layers - 1

    def smallest_index(value: float) -> int:
        if value < 0.0:
            raise ValueError(f"negative norm {value}")
        # smallest integer i with i / n_hidden > value
        return int(math.floor(value * n_hidden)) + 1

    i_star = tuple(smallest_index(s) for s in norms.spectral)
    j_star = tuple(smallest_index(b) for b in norms.two_one)
    log_inv = math.log(1.0 / delta)
    for i, j in zip(i_star, j_star):
        log_inv += (
            math.log(i) + math.log(i + 1.0) + math.log(j) + math.log(j + 1.0)
        )
    return {
        "i_star": i_star,
        "j_star": j_star,
        "delta_star": delta * math.exp(-(log_inv - math.log(1.0 / delta))),
        "log_inv_delta_star": log_inv,
    }


def spectral_complexity_ratio(weights) -> float:
    """R(theta) = (prod_l |W_l|_2) sqrt(sum_l |W_l|_F^2 / |W_l|_2^2).

    Invariant under the balanced rescaling W_l -> (beta / |W_l|_2) W_l with
    beta the geometric mean of the spectral norms.
    """
    profile = norm_profile(weights)
    s = np.asarray(profile.spectral)
    f = np.asarray(profile.frobenius)
    if np.any(s == 0.0):
        raise ValueError("spectral complexity undefined for a zero layer")
    log_prod = float(np.sum(np.log(s)))
    ratio = float(np.sum((f / s) ** 2))
    return math.exp(log_prod) * math.sqrt(ratio)


def neyshabur_bound(
    weights,
    gamma: float,
    B: float,
    m: int,
    delta: float,
    margin_stats: MarginStats | None = None,
) -> BoundReport:
    """PAC-Bayes spectral bound for relu nets without biases.

    bound = margin risk + sqrt((1/(2m-1)) (log(8 L m / delta)
            + (1/(2L)) log m + 8 e^4 (B R(theta) / gamma)^2 L^2 n log(2 L n)))

    with L the number of weight matrices, n the largest layer width, and
    inputs assumed bounded by |x|_2 <= B.
    """
    m, delta = _check_m_delta(m, delta)
    gamma = float(gamma)
    B = float(B)
    if gamma <= 0.0 or B <= 0.0:
        raise ValueError(f"gamma = {gamma} and B = {B} must be positive")

    weights = [np.asarray(w, dtype=float) for w in weights]
    depth = len(weights)
    if depth == 0:
        raise ValueError("no weight matrices")
    width = max(max(w.shape) for w in weights)
    complexity = spectral_complexity_ratio(weights)

    penalty_sq = (
        math.log(8.0 * depth * m / delta)
        + math.log(m) / (2.0 * depth)
        + 8.0
        * math.e**4
        * (B * complexity / gamma) ** 2
        * depth**2
        * width
        * math.log(2.0 * depth * width)
    ) / (2.0 * m - 1.0)
    penalty = math.sqrt(penalty_sq)
    risk = margin_stats.hard_risk if margin_stats is not None else 0.0

    return BoundReport(
        family="neyshabur",
        bound=risk + penalty,
        inputs={
            "m": m,
            "delta": delta,
            "gamma": gamma,
            "B": B,
            "depth": depth,
            "max_width": width,
        },
        details={
            "spectral_complexity": complexity,
            "penalty": penalty,
            "margin_risk": None if margin_stats is None else margin_stats.hard_risk,
        },
    )


def gaussian_kl(posterior: GaussianPosterior) -> float:
    """KL(N(mu, diag(exp(lam))) || N(mu*, exp(lam*) I)) for diagonal gaussians.

    KL = (1/2) (exp(-lam*) (sum(exp(lam)) + |mu - mu*|^2)
          + d lam* - sum(lam) - d).

    The exp(-lam*) factor multiplies both the variance sum and the mean
    shift, and the - sum(lam) - d part makes KL vanish exactly when the
    posterior equals the prior. A posterior variance exp(lam) or a mean
    shift whose square overflows gives a KL that is not finite, which raises
    ValueError; a prior precision exp(-lam*) that overflows raises
    OverflowError.
    """
    return _gaussian_kl(
        posterior.mean, posterior.log_var, posterior.prior_mean, posterior.prior_log_var
    )


def _gaussian_kl(mean: np.ndarray, lam: np.ndarray, prior_mean: np.ndarray, lam_star: float) -> float:
    """gaussian_kl on the posterior's arrays, without building and validating
    a GaussianPosterior; a non-finite entry gives a non-finite KL, which
    raises the same ValueError."""
    shift = mean - prior_mean
    d = mean.size
    with np.errstate(over="ignore", invalid="ignore"):
        kl = 0.5 * (
            math.exp(-lam_star) * (float(np.sum(np.exp(lam))) + float(shift @ shift))
            + d * lam_star
            - float(np.sum(lam))
            - d
        )
    if not math.isfinite(kl):
        raise ValueError(f"KL divergence {kl} is not finite: a posterior variance or the mean shift overflows")
    # KL >= 0 analytically; tiny negatives are roundoff from cancellation
    return max(kl, 0.0)


def _mcallester_penalty(kl: float, m: int, delta: float) -> float:
    return math.sqrt((math.log(4.0 * m / delta) + kl) / (2.0 * m - 1.0))


def pacbayes_mcallester(
    m: int,
    delta: float,
    kl: float | None = None,
    posterior: GaussianPosterior | None = None,
    risk_fn=None,
    empirical_risk: float | None = None,
    samples: int = MC_POSTERIOR_SAMPLES,
    seed: int = 0,
) -> BoundReport:
    """McAllester bound sqrt((log(4m/delta) + KL) / (2m - 1)).

    Pass either kl directly or a GaussianPosterior (whose KL to its prior
    is computed by gaussian_kl). The empirical risk term is optional: give
    it as a number, or give risk_fn(theta) -> [0, 1] to estimate
    E_{theta ~ Q} risk by Monte Carlo over `samples` posterior draws; the
    standard error of that estimate is reported alongside.
    """
    m, delta = _check_m_delta(m, delta)
    if (kl is None) == (posterior is None):
        raise ValueError("pass exactly one of kl and posterior")
    if risk_fn is not None and empirical_risk is not None:
        raise ValueError("pass at most one of risk_fn and empirical_risk")
    if risk_fn is not None and posterior is None:
        raise ValueError("risk_fn sampling needs a posterior")

    if posterior is not None:
        kl = gaussian_kl(posterior)
    kl = float(kl)
    if kl < 0.0:
        raise ValueError(f"kl = {kl} must be nonnegative")
    penalty = _mcallester_penalty(kl, m, delta)

    risk = empirical_risk
    risk_se = None
    if risk_fn is not None:
        samples = int(samples)
        if samples < 2:
            raise ValueError("need at least 2 posterior samples")
        rng = np.random.default_rng(seed)
        draws = posterior.mean + np.exp(0.5 * posterior.log_var) * rng.standard_normal(
            (samples, posterior.dim)
        )
        risks = np.array([float(risk_fn(theta)) for theta in draws])
        if np.any((risks < 0.0) | (risks > 1.0)):
            raise ValueError("risk_fn must return values in [0, 1]")
        risk = float(np.mean(risks))
        risk_se = float(np.std(risks, ddof=1) / math.sqrt(samples))

    bound = penalty if risk is None else float(risk) + penalty
    return BoundReport(
        family="pacbayes_mcallester",
        bound=bound,
        inputs={"m": m, "delta": delta, "samples": samples if risk_fn else None},
        details={
            "kl": kl,
            "penalty": penalty,
            "empirical_risk": risk,
            "empirical_risk_se": risk_se,
        },
    )


def _binary_dataset(dataset) -> tuple[np.ndarray, np.ndarray]:
    x, y = dataset
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if x.ndim != 2:
        raise ValueError(f"x must be 2-d with one example per row, got shape {x.shape}")
    if x.shape[0] != y.size:
        raise ValueError(f"{x.shape[0]} examples but {y.size} labels")
    if y.size == 0:
        raise ValueError("empty dataset")
    if not np.all((y == 1.0) | (y == -1.0)):
        raise ValueError("labels must be exactly +-1")
    return x, y


def _logistic_bits(z: np.ndarray) -> np.ndarray:
    # log2(1 + exp(-z)); equals 1 at z = 0, upper-bounds the 0/1 loss
    return np.logaddexp(0.0, -z) / math.log(2.0)


def _logistic_bits_deriv(z: np.ndarray) -> np.ndarray:
    # -expit(-z) / log 2 by scipy's expit formula, without loading scipy;
    # exp(z) overflows to inf for large z, where the derivative is rightly -0
    with np.errstate(over="ignore"):
        return -1.0 / (1.0 + np.exp(z)) / math.log(2.0)


class _StochasticLogisticObjective:
    """Expected logistic loss of a linear scorer under a diagonal gaussian.

    For w ~ N(mu, diag(exp(lam))) the score y_i x_i . w is gaussian with
    mean a_i = y_i x_i . mu and variance v_i = sum_j exp(lam_j) x_ij^2, so
    the expectation reduces to a one-dimensional Gauss-Hermite sum per
    example, with exact gradients in (mu, lam).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, nodes: int):
        self.x = x
        self.y = y
        self.x_sq = x * x
        t, w = gauss_hermite(nodes)
        self.t = math.sqrt(2.0) * t
        self.w = w / math.sqrt(math.pi)

    def value(self, mu: np.ndarray, lam: np.ndarray) -> float:
        # overflow yields inf, which the caller's line search rejects
        with np.errstate(over="ignore", invalid="ignore"):
            a = self.y * (self.x @ mu)
            v = self.x_sq @ np.exp(lam)
            z = a[:, None] + np.sqrt(v)[:, None] * self.t[None, :]
            return float(np.mean(_logistic_bits(z) @ self.w))

    def value_and_grads(self, mu, lam) -> tuple[float, np.ndarray, np.ndarray]:
        a = self.y * (self.x @ mu)
        exp_lam = np.exp(lam)
        v = self.x_sq @ exp_lam
        sigma = np.sqrt(v)
        z = a[:, None] + sigma[:, None] * self.t[None, :]
        loss = float(np.mean(_logistic_bits(z) @ self.w))
        deriv = _logistic_bits_deriv(z)
        d_a = deriv @ self.w
        # d/dv enters through sqrt(v); zero-variance rows have zero gradient
        with np.errstate(divide="ignore", invalid="ignore"):
            d_v = np.where(v > 0.0, (deriv @ (self.w * self.t)) / (2.0 * sigma), 0.0)
        m = self.y.size
        grad_mu = (d_a * self.y) @ self.x / m
        grad_lam = (d_v @ self.x_sq) * exp_lam / m
        return loss, grad_mu, grad_lam


def dziugaite_roy_optimize(
    init_posterior: GaussianPosterior,
    data,
    b: float,
    c: float,
    delta: float,
    steps: int,
    nodes: int = GH_NODES,
) -> BoundReport:
    """Minimize the PAC-Bayes bound of a stochastic linear scorer by GD.

    The objective is surrogate(mu, lam) + sqrt((log(4m/delta_j) + KL) /
    (2m - 1)), where the prior variance lives on the grid
    lam*_j = log c - j / b with budget delta_j = 6 delta / (pi^2 j^2), so
    log(4m/delta_j) = log(2 pi^2 m j^2 / (3 delta)). During optimization j
    is treated as the continuous function b (log c - lam*); at the end lam*
    is rounded to the nearest grid point (j >= 1) and the bound is
    re-evaluated there. The surrogate is the expected base-2 logistic loss
    of the linear scorer, computed by Gauss-Hermite quadrature.

    Gradient descent uses exact analytic gradients and a backtracking line
    search that only accepts strict decreases, so the recorded objective
    trace is non-increasing. The rounding step is reported with a
    first-order estimate |d bound / d lam*| / (2 b) of the worst-case
    grid-resolution penalty; the estimate is informational.
    """
    x, y = _binary_dataset(data)
    b = float(b)
    c = float(c)
    steps = int(steps)
    if b <= 0.0 or c <= 0.0:
        raise ValueError(f"grid parameters b = {b} and c = {c} must be positive")
    if steps < 0:
        raise ValueError(f"steps = {steps} must be nonnegative")
    m, delta = _check_m_delta(x.shape[0], delta)
    if x.shape[1] != init_posterior.dim:
        raise ValueError(
            f"data dimension {x.shape[1]} != posterior dimension {init_posterior.dim}"
        )

    surrogate = _StochasticLogisticObjective(x, y, nodes)
    mu_star = init_posterior.prior_mean
    log_c = math.log(c)
    # j >= 1 keeps the grid index meaningful: lam* <= log c - 1/b
    lam_star_cap = log_c - 1.0 / b
    log_grid_const = math.log(2.0 * math.pi**2 * m / (3.0 * delta))
    denom = 2.0 * m - 1.0

    def penalty_parts(mu, lam, lam_star):
        j_cont = b * (log_c - lam_star)
        kl = _gaussian_kl(mu, lam, mu_star, lam_star)
        log_term = log_grid_const + 2.0 * math.log(j_cont)
        return j_cont, kl, math.sqrt((log_term + kl) / denom)

    def objective(mu, lam, lam_star):
        if lam_star > lam_star_cap:
            return math.inf
        try:
            loss = surrogate.value(mu, lam)
            _, _, penalty = penalty_parts(mu, lam, lam_star)
        except (OverflowError, ValueError):
            # exp(lam) or exp(-lam*) can leave float range during line search
            # probes, where gaussian_kl raises
            return math.inf
        return loss + penalty

    def gradient(mu, lam, lam_star):
        loss, g_mu, g_lam = surrogate.value_and_grads(mu, lam)
        j_cont, kl, penalty = penalty_parts(mu, lam, lam_star)
        shift = mu - mu_star
        exp_neg = math.exp(-lam_star)
        scale = 1.0 / (2.0 * denom * penalty)
        g_mu = g_mu + scale * exp_neg * shift
        g_lam = g_lam + scale * 0.5 * (exp_neg * np.exp(lam) - 1.0)
        d_lam_star = -2.0 * b / j_cont + 0.5 * (
            init_posterior.dim
            - exp_neg * (float(np.sum(np.exp(lam))) + float(shift @ shift))
        )
        g_lam_star = scale * d_lam_star
        return loss + penalty, g_mu, g_lam, g_lam_star

    mu = init_posterior.mean.copy()
    lam = init_posterior.log_var.copy()
    lam_star = init_posterior.prior_log_var
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
            # projected step: lam* may ride the j >= 1 boundary of the grid
            cand_star = min(lam_star - step * g_lam_star, lam_star_cap)
            cand = objective(mu - step * g_mu, lam - step * g_lam, cand_star)
            if cand < current:
                mu = mu - step * g_mu
                lam = lam - step * g_lam
                lam_star = cand_star
                current = cand
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        trace.append(current)
        steps_taken += 1

    # round lam* to the grid and re-evaluate the bound there
    j_cont = b * (log_c - lam_star)
    j_star = max(1, round(j_cont))
    lam_star_grid = log_c - j_star / b
    loss = surrogate.value(mu, lam)
    _, kl, penalty = penalty_parts(mu, lam, lam_star_grid)
    bound = loss + penalty
    _, _, _, g_lam_star_grid = gradient(mu, lam, lam_star_grid)
    delta_j = 6.0 * delta / (math.pi**2 * j_star**2)

    return BoundReport(
        family="dziugaite_roy",
        bound=bound,
        inputs={
            "m": m,
            "delta": delta,
            "b": b,
            "c": c,
            "steps": steps,
            "dim": init_posterior.dim,
        },
        details={
            "objective_trace": tuple(trace),
            "steps_taken": steps_taken,
            "surrogate_loss": loss,
            "kl": kl,
            "penalty": penalty,
            "j_star": j_star,
            "delta_j": delta_j,
            "lambda_star": lam_star_grid,
            "lambda_star_continuous": lam_star,
            "bound_continuous": current,
            "rounding_shift": bound - current,
            "rounding_penalty_estimate": abs(g_lam_star_grid) / (2.0 * b),
            "mean": mu,
            "log_var": lam,
        },
    )


def code_length_kl(code_bits: int, mass_fn, z: float = 1.0) -> float:
    """KL of a point mass at a code against the code-length prior, in nats.

    The prior puts mass m(|f|) 2^{-|f|} / Z on a code f of length |f| bits,
    so KL = log Z + |f| log 2 - log m(|f|).
    """
    code_bits = int(code_bits)
    z = float(z)
    if code_bits < 1:
        raise ValueError(f"code length {code_bits} must be >= 1 bit")
    if z <= 0.0:
        raise ValueError(f"normalizer Z = {z} must be positive")
    mass = float(mass_fn(code_bits))
    if mass <= 0.0:
        raise ValueError(f"prior mass m({code_bits}) = {mass} must be positive")
    return math.log(z) + code_bits * math.log(2.0) - math.log(mass)


def naive_code_length(k: int, dim_theta: int, r: int) -> float:
    """Bit count k (log2 dim + log2 r) + 32 r for a sparse quantized net.

    k nonzero locations each cost an index into the dim_theta weights plus
    an index into the r-entry codebook; the codebook itself is stored at 32
    bits per entry.
    """
    k = int(k)
    dim_theta = int(dim_theta)
    r = int(r)
    if k < 0:
        raise ValueError(f"nonzero count k = {k} must be >= 0")
    if dim_theta < 1 or r < 1:
        raise ValueError(f"need dim_theta >= 1 and r >= 1, got {dim_theta}, {r}")
    return k * (math.log2(dim_theta) + math.log2(r)) + 32.0 * r


def margin_stats(weights, config: NetConfig, dataset, gamma: float) -> MarginStats:
    """Margins and margin risks of a scalar-output net on labeled data.

    The hard risk counts y f(x) < gamma (strictly); the ramp risk is 1 for
    y f(x) <= 0, linear in between, 0 from gamma on. At gamma = 0 the hard
    risk is the plain 0/1 risk.
    """
    gamma = float(gamma)
    if gamma < 0.0:
        raise ValueError(f"gamma = {gamma} must be nonnegative")
    if config.widths[-1] != 1:
        raise ValueError(f"margins need a scalar output, got width {config.widths[-1]}")
    x, y = _binary_dataset(dataset)
    scores = forward(config, weights, x.T).output.ravel()
    margins = y * scores
    hard = float(np.mean(margins < gamma))
    if gamma == 0.0:
        ramp = (margins <= 0.0).astype(float)
    else:
        # the clip realizes all three ramp branches at once
        ramp = np.clip(1.0 - margins / gamma, 0.0, 1.0)
    return MarginStats(
        gamma=gamma,
        margins=margins,
        hard_risk=hard,
        ramp_risk=float(np.mean(ramp)),
    )
