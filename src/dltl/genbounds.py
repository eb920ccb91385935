"""Calculators for modern generalization bounds of a trained net.

Every function here evaluates a closed-form bound or optimizes one
numerically; nothing is trained and nothing is proved. The `dltl bounds`
subcommand serves three families, all from a net's weights and data:

- the spectral margin bound of Bartlett et al. via covering numbers, with
  the Dudley entropy integral optimized over its split point (norm_profile,
  bartlett_bound);
- the PAC-Bayes spectral bound of Neyshabur et al., built from per-layer
  spectral and Frobenius norms (neyshabur_bound);
- the McAllester PAC-Bayes bound with a diagonal-gaussian posterior
  (gaussian_kl, pacbayes_mcallester).

The Dziugaite-Roy optimizer of that bound over the posterior, with the
prior variance on a countable grid so the union bound stays valid
(dziugaite_roy_optimize), is served by the benchmark.

Margins follow the binary convention: labels are +-1, a scalar score z
classifies correctly when y z > 0, and the gamma-margin risk counts
y z < gamma.

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
    "norm_profile",
    "bartlett_bound",
    "neyshabur_bound",
    "gaussian_kl",
    "pacbayes_mcallester",
    "dziugaite_roy_optimize",
    "margin_stats",
]

# Default number of posterior samples for Monte Carlo risk estimates.
MC_POSTERIOR_SAMPLES = 256

# Relative slack for the norm chain check in NormProfile.
_NORM_CHAIN_TOL = 1e-9


@dataclass(frozen=True)
class MarginStats:
    """The hard gamma-margin risk: the share of examples with y_i f(x_i) < gamma."""

    hard_risk: float

    def __post_init__(self):
        if not 0.0 <= self.hard_risk <= 1.0:
            raise ValueError(f"hard margin risk {self.hard_risk} outside [0, 1]")


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


def _check_m_delta(m: int, delta: float) -> tuple[int, float]:
    m = int(m)
    delta = float(delta)
    if m < 1:
        raise ValueError(f"sample size m = {m} must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"confidence delta = {delta} must lie in (0, 1)")
    return m, delta


def _log_over_delta(numerator: float, delta: float) -> float:
    """log(numerator / delta), rejecting a delta so small that the quotient
    overflows (a bound of inf, or one clamped to 1, would hide it)."""
    quotient = numerator / delta
    if quotient == math.inf:
        raise ValueError(f"confidence delta = {delta} is too small: {numerator:g} / delta overflows")
    return math.log(quotient)


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
    hoeffding = math.sqrt(_log_over_delta(1.0, delta) / (2.0 * m))

    in_regime = log_arg < 1.0
    rademacher = 12.0 / m * scaled * (1.0 - math.log(log_arg))
    if not (math.isfinite(eps_opt) and math.isfinite(rademacher)):
        raise ValueError(
            f"the scaled complexity C |X|_F R / gamma = {scaled:g} leaves float range "
            f"(|X|_F = {x_norm_f:g}, gamma = {gamma:g})"
        )
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

    try:
        fit = (B * complexity / gamma) ** 2
    except OverflowError:  # float ** raises where * would give inf
        fit = math.inf
    penalty_sq = (
        _log_over_delta(8.0 * depth * m, delta)
        + math.log(m) / (2.0 * depth)
        + 8.0
        * math.e**4
        * fit
        * depth**2
        * width
        * math.log(2.0 * depth * width)
    ) / (2.0 * m - 1.0)
    if not math.isfinite(penalty_sq):
        raise ValueError(
            f"the penalty overflows: B R(theta) / gamma = {B * complexity / gamma:g} "
            f"(B = {B:g}, gamma = {gamma:g})"
        )
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


def gaussian_kl(mean: np.ndarray, log_var: np.ndarray, prior_mean: np.ndarray, prior_log_var: float) -> float:
    """KL(N(mu, diag(exp(lam))) || N(mu*, exp(lam*) I)) for diagonal gaussians,
    on a GaussianPosterior's mean, log_var, prior_mean and prior_log_var:

    KL = (1/2) (exp(-lam*) (sum(exp(lam)) + |mu - mu*|^2)
          + d lam* - sum(lam) - d).

    The exp(-lam*) factor multiplies both the variance sum and the mean
    shift, and the - sum(lam) - d part makes KL vanish exactly when the
    posterior equals the prior. A posterior variance exp(lam) or a mean
    shift whose square overflows, or a non-finite entry, gives a KL that is
    not finite, which raises ValueError; a prior precision exp(-lam*) that
    overflows raises OverflowError.
    """
    shift = mean - prior_mean
    d = mean.size
    with np.errstate(over="ignore", invalid="ignore"):
        kl = 0.5 * (
            math.exp(-prior_log_var) * (float(np.sum(np.exp(log_var))) + float(shift @ shift))
            + d * prior_log_var
            - float(np.sum(log_var))
            - d
        )
    if not math.isfinite(kl):
        raise ValueError(f"KL divergence {kl} is not finite: a posterior variance or the mean shift overflows")
    # KL >= 0 analytically; tiny negatives are roundoff from cancellation
    return max(kl, 0.0)


def _mcallester_penalty(kl: float, m: int, delta: float) -> float:
    return math.sqrt((_log_over_delta(4.0 * m, delta) + kl) / (2.0 * m - 1.0))


def pacbayes_mcallester(
    m: int,
    delta: float,
    posterior: GaussianPosterior,
    risk_fn,
    samples: int = MC_POSTERIOR_SAMPLES,
    seed: int = 0,
) -> BoundReport:
    """McAllester bound E_{theta ~ Q} risk + sqrt((log(4m/delta) + KL) / (2m - 1)).

    KL is that of the GaussianPosterior Q to its prior (gaussian_kl). The
    risk term is estimated by Monte Carlo: risk_fn(theta) -> [0, 1] averaged
    over `samples` (at least 2) posterior draws from the stream `seed`; the
    standard error of that estimate is reported alongside.
    """
    m, delta = _check_m_delta(m, delta)
    kl = gaussian_kl(posterior.mean, posterior.log_var, posterior.prior_mean, posterior.prior_log_var)
    penalty = _mcallester_penalty(kl, m, delta)

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

    return BoundReport(
        family="pacbayes_mcallester",
        bound=risk + penalty,
        inputs={"m": m, "delta": delta, "samples": samples},
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


def _logistic_surrogate(x: np.ndarray, y: np.ndarray):
    """Expected logistic loss of a linear scorer under a diagonal gaussian.

    For w ~ N(mu, diag(exp(lam))) the score y_i x_i . w is gaussian with
    mean a_i = y_i x_i . mu and variance v_i = sum_j exp(lam_j) x_ij^2, so
    the expectation reduces to a one-dimensional Gauss-Hermite sum per
    example. Returns (mu, lam) -> (loss, grads), where grads() gives the
    exact gradients in (mu, lam) from the same sums when a step needs them.
    """
    x_sq = x * x
    t, w = gauss_hermite(GH_NODES)
    t = math.sqrt(2.0) * t
    w = w / math.sqrt(math.pi)
    w_t = w * t
    m = y.size

    def evaluate(mu: np.ndarray, lam: np.ndarray):
        # overflow yields inf or nan, which the caller's line search rejects
        with np.errstate(over="ignore", invalid="ignore"):
            a = y * (x @ mu)
            exp_lam = np.exp(lam)
            v = x_sq @ exp_lam
            sigma = np.sqrt(v)
            z = a[:, None] + sigma[:, None] * t[None, :]
            loss = float(np.mean(_logistic_bits(z) @ w))

        def grads() -> tuple[np.ndarray, np.ndarray]:
            deriv = _logistic_bits_deriv(z)
            # d/dv enters through sqrt(v); zero-variance rows have zero gradient
            with np.errstate(divide="ignore", invalid="ignore"):
                d_v = np.where(v > 0.0, (deriv @ w_t) / (2.0 * sigma), 0.0)
            return (deriv @ w * y) @ x / m, (d_v @ x_sq) * exp_lam / m

        return loss, grads

    return evaluate


def dziugaite_roy_optimize(
    init_posterior: GaussianPosterior,
    data,
    b: float,
    c: float,
    delta: float,
    steps: int,
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

    surrogate = _logistic_surrogate(x, y)
    mu_star = init_posterior.prior_mean
    log_c = math.log(c)
    # j >= 1 keeps the grid index meaningful: lam* <= log c - 1/b
    lam_star_cap = log_c - 1.0 / b
    log_grid_const = math.log(2.0 * math.pi**2 * m / (3.0 * delta))
    denom = 2.0 * m - 1.0

    def evaluate(mu, lam, lam_star):
        """The objective at one point, grads() for its gradients in (mu, lam,
        lam*), and the (loss, KL, penalty) it sums; raises where the KL does."""
        loss, surrogate_grads = surrogate(mu, lam)
        j_cont = b * (log_c - lam_star)
        kl = gaussian_kl(mu, lam, mu_star, lam_star)
        penalty = math.sqrt((log_grid_const + 2.0 * math.log(j_cont) + kl) / denom)

        def grads():
            g_mu, g_lam = surrogate_grads()
            shift = mu - mu_star
            exp_neg = math.exp(-lam_star)
            scale = 1.0 / (2.0 * denom * penalty)
            g_mu = g_mu + scale * exp_neg * shift
            g_lam = g_lam + scale * 0.5 * (exp_neg * np.exp(lam) - 1.0)
            d_lam_star = -2.0 * b / j_cont + 0.5 * (
                init_posterior.dim - exp_neg * (float(np.sum(np.exp(lam))) + float(shift @ shift))
            )
            return g_mu, g_lam, scale * d_lam_star

        return loss + penalty, grads, (loss, kl, penalty)

    def probe(mu, lam, lam_star):
        """(objective, grads) at a line-search point; the objective is inf above
        the grid cap and where exp(lam) or exp(-lam*) leaves float range."""
        if lam_star > lam_star_cap:
            return math.inf, None
        try:
            objective, grads, _ = evaluate(mu, lam, lam_star)
        except (OverflowError, ValueError):
            return math.inf, None
        return objective, grads

    mu = init_posterior.mean.copy()
    lam = init_posterior.log_var.copy()
    lam_star = init_posterior.prior_log_var
    current, grads = probe(mu, lam, lam_star)
    if not math.isfinite(current):
        raise ValueError(
            f"non-finite objective at the initial posterior (lam* = {lam_star}, "
            f"grid cap = {lam_star_cap})"
        )

    trace = [current]
    for _ in range(steps):
        g_mu, g_lam, g_lam_star = grads()
        step = 1.0
        for _ in range(60):
            # projected step: lam* may ride the j >= 1 boundary of the grid
            cand = (mu - step * g_mu, lam - step * g_lam, min(lam_star - step * g_lam_star, lam_star_cap))
            value, cand_grads = probe(*cand)
            if value < current:
                break
            step *= 0.5
        else:
            break
        (mu, lam, lam_star), current, grads = cand, value, cand_grads
        trace.append(current)

    # round lam* to the grid and re-evaluate the bound there
    j_cont = b * (log_c - lam_star)
    j_star = max(1, round(j_cont))
    lam_star_grid = log_c - j_star / b
    bound, grid_grads, (loss, kl, penalty) = evaluate(mu, lam, lam_star_grid)
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
            "steps_taken": len(trace) - 1,
            "surrogate_loss": loss,
            "kl": kl,
            "penalty": penalty,
            "j_star": j_star,
            "delta_j": delta_j,
            "lambda_star": lam_star_grid,
            "lambda_star_continuous": lam_star,
            "bound_continuous": current,
            "rounding_shift": bound - current,
            "rounding_penalty_estimate": abs(grid_grads()[2]) / (2.0 * b),
            "mean": mu,
            "log_var": lam,
        },
    )


def margin_stats(weights, config: NetConfig, dataset, gamma: float) -> MarginStats:
    """The margin risk of a scalar-output net on labeled data.

    The hard risk counts y f(x) < gamma (strictly). At gamma = 0 it is the
    plain 0/1 risk. Scores that are not finite are an error: a nan margin
    would count as correct.
    """
    gamma = float(gamma)
    if gamma < 0.0:
        raise ValueError(f"gamma = {gamma} must be nonnegative")
    if config.widths[-1] != 1:
        raise ValueError(f"margins need a scalar output, got width {config.widths[-1]}")
    x, y = _binary_dataset(dataset)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        scores = forward(config, weights, x.T).output.ravel()
    if not np.all(np.isfinite(scores)):
        raise ValueError("the net's scores are not finite on the data")
    return MarginStats(hard_risk=float(np.mean(y * scores < gamma)))
