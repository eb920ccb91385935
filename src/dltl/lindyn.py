"""Gradient-descent dynamics of deep linear networks, mode by mode.

With whitened inputs and an orthogonally aligned initialization the loss
1/2 ||S - W_L ... W_0||_F^2 decouples into independent scalar modes: each
target singular value s is chased by the product u = a_0 ... a_L of one
diagonal entry per layer, and under the balanced ansatz (all a_l equal) the
continuous-time limit of GD reads

    du/dt = eta (L+1) u^{2L/(L+1)} (s - u),

with t counted in GD steps. The module serves three things:

- mode_time: the closed-form arrival time (exact for L = 1, the
  u^2-exponent approximation for deep nets), always next to a numerical
  integration of the exact exponent (RK4 in the logit ln(u/(s-u)),
  which is composite Simpson since the integrand does not depend on t), so
  the approximation gap is measured rather than trusted;
- opt_schedule: the learning rate 1 / max lambda1 set by the peak mode
  Hessian eigenvalue, and the arrival time it gives;
- simulate_deep_linear_gd: discrete full-matrix GD built from genuine
  weight matrices.

The tests hold them to an RK4 trajectory of the mode ODE, a numerical
Hessian of the mode loss and the GD simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netcore import _check_positive, haar_orthogonal

__all__ = [
    "ModeTimeResult",
    "OptSchedule",
    "GDSimulation",
    "mode_time",
    "opt_schedule",
    "simulate_deep_linear_gd",
]


def _check_depth_and_target(s: float, L: int) -> None:
    if L < 1:
        raise ValueError(f"need at least one hidden layer, got L = {L}")
    _check_positive("target singular value", s)


def _check_start(u0: float) -> None:
    if u0 == 0:
        raise ValueError("u0 = 0 sits at the degenerate fixed point; the mode never moves")
    if not u0 > 0:
        raise ValueError(f"u0 must be positive, got {u0}")


def _check_mode_args(u0: float, uf: float, s: float, L: int) -> None:
    _check_depth_and_target(s, L)
    _check_start(u0)
    if not u0 < uf:
        raise ValueError(f"need 0 < u0 < uf, got u0 = {u0}, uf = {uf}")
    if uf >= s:
        raise ValueError(f"uf = {uf} is not reachable in finite time (target s = {s})")


def _log_ratio(u0: float, uf: float, s: float) -> float:
    # ln( uf (u0 - s) / (u0 (uf - s)) ), positive for 0 < u0 < uf < s, as a
    # sum of logs: the quotient overflows for a subnormal u0
    return math.log(uf) + math.log(s - u0) - math.log(u0) - math.log(s - uf)


def _finite_time(t: float, u0: float, eta: float | None = None) -> float:
    """t, or a ValueError where it leaves float range, naming the rate eta
    when given (the caller found it the cause) and u0 otherwise."""
    if t == math.inf:
        cause = f"at learning rate {eta}" if eta is not None else f"from u0 = {u0}"
        raise ValueError(f"the arrival time {cause} leaves float range")
    return t


@dataclass(frozen=True)
class ModeTimeResult:
    """Closed-form arrival time next to the numerically integrated value for
    the exact ODE (t_rk4: RK4 in the logit ln(u/(s-u)), that is composite
    Simpson)."""

    t_formula: float
    t_rk4: float


def mode_time(u0: float, uf: float, s: float, eta: float, L: int) -> ModeTimeResult:
    """Time for the mode product to travel u0 -> uf.

    L = 1: the ODE is integrable, t = (1/(2 s eta)) ln(uf (u0-s) / (u0 (uf-s))).
    L >= 2: the u^{2L/(L+1)} ~ u^2 approximation,
    t = (1/((L+1) s eta)) (1/u0 - 1/uf + (1/s) ln(uf (u0-s) / (u0 (uf-s)))).
    Both come with the arrival time for the exact exponent, integrated
    numerically in the logit ln(u/(s-u)) (t_rk4).
    """
    _check_positive("learning rate", eta)
    _check_mode_args(u0, uf, s, L)
    lr = _log_ratio(u0, uf, s)
    if L == 1:
        n, d = lr, 2.0 * s * eta
    else:
        n, d = 1.0 / u0 - 1.0 / uf + lr / s, (L + 1) * s * eta
    with np.errstate(over="ignore", divide="ignore"):  # an infinite time raises below
        t_formula = n / d if d else math.inf
        t_rk4 = _arrival_time_rk4(u0, uf, s, eta, L)
    # both times scale as n / d, about 1/(u0 eta) for L >= 2 and ln(1/u0)/eta
    # for L = 1; where one leaves float range, the larger of n and 1/d is the cause
    cause = eta if n * d < 1 else None
    return ModeTimeResult(_finite_time(t_formula, u0, cause), _finite_time(t_rk4, u0, cause))


RK4_STEPS = 4096  # steps in the logit v = ln(u / (s - u)) from u0 to uf


def _arrival_time_rk4(u0: float, uf: float, s: float, eta: float, L: int) -> float:
    """Integrate dt/dv for the logit v = ln(u / (s - u)), which maps
    0 < u < s onto the whole line. With u = s / (1 + e^{-v}) and
    du/dv = u (s - u) / s, the integrand is u^{(1-L)/(1+L)} / ((L+1) eta s):
    it stays smooth in v down to small u0, as it would in ln u, and unlike
    the 1/(s - u) of ln u it stays bounded as uf nears s. At L = 1 it is
    the constant 1/(2 eta s).

    The integrand does not depend on t, so each RK4 step is a Simpson panel
    and k4 of one step is k1 of the next: the integrand is evaluated once on
    the RK4_STEPS + 1 nodes and the RK4_STEPS midpoints. The nodes
    accumulate h one step at a time and the panels are added in step order
    (cumsum, not the pairwise sum), so the rounding is that of RK4 stepping.
    """
    ex = (1.0 - L) / (1.0 + L)
    log_s = math.log(s)

    def g(v: np.ndarray) -> np.ndarray:
        # u^ex through ln u = ln s + v - ln(1 + e^v), which stays finite for
        # the v of a tiny u0, where e^v underflows to 0
        return np.exp(ex * (log_s + v - np.log1p(np.exp(v)))) / (eta * (L + 1) * s)

    v0 = math.log(u0) - math.log(s - u0)
    h = (math.log(uf) - math.log(s - uf) - v0) / RK4_STEPS
    v = np.cumsum(np.concatenate(([v0], np.full(RK4_STEPS, h))))
    k = g(v)
    panels = (h / 6.0) * (k[:-1] + 4.0 * g(v[:-1] + 0.5 * h) + k[1:])
    return float(np.cumsum(panels)[-1])


@dataclass(frozen=True)
class OptSchedule:
    eta_opt: float
    t_opt: float


def opt_schedule(u0: float, uf: float, s: float, L: int) -> OptSchedule:
    """eta_opt = 1 / ((L+1) s^{2L/(L+1)}) (reciprocal of the peak Hessian
    eigenvalue; the proportionality constant is fixed to 1), and the
    resulting arrival time t_opt = s^{(L-1)/(L+1)} (1/u0 - 1/uf
    + (1/s) ln(uf (u0-s)/(u0 (uf-s)))), which loses its L-dependence as L
    grows."""
    _check_mode_args(u0, uf, s, L)
    eta_opt = _opt_rate(s, L)
    t_opt = _finite_time(s ** ((L - 1.0) / (L + 1.0)) * (1.0 / u0 - 1.0 / uf + _log_ratio(u0, uf, s) / s), u0)
    return OptSchedule(eta_opt=eta_opt, t_opt=t_opt)


def _opt_rate(s: float, L: int) -> float:
    """eta_opt = 1 / ((L+1) s^{2L/(L+1)}) for the mode of target s; it reads
    neither u0 nor uf."""
    _check_depth_and_target(s, L)
    try:
        peak = (L + 1) * s ** (2.0 * L / (L + 1))
    except OverflowError:
        raise ValueError(f"target s = {s} is too large: s^(2L/(L+1)) overflows") from None
    eta = 1.0 / peak if peak else math.inf  # peak underflows to 0 for a tiny s
    if eta == math.inf:
        raise ValueError(f"target s = {s} is too small: 1 / ((L+1) s^(2L/(L+1))) overflows")
    return eta


@dataclass(frozen=True)
class GDSimulation:
    """Discrete GD trace: losses[k] and mode products u[k, j] after k steps."""

    eta: float
    steps_to_tol: int
    losses: np.ndarray
    u: np.ndarray
    targets: np.ndarray


def simulate_deep_linear_gd(
    width: int,
    L: int,
    target_svals,
    eta: float,
    seed: int = 0,
    u0=0.01,
    tol_loss: float | None = None,
    max_steps: int = 200_000,
) -> GDSimulation:
    """Full-matrix GD on 1/2 ||S - W_L ... W_0||_F^2 with width x width layers.

    Weights start as W_l = R_{l+1} D_l R_l^T with Haar-orthogonal R's
    (R_0 = R_{L+1} = I) and balanced diagonals D_l = diag(u0)^{1/(L+1)}, so
    the matrix iteration realizes the decoupled mode dynamics through actual
    dense matrices rather than by fiat. Targets beyond len(target_svals) are
    zero. Runs until loss <= tol_loss (default 1e-4 sum s^2); a loss that is
    not finite or above 10x its initial value aborts with the offending
    learning rate.
    """
    svals = np.asarray(target_svals, dtype=float)
    if svals.ndim != 1 or svals.size == 0:
        raise ValueError("target_svals must be a nonempty 1-D sequence")
    if svals.size > width:
        raise ValueError(f"{svals.size} targets do not fit width {width}")
    with np.errstate(over="ignore"):
        sum_sq = float(np.sum(svals**2))
    if not math.isfinite(sum_sq):
        raise ValueError("target_svals must be finite, with a finite sum of squares")
    if L < 0:
        raise ValueError(f"depth L must be >= 0, got {L}")
    _check_positive("learning rate", eta)
    if tol_loss is not None and not (tol_loss >= 0 and math.isfinite(tol_loss)):
        raise ValueError(f"tol_loss must be finite and >= 0, got {tol_loss}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    targets = np.zeros(width)
    targets[: svals.size] = svals
    u_init = np.broadcast_to(np.asarray(u0, dtype=float), (width,)).copy()
    if not np.all(u_init >= 0):
        raise ValueError("initial mode products must be nonnegative")
    if tol_loss is None:
        tol_loss = 1e-4 * sum_sq

    rng = np.random.default_rng(seed)
    rots = [np.eye(width)]
    rots += [haar_orthogonal(width, rng) for _ in range(L)]
    rots.append(np.eye(width))
    d_init = np.diag(u_init ** (1.0 / (L + 1)))
    weights = np.stack([rots[l + 1] @ d_init @ rots[l].T for l in range(L + 1)])
    s_mat = np.diag(targets)
    # prefix[l] = W_{l-1} ... W_0 and suffix[l] = W_L ... W_{l+1}, the
    # factors on either side of W_l; the identity ends never change
    prefix = np.empty_like(weights)
    suffix = np.empty_like(weights)
    prefix[0] = suffix[L] = np.eye(width)

    losses, u_hist = [], []
    steps_to_tol = -1
    # overflow shows as a loss that is not finite, which aborts the run
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_steps + 1):
            if L:
                prefix[1] = weights[0]
                suffix[L - 1] = weights[L]
            for l in range(2, L + 1):
                np.matmul(weights[l - 1], prefix[l - 1], out=prefix[l])
                np.matmul(suffix[L - l + 1], weights[L - l + 1], out=suffix[L - l])
            p = weights[L] @ prefix[L]
            resid = s_mat - p
            loss = 0.5 * float((resid**2).sum())
            losses.append(loss)
            u_hist.append(p.diagonal().copy())
            if not math.isfinite(loss):
                raise RuntimeError(f"GD diverged at step {k} with eta = {eta}: the loss is {loss}")
            if loss <= tol_loss:
                steps_to_tol = k
                break
            if k == 0:
                loss0 = loss
            elif loss > 10.0 * loss0:
                raise RuntimeError(f"GD diverged at step {k} with eta = {eta}")
            if k == max_steps:
                break
            # dL/dW_l = -A^T (S - P) B^T for P = A W_l B, all layers at once
            grads = np.matmul(np.matmul(-suffix.transpose(0, 2, 1), resid), prefix.transpose(0, 2, 1))
            weights -= eta * grads
    if steps_to_tol < 0:
        raise RuntimeError(f"loss {losses[-1]:g} still above tol {tol_loss:g} after {max_steps} steps")
    return GDSimulation(
        eta=eta,
        steps_to_tol=steps_to_tol,
        losses=np.array(losses),
        u=np.array(u_hist),
        targets=targets,
    )
