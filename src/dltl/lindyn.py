"""Gradient-descent dynamics of deep linear networks, mode by mode.

With whitened inputs and an orthogonally aligned initialization the loss
1/2 ||S - W_L ... W_0||_F^2 decouples into independent scalar modes: each
target singular value s is chased by the product u = a_0 ... a_L of one
diagonal entry per layer, and under the balanced ansatz (all a_l equal) the
continuous-time limit of GD reads

    du/dt = eta (L+1) u^{2L/(L+1)} (s - u),

with t counted in GD steps. The module evaluates the closed-form arrival
times (exact for L = 1, the u^2-exponent approximation for deep nets), always
next to a numerical integration of the exact exponent (RK4 in ln u, which is
composite Simpson since the integrand does not depend on t) so the
approximation gap is measured rather than trusted; the mode Hessian
eigenvalues and the resulting optimal learning rate; and a discrete
full-matrix GD simulation built from genuine weight matrices, against which
all of the above is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netcore import haar_orthogonal

__all__ = [
    "ModeTimeResult",
    "HessianModeEigs",
    "OptSchedule",
    "GDSimulation",
    "mode_time",
    "integrate_mode_ode",
    "integrate_shallow_pair",
    "hessian_mode_eigs",
    "hessian_lambda1_max",
    "opt_schedule",
    "simulate_deep_linear_gd",
]


def _check_positive(what: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {value}")


def _check_mode_args(u0: float, uf: float, s: float, L: int) -> None:
    if L < 1:
        raise ValueError(f"need at least one hidden layer, got L = {L}")
    _check_positive("target singular value", s)
    if u0 == 0:
        raise ValueError("u0 = 0 sits at the degenerate fixed point; the mode never moves")
    if not 0 < u0 <= uf:
        raise ValueError(f"need 0 < u0 <= uf, got u0 = {u0}, uf = {uf}")
    if uf >= s:
        raise ValueError(f"uf = {uf} is not reachable in finite time (target s = {s})")


def _crossed_zero(x: float, start: float, slack: float = 0.0) -> bool:
    """x lies on the other side of zero from start, by more than slack."""
    return x < -slack and start > 0 or x > slack and start < 0


def _log_ratio(u0: float, uf: float, s: float) -> float:
    # ln( uf (u0 - s) / (u0 (uf - s)) ), positive for 0 < u0 <= uf < s
    return math.log(uf * (s - u0) / (u0 * (s - uf)))


@dataclass(frozen=True)
class ModeTimeResult:
    """Closed-form arrival time next to the numerically integrated value for
    the exact ODE (t_rk4: RK4 in ln u, that is composite Simpson)."""

    t_formula: float
    t_rk4: float
    L: int

    @property
    def exact_formula(self) -> bool:
        """True when the closed form integrates the ODE exactly (L = 1)."""
        return self.L == 1


def mode_time(u0: float, uf: float, s: float, eta: float, L: int) -> ModeTimeResult:
    """Time for the mode product to travel u0 -> uf.

    L = 1: the ODE is integrable, t = (1/(2 s eta)) ln(uf (u0-s) / (u0 (uf-s))).
    L >= 2: the u^{2L/(L+1)} ~ u^2 approximation,
    t = (1/((L+1) s eta)) (1/u0 - 1/uf + (1/s) ln(uf (u0-s) / (u0 (uf-s)))).
    Both come with the arrival time for the exact exponent, integrated
    numerically in ln u (t_rk4).
    """
    _check_positive("learning rate", eta)
    _check_mode_args(u0, uf, s, L)
    if u0 == uf:
        return ModeTimeResult(t_formula=0.0, t_rk4=0.0, L=L)
    lr = _log_ratio(u0, uf, s)
    if L == 1:
        t_formula = lr / (2.0 * s * eta)
    else:
        t_formula = (1.0 / u0 - 1.0 / uf + lr / s) / ((L + 1) * s * eta)
    return ModeTimeResult(t_formula=t_formula, t_rk4=_arrival_time_rk4(u0, uf, s, eta, L), L=L)


def _arrival_time_rk4(u0: float, uf: float, s: float, eta: float, L: int, steps: int = 4096) -> float:
    """Integrate dt/dv for v = ln u; the integrand u^{(1-L)/(1+L)} / ((L+1) eta (s-u))
    stays smooth in v all the way down to small u0.

    The integrand does not depend on t, so each RK4 step is a Simpson panel
    and k4 of one step is k1 of the next: the integrand is evaluated once on
    the steps + 1 nodes and the steps midpoints. The nodes accumulate h one
    step at a time and the panels are added in step order (cumsum, not the
    pairwise sum), so the rounding is that of RK4 stepping.
    """
    ex = (1.0 - L) / (1.0 + L)

    def g(v: np.ndarray) -> np.ndarray:
        u = np.exp(v)
        return u**ex / (eta * (L + 1) * (s - u))

    h = (math.log(uf) - math.log(u0)) / steps
    v = np.cumsum(np.concatenate(([math.log(u0)], np.full(steps, h))))
    k = g(v)
    panels = (h / 6.0) * (k[:-1] + 4.0 * g(v[:-1] + 0.5 * h) + k[1:])
    return float(np.cumsum(panels)[-1])


def integrate_mode_ode(u0: float, s: float, eta: float, L: int, t_grid: np.ndarray, substeps: int = 16) -> np.ndarray:
    """RK4 for du/dt = eta (L+1) u^{2L/(L+1)} (s - u) on the given time grid.

    The flow keeps the sign of u, so a step that leaves u non-finite or
    across zero raises RuntimeError: eta times the step is too large.
    """
    if not math.isfinite(u0):
        raise ValueError(f"u0 must be finite, got {u0}")
    if L < 1:
        raise ValueError(f"need at least one hidden layer, got L = {L}")
    _check_positive("target singular value", s)
    _check_positive("learning rate", eta)
    if substeps < 1:
        raise ValueError(f"substeps must be a positive integer, got {substeps}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must be a nonempty 1-D array of finite times")
    ex = 2.0 * L / (L + 1.0)

    def f(u: float) -> float:
        return eta * (L + 1) * max(u, 0.0) ** ex * (s - u)

    out = np.empty_like(t_grid)
    u, t = float(u0), float(t_grid[0])
    out[0] = u
    for i in range(1, t_grid.size):
        h = (t_grid[i] - t) / substeps
        for _ in range(substeps):
            k1 = f(u)
            k2 = f(u + 0.5 * h * k1)
            k3 = f(u + 0.5 * h * k2)
            k4 = f(u + h * k3)
            u += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not math.isfinite(u) or _crossed_zero(u, u0):
                raise RuntimeError(f"RK4 diverged before t = {t_grid[i]} with eta = {eta}: u = {u}")
        t = t_grid[i]
        out[i] = u
    return out


def integrate_shallow_pair(
    a0: float, b0: float, s: float, eta: float, t_max: float, steps: int = 2000
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 for the unbalanced shallow pair da/dt = eta (s - ab) b,
    db/dt = eta (s - ab) a, whose flow conserves a^2 - b^2.

    The flow also keeps the signs of a + b and a - b, as (a +- b)' =
    +-eta (s - ab) (a +- b); a step that leaves a or b non-finite or either
    sum across zero raises RuntimeError: eta times the step is too large.
    A start balanced to the last bits keeps one sum at the rounding level
    of a and b, so a crossing within 1e-8 (|a| + |b|) does not count.
    """
    if not (math.isfinite(a0) and math.isfinite(b0)):
        raise ValueError(f"a0 and b0 must be finite, got {a0} and {b0}")
    _check_positive("target singular value", s)
    _check_positive("learning rate", eta)
    _check_positive("t_max", t_max)
    if steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps}")
    a, b = float(a0), float(b0)
    traj_a, traj_b = [a], [b]
    h = t_max / steps

    def f(a: float, b: float) -> tuple[float, float]:
        r = eta * (s - a * b)
        return r * b, r * a

    for step in range(1, steps + 1):
        k1a, k1b = f(a, b)
        k2a, k2b = f(a + 0.5 * h * k1a, b + 0.5 * h * k1b)
        k3a, k3b = f(a + 0.5 * h * k2a, b + 0.5 * h * k2b)
        k4a, k4b = f(a + h * k3a, b + h * k3b)
        a += (h / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
        b += (h / 6.0) * (k1b + 2 * k2b + 2 * k3b + k4b)
        slack = 1e-8 * (abs(a) + abs(b))  # not finite once a or b is not
        if not math.isfinite(slack) or _crossed_zero(a + b, a0 + b0, slack) or _crossed_zero(a - b, a0 - b0, slack):
            raise RuntimeError(f"RK4 diverged at step {step} with eta = {eta}: a = {a}, b = {b}")
        traj_a.append(a)
        traj_b.append(b)
    return np.array(traj_a), np.array(traj_b)


@dataclass(frozen=True)
class HessianModeEigs:
    """Eigenvalues of one mode's (L+1)x(L+1) Hessian at a balanced point a."""

    lambda1: float
    lambda_rest: float


def hessian_mode_eigs(a: float, s: float, L: int) -> HessianModeEigs:
    """lambda1 = (1+2L) a^{2L} - s L a^{L-1} along [1,...,1]; the remaining
    L-fold eigenvalue is s a^{L-1} - a^{2L}."""
    if not 0 <= a < math.inf:
        raise ValueError(f"balanced coordinate must be finite and nonnegative, got {a}")
    if not math.isfinite(s):
        raise ValueError(f"target singular value must be finite, got {s}")
    if L < 1:
        raise ValueError(f"need at least one hidden layer, got L = {L}")
    a_2L = float(a) ** (2 * L)
    a_Lm1 = float(a) ** (L - 1)
    return HessianModeEigs(
        lambda1=(1 + 2 * L) * a_2L - s * L * a_Lm1,
        lambda_rest=s * a_Lm1 - a_2L,
    )


def hessian_lambda1_max(s: float, L: int, points: int = 20001) -> tuple[float, float]:
    """Grid-searched max of lambda1 over a in [0, s^{1/(L+1)}]; the analytic
    answer is (1+L) s^{2L/(L+1)}, attained at the right endpoint."""
    if L < 1:
        raise ValueError(f"need at least one hidden layer, got L = {L}")
    _check_positive("target singular value", s)
    if points < 2:
        raise ValueError(f"points must be at least 2, got {points}")
    grid = np.linspace(0.0, s ** (1.0 / (L + 1)), points)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = (1 + 2 * L) * grid ** (2 * L) - s * L * grid ** (L - 1)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"target s = {s} is too large: lambda1 overflows on the grid")
    i = int(np.argmax(vals))
    return float(vals[i]), float(grid[i])


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
    try:
        eta_opt = 1.0 / ((L + 1) * s ** (2.0 * L / (L + 1)))
    except OverflowError:
        raise ValueError(f"target s = {s} is too large: s^(2L/(L+1)) overflows") from None
    t_opt = s ** ((L - 1.0) / (L + 1.0)) * (1.0 / u0 - 1.0 / uf + _log_ratio(u0, uf, s) / s)
    return OptSchedule(eta_opt=eta_opt, t_opt=t_opt)


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
    if np.any(u_init < 0):
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
