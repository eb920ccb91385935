"""Constructive loss-landscape tools: first-layer reconstruction and
piecewise paths of non-increasing loss between weight configurations.

The decreasing-width, invertible-activation regime admits an explicit right
inverse of the network's output map: pull a target output back through
right inverses of the upper layers and the activation, then project onto the
data via the left inverse of X. Every path below is assembled from three
kinds of segment built on that reconstruction:

* first-layer segments: move W_0 to its reconstructed twin at fixed upper
  weights. The output is linear in W_0, so for a linear activation the
  output (and the loss) is exactly constant along the straight line; for
  leaky_relu no loss-constant construction is known, so the segment is
  monitored and rejected loudly if the recorded loss rises.
* upper-weight segments: interpolate W_{1:L} between two full-rank
  configurations while re-reconstructing W_0 at every grid point, freezing
  the output entirely. Rank is monitored along the way; a segment that
  loses rank is subdivided through a random full-rank midpoint.
* output segments: move the output itself along the convex combination
  H(t) = (1-t) H_A + t H_tilde, realized through W_0; convexity of the loss
  in the output caps the recorded loss by the chord.

A path keeps its losses, not its networks: each grid point's weights are
scored as they are built and then dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .netcore import NetConfig, _check_at_least, forward

__all__ = [
    "PathSegment",
    "PathTrace",
    "left_inverse",
    "right_inverse",
    "square_loss",
    "logistic_loss",
    "reconstruct_first_layer",
    "constant_loss_path",
]

RANK_RTOL = 1e-8
MAX_GRID_POINTS = 100_000  # as the CLI's MAX_RANGE_POINTS; each point is a forward pass per leg


def _assert_full_rank(mat: np.ndarray, name: str) -> None:
    s = np.linalg.svd(mat, compute_uv=False)
    if s[-1] <= RANK_RTOL * s[0]:
        raise ValueError(
            f"{name} is rank deficient: smallest singular value {s[-1]:.3e} "
            f"vs largest {s[0]:.3e}"
        )


def _is_full_rank(mat: np.ndarray) -> bool:
    s = np.linalg.svd(mat, compute_uv=False)
    return s[-1] > RANK_RTOL * s[0]


def left_inverse(x: np.ndarray, name: str = "X") -> np.ndarray:
    """(X^T X)^{-1} X^T for full column rank X; left_inverse(X) @ X = I."""
    if x.shape[1] > x.shape[0]:
        raise ValueError(f"{name} has more columns than rows; no left inverse")
    _assert_full_rank(x, name)
    return np.linalg.solve(x.T @ x, x.T)


def right_inverse(w: np.ndarray, name: str = "W") -> np.ndarray:
    """W^T (W W^T)^{-1} for full row rank W; W @ right_inverse(W) = I."""
    if w.shape[0] > w.shape[1]:
        raise ValueError(f"{name} has more rows than columns; no right inverse")
    _assert_full_rank(w, name)
    return np.linalg.solve(w @ w.T, w).T


def square_loss(outputs: np.ndarray, y: np.ndarray) -> float:
    m = outputs.shape[-1]
    return 0.5 * float(np.sum((outputs - y) ** 2)) / m


def logistic_loss(outputs: np.ndarray, y: np.ndarray) -> float:
    """Mean log(1 + exp(-y h)) for labels y in {-1, +1}; convex in h with
    infimum 0 approached as h -> y * inf."""
    z = -y * outputs
    # stable log1p(exp(z))
    return float(np.mean(np.logaddexp(0.0, z)))


_LOSSES = {"square": square_loss, "logistic": logistic_loss}


def _check_reconstruct_shapes(config: NetConfig) -> None:
    if config.activation.kind not in ("linear", "leaky_relu"):
        raise ValueError(
            f"activation {config.activation} is not bijective on R; reconstruction needs "
            "linear or leaky_relu"
        )
    for l in range(1, config.n_layers):
        if config.widths[l] <= config.widths[l + 1]:
            raise ValueError(
                f"need strictly decreasing widths above the first layer, got "
                f"n_{l} = {config.widths[l]} <= n_{l + 1} = {config.widths[l + 1]}"
            )


def reconstruct_first_layer(
    config: NetConfig, weights: list[np.ndarray], x: np.ndarray, h_target: np.ndarray
) -> np.ndarray:
    """W_0 realizing H_{L+1}(W_0, W_{1:L}; X) = h_target.

    Recursively X_l = (c_l W_l)^+ H_{l+1}, H_l = phi^{-1}(X_l) down to l = 1,
    then W_0 = H_1 X^+ / c_0. Needs rank(X) = m, full row rank W_{1:L}
    (guaranteed shapes n_l > n_{l+1}), and an invertible activation.
    """
    _check_reconstruct_shapes(config)
    x_left = left_inverse(np.asarray(x, dtype=float), name="X")
    return _first_layer_solver(config, weights, x_left)(h_target)


def _first_layer_solver(config: NetConfig, weights, x_left: np.ndarray):
    """h -> W_0 of reconstruct_first_layer for fixed upper weights
    weights[1:] and x_left = left_inverse(X). The right inverses of the
    scaled upper weights are computed, and rank-checked, once per solver."""
    act, c0 = config.activation, config.scales[0]
    pullbacks = [
        right_inverse(config.scales[l] * weights[l], name=f"W_{l}")
        for l in range(config.n_layers - 1, 0, -1)
    ]

    def solve(h_target) -> np.ndarray:
        h = np.asarray(h_target, dtype=float)
        for pullback in pullbacks:
            h = act.inverse(pullback @ h)
        return (h @ x_left) / c0

    return solve


@dataclass(frozen=True)
class PathSegment:
    """One leg of a path: its losses, not its weights. t runs in path order,
    start_loss is the loss at the leg's construction start (the B-side legs
    are built from the B endpoint and then reversed, so their start sits at
    t = 1)."""

    name: str
    t: np.ndarray
    losses: np.ndarray
    start_loss: float

    def max_rise(self) -> float:
        return float(np.max(self.losses) - self.start_loss)


@dataclass(frozen=True)
class PathTrace:
    segments: tuple[PathSegment, ...]
    meeting_loss: float
    repair_loss_change: tuple[float, float] = (0.0, 0.0)

    def max_rise(self) -> float:
        return max(seg.max_rise() for seg in self.segments)


def _segment(name, losses, start_loss, reverse=False):
    """The leg of the given losses, listed in construction order."""
    losses = np.array(losses[::-1] if reverse else losses)
    return PathSegment(name=name, t=np.linspace(0.0, 1.0, len(losses)), losses=losses, start_loss=start_loss)


def _repair_full_rank(weights, score, rng):
    """Noise repair: perturb rank-deficient matrices at 1e-4 relative scale
    and report the measured loss change. X itself cannot be repaired.

    The scale is a numerical floor, not a tuning knob: the repaired matrix
    ends up with condition number ~ 1/scale, and the right-inverse solves in
    the reconstruction amplify rounding error by its square. A 1e-6 nudge
    leaves kappa^2 eps ~ 1e-4, which trips the 1e-6 rise monitor on segments
    whose output is frozen exactly in exact arithmetic."""
    before = score(weights)
    repaired = []
    changed = False
    for l, w in enumerate(weights):
        if l >= 1 and not _is_full_rank(w):
            scale = 1e-4 * np.linalg.norm(w) / np.sqrt(w.size)
            if scale == 0.0:
                scale = 1e-4
            w = w + scale * rng.standard_normal(w.shape)
            if not _is_full_rank(w):
                raise ValueError(f"rank repair failed for W_{l}")
            changed = True
        repaired.append(np.array(w, dtype=float))
    return repaired, (score(repaired) - before) if changed else 0.0


def _upper_waypoints(config, x_left, out, uppers_a, uppers_b, grid_points, rng, score, depth=0):
    """Scores of grid samples of the straight-line interpolation between two
    full-rank upper-weight stacks, each completed by the first layer that
    realizes out on X, subdividing through a random full-rank midpoint
    whenever some W_l(t) drops rank (the scores of the interval's samples
    so far are dropped with it). The rank check is the one right_inverse
    makes while building each sample's first-layer solver."""
    ts = np.linspace(0.0, 1.0, grid_points)
    sampled = []
    for t in ts:
        stack = [(1.0 - t) * a + t * b for a, b in zip(uppers_a, uppers_b)]
        try:
            solve = _first_layer_solver(config, [None] + stack, x_left)
        except ValueError:  # right_inverse: some c_l W_l(t) is rank deficient
            if depth >= 6:
                raise RuntimeError(f"interpolated upper weights lose rank at t = {t:.4f}") from None
            mid = []
            for a, b in zip(uppers_a, uppers_b):
                scale = 0.5 * (np.linalg.norm(a) + np.linalg.norm(b)) / np.sqrt(a.size)
                mid.append(scale * rng.standard_normal(a.shape))
            left = _upper_waypoints(config, x_left, out, uppers_a, mid, grid_points, rng, score, depth + 1)
            right = _upper_waypoints(config, x_left, out, mid, uppers_b, grid_points, rng, score, depth + 1)
            return left + right[1:]
        sampled.append(score([solve(out)] + stack))
    return sampled


def constant_loss_path(
    config: NetConfig,
    weights_a: list[np.ndarray],
    weights_b: list[np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    loss: str = "square",
    epsilon: float = 1e-6,
    grid_points: int = 64,
    seed: int = 0,
) -> PathTrace:
    """Piecewise path A -> common point -> B whose recorded loss never rises
    above each segment's start by more than 1e-6, meeting below epsilon.

    Mirrors the sublevel-set connectivity construction: both sides move
    their first layer onto the reconstructed form, the A side carries its
    upper weights over to B's (output frozen), and both sides meet at the
    B-uppers realization of a target output whose loss is below epsilon.
    loss names the loss, "square" or "logistic".
    """
    _check_reconstruct_shapes(config)
    if not epsilon >= 1e-8:
        raise ValueError(f"epsilon must be at least 1e-8, got {epsilon}")
    _check_at_least("grid_points", grid_points, 2)
    if grid_points > MAX_GRID_POINTS:
        raise ValueError(f"grid_points must be at most {MAX_GRID_POINTS}, got {grid_points}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    outputs, m = config.widths[-1], x.shape[-1]
    if y.size != outputs * m:
        raise ValueError(f"need a label per output and column, {outputs} x {m}, got {y.size} labels")
    if not (isinstance(loss, str) and loss in _LOSSES):
        raise ValueError(f"unknown loss {loss!r}; pick from {sorted(_LOSSES)}")
    loss_fn = _LOSSES[loss]
    rng = np.random.default_rng(seed)

    def score(ws):
        return loss_fn(forward(config, ws, x).h[-1], y)

    if len(weights_a) == len(weights_b) and all(
        a.shape == b.shape and np.array_equal(a, b) for a, b in zip(weights_a, weights_b)
    ):
        l0 = score(weights_a)
        return PathTrace(segments=(_segment("point", [l0], l0),), meeting_loss=l0)

    wa, repair_a = _repair_full_rank(weights_a, score, rng)
    wb, repair_b = _repair_full_rank(weights_b, score, rng)
    out_a = forward(config, wa, x).h[-1]
    out_b = forward(config, wb, x).h[-1]
    loss_a = loss_fn(out_a, y)
    loss_b = loss_fn(out_b, y)

    target_level = 0.5 * min(epsilon, loss_a if loss_a > 0 else epsilon, loss_b if loss_b > 0 else epsilon)
    if loss == "square":
        h_tilde = y.astype(float)
    else:
        h_tilde = np.sign(y).astype(float)
        for _ in range(80):
            if loss_fn(h_tilde, y) < target_level:
                break
            h_tilde = h_tilde * 2.0
        else:
            raise RuntimeError("could not drive the loss below epsilon by scaling outputs")

    ts = np.linspace(0.0, 1.0, grid_points)
    # X and each distinct upper stack are factorized once; each grid point
    # is scored as it is built, so only its loss outlives it
    x_left = left_inverse(x, name="X")
    solve_a, solve_b = (_first_layer_solver(config, ws, x_left) for ws in (wa, wb))

    def first_layer_leg(ws, solve, out):
        w0_hat = solve(out)
        return [score([(1.0 - t) * ws[0] + t * w0_hat] + ws[1:]) for t in ts]

    def output_leg(out_from):
        return [score([solve_b((1.0 - t) * out_from + t * h_tilde)] + wb[1:]) for t in ts]

    # A side: first layer onto reconstructed form, uppers over to B, output to
    # target; then the B side, built from B and reversed into path order
    segments = [
        _segment("first_layer_a", first_layer_leg(wa, solve_a, out_a), loss_a),
        _segment("upper_a", _upper_waypoints(config, x_left, out_a, wa[1:], wb[1:], grid_points, rng, score),
                 loss_a),
        _segment("output_a", output_leg(out_a), loss_a),
        _segment("output_b", output_leg(out_b), loss_b, reverse=True),
        _segment("first_layer_b", first_layer_leg(wb, solve_b, out_b), loss_b, reverse=True),
    ]

    meeting_loss = float(segments[2].losses[-1])
    trace = PathTrace(
        segments=tuple(segments),
        meeting_loss=meeting_loss,
        repair_loss_change=(repair_a, repair_b),
    )
    worst = trace.max_rise()
    if worst > 1e-6:
        raise RuntimeError(
            f"a path segment rises {worst:.3e} above its start; no loss-constant "
            "first-layer move is available for this activation"
        )
    if meeting_loss >= epsilon:
        raise RuntimeError(f"meeting point loss {meeting_loss:.3e} did not reach epsilon {epsilon:g}")
    return trace
