"""Minimal fully-connected network core.

Plain numpy forward/backward passes for networks f(x) = W_L phi(... phi(W_0 x)),
with the two weight conventions used throughout the package:

* "standard": preactivations h_{l+1} = W_l x_l, variance carried by the weights.
* "ntk": h_{l+1} = (sigma_w / sqrt(n_l)) W_l x_l with N(0,1) weights, variance
  carried by the forward scaling.

Everything downstream (moment profiles, Jacobian spectra, empirical tangent
kernels, landscape paths) is built on these passes, so they stay deliberately
small: vectors or column batches in, lists of per-layer arrays out, no
autograd.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Activation",
    "NetConfig",
    "ForwardTrace",
    "BackwardTrace",
    "haar_orthogonal",
    "init_weights",
    "forward",
    "backprop",
    "backward",
    "jacobian",
    "save_weights",
    "load_weights",
]


class Activation:
    """Elementwise activation with value, derivative and (where defined) inverse.

    Kinds: "linear", "relu", "leaky_relu" (with slope alpha on the negative
    half-line), "tanh". All satisfy phi(0) = 0. The derivative at 0 is taken
    from the left: relu -> 0, leaky_relu -> alpha.
    """

    KINDS = ("linear", "relu", "leaky_relu", "tanh")

    def __init__(self, kind: str, alpha: float | None = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown activation kind {kind!r}")
        if kind == "leaky_relu":
            if alpha is None:
                raise ValueError("leaky_relu requires a slope alpha")
            if not 0.0 < alpha < 1.0:
                raise ValueError(f"leaky_relu slope must be in (0, 1), got {alpha}")
        elif alpha is not None:
            raise ValueError(f"{kind} takes no slope parameter")
        self.kind = kind
        self.alpha = alpha
        # (positive, negative) half-line slopes of the piecewise-linear
        # kinds, None for tanh; the maps' closed forms all read this pair
        self.slopes: tuple[float, float] | None = {
            "linear": (1.0, 1.0), "relu": (1.0, 0.0), "leaky_relu": (1.0, alpha)
        }.get(kind)

    @classmethod
    def parse(cls, text: str) -> "Activation":
        """Parse "relu" | "linear" | "tanh" | "leaky_relu:<alpha>"."""
        if ":" in text:
            kind, _, arg = text.partition(":")
            return cls(kind, float(arg))
        return cls(text)

    def __str__(self) -> str:
        if self.kind == "leaky_relu":
            return f"leaky_relu:{self.alpha!r}"
        return self.kind

    def __repr__(self) -> str:
        return f"Activation({str(self)!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Activation)
            and self.kind == other.kind
            and self.alpha == other.alpha
        )

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "linear":
            return z.copy()
        if self.kind == "relu":
            return np.maximum(z, 0.0)
        if self.kind == "leaky_relu":
            return np.where(z > 0, z, self.alpha * z)
        return np.tanh(z)

    def deriv(self, z):
        """phi'(z), with phi'(0) the left value (relu: 0, leaky: alpha)."""
        z = np.asarray(z, dtype=float)
        if self.kind == "linear":
            return np.ones_like(z)
        if self.kind == "relu":
            return np.where(z > 0, 1.0, 0.0)
        if self.kind == "leaky_relu":
            return np.where(z > 0, 1.0, self.alpha)
        t = np.tanh(z)
        return 1.0 - t * t

    @property
    def invertible(self) -> bool:
        return self.kind in ("linear", "leaky_relu", "tanh")

    def inverse(self, y):
        if self.kind == "linear":
            return np.asarray(y, dtype=float).copy()
        if self.kind == "leaky_relu":
            y = np.asarray(y, dtype=float)
            return np.where(y > 0, y, y / self.alpha)
        if self.kind == "tanh":
            y = np.asarray(y, dtype=float)
            if np.any(np.abs(y) >= 1.0):
                raise ValueError("tanh inverse needs values inside (-1, 1)")
            return np.arctanh(y)
        raise ValueError(f"{self.kind} is not invertible")

    @property
    def homogeneous(self) -> bool:
        """True when phi(c z) = c phi(z) for c > 0 (linear, relu, leaky)."""
        return self.slopes is not None


INIT_SCHEMES = ("gaussian", "glorot", "he", "orthogonal")
PARAMETERIZATIONS = ("standard", "ntk")


@dataclass(frozen=True)
class NetConfig:
    """Architecture plus sampling convention.

    widths holds (n_0, ..., n_{L+1}); there are L hidden layers and L+1 weight
    matrices, W_l of shape (n_{l+1}, n_l). sigma_w2 is the weight variance
    scale sigma_w^2: gaussian init draws W_l ~ N(0, sigma_w2 / n_l) in the
    standard parameterization and N(0, 1) in the ntk one (where sigma_w
    enters the forward scaling instead).
    """

    widths: tuple[int, ...]
    activation: Activation
    parameterization: str = "standard"
    init: str = "gaussian"
    sigma_w2: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(n) for n in self.widths))
        if isinstance(self.activation, str):
            object.__setattr__(self, "activation", Activation.parse(self.activation))
        if len(self.widths) < 2:
            raise ValueError("need at least input and output widths")
        if any(n <= 0 for n in self.widths):
            raise ValueError("widths must be positive")
        if self.parameterization not in PARAMETERIZATIONS:
            raise ValueError(f"unknown parameterization {self.parameterization!r}")
        if self.init not in INIT_SCHEMES:
            raise ValueError(f"unknown init scheme {self.init!r}")
        if self.sigma_w2 <= 0:
            raise ValueError("sigma_w2 must be positive")
        if self.init == "orthogonal" and self.parameterization == "ntk":
            raise ValueError("orthogonal init is defined for the standard parameterization only")

    @property
    def depth(self) -> int:
        """Number of hidden layers L."""
        return len(self.widths) - 2

    @property
    def n_layers(self) -> int:
        """Number of weight matrices, L + 1."""
        return len(self.widths) - 1

    def layer_scale(self, layer: int) -> float:
        """Forward scale c_l in h_{l+1} = c_l W_l x_l."""
        if self.parameterization == "standard":
            return 1.0
        return float(np.sqrt(self.sigma_w2 / self.widths[layer]))


@dataclass
class ForwardTrace:
    """Preactivations h_1..h_{L+1}, activations x_1..x_L, and the input."""

    x0: np.ndarray
    h: list[np.ndarray] = field(default_factory=list)    # h[l-1] is h_l
    x: list[np.ndarray] = field(default_factory=list)    # x[l-1] is x_l

    @property
    def output(self) -> np.ndarray:
        return self.h[-1]


@dataclass
class BackwardTrace:
    """Gradients g_1..g_{L+1} wrt preactivations and weight gradients."""

    g: list[np.ndarray]        # g[l-1] is dL/dh_l
    grads: list[np.ndarray]    # grads[l] is dL/dW_l


def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with sign correction."""
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    # QR alone is not Haar: fix the sign ambiguity by the diagonal of R.
    return q * np.sign(np.diag(r))


def init_weights(config: NetConfig, seed: int) -> list[np.ndarray]:
    """Sample a weight list per the config's init scheme.

    Replicate streams are derived as seed + replicate_index by callers; this
    function consumes exactly one Generator seeded with `seed`.
    """
    rng = np.random.default_rng(seed)
    weights = []
    for l in range(config.n_layers):
        fan_in, fan_out = config.widths[l], config.widths[l + 1]
        if config.init == "orthogonal":
            if fan_in != fan_out:
                raise ValueError(
                    f"orthogonal init needs square layers, got {fan_out}x{fan_in} at layer {l}"
                )
            w = np.sqrt(config.sigma_w2) * haar_orthogonal(fan_in, rng)
        else:
            if config.parameterization == "ntk":
                var = 1.0
            elif config.init == "gaussian":
                var = config.sigma_w2 / fan_in
            elif config.init == "glorot":
                var = 2.0 / (fan_in + fan_out)
            else:  # he
                var = 2.0 / fan_in
            w = rng.standard_normal((fan_out, fan_in)) * np.sqrt(var)
        weights.append(w)
    return weights


def _check_shapes(config: NetConfig, weights: list[np.ndarray]) -> None:
    if len(weights) != config.n_layers:
        raise ValueError(f"expected {config.n_layers} weight matrices, got {len(weights)}")
    for l, w in enumerate(weights):
        want = (config.widths[l + 1], config.widths[l])
        if w.shape != want:
            raise ValueError(f"layer {l} has shape {w.shape}, expected {want}")


def forward(config: NetConfig, weights: list[np.ndarray], x: np.ndarray) -> ForwardTrace:
    """Run the net on one input (or a column-stacked batch) and keep the trace."""
    _check_shapes(config, weights)
    x = np.asarray(x, dtype=float)
    if x.shape[0] != config.widths[0]:
        raise ValueError(f"input has leading dim {x.shape[0]}, expected {config.widths[0]}")
    trace = ForwardTrace(x0=x)
    act = config.activation
    cur = x
    for l in range(config.n_layers):
        h = config.layer_scale(l) * (weights[l] @ cur)
        trace.h.append(h)
        if l < config.n_layers - 1:
            cur = act(h)
            trace.x.append(cur)
    return trace


def backprop(
    config: NetConfig,
    weights: list[np.ndarray],
    trace: ForwardTrace,
    seed_grad: np.ndarray,
) -> list[np.ndarray]:
    """Preactivation gradients g_1..g_{L+1} from a seed dL/dh_{L+1}.

    Works on a single-input trace with a seed vector, and on a column batch
    with one seed per column (shape (n_{L+1}, B)); column j of every g_l
    is then the gradient of example j alone. g[l-1] is dL/dh_l.
    """
    g = np.asarray(seed_grad, dtype=float)
    if g.shape != trace.h[-1].shape:
        raise ValueError("seed_grad shape does not match the output")
    act = config.activation
    gs = [g]
    for l in range(config.n_layers - 1, 0, -1):
        g_prev = config.layer_scale(l) * act.deriv(trace.h[l - 1]) * (weights[l].T @ gs[0])
        gs.insert(0, g_prev)
    return gs


def backward(
    config: NetConfig,
    weights: list[np.ndarray],
    trace: ForwardTrace,
    seed_grad: np.ndarray | None = None,
    output_index: int | None = None,
) -> BackwardTrace:
    """Backpropagate from the output preactivation h_{L+1}.

    Exactly one of seed_grad (a vector dL/dh_{L+1}) or output_index i (sets
    the seed to e_i, so the result is the gradient of the i-th output)
    must be given. Weight gradients come out as the scaled outer products
    grads[l] = c_l * outer(g_{l+1}, x_l).
    """
    if (seed_grad is None) == (output_index is None):
        raise ValueError("pass exactly one of seed_grad or output_index")
    if trace.h[-1].ndim != 1:
        raise ValueError("backward expects a single-input trace")
    if seed_grad is None:
        seed_grad = np.zeros_like(trace.h[-1])
        seed_grad[output_index] = 1.0
    gs = backprop(config, weights, trace, seed_grad)
    inputs = [trace.x0, *trace.x]
    grads = [config.layer_scale(l) * np.outer(gs[l], inputs[l]) for l in range(config.n_layers)]
    return BackwardTrace(g=gs, grads=grads)


def jacobian(config: NetConfig, weights: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Input-output Jacobian J = dh_{L+1}/dh_1 of shape (n_{L+1}, n_1).

    J = c_L W_L D_L ... c_1 W_1 D_1, with D_l = diag(phi'(h_l)) read off a
    forward pass at x. The input-layer matrix W_0 does not enter.
    """
    trace = forward(config, weights, x)
    if trace.h[0].ndim != 1:
        raise ValueError("jacobian expects a single input vector")
    act = config.activation
    j = np.eye(config.widths[1])
    for l in range(1, config.n_layers):
        d = act.deriv(trace.h[l - 1])
        j = (config.layer_scale(l) * weights[l]) @ (d[:, None] * j)
    return j


def save_weights(path, config: NetConfig, weights: list[np.ndarray]) -> None:
    """Write weights plus the forward-relevant config fields as JSON."""
    _check_shapes(config, weights)
    doc = {
        "version": 1,
        "widths": list(config.widths),
        "activation": str(config.activation),
        "parameterization": config.parameterization,
        "weights": [w.tolist() for w in weights],
    }
    if config.parameterization == "ntk":
        # the ntk forward scale depends on sigma_w2, so it must round-trip
        doc["sigma_w2"] = config.sigma_w2
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_weights(path) -> tuple[NetConfig, list[np.ndarray]]:
    """Read a weight file written by save_weights.

    The init scheme is a sampling-time concern and is not stored; the
    returned config carries the default ("gaussian", sigma_w2 = 1).
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("version") != 1:
        raise ValueError(f"unsupported weight file version {doc.get('version')!r}")
    config = NetConfig(
        widths=tuple(doc["widths"]),
        activation=Activation.parse(doc["activation"]),
        parameterization=doc["parameterization"],
        sigma_w2=float(doc.get("sigma_w2", 1.0)),
    )
    weights = [np.asarray(w, dtype=float) for w in doc["weights"]]
    _check_shapes(config, weights)
    return config, weights
