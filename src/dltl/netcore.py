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
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Activation",
    "NetConfig",
    "ForwardTrace",
    "haar_orthogonal",
    "init_weights",
    "forward",
    "backprop",
    "output_grads",
    "weight_grads",
    "backward",
    "jacobian",
    "save_weights",
    "load_weights",
]


# The argument checks every layer shares; nan fails each comparison.
def _check_positive(what: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {value}")


def _check_nonnegative(what: str, value: float) -> None:
    if not 0 <= value < math.inf:
        raise ValueError(f"{what} must be finite and nonnegative, got {value}")


def _check_at_least(what: str, value: int, low: int) -> None:
    if not value >= low:
        raise ValueError(f"{what} must be at least {low}, got {value}")


@dataclass(frozen=True)
class Activation:
    """Elementwise activation with value, derivative and (where defined) inverse.

    Kinds: "linear", "relu", "leaky_relu" (with slope alpha on the negative
    half-line), "tanh". All satisfy phi(0) = 0. The derivative at 0 is taken
    from the left: relu -> 0, leaky_relu -> alpha. slopes holds the
    (positive, negative) half-line slopes of the piecewise-linear kinds,
    None for tanh. It alone chooses between the maps' closed forms, which
    read this pair, and quadrature, which only tanh takes.
    """

    KINDS = ("linear", "relu", "leaky_relu", "tanh")

    kind: str
    alpha: float | None = None
    slopes: tuple[float, float] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == "leaky_relu":
            if self.alpha is None:
                raise ValueError("leaky_relu requires a slope alpha")
            if not 0.0 < self.alpha < 1.0:
                raise ValueError(f"leaky_relu slope must be in (0, 1), got {self.alpha}")
        elif self.alpha is not None:
            raise ValueError(f"{self.kind} takes no slope parameter")
        slopes = {"linear": (1.0, 1.0), "relu": (1.0, 0.0), "leaky_relu": (1.0, self.alpha)}.get(self.kind)
        object.__setattr__(self, "slopes", slopes)

    @staticmethod
    def parse(text: str) -> "Activation":
        """Parse "relu" | "linear" | "tanh" | "leaky_relu:<alpha>"."""
        if ":" in text:
            kind, _, arg = text.partition(":")
            return Activation(kind, float(arg))
        return Activation(text)

    def __str__(self) -> str:
        if self.kind == "leaky_relu":
            return f"leaky_relu:{self.alpha!r}"
        return self.kind

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
        # 1 - tanh(z)^2 in one buffer; [()] turns a 0-d result into a scalar
        t = np.tanh(z, out=np.empty_like(z))
        t *= t
        return np.subtract(1.0, t, out=t)[()]

    def inverse(self, y):
        """phi^{-1}(y) of the kinds bijective on R, linear and leaky_relu."""
        y = np.asarray(y, dtype=float)
        if self.kind == "linear":
            return y.copy()
        return np.where(y > 0, y, y / self.alpha)


INIT_SCHEMES = ("gaussian", "orthogonal")
PARAMETERIZATIONS = ("standard", "ntk")


@dataclass(frozen=True)
class NetConfig:
    """Architecture plus sampling convention.

    widths holds (n_0, ..., n_{L+1}); there are L hidden layers and L+1 weight
    matrices, W_l of shape (n_{l+1}, n_l). sigma_w2 is the weight variance
    scale sigma_w^2: gaussian init draws W_l ~ N(0, sigma_w2 / n_l) in the
    standard parameterization and N(0, 1) in the ntk one (where sigma_w
    enters the forward scaling instead). scales holds the forward scale c_l
    of h_{l+1} = c_l W_l x_l per layer, computed once: sqrt(sigma_w2 / n_l)
    in the ntk parameterization and 1 in the standard one.
    """

    widths: tuple[int, ...]
    activation: Activation
    parameterization: str = "standard"
    init: str = "gaussian"
    sigma_w2: float = 1.0
    scales: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # numpy integers are widths too; a bool, a float or a string is not
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in self.widths):
            raise ValueError(f"widths must be integers, got {list(self.widths)}")
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
        _check_positive("sigma_w2", self.sigma_w2)
        if self.init == "orthogonal" and self.parameterization == "ntk":
            raise ValueError("orthogonal init is defined for the standard parameterization only")
        ntk = self.parameterization == "ntk"
        scales = tuple(float(np.sqrt(self.sigma_w2 / n)) if ntk else 1.0 for n in self.widths[:-1])
        object.__setattr__(self, "scales", scales)

    @property
    def depth(self) -> int:
        """Number of hidden layers L."""
        return len(self.widths) - 2

    @property
    def n_layers(self) -> int:
        """Number of weight matrices, L + 1."""
        return len(self.widths) - 1


@dataclass
class ForwardTrace:
    """Preactivations h_1..h_{L+1}, activations x_1..x_L, and the input."""

    x0: np.ndarray
    h: list[np.ndarray]    # h[l-1] is h_l
    x: list[np.ndarray]    # x[l-1] is x_l

    @property
    def output(self) -> np.ndarray:
        return self.h[-1]

    @property
    def inputs(self) -> list[np.ndarray]:
        """The layer inputs x_0..x_L, inputs[l] the input of W_l."""
        return [self.x0, *self.x]


def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with sign correction."""
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    # QR alone is not Haar: fix the sign ambiguity by the diagonal of R.
    return q * np.sign(np.diag(r))


def init_weights(config: NetConfig, seed: int) -> list[np.ndarray]:
    """Sample a weight list per the config's init scheme.

    Replicate streams are derived as seed + replicate_index by callers; this
    function consumes exactly one Generator seeded with `seed`. Each drawn
    matrix is scaled in place, and not at all by the ntk scale of 1.
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
            w = haar_orthogonal(fan_in, rng)
            w *= np.sqrt(config.sigma_w2)
        else:
            w = rng.standard_normal((fan_out, fan_in))
            if config.parameterization != "ntk":
                w *= np.sqrt(config.sigma_w2 / fan_in)
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
    hs, xs = [], []
    act, cur = config.activation, x
    for c, w in zip(config.scales, weights):
        if hs:
            cur = act(hs[-1])
            xs.append(cur)
        hs.append(c * (w @ cur))
    return ForwardTrace(x0=x, h=hs, x=xs)


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
        g = config.scales[l] * act.deriv(trace.h[l - 1]) * (weights[l].T @ g)
        gs.append(g)
    gs.reverse()
    return gs


def output_grads(
    config: NetConfig, weights: list[np.ndarray], trace: ForwardTrace, output_index: int
) -> list[np.ndarray]:
    """The preactivation gradients g_1..g_{L+1} of output output_index of a
    single-input trace: backprop from h_{L+1} with the seed e_i."""
    if trace.h[-1].ndim != 1:
        raise ValueError("backward expects a single-input trace")
    seed_grad = np.zeros(trace.h[-1].shape)
    seed_grad[output_index] = 1.0
    return backprop(config, weights, trace, seed_grad)


def weight_grads(config: NetConfig, inputs: list[np.ndarray], grads: list[np.ndarray]) -> list[np.ndarray]:
    """The weight gradients of a single-input pass from its layer inputs
    x_0..x_L and preactivation gradients g_1..g_{L+1}: the scaled outer
    products c_l * outer(g_{l+1}, x_l) = dL/dW_l."""
    return [c * (g[:, None] * x[None, :]) for c, g, x in zip(config.scales, grads, inputs)]


def backward(
    config: NetConfig, weights: list[np.ndarray], trace: ForwardTrace, output_index: int
) -> list[np.ndarray]:
    """The weight gradients of output output_index of a single-input trace."""
    return weight_grads(config, trace.inputs, output_grads(config, weights, trace, output_index))


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
        j = (config.scales[l] * weights[l]) @ (d[:, None] * j)
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


def json_floats(value, what: str) -> np.ndarray:
    """value, a number or nested lists of numbers as json reads them, as a
    float array. numpy alone would also take true as 1.0, "0.5" as 0.5 and
    null as nan; here any entry that is not an int or a float raises a
    ValueError that names what holds it, and so do an int beyond float
    range and a ragged list."""
    entries = [value]
    while entries and all(type(v) is list for v in entries):
        entries = [u for v in entries for u in v]
    if not set(map(type, entries)) <= {int, float}:
        bad = next(v for v in entries if type(v) not in (int, float))
        raise ValueError(f"{what} holds {json.dumps(bad)}, not a number")
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise ValueError(f"{what} holds an integer beyond float range") from None
    except ValueError:
        raise ValueError(f"{what} is a ragged list") from None


def load_weights(path) -> tuple[NetConfig, list[np.ndarray]]:
    """Read a weight file written by save_weights.

    The init scheme is a sampling-time concern and is not stored; the
    returned config carries the default ("gaussian", sigma_w2 = 1). A file
    that is not such a document, or whose weights are not all finite
    numbers, raises a ValueError that names it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        if doc.get("version") != 1:
            raise ValueError(f"unsupported weight file version {doc.get('version')!r}")
        for key, kind in (("widths", list), ("activation", str), ("parameterization", str), ("weights", list)):
            if key not in doc:
                raise ValueError(f"missing key {key!r}")
            if not isinstance(doc[key], kind):
                raise ValueError(f"{key} must be a {'list' if kind is list else 'string'}, got {doc[key]!r}")
        sigma_w2 = doc.get("sigma_w2", 1.0)
        if isinstance(sigma_w2, bool) or not isinstance(sigma_w2, (int, float)):
            raise ValueError(f"sigma_w2 must be a number, got {sigma_w2!r}")
        config = NetConfig(
            widths=tuple(doc["widths"]),
            activation=Activation.parse(doc["activation"]),
            parameterization=doc["parameterization"],
            sigma_w2=float(sigma_w2),
        )
        weights = [json_floats(w, f"layer {l}") for l, w in enumerate(doc["weights"])]
        _check_shapes(config, weights)
        for l, w in enumerate(weights):
            if not np.isfinite(w).all():
                raise ValueError(f"layer {l} holds a non-finite weight")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return config, weights
