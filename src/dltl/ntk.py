"""Tangent-kernel machinery: empirical and limiting NTKs, exact linearized
training, and the two-layer convergence monitor.

The empirical tangent kernel of a network is the gram matrix of per-example
parameter gradients; at infinite width (ntk parameterization) it converges to
a deterministic limit assembled from the NNGP covariance recursion,

    Theta_0(x, x') = sum_{l=1..L+1} q_l(x, x') prod_{l'=l..L} chi_l'(x, x').

Under square loss the linearized model admits a closed-form solution at any
time t (matrix exponential of the train gram), and when the initial model is
the NNGP gaussian process the trained model stays a GP whose mean and
covariance are explicit; the t -> infinity GP agrees with the exact bayesian
posterior when only the last layer is trained and differs otherwise. The Du
two-layer relu setting gets a discrete GD monitor recording the loss, the
gram's smallest eigenvalue, and weight displacements against their
theoretical envelopes.

Datasets are column matrices throughout, matching netcore.forward: X has
shape (n_0, m) with one example per column.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .meanfield import GH_NODES, gauss_ev2, length_map
from .netcore import Activation, NetConfig, _check_at_least, _check_positive, backprop, forward

__all__ = [
    "KernelGram",
    "KernelRecursionState",
    "LinearizedSolution",
    "LinearizedPrediction",
    "AlignmentReport",
    "DuTrajectory",
    "empirical_ntk",
    "nngp_recursion",
    "nngp_gram",
    "limiting_ntk",
    "linearize",
    "linearized_train",
    "bayes_posterior",
    "h_infinity_gram",
    "du_convergence_monitor",
    "alignment",
]

KERNEL_TAGS = ("empirical_ntk", "limiting_ntk", "nngp", "h_infinity")

SYMMETRY_TOL = 1e-10
EIG_FLOOR = -1e-8
# Grams are considered invertible when the smallest eigenvalue clears this.
SINGULAR_TOL = 1e-10
# du_convergence_monitor allocates its records up front and runs one eigvalsh
# per step; T / eta above this many steps is rejected (lindyn's default cap).
DU_MAX_STEPS = 200_000
# The smallest normal float: a pair's variance product below it has lost
# bits to underflow, or all of them.
_TINY = sys.float_info.min


@dataclass(frozen=True)
class KernelGram:
    """A kernel evaluated on a dataset: symmetric PSD within tolerance.

    tag names which kernel the matrix is (one of KERNEL_TAGS); eigvals holds
    the ascending eigenvalues computed to validate it.
    """

    matrix: np.ndarray
    tag: str
    eigvals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        if self.tag not in KERNEL_TAGS:
            raise ValueError(f"unknown kernel tag {self.tag!r}")
        k = self.matrix
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError(f"kernel gram must be square, got shape {k.shape}")
        if not np.isfinite(k).all():
            raise ValueError("kernel gram has non-finite entries")
        asym = float(np.max(np.abs(k - k.T), initial=0.0))
        if asym > SYMMETRY_TOL:
            raise ValueError(f"kernel gram asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
        eigs = np.linalg.eigvalsh(k)
        if eigs.size and eigs[0] < EIG_FLOOR:
            raise ValueError(f"kernel gram has eigenvalue {eigs[0]:.3e} below {EIG_FLOOR}")
        object.__setattr__(self, "eigvals", eigs)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def lambda_min(self) -> float:
        return float(self.eigvals[0])


@dataclass(frozen=True)
class KernelRecursionState:
    """Per-layer NNGP covariances and derivative multipliers for one pair.

    Arrays are indexed by layer: q11[i], q12[i], q22[i] hold
    q_{i+1}(x,x), q_{i+1}(x,x'), q_{i+1}(x',x') for i = 0..L, and chi[i]
    holds chi_{i+1}(x,x') for i = 0..L-1. nngp_recursion builds it, and
    its recursion checks every layer against the Cauchy-Schwarz bound.
    """

    q11: np.ndarray
    q12: np.ndarray
    q22: np.ndarray
    chi: np.ndarray

    def ntk_value(self) -> float:
        """Theta_0(x, x') assembled from the recursion."""
        return float(_theta(self.q12, self.chi))

    def nngp_value(self) -> float:
        """q_{L+1}(x, x'), the NNGP covariance of the outputs."""
        return float(self.q12[-1])


def _theta(q12, chi):
    """sum_l q_l(x, x') prod_{l'>=l} chi_l'(x, x'), multiplied left to right;
    elementwise when q12 and chi hold arrays of pairs.

    math.prod starts from 1 and multiplies in order, which is what np.prod
    does on these short sequences, at a fraction of the call cost.
    """
    total = 0.0
    for l in range(len(q12)):
        total += q12[l] * math.prod(chi[l:])
    return total


# -- two-dimensional gaussian moments -----------------------------------------
#
# The recursion needs E phi(u) phi(v) and E phi'(u) phi'(v) for a centered
# gaussian pair. tanh takes meanfield.gauss_ev2, the tensor Gauss-Hermite
# rule of meanfield's correlation maps for E f(u) f(v), on a
# chunk's whole arrays of pairs: one call per moment, f = phi and f = phi',
# whose entries equal the maps' scalar calls bit for bit. For the piecewise-linear kinds that rule stalls near
# 1e-3 (the integrand kinks along two lines through the origin), so those
# are integrated in polar coordinates instead:
# the radial factor is a gamma integral, and on each angular arc where both
# factors are single pieces the integrand is a smooth trig expression handled
# by Gauss-Legendre exactly.
#
# The polar rule runs on whole arrays: the four sign-quadrant arcs of every
# pair form one (pairs, 4, 32) grid of nodes. _recursion allocates two such
# grids per call, and every layer rewrites them in place: the first holds the
# nodes a, then a + d, then the integrand sin(a + d) cos(a); the second holds
# cos(a). Fresh grids per layer cost more to allocate and fault in than the
# trigonometry does. Each arc's weighted sum is taken by np.matmul on a
# (1, 32) @ (32, 1) stack, one dot product per arc (a gemv, rows @ weights,
# rounds some sums differently in the last bit), and the arcs are
# accumulated one by one in their fixed quadrant order, an empty arc adding
# 0.0, so a pair's value does not depend on the pairs beside it.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL_WEIGHT_COLUMN = _GL_WEIGHTS[:, None]
# Arc centers of u > 0 or u < 0, and of v > 0 or v < 0 before the shift by
# -d, for the sign quadrants (+, +), (+, -), (-, +), (-, -) in this order.
_ARC_U = np.array([0.0, 0.0, math.pi, math.pi])
_ARC_V = np.array([math.pi / 2, 3 * math.pi / 2, math.pi / 2, 3 * math.pi / 2])
# Pairs go through the recursion in chunks of about this many bytes per
# (pairs, n0) layer-1 row copy and per (pairs, 4, 32) node grid, whichever is
# larger; a piecewise-linear chunk holds two grids, so twice this in all.
_CHUNK_BYTES = 256 * 1024


def _polar_moments(c: np.ndarray, q11: np.ndarray, q22: np.ndarray, slopes: tuple[float, float], scratch: np.ndarray):
    """(E phi(u) phi(v), E phi'(u) phi'(v)) for piecewise-linear phi, on 1-D
    arrays of pairs, with scratch a (2, pairs, 4, 32) array it overwrites.

    With u = sqrt(q11) r cos(a), v = sqrt(q22) r sin(a + d) where
    sin(d) = c, the radial integral is exact and each sign quadrant
    contributes its slopes times an arc integral of cos(a) sin(a + d), over
    the intersection of two half-circle arcs of half-width pi/2.
    """
    # libm's asin per element: np.arcsin's vector loop need not round alike
    d = np.array([math.asin(v) for v in c.tolist()])[:, None]
    # the v arc's center relative to the u arc's lies in [-pi, 2 pi]; into
    # [-pi, pi] as math.remainder puts it, where x - 2 pi is exact (Sterbenz)
    delta = (_ARC_V - d) - _ARC_U
    delta = np.where(delta > math.pi, delta - 2 * math.pi, delta)
    lo = _ARC_U + np.maximum(-math.pi / 2, delta - math.pi / 2)
    hi = _ARC_U + np.minimum(math.pi / 2, delta + math.pi / 2)
    weight = np.outer(slopes, slopes).ravel()
    half = 0.5 * (hi - lo)
    a, cos_a = scratch
    np.multiply(half[..., None], _GL_NODES, out=a)
    a += (0.5 * (hi + lo))[..., None]
    np.cos(a, out=cos_a)
    a += d[..., None]
    np.sin(a, out=a)
    a *= cos_a
    sums = np.matmul(a[..., None, :], _GL_WEIGHT_COLUMN)[..., 0, 0]
    m_phi = m_deriv = 0.0
    for k in range(len(weight)):
        arc = hi[:, k] > lo[:, k]
        m_phi = m_phi + np.where(arc, weight[k] * (half[:, k] * sums[:, k]) / math.pi, 0.0)
        m_deriv = m_deriv + np.where(arc, weight[k] * (hi[:, k] - lo[:, k]) / (2 * math.pi), 0.0)
    return np.sqrt(q11 * q22) * m_phi, m_deriv


def _pair_moments(c, q11, q22, sigma_w2: float, act: Activation, nodes: int, scratch) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_w^2 E phi phi, sigma_w^2 E phi' phi') for gaussian pairs,
    elementwise over same-shape c, q11 and q22; scratch is the polar rule's
    (2, c.size, 4, 32) work array, None for the smooth kinds."""
    shape = np.shape(c)
    c, q11, q22 = (np.asarray(v, dtype=float).ravel() for v in (c, q11, q22))
    if act.slopes is not None:
        m_phi, m_deriv = (sigma_w2 * m for m in _polar_moments(c, q11, q22, act.slopes, scratch))
    else:
        m_phi = sigma_w2 * gauss_ev2(act, c, q11, q22, nodes)
        m_deriv = sigma_w2 * gauss_ev2(act.deriv, c, q11, q22, nodes)
    return m_phi.reshape(shape), m_deriv.reshape(shape)


def nngp_recursion(x: np.ndarray, x_prime: np.ndarray, config: NetConfig) -> KernelRecursionState:
    """Run the covariance recursion for one input pair.

    q_1 = (sigma_w^2 / n_0) x^T x', then
    q_{l+1} = sigma_w^2 E phi(u) phi(v) and chi_l = sigma_w^2 E phi'(u) phi'(v)
    with (u, v) ~ N(0, Sigma_l). Diagonal entries advance through
    meanfield.length_map so q_l(x, x) matches its iterates exactly. The
    grams run the same recursion on arrays of pairs.
    """
    x = np.asarray(x, dtype=float).ravel()
    xp = np.asarray(x_prime, dtype=float).ravel()
    if x.shape != xp.shape:
        raise ValueError("inputs must share a dimension")
    n0 = config.widths[0]
    if x.size != n0:
        raise ValueError(f"inputs have dimension {x.size}, config expects {n0}")
    q11, q22 = _diagonals(x[None], config, GH_NODES), _diagonals(xp[None], config, GH_NODES)
    _check_variance_products(x[None], q11, xp[None], q22)
    q12, chi = _recursion(x[None], xp[None], q11, q22, config, GH_NODES)
    return KernelRecursionState(q11=q11[:, 0], q12=q12[:, 0], q22=q22[:, 0], chi=chi[:, 0])


def _diagonals(rows: np.ndarray, config: NetConfig, nodes: int) -> np.ndarray:
    """q_1..q_{L+1}(x, x) for each contiguous row x, one column per row."""
    q = np.empty((config.depth + 1, len(rows)))
    for k, x in enumerate(rows):
        with np.errstate(over="ignore"):  # an overflow fails length_map's check
            q[0, k] = config.sigma_w2 / config.widths[0] * float(x @ x)
        for l in range(config.depth):
            q[l + 1, k] = length_map(float(q[l, k]), config.sigma_w2, config.activation, nodes=nodes)
    return q


def _check_variance_products(rows_a: np.ndarray, diag_a: np.ndarray, rows_b: np.ndarray, diag_b: np.ndarray) -> None:
    """Reject inputs whose layer variances overflow or underflow a pair's
    product q_l(x, x) q_l(x', x'), either of which would read the pair as
    uncorrelated. Every pair list pairs each row of rows_a with each of
    rows_b (a gram's i <= j triangle holds every diagonal pair), so the
    extreme products are those of each layer's two largest variances and
    of its two smallest over the nonzero rows. With phi(0) = 0 a zero row
    has zero variances and nothing to lose; a nonzero row's are positive,
    so a zero variance there has underflowed."""
    # a side with no nonzero row reads inf as its smallest, and passes
    low_a, low_b = (np.where(rows.any(axis=1), diag, np.inf) for rows, diag in ((rows_a, diag_a), (rows_b, diag_b)))
    largest = zip(diag_a.argmax(axis=1).tolist(), diag_b.argmax(axis=1).tolist())
    smallest = zip(low_a.argmin(axis=1).tolist(), low_b.argmin(axis=1).tolist())
    for l, ((i, j), (s, t)) in enumerate(zip(largest, smallest)):
        a, b = float(diag_a[l, i]), float(diag_b[l, j])
        if not math.isfinite(a * b):
            raise ValueError(
                f"input columns {i} and {j} are too large: their layer-{l + 1} variances "
                f"{a:g} and {b:g} overflow in their product"
            )
        a, b = float(low_a[l, s]), float(low_b[l, t])
        if a * b < _TINY:
            raise ValueError(
                f"input columns {s} and {t} are too small: their layer-{l + 1} variances "
                f"{a:g} and {b:g} underflow in their product"
            )


def _recursion(rows_a, rows_b, q11, q22, config: NetConfig, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """q_1..q_{L+1}(x, x') and chi_1..chi_L(x, x'), a column per row pair
    (rows_a[p], rows_b[p]), from the pairs' diagonal sequences q11 and q22,
    checking every layer's cross covariance against the Cauchy-Schwarz bound."""
    depth, (pairs, n0) = config.depth, rows_a.shape
    q12, chi = np.empty((depth + 1, pairs)), np.empty((depth, pairs))
    # the polar rule's two node grids, rewritten by every layer
    scratch = np.empty((2, pairs, _ARC_U.size, _GL_NODES.size)) if config.activation.slopes is not None else None
    # one BLAS dot per pair, as 1-D x @ x' is; a gemm or einsum rounds otherwise
    q12[0] = config.sigma_w2 / n0 * np.matmul(rows_a[:, None, :], rows_b[:, :, None])[:, 0, 0]
    for l in range(depth + 1):
        denom = np.sqrt(q11[l] * q22[l])
        if np.any(np.abs(q12[l]) > denom + 1e-10):
            raise ValueError("cross covariance exceeds the Cauchy-Schwarz bound")
        if l == depth:
            break
        c = np.clip(np.where(denom > 0, q12[l] / np.where(denom > 0, denom, 1.0), 0.0), -1.0, 1.0)
        q12[l + 1], chi[l] = _pair_moments(c, q11[l], q22[l], config.sigma_w2, config.activation, nodes, scratch)
    return q12, chi


def _as_columns(x: np.ndarray, n0: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != n0:
        raise ValueError(f"dataset must have shape ({n0}, m), got {x.shape}")
    return x


def _pair_kernels(
    x_a: np.ndarray, x_b: np.ndarray | None, config: NetConfig, nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """(Theta_0, q_{L+1}) between the columns of x_a and those of x_b.

    x_b = None gives the grams of x_a, computed on i <= j and copied to i > j.
    All pairs run through one recursion, whole arrays per layer, in chunks
    of _CHUNK_BYTES; every entry equals nngp_recursion on the same pair,
    bit for bit. Columns are copied to contiguous rows first, because a dot
    product over a strided view can round differently from
    nngp_recursion's dot over raveled inputs.
    """
    n0 = config.widths[0]
    rows_a = np.ascontiguousarray(_as_columns(x_a, n0).T)
    rows_b = rows_a if x_b is None else np.ascontiguousarray(_as_columns(x_b, n0).T)
    diag_a = _diagonals(rows_a, config, nodes)
    diag_b = diag_a if x_b is None else _diagonals(rows_b, config, nodes)
    _check_variance_products(rows_a, diag_a, rows_b, diag_b)
    shape = (len(rows_a), len(rows_b))
    pair_i, pair_j = np.triu_indices(shape[0]) if x_b is None else np.indices(shape).reshape(2, -1)
    theta = np.empty(shape)
    nngp = np.empty_like(theta)
    step = max(1, _CHUNK_BYTES // (8 * max(n0, _ARC_U.size * _GL_NODES.size)))
    for start in range(0, pair_i.size, step):
        i, j = pair_i[start : start + step], pair_j[start : start + step]
        q12, chi = _recursion(rows_a[i], rows_b[j], diag_a[:, i], diag_b[:, j], config, nodes)
        theta[i, j] = _theta(q12, chi)
        nngp[i, j] = q12[-1]
    if x_b is None:
        lower = np.tril_indices_from(theta, -1)
        theta[lower] = theta.T[lower]
        nngp[lower] = nngp.T[lower]
    return theta, nngp


def nngp_gram(x: np.ndarray, config: NetConfig, nodes: int = GH_NODES) -> KernelGram:
    """q_{L+1} evaluated on a column dataset."""
    _, nngp = _pair_kernels(x, None, config, nodes)
    return KernelGram(nngp, tag="nngp")


def limiting_ntk(x: np.ndarray, config: NetConfig, nodes: int = GH_NODES) -> KernelGram:
    """Deterministic limit kernel Theta_0 on a column dataset, one entry per
    pair of columns (the scalar-output kernel)."""
    if config.parameterization != "ntk":
        raise ValueError("the limit kernel is defined for the ntk parameterization")
    return KernelGram(_pair_kernels(x, None, config, nodes)[0], tag="limiting_ntk")


# -- empirical kernel ----------------------------------------------------------


def _tangent_gram(
    config: NetConfig, weights: list[np.ndarray], x_a: np.ndarray, x_b: np.ndarray | None = None
) -> np.ndarray:
    """Inner products of per-example, per-output parameter gradients.

    Rows index x_a and columns x_b (x_a again when None), each example
    major and output component minor, matching the kron layout of the
    multi-output limit kernel. The gradient of output a at example i on
    W_l is c_l outer(g_{l+1}, x_l), so the gram is assembled layer by layer,

        Theta = sum_l c_l^2 (G_{l+1}^T G'_{l+1}) * (X_l^T X'_l),

    from one batched forward and backward pass over the columns repeated
    once per output. The (m k) x P gradient matrix is never formed.
    """
    k = config.widths[-1]

    def layer_factors(x):
        x = np.repeat(_as_columns(x, config.widths[0]), k, axis=1)
        trace = forward(config, weights, x)
        seeds = np.tile(np.eye(k), x.shape[1] // k)
        return trace.inputs, backprop(config, weights, trace, seeds)

    xs_a, gs_a = layer_factors(x_a)
    xs_b, gs_b = (xs_a, gs_a) if x_b is None else layer_factors(x_b)
    gram = np.zeros((xs_a[0].shape[1], xs_b[0].shape[1]))
    for l in range(config.n_layers):
        gram += config.scales[l] ** 2 * (gs_a[l].T @ gs_b[l]) * (xs_a[l].T @ xs_b[l])
    return gram


def empirical_ntk(
    config: NetConfig,
    weights: list[np.ndarray],
    x: np.ndarray,
) -> KernelGram:
    """Gram of exact per-example parameter gradients.

    Scalar-output nets give an m x m gram; k outputs give the full
    (m k) x (m k) block gram in the example-major layout.
    """
    return KernelGram(_tangent_gram(config, weights, x), tag="empirical_ntk")


# -- exact linearized training -------------------------------------------------


@dataclass(frozen=True)
class LinearizedSolution:
    """Everything the closed-form square-loss solution needs at query time.

    gram is the train-set kernel (empirical or limiting), eigvals/eigvecs its
    eigendecomposition, f0_train the initial outputs, y the labels, eta the
    learning rate; x_train's column count is the m of exp(-eta Theta t / m).
    nngp_train is the train-set q_{L+1} gram of a limit-kernel solution
    (None for the empirical kernel). weights holds read-only views of the
    arrays passed to linearize, not copies: writing into those arrays
    afterwards changes the solution's f_0. A limit-kernel solution keeps its
    query kernels for the most recent query set (see _query_kernels).
    """

    gram: KernelGram
    eigvals: np.ndarray
    eigvecs: np.ndarray
    f0_train: np.ndarray
    y: np.ndarray
    eta: float
    config: NetConfig
    weights: list[np.ndarray] = field(repr=False)
    x_train: np.ndarray = field(repr=False)
    kernel: str
    nodes: int
    nngp_train: np.ndarray | None = field(repr=False)
    _query_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def solve_factor(self, t: float) -> np.ndarray:
        """B_t = Theta^{-1} (I - E_t), E_t = exp(-eta Theta t / m), evaluated
        spectrally. An overflowing exponent is the t -> infinity limit,
        expm1(-inf) = -1, so the overflow warning is silenced."""
        lam = self.eigvals
        with np.errstate(over="ignore"):
            coeff = -np.expm1(-self.eta * lam * t / self.x_train.shape[1]) / lam
        return (self.eigvecs * coeff) @ self.eigvecs.T


@dataclass(frozen=True)
class LinearizedPrediction:
    """Point prediction and, for kernel-limit solutions, the GP moments."""

    f_lin: np.ndarray
    gp_mean: np.ndarray | None = None
    gp_cov: np.ndarray | None = None


def _invertible_eigh(gram: KernelGram, role: str) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a gram that is about to be inverted; role names it in the error.
    lambda_min must clear SINGULAR_TOL, and the decomposition must rebuild the
    gram to 1e-8 relative to lambda_max, to whose rounding eigh is accurate."""
    eigvals, eigvecs = np.linalg.eigh(gram.matrix)
    if eigvals[0] <= SINGULAR_TOL:
        raise ValueError(
            f"{role} gram is singular: lambda_min = {eigvals[0]:.3e} <= {SINGULAR_TOL}"
        )
    err = float(np.max(np.abs((eigvecs * eigvals) @ eigvecs.T - gram.matrix)))
    if err > 1e-8 * max(1.0, float(eigvals[-1])):
        raise ValueError(f"eigendecomposition misses the gram by {err:.3e}")
    return eigvals, eigvecs


def linearize(
    config: NetConfig,
    weights: list[np.ndarray],
    x_train: np.ndarray,
    y: np.ndarray,
    eta: float,
    kernel: str = "limiting",
    nodes: int = GH_NODES,
) -> LinearizedSolution:
    """Prepare the closed-form solution for one training set.

    kernel selects the train gram: "empirical" (gradient features of the
    given weights), "limiting" (Theta_0), or "last_layer" (q_{L+1}, the
    kernel of output-layer-only training). The net has one output, trained
    on one label per column. The gram must be invertible; a smallest
    eigenvalue at or below 1e-10 is an error.
    """
    if config.widths[-1] != 1:
        raise ValueError(f"linearized training needs a scalar output, got width {config.widths[-1]}")
    _check_positive("eta", eta)
    if kernel not in ("empirical", "limiting", "last_layer"):
        raise ValueError(f"unknown kernel choice {kernel!r}")
    x_train = _as_columns(x_train, config.widths[0])
    m = x_train.shape[1]
    y = np.asarray(y, dtype=float).ravel()
    if y.size != m:
        raise ValueError(f"need {m} label entries, got {y.size}")
    if kernel == "empirical":
        gram, nngp_train = empirical_ntk(config, weights, x_train), None
    else:
        if config.parameterization != "ntk":
            raise ValueError("the limit kernel is defined for the ntk parameterization")
        theta, nngp_train = _pair_kernels(x_train, None, config, nodes)
        train, tag = (nngp_train, "nngp") if kernel == "last_layer" else (theta, "limiting_ntk")
        gram = KernelGram(train, tag=tag)
    eigvals, eigvecs = _invertible_eigh(gram, "train")
    f0 = forward(config, weights, x_train).output.ravel()
    return LinearizedSolution(
        gram=gram,
        eigvals=eigvals,
        eigvecs=eigvecs,
        f0_train=f0,
        y=y,
        eta=eta,
        config=config,
        weights=[np.broadcast_to(w, np.shape(w)) for w in weights],  # read-only views
        x_train=x_train.copy(),
        kernel=kernel,
        nodes=nodes,
        nngp_train=nngp_train,
    )


def linearized_train(
    sol: LinearizedSolution, x_query: np.ndarray, t: float
) -> LinearizedPrediction:
    """Evaluate the linearized model at time t on query columns.

    f_lin,t(x) = f_0(x) - Theta(x, X) Theta^{-1} (I - E_t) (f_0(X) - y),
    E_t = exp(-eta Theta t / m); t = inf gives the fully trained model.
    Solutions built on a limit kernel also return the GP moments mu_lin,t
    and q_lin,t of the trained infinite-width model.

    f_0(x) is evaluated from sol.weights on every call. The limit kernels
    Theta(x, X), q(x, X) and q(x, x) depend on neither t nor the weights, so
    calls at several t on one query set compute them once; the empirical
    kernel is recomputed per call, as it depends on the weights.
    """
    if not t >= 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    config = sol.config
    x_query = _as_columns(x_query, config.widths[0])
    f0_query = forward(config, sol.weights, x_query).output.ravel()
    b_t = sol.solve_factor(t)
    if sol.kernel == "empirical":
        cross, nngp_query = _tangent_gram(config, sol.weights, x_query, sol.x_train), None
    else:
        theta_cross, nngp_cross, nngp_query = _query_kernels(sol, x_query)
        cross = nngp_cross if sol.kernel == "last_layer" else theta_cross
    weighted = cross @ b_t
    f_lin = f0_query + weighted @ (sol.y - sol.f0_train)
    if nngp_query is None:  # the empirical kernel: no GP moments
        return LinearizedPrediction(f_lin=f_lin)
    gp_mean = weighted @ sol.y
    cross_term = weighted @ nngp_cross.T
    gp_cov = nngp_query - cross_term - cross_term.T + weighted @ sol.nngp_train @ b_t @ cross.T
    return LinearizedPrediction(f_lin=f_lin, gp_mean=gp_mean, gp_cov=gp_cov)


def _query_kernels(
    sol: LinearizedSolution, x_query: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Theta(x, X), q(x, X) and q(x, x) of a limit-kernel solution on query
    columns.

    The solution keeps one entry, for its most recent query set, keyed by
    the columns' shape and bytes rather than the array's identity, so a
    query array edited in place is computed afresh.
    """
    key = (x_query.shape, x_query.tobytes())
    kernels = sol._query_memo.get(key)
    if kernels is None:
        theta_cross, nngp_cross = _pair_kernels(x_query, sol.x_train, sol.config, sol.nodes)
        kernels = (theta_cross, nngp_cross, _pair_kernels(x_query, None, sol.config, sol.nodes)[1])
        sol._query_memo.clear()
        sol._query_memo[key] = kernels
    return kernels


def bayes_posterior(
    q_gram: KernelGram | None,
    x_train: np.ndarray,
    y: np.ndarray,
    x_query: np.ndarray,
    config: NetConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free GP regression under the NNGP prior q_{L+1}.

    mean = q(x, X) q(X, X)^{-1} y and
    cov = q(x, x') - q(x, X) q(X, X)^{-1} q(X, x'). q_gram may carry a
    precomputed train gram; None computes it from config.
    """
    x_train = _as_columns(x_train, config.widths[0])
    y = np.asarray(y, dtype=float).ravel()
    if y.size != x_train.shape[1]:
        raise ValueError("bayes_posterior handles scalar outputs, one label per column")
    if q_gram is None:
        q_gram = nngp_gram(x_train, config)
    if q_gram.size != x_train.shape[1]:
        raise ValueError("train gram size does not match the dataset")
    eigvals, eigvecs = _invertible_eigh(q_gram, "prior")
    inv = (eigvecs / eigvals) @ eigvecs.T
    _, q_cross = _pair_kernels(x_query, x_train, config, GH_NODES)
    _, q_query = _pair_kernels(x_query, None, config, GH_NODES)
    weighted = q_cross @ inv
    return weighted @ y, q_query - weighted @ q_cross.T


# -- the Du two-layer setting --------------------------------------------------


def h_infinity_gram(
    x: np.ndarray, method: str = "angle", mc_samples: int = 200_000, seed: int = 0
) -> KernelGram:
    """Expected gram H^inf_kl = E_w 1[w.x_k > 0] 1[w.x_l > 0] x_k^T x_l.

    method "angle" uses the closed-form arc measure
    x_k^T x_l (pi - theta_kl) / (2 pi); "mc" averages indicator products
    over w ~ N(0, I) and serves as the oracle for the closed form.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a (d, m) column dataset")
    # an overflowing or non-finite input reaches KernelGram's checks as a
    # non-finite gram, without numpy's warnings on the way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        grams = x.T @ x
        if method == "angle":
            norms = np.sqrt(np.diag(grams))
            outer = np.outer(norms, norms)
            cosines = np.where(outer > 0, grams / np.where(outer > 0, outer, 1.0), 0.0)
            theta = np.arccos(np.clip(cosines, -1.0, 1.0))
            h = grams * (math.pi - theta) / (2 * math.pi)
        elif method == "mc":
            _check_at_least("mc_samples", mc_samples, 1)
            rng = np.random.default_rng(seed)
            w = rng.standard_normal((mc_samples, x.shape[0]))
            masks = (w @ x > 0).astype(float)
            h = grams * (masks.T @ masks) / mc_samples
        else:
            raise ValueError(f"unknown method {method!r}")
        h = 0.5 * (h + h.T)
    return KernelGram(h, tag="h_infinity")


@dataclass(frozen=True)
class DuTrajectory:
    """GD trajectories of the two-layer relu net with trained input weights.

    All arrays are indexed by the recorded step; t = step * eta. loss is
    the squared error ||y - f_t(X)||^2 whose theoretical envelope is
    exp(-lambda_0 t) loss(0), h_drift is ||H(t) - H(0)||_F.
    """

    t: np.ndarray
    loss: np.ndarray
    lambda_min_h: np.ndarray
    max_displacement: np.ndarray
    h_drift: np.ndarray
    lambda0: float
    r_prime: float


def du_convergence_monitor(
    x: np.ndarray,
    y: np.ndarray,
    n: int,
    eta: float,
    T: float,
    seed: int = 0,
) -> DuTrajectory:
    """Full-batch GD on f(x) = (1/sqrt(n)) sum_i a_i relu(w_i . x).

    Inputs must lie in the unit ball and labels in (-1, 1). Signs a_i are
    drawn uniform from {-1, +1} and frozen; only the input weights move,
    minimizing (1/2) ||f(X) - y||^2. The monitor records the loss, the
    smallest eigenvalue of H(t) (strict-> indicators, matching the
    gradient), the largest per-neuron displacement, and the gram drift,
    stepping until t = steps * eta reaches T, at most DU_MAX_STEPS steps.
    Divergence is recorded, not raised.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a (d, m) column dataset")
    y = np.asarray(y, dtype=float).ravel()
    d, m = x.shape
    if m == 0:
        raise ValueError("the dataset has no examples")
    if y.size != m:
        raise ValueError("one label per column")
    _check_at_least("hidden width n", n, 1)
    with np.errstate(over="ignore"):  # an overflowing norm fails the ball check
        norms = np.linalg.norm(x, axis=0)
    if np.any(norms > 1 + 1e-12):
        raise ValueError("inputs must lie in the unit ball")
    if np.any(np.abs(y) >= 1):
        raise ValueError("labels must lie strictly inside (-1, 1)")
    if not (0 < eta < math.inf and 0 < T < math.inf):
        raise ValueError(f"eta and T must be positive and finite, got {eta} and {T}")
    if not T / eta <= DU_MAX_STEPS:
        raise ValueError(f"T / eta = {T / eta:g} steps exceeds the cap of {DU_MAX_STEPS}")

    h_inf = h_infinity_gram(x, method="angle")
    lambda0 = h_inf.lambda_min()
    if not lambda0 > 0:
        raise ValueError(f"H_infinity has lambda_0 = {lambda0:.3e}; inputs must be finite and pairwise non-parallel")

    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, d))
    w0 = w.copy()
    a = rng.integers(0, 2, size=n) * 2.0 - 1.0
    grams = x.T @ x

    steps = int(math.ceil(T / eta))
    t_grid = np.arange(steps + 1) * eta
    loss = np.empty(steps + 1)
    lam_min = np.empty(steps + 1)
    disp = np.empty(steps + 1)
    drift = np.empty(steps + 1)
    h0 = None

    for k in range(steps + 1):
        pre = w @ x
        masks = pre > 0
        f = (a @ np.where(masks, pre, 0.0)) / math.sqrt(n)
        resid = f - y
        h_t = grams * (masks.T.astype(float) @ masks.astype(float)) / n
        if h0 is None:
            h0 = h_t
        loss[k] = float(resid @ resid)
        lam_min[k] = float(np.linalg.eigvalsh(h_t)[0])
        disp[k] = float(np.max(np.linalg.norm(w - w0, axis=1)))
        drift[k] = float(np.linalg.norm(h_t - h0))
        if k == steps:
            break
        grad = (a[:, None] * (masks * resid)) @ x.T / math.sqrt(n)
        w -= eta * grad

    r_prime = (2.0 / lambda0) * math.sqrt(m / n) * math.sqrt(loss[0])
    return DuTrajectory(
        t=t_grid,
        loss=loss,
        lambda_min_h=lam_min,
        max_displacement=disp,
        h_drift=drift,
        lambda0=lambda0,
        r_prime=r_prime,
    )


# -- kernel-label alignment ----------------------------------------------------


@dataclass(frozen=True)
class AlignmentReport:
    """Spectral decomposition of the residual against a fixed kernel.

    Gradient flow u' = -H (u - y) decays each eigencomponent p_k at rate
    lambda_k, so the predicted squared error is
    curve(t) = sum_k exp(-2 lambda_k t) p_k^2 on the stored grid.
    """

    eigvals: np.ndarray
    projections: np.ndarray
    t: np.ndarray
    curve: np.ndarray


def alignment(h_inf: KernelGram, y: np.ndarray, u0: np.ndarray, points: int = 200) -> AlignmentReport:
    """Decompose y - u0 in the kernel eigenbasis and predict the loss curve.

    The curve is taken on `points` (at least 2) times, log-spaced from
    0.01 / lambda_max, well before the fastest mode turns over, to
    20 / lambda_min over the positive eigenvalues, well after the slowest
    mode has died.
    """
    _check_at_least("points", points, 2)
    k = h_inf.matrix
    y = np.asarray(y, dtype=float).ravel()
    u0 = np.asarray(u0, dtype=float).ravel()
    if y.shape != u0.shape or y.size != k.shape[0]:
        raise ValueError("y and u0 must match the gram size")
    with np.errstate(over="ignore", invalid="ignore"):
        resid = y - u0
        energy = float(resid @ resid)
    if not math.isfinite(energy):
        raise ValueError(f"the squared residual |y - u0|^2 = {energy} is not finite")
    eigvals, eigvecs = np.linalg.eigh(k)
    projections = eigvecs.T @ resid
    total = float(projections @ projections)
    if abs(total - energy) > 1e-8 * max(1.0, energy):
        raise ValueError("projection energies do not add up to the residual norm")
    lam_max = float(eigvals[-1])
    if not 0 < lam_max < math.inf:
        raise ValueError(f"kernel needs a positive finite top eigenvalue, got {lam_max}")
    positive = eigvals[eigvals > 1e-12 * lam_max]
    t_first, t_last = 0.01 / lam_max, 20.0 / float(positive[0])
    if not math.isfinite(t_first) or not math.isfinite(t_last):
        raise ValueError(f"the time grid from 0.01 / lambda_max = {t_first} to 20 / lambda_min = {t_last} "
                         "leaves float range")
    t_grid = np.logspace(math.log10(t_first), math.log10(t_last), points)
    curve = np.exp(-2.0 * np.outer(t_grid, eigvals)) @ (projections**2)
    return AlignmentReport(
        eigvals=eigvals,
        projections=projections,
        t=t_grid,
        curve=curve,
    )
