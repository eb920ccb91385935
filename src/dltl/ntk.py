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
from dataclasses import dataclass, field

import numpy as np

from .meanfield import GH_NODES, chi_map, corr_map, length_map
from .netcore import Activation, NetConfig, backprop, forward

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
    holds chi_{i+1}(x,x') for i = 0..L-1.
    """

    q11: np.ndarray
    q12: np.ndarray
    q22: np.ndarray
    chi: np.ndarray

    def __post_init__(self):
        for name in ("q11", "q12", "q22", "chi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.q11.shape == self.q12.shape == self.q22.shape):
            raise ValueError("q arrays must share a shape")
        if self.chi.shape != (self.q11.size - 1,):
            raise ValueError("need exactly one chi per hidden-to-output step")
        bound = np.sqrt(self.q11 * self.q22) + 1e-10
        if np.any(np.abs(self.q12) > bound):
            raise ValueError("cross covariance exceeds the Cauchy-Schwarz bound")

    @property
    def depth(self) -> int:
        return self.q11.size - 1

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
# gaussian pair. Smooth activations take meanfield's correlation maps, which
# use the tensor Gauss-Hermite rule, pair by pair; for the piecewise-linear
# kinds that rule stalls near 1e-3 (the integrand kinks along two lines
# through the origin), so those are integrated in polar coordinates instead:
# the radial factor is a gamma integral, and on each angular arc where both
# factors are single pieces the integrand is a smooth trig expression handled
# by Gauss-Legendre exactly.
#
# The polar rule runs on whole arrays: the four sign-quadrant arcs of every
# pair form one (pairs, 4, 32) array of nodes. Each arc's weighted sum is
# taken by np.matmul on a (1, 32) @ (32, 1) stack, one dot product per arc (a
# gemv, rows @ weights, rounds some sums differently in the last bit), and
# the arcs are accumulated one by one in their fixed quadrant order, an empty
# arc adding 0.0, so a pair's value does not depend on the pairs beside it.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL_WEIGHT_COLUMN = _GL_WEIGHTS[:, None]
# Arc centers of u > 0 or u < 0, and of v > 0 or v < 0 before the shift by
# -d, for the sign quadrants (+, +), (+, -), (-, +), (-, -) in this order.
_ARC_U = np.array([0.0, 0.0, math.pi, math.pi])
_ARC_V = np.array([math.pi / 2, 3 * math.pi / 2, math.pi / 2, 3 * math.pi / 2])
# Pairs go through the recursion in chunks whose node arrays and layer-1 row
# copies stay near this many bytes each.
_CHUNK_BYTES = 256 * 1024


def _polar_moments(c: np.ndarray, q11: np.ndarray, q22: np.ndarray, slopes: tuple[float, float]):
    """(E phi(u) phi(v), E phi'(u) phi'(v)) for piecewise-linear phi, on 1-D arrays.

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
    a = (0.5 * (hi + lo))[..., None] + half[..., None] * _GL_NODES
    sums = np.matmul((np.cos(a) * np.sin(a + d[..., None]))[..., None, :], _GL_WEIGHT_COLUMN)[..., 0, 0]
    m_phi = m_deriv = 0.0
    for k in range(len(weight)):
        arc = hi[:, k] > lo[:, k]
        m_phi = m_phi + np.where(arc, weight[k] * (half[:, k] * sums[:, k]) / math.pi, 0.0)
        m_deriv = m_deriv + np.where(arc, weight[k] * (hi[:, k] - lo[:, k]) / (2 * math.pi), 0.0)
    return np.sqrt(q11 * q22) * m_phi, m_deriv


def _pair_moments(c, q11, q22, sigma_w2: float, act: Activation, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_w^2 E phi phi, sigma_w^2 E phi' phi') for gaussian pairs,
    elementwise over same-shape c, q11 and q22."""
    shape = np.shape(c)
    c, q11, q22 = (np.asarray(v, dtype=float).ravel() for v in (c, q11, q22))
    if act.slopes is not None:
        m_phi, m_deriv = (sigma_w2 * m for m in _polar_moments(c, q11, q22, act.slopes))
    else:
        pairs = list(zip(c.tolist(), q11.tolist(), q22.tolist()))
        m_phi = np.array([corr_map(*p, sigma_w2, act, nodes) for p in pairs], dtype=float)
        m_deriv = np.array([chi_map(*p, sigma_w2, act, nodes) for p in pairs], dtype=float)
    return m_phi.reshape(shape), m_deriv.reshape(shape)


def nngp_recursion(
    x: np.ndarray, x_prime: np.ndarray, config: NetConfig, nodes: int = GH_NODES
) -> KernelRecursionState:
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
    q11, q22 = _diagonals(x[None], config, nodes), _diagonals(xp[None], config, nodes)
    q12, chi = _recursion(x[None], xp[None], q11, q22, config, nodes)
    return KernelRecursionState(q11=q11[:, 0], q12=q12[:, 0], q22=q22[:, 0], chi=chi[:, 0])


def _diagonals(rows: np.ndarray, config: NetConfig, nodes: int) -> np.ndarray:
    """q_1..q_{L+1}(x, x) for each contiguous row x, one column per row."""
    q = np.empty((config.depth + 1, len(rows)))
    for k, x in enumerate(rows):
        with np.errstate(over="ignore"):  # an overflow fails length_map's check
            q[0, k] = config.sigma_w2 / config.widths[0] * float(x @ x)
        for l in range(config.depth):
            q[l + 1, k] = length_map(float(q[l, k]), config.sigma_w2, config.activation, nodes=nodes).q_next
    return q


def _recursion(rows_a, rows_b, q11, q22, config: NetConfig, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """q_1..q_{L+1}(x, x') and chi_1..chi_L(x, x'), a column per row pair
    (rows_a[p], rows_b[p]), from the pairs' diagonal sequences q11 and q22,
    checking every layer's cross covariance against the Cauchy-Schwarz bound."""
    depth, (pairs, n0) = config.depth, rows_a.shape
    q12, chi = np.empty((depth + 1, pairs)), np.empty((depth, pairs))
    # one BLAS dot per pair, as 1-D x @ x' is; a gemm or einsum rounds otherwise
    q12[0] = config.sigma_w2 / n0 * np.matmul(rows_a[:, None, :], rows_b[:, :, None])[:, 0, 0]
    for l in range(depth + 1):
        denom = np.sqrt(q11[l] * q22[l])
        if np.any(np.abs(q12[l]) > denom + 1e-10):
            raise ValueError("cross covariance exceeds the Cauchy-Schwarz bound")
        if l == depth:
            break
        c = np.clip(np.where(denom > 0, q12[l] / np.where(denom > 0, denom, 1.0), 0.0), -1.0, 1.0)
        q12[l + 1], chi[l] = _pair_moments(c, q11[l], q22[l], config.sigma_w2, config.activation, nodes)
    return q12, chi


def _as_columns(x: np.ndarray, n0: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != n0:
        raise ValueError(f"dataset must have shape ({n0}, m), got {x.shape}")
    return x


def _pair_kernels(
    x_a: np.ndarray, x_b: np.ndarray | None, config: NetConfig, nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """(Theta_0, q_{L+1}) between the columns of x_a and those of x_b.

    x_b = None gives the grams of x_a, computed on i <= j and mirrored.
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


def limiting_ntk(
    x: np.ndarray,
    config: NetConfig,
    nodes: int = GH_NODES,
    last_layer_only: bool = False,
    outputs: int | None = None,
) -> KernelGram:
    """Deterministic limit kernel Theta_0 on a column dataset.

    last_layer_only freezes everything below the output layer, which
    collapses the kernel to q_{L+1}. Multi-output kernels are diagonal:
    passing outputs=k returns the scalar gram kron identity, indexed with
    the example major and the output component minor.
    """
    return _limit_grams(x, config, nodes, last_layer_only, outputs)[0]


def _limit_grams(
    x: np.ndarray, config: NetConfig, nodes: int, last_layer_only: bool, outputs: int | None
) -> tuple[KernelGram, np.ndarray]:
    """limiting_ntk's gram, and the q_{L+1} gram computed along with it."""
    if config.parameterization != "ntk":
        raise ValueError("the limit kernel is defined for the ntk parameterization")
    theta, nngp = _pair_kernels(x, None, config, nodes)
    gram = nngp if last_layer_only else theta
    if outputs is not None:
        if outputs < 1:
            raise ValueError("outputs must be a positive count")
        gram = np.kron(gram, np.eye(outputs))
    return KernelGram(gram, tag="limiting_ntk"), nngp


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
        return [trace.x0, *trace.x], backprop(config, weights, trace, seeds)

    xs_a, gs_a = layer_factors(x_a)
    xs_b, gs_b = (xs_a, gs_a) if x_b is None else layer_factors(x_b)
    gram = np.zeros((xs_a[0].shape[1], xs_b[0].shape[1]))
    for l in range(config.n_layers):
        gram += config.layer_scale(l) ** 2 * (gs_a[l].T @ gs_b[l]) * (xs_a[l].T @ xs_b[l])
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
    learning rate, and m the train size appearing in exp(-eta Theta t / m).
    nngp_train is the train-set q_{L+1} gram of a limit-kernel solution
    (None for the empirical kernel). weights holds read-only views of the
    arrays passed to linearize, not copies: writing into those arrays
    afterwards changes the solution's f_0.
    """

    gram: KernelGram
    eigvals: np.ndarray
    eigvecs: np.ndarray
    f0_train: np.ndarray
    y: np.ndarray
    eta: float
    m: int
    config: NetConfig
    weights: list[np.ndarray] = field(repr=False)
    x_train: np.ndarray = field(repr=False)
    kernel: str = "limiting"
    nodes: int = GH_NODES
    nngp_train: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        recon = (self.eigvecs * self.eigvals) @ self.eigvecs.T
        err = float(np.max(np.abs(recon - self.gram.matrix)))
        if err > 1e-8:
            raise ValueError(f"eigendecomposition misses the gram by {err:.3e}")

    def solve_factor(self, t: float) -> np.ndarray:
        """B_t = Theta^{-1} (I - E_t), E_t = exp(-eta Theta t / m), evaluated
        spectrally. An overflowing exponent is the t -> infinity limit,
        expm1(-inf) = -1, so the overflow warning is silenced."""
        lam = self.eigvals
        with np.errstate(over="ignore"):
            coeff = -np.expm1(-self.eta * lam * t / self.m) / lam
        return (self.eigvecs * coeff) @ self.eigvecs.T


@dataclass(frozen=True)
class LinearizedPrediction:
    """Point prediction and, for kernel-limit solutions, the GP moments."""

    t: float
    f_lin: np.ndarray
    gp_mean: np.ndarray | None = None
    gp_cov: np.ndarray | None = None


def _invertible_eigh(gram: KernelGram, role: str) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a gram that is about to be inverted; role names it in the error."""
    eigvals, eigvecs = np.linalg.eigh(gram.matrix)
    if eigvals[0] <= SINGULAR_TOL:
        raise ValueError(
            f"{role} gram is singular: lambda_min = {eigvals[0]:.3e} <= {SINGULAR_TOL}"
        )
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
    kernel of output-layer-only training). The gram must be invertible;
    a smallest eigenvalue at or below 1e-10 is an error.
    """
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if kernel not in ("empirical", "limiting", "last_layer"):
        raise ValueError(f"unknown kernel choice {kernel!r}")
    x_train = _as_columns(x_train, config.widths[0])
    m = x_train.shape[1]
    k = config.widths[-1]
    y = np.asarray(y, dtype=float).ravel()
    if y.size != m * k:
        raise ValueError(f"need {m * k} label entries, got {y.size}")
    if kernel == "empirical":
        gram, nngp_train = empirical_ntk(config, weights, x_train), None
    else:
        gram, nngp_train = _limit_grams(
            x_train, config, nodes, kernel == "last_layer", k if k > 1 else None
        )
    eigvals, eigvecs = _invertible_eigh(gram, "train")
    f0 = forward(config, weights, x_train).output.T.ravel()
    return LinearizedSolution(
        gram=gram,
        eigvals=eigvals,
        eigvecs=eigvecs,
        f0_train=f0,
        y=y,
        eta=eta,
        m=m,
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
    and q_lin,t of the trained infinite-width model (scalar output only).
    """
    if not t >= 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    config = sol.config
    x_query = _as_columns(x_query, config.widths[0])
    k = config.widths[-1]
    f0_query = forward(config, sol.weights, x_query).output.T.ravel()
    b_t = sol.solve_factor(t)
    if sol.kernel == "empirical":
        theta_cross = _tangent_gram(config, sol.weights, x_query, sol.x_train)
        f_lin = f0_query + theta_cross @ b_t @ (sol.y - sol.f0_train)
        return LinearizedPrediction(t=t, f_lin=f_lin)

    theta_cross, nngp_cross = _pair_kernels(x_query, sol.x_train, config, sol.nodes)
    if sol.kernel == "last_layer":
        theta_cross = nngp_cross
    if k > 1:
        theta_big = np.kron(theta_cross, np.eye(k))
        f_lin = f0_query + theta_big @ b_t @ (sol.y - sol.f0_train)
        return LinearizedPrediction(t=t, f_lin=f_lin)

    f_lin = f0_query + theta_cross @ b_t @ (sol.y - sol.f0_train)
    gp_mean = theta_cross @ b_t @ sol.y
    _, nngp_query = _pair_kernels(x_query, None, config, sol.nodes)
    cross_term = theta_cross @ b_t @ nngp_cross.T
    gp_cov = (
        nngp_query
        - cross_term
        - cross_term.T
        + theta_cross @ b_t @ sol.nngp_train @ b_t @ theta_cross.T
    )
    return LinearizedPrediction(t=t, f_lin=f_lin, gp_mean=gp_mean, gp_cov=gp_cov)


def bayes_posterior(
    q_gram: KernelGram | None,
    x_train: np.ndarray,
    y: np.ndarray,
    x_query: np.ndarray,
    config: NetConfig,
    nodes: int = GH_NODES,
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
        q_gram = nngp_gram(x_train, config, nodes=nodes)
    if q_gram.size != x_train.shape[1]:
        raise ValueError("train gram size does not match the dataset")
    eigvals, eigvecs = _invertible_eigh(q_gram, "prior")
    inv = (eigvecs / eigvals) @ eigvecs.T
    _, q_cross = _pair_kernels(x_query, x_train, config, nodes)
    _, q_query = _pair_kernels(x_query, None, config, nodes)
    mean = q_cross @ inv @ y
    cov = q_query - q_cross @ inv @ q_cross.T
    return mean, cov


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
            if mc_samples < 1:
                raise ValueError(f"mc_samples must be at least 1, got {mc_samples}")
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
    h_infinity: KernelGram
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
    if n < 1:
        raise ValueError(f"hidden width n must be at least 1, got {n}")
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
        h_infinity=h_inf,
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
    eigvecs: np.ndarray
    projections: np.ndarray
    t: np.ndarray
    curve: np.ndarray

    def time_to_fraction(self, fraction: float) -> float:
        """First grid time where the curve drops to fraction of curve[0]."""
        if not 0 < fraction < 1:
            raise ValueError("fraction must lie in (0, 1)")
        target = fraction * self.curve[0]
        hit = np.nonzero(self.curve <= target)[0]
        return float(self.t[hit[0]]) if hit.size else math.inf


def alignment(
    h_inf: KernelGram,
    y: np.ndarray,
    u0: np.ndarray,
    t_grid: np.ndarray | None = None,
    points: int = 200,
) -> AlignmentReport:
    """Decompose y - u0 in the kernel eigenbasis and predict the loss curve.

    The default grid is log-spaced from well before the fastest mode turns
    over to well after the slowest positive mode has died.
    """
    k = h_inf.matrix
    y = np.asarray(y, dtype=float).ravel()
    u0 = np.asarray(u0, dtype=float).ravel()
    if y.shape != u0.shape or y.size != k.shape[0]:
        raise ValueError("y and u0 must match the gram size")
    eigvals, eigvecs = np.linalg.eigh(k)
    resid = y - u0
    projections = eigvecs.T @ resid
    total = float(projections @ projections)
    if abs(total - float(resid @ resid)) > 1e-8 * max(1.0, float(resid @ resid)):
        raise ValueError("projection energies do not add up to the residual norm")
    if t_grid is None:
        lam_max = float(eigvals[-1])
        if not 0 < lam_max < math.inf:
            raise ValueError(f"kernel needs a positive finite top eigenvalue, got {lam_max}")
        positive = eigvals[eigvals > 1e-12 * lam_max]
        lam_min = float(positive[0])
        t_grid = np.logspace(
            math.log10(0.01 / lam_max), math.log10(20.0 / lam_min), points
        )
    else:
        t_grid = np.asarray(t_grid, dtype=float)
    curve = np.exp(-2.0 * np.outer(t_grid, eigvals)) @ (projections**2)
    return AlignmentReport(
        eigvals=eigvals,
        eigvecs=eigvecs,
        projections=projections,
        t=t_grid,
        curve=curve,
    )
