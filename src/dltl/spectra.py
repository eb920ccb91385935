"""Free-probability calculus for input-output Jacobian spectra.

The input-output Jacobian of a depth-L net, J = W_L D_L ... W_1 D_1, has a
limiting squared-singular-value density that free probability pins down
layer by layer: the S-transform of a free product multiplies,
S_{AB} = S_A S_B. This module ships the transform toolkit (Stieltjes G,
moment M, S and R transforms, all evaluated numerically on explicit real
domains), the closed-form building blocks (Marchenko-Pastur, point masses,
the relu mask spectrum), the parametric product-Wishart limit density, the
relu-orthogonal spectral edge, and empirical JJ^T eigenvalue ensembles to
hold against all of it.

Conventions: G_X(z) = E tr (z - X)^{-1} (normalized trace), M(z) = z G(z) - 1,
S(z) = (1 + z) / (z M^{-1}(z)), R(zeta) = G^{-1}(zeta) - 1/zeta. Functional
inverses are taken by bisection on real segments to the right of the support,
where G and M decrease whenever the density is nonnegative (and, for M, its
support lies in [0, inf)); the paper-style formal-series manipulations are
deliberately replaced by explicit domains.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .netcore import NetConfig, init_weights, jacobian

__all__ = [
    "Density1D",
    "ParamSpectrum",
    "EmpiricalSpectrum",
    "StieltjesTransforms",
    "marchenko_pastur",
    "dirac",
    "d_squared_relu",
    "grid_density",
    "r_transform",
    "product_wishart_spectrum",
    "product_wishart_lambda_max",
    "invert_stieltjes",
    "relu_orth_edge",
    "empirical_spectrum",
    "wasserstein1_to_density",
]


def _trapezoid(y: np.ndarray, x: np.ndarray):
    """Trapezoid integral of y over the 1-D grid x. This is the expression
    of np.trapezoid (numpy >= 2.0) and of np.trapz before it for 1-D input,
    so the value is the same to the bit under either, and no lookup by numpy
    version is needed."""
    return (np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum()


# Marchenko-Pastur integrals in t = 4 sin^2(theta), where rho dt becomes
# (4/pi) cos^2(theta) dtheta with no endpoint singularity: a 64-node
# Gauss-Legendre rule on [0, pi/2], whose half-width pi/4 cancels the 4/pi.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)
_MP_THETA = (math.pi / 4.0) * (_GL_X + 1.0)
_MP_NODES = 4.0 * np.sin(_MP_THETA) ** 2
_MP_WEIGHTS = _GL_W * np.cos(_MP_THETA) ** 2


@dataclass(frozen=True)
class Density1D:
    """A spectral density: point masses plus an optional continuous part.

    kind is one of "marchenko_pastur" (closed form on [0, 4], integrated on a
    fixed 64-node Gauss-Legendre rule in theta, t = 4 sin^2(theta), with a
    closed-form Stieltjes transform), "dirac",
    "d_squared" (the relu mask spectrum, half mass at 0 and at 1), "grid"
    (samples (grid_x, grid_rho) on an ascending grid, integrated by
    trapezoid), or "quadrature" (nodes quad_x with precomputed weights
    quad_w, for densities sampled along a parametric curve whose pointwise
    values diverge at an edge while the weights stay tame).
    """

    kind: str
    atoms: tuple[tuple[float, float], ...] = ()
    grid_x: np.ndarray | None = None
    grid_rho: np.ndarray | None = None
    quad_x: np.ndarray | None = None
    quad_w: np.ndarray | None = None

    @property
    def support(self) -> tuple[float, float]:
        lo, hi = math.inf, -math.inf
        for pos, _ in self.atoms:
            lo, hi = min(lo, pos), max(hi, pos)
        if self.kind == "marchenko_pastur":
            lo, hi = min(lo, 0.0), max(hi, 4.0)
        elif self.kind == "grid":
            lo = min(lo, float(self.grid_x[0]))
            hi = max(hi, float(self.grid_x[-1]))
        elif self.kind == "quadrature":
            lo = min(lo, float(self.quad_x.min()))
            hi = max(hi, float(self.quad_x.max()))
        return lo, hi

    def integrate(self, f) -> float | complex:
        """Integral of f against the density (atoms included); f takes an
        array of nodes and may be complex-valued."""
        total = sum(mass * f(pos) for pos, mass in self.atoms)
        if self.kind == "marchenko_pastur":
            total += np.sum(_MP_WEIGHTS * f(_MP_NODES))
        elif self.kind == "grid":
            total += _trapezoid(f(self.grid_x) * self.grid_rho, self.grid_x)
        elif self.kind == "quadrature":
            total += np.sum(self.quad_w * f(self.quad_x))
        return total

    def stieltjes(self, z) -> float | complex:
        """G(z) = integral of rho(t) / (z - t), for z off the support."""
        if self.kind != "marchenko_pastur":
            return self.integrate(lambda t: 1.0 / (z - t))
        # 2 / (z + sqrt(z) sqrt(z - 4)) on principal branches: no cancellation
        # at large |z|, real outside [0, 4] on the axis, Im G < 0 above it
        w = complex(z)
        g = 2.0 / (w + cmath.sqrt(w) * cmath.sqrt(w - 4.0))
        g += sum(mass / (w - pos) for pos, mass in self.atoms)
        return g if np.iscomplexobj(z) else g.real

    def mass(self) -> float:
        return self.integrate(lambda t: np.ones_like(np.asarray(t, dtype=float)))

    def mean(self) -> float:
        return self.integrate(lambda t: np.asarray(t, dtype=float))


def marchenko_pastur() -> Density1D:
    """rho(x) = (1/2pi) sqrt(4/x - 1) on (0, 4], the square-Wishart limit."""
    return Density1D(kind="marchenko_pastur")


def mp_pdf(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0) & (x < 4)
    out[inside] = np.sqrt(4.0 / x[inside] - 1.0) / (2.0 * math.pi)
    return out


def mp_cdf(x) -> np.ndarray:
    """Closed-form Marchenko-Pastur CDF via x = 4 sin^2(theta)."""
    x = np.asarray(x, dtype=float)
    th = np.arcsin(np.sqrt(np.clip(x, 0.0, 4.0) / 4.0))
    return np.where(x <= 0, 0.0, np.where(x >= 4, 1.0, (2.0 / math.pi) * (th + np.sin(th) * np.cos(th))))


def dirac(x: float) -> Density1D:
    return Density1D(kind="dirac", atoms=((float(x), 1.0),))


def d_squared_relu() -> Density1D:
    """Spectrum of the squared relu mask D^2: half the units pass, half do not."""
    return Density1D(kind="d_squared", atoms=((0.0, 0.5), (1.0, 0.5)))


def grid_density(x: np.ndarray, rho: np.ndarray) -> Density1D:
    x = np.asarray(x, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if x.ndim != 1 or x.shape != rho.shape:
        raise ValueError("grid density needs matching 1-D arrays")
    if np.any(np.diff(x) <= 0):
        raise ValueError("grid must be strictly ascending")
    return Density1D(kind="grid", grid_x=x, grid_rho=rho)


class StieltjesTransforms:
    """G, M, S for one density, with explicitly-domained inversions.

    G and M accept complex arguments off the support and real arguments
    outside it. G^{-1} and M^{-1} (and through it S) work on the real segment
    to the right of the support. There G' = -int rho / (w - t)^2 < 0 when
    rho >= 0, and M' = -int t rho / (w - t)^2 < 0 when the support also lies
    in [0, inf): both conditions are checked once, on the density's masses
    and weights, and an inversion without its condition raises.
    """

    def __init__(self, density: Density1D):
        self.density = density
        self._lo, self._hi = density.support
        weights = [np.array([m for _, m in density.atoms]), density.grid_rho, density.quad_w]
        nonnegative = all(np.all(w >= 0) for w in weights if w is not None)
        self._decreasing = {"G": nonnegative, "M": nonnegative and self._lo >= 0}

    def _check_off_support(self, z) -> None:
        if np.iscomplexobj(z) and abs(np.imag(z)) > 0:
            return
        x = float(np.real(z))
        if self._lo - 1e-12 <= x <= self._hi + 1e-12:
            raise ValueError(f"z = {z} lies on the spectral support [{self._lo}, {self._hi}]")

    def G(self, z) -> complex | float:
        self._check_off_support(z)
        return self.density.stieltjes(z)

    def M(self, z) -> complex | float:
        return z * self.G(z) - 1.0

    def M_inverse(self, y: float) -> float:
        """Solve M(w) = y for real w above the support."""
        return self._invert_decreasing(lambda w: w * self.density.stieltjes(w) - 1.0, y, name="M")

    def S(self, z: float) -> float:
        """S(z) = (1 + z) / (z M^{-1}(z)) on the real segment where M inverts."""
        if z == 0:
            raise ValueError("S(0) is not defined through M^{-1}")
        return (1.0 + z) / (z * self.M_inverse(z))

    def G_inverse(self, y: float) -> float:
        return self._invert_decreasing(self.density.stieltjes, y, name="G")

    def _invert_decreasing(self, func, y: float, name: str) -> float:
        if not self._decreasing[name]:
            raise ValueError(f"{name} is not monotone on ({self._hi:g}, inf)")
        scale = max(1.0, abs(self._hi))
        if y <= 0:
            raise ValueError(f"{name}^(-1) needs a positive value, got {y}")
        # walk the left bracket toward the spectral edge until the target is
        # enclosed; targets that equal the edge limit itself (S at the right
        # end of its domain) resolve to the edge within slack
        offset = 1e-9 * scale
        lo = self._hi + offset
        f_lo = func(lo)
        min_offset = 8.0 * np.finfo(float).eps * scale
        while f_lo < y and offset > min_offset:
            offset *= 0.1
            lo = self._hi + offset
            f_lo = func(lo)
        if f_lo < y:
            if y - f_lo <= 1e-6 * (1.0 + abs(y)):
                return lo
            raise ValueError(f"{name} = {y} is out of range (edge value {f_lo:g})")
        step = scale
        for _ in range(200):
            hi = self._hi + step
            if func(hi) < y:
                break
            step *= 2.0
        else:
            raise ValueError(f"{name}^(-1): could not bracket {y}")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if func(mid) > y:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-13 * max(1.0, abs(hi)):
                break
        return 0.5 * (lo + hi)


def r_transform(density: Density1D):
    """R(zeta) = G^{-1}(zeta) - 1/zeta as a callable on (0, G(edge+))."""
    transforms = StieltjesTransforms(density)

    def R(zeta: float) -> float:
        return transforms.G_inverse(zeta) - 1.0 / zeta

    return R


@dataclass(frozen=True)
class ParamSpectrum:
    """Product-Wishart limit spectrum, parameterized on phi in (0, pi/(L+1)).

    lam decreases from lambda_max = (L+1)^{L+1} / L^L (the phi -> 0 limit)
    to 0; rho is the density at lam(phi). Integrals along the curve are done
    in phi, where the integrand stays bounded even though rho(lambda)
    diverges at the lower spectral edge.
    """

    depth: int
    phi: np.ndarray
    lam: np.ndarray
    rho: np.ndarray

    @property
    def lambda_max(self) -> float:
        return product_wishart_lambda_max(self.depth)

    def _dlam_dphi(self) -> np.ndarray:
        L = self.depth
        p = self.phi
        return self.lam * (
            (L + 1) ** 2 / np.tan((L + 1) * p) - 1.0 / np.tan(p) - L**2 / np.tan(L * p)
        )

    def mass(self) -> float:
        return float(_trapezoid(self.rho * (-self._dlam_dphi()), self.phi))

    def mean(self) -> float:
        return float(_trapezoid(self.lam * self.rho * (-self._dlam_dphi()), self.phi))

    def density(self) -> Density1D:
        """Quadrature density on the lambda samples: trapezoid weights taken
        in phi, where the integrand rho |dlam/dphi| is bounded (rho itself
        diverges at the lower edge, so weighting a lambda grid directly
        would not converge)."""
        integrand = self.rho * (-self._dlam_dphi())
        dphi = self.phi[1] - self.phi[0]
        w = np.full_like(integrand, dphi)
        w[0] = w[-1] = 0.5 * dphi
        return Density1D(kind="quadrature", quad_x=self.lam, quad_w=w * integrand)


def product_wishart_spectrum(L: int, points: int = 200_001) -> ParamSpectrum:
    """Limiting spectrum of J J^T for a product of L iid n^{-1}-variance
    gaussian factors: lam(phi) = sin^{L+1}((L+1)phi) / (sin phi sin^L(L phi)),
    rho(lam(phi)) = (1/pi) sin^2(phi) sin^{L-1}(L phi) / sin^L((L+1)phi).

    Endpoints are excluded by 1e-8; L = 1 reduces to Marchenko-Pastur
    (lam = 4 cos^2 phi).
    """
    if L < 1:
        raise ValueError(f"depth must be >= 1, got {L}")
    if points < 2:
        raise ValueError(f"the spectrum curve needs at least 2 points, got {points}")
    phi = np.linspace(1e-8, math.pi / (L + 1) - 1e-8, points)
    with np.errstate(all="ignore"):  # an out-of-range curve fails the check below
        s1, sL, sL1 = np.sin(phi), np.sin(L * phi), np.sin((L + 1) * phi)
        lam = sL1 ** (L + 1) / (s1 * sL**L)
        rho = s1**2 * sL ** (L - 1) / (math.pi * sL1**L)
        in_range = np.all(np.isfinite(lam) & (lam > 0.0) & np.isfinite(rho) & (rho > 0.0))
    if not in_range or np.any(np.diff(lam) >= 0):
        # lambda(phi) decreases analytically; in float64 the powers of
        # sin under- or overflow near the endpoints once L is large
        raise RuntimeError(
            f"the depth-{L} spectrum curve leaves float range (sin^L under- or overflows near the endpoints)"
        )
    return ParamSpectrum(depth=L, phi=phi, lam=lam, rho=rho)


def product_wishart_lambda_max(L: int) -> float:
    if L < 1:
        raise ValueError(f"depth must be >= 1, got {L}")
    return float((L + 1) ** (L + 1) / L**L)


def invert_stieltjes(G, support_grid: np.ndarray) -> Density1D:
    """Recover rho on a grid from G via rho = -(1/pi) Im G(x + i eps).

    Two-level Richardson extrapolation over the fixed sequence
    eps in {1e-2, 1e-3, 1e-4} (the boundary values are linear in eps to
    leading order). Convergence is judged on the integrated mass of the two
    Richardson levels, which stays meaningful even when point values blow up
    at an atom; the gate is coarse (5% relative) because the eps-expansion
    degrades near edge singularities inside the window, while interior point
    values still come out far tighter. Small negative values (above -1e-6)
    are clamped to zero.

    The grid has to resolve the sharpest probe: near a suspected atom its
    spacing must sit below the smallest eps, or the trapezoid mass of the
    eps = 1e-4 level is garbage and the gate (rightly) trips.
    """
    eps_seq = (1e-2, 1e-3, 1e-4)
    grid = np.asarray(support_grid, dtype=float)
    levels = []
    for eps in eps_seq:
        vals = np.array([-np.imag(G(x + 1j * eps)) / math.pi for x in grid])
        levels.append(vals)
    r1 = (10.0 * levels[1] - levels[0]) / 9.0
    r2 = (10.0 * levels[2] - levels[1]) / 9.0
    mass1, mass2 = _trapezoid(r1, grid), _trapezoid(r2, grid)
    if not (np.isfinite(mass1) and np.isfinite(mass2)) or abs(mass2 - mass1) > 0.05 * (
        1.0 + abs(mass2)
    ):
        raise RuntimeError(
            "Richardson extrapolation did not converge over eps = "
            f"{eps_seq}: level masses {mass1:g}, {mass2:g}"
        )
    rho = (100.0 * r2 - r1) / 99.0
    rho[(rho < 0.0) & (rho >= -1e-6)] = 0.0
    return grid_density(grid, rho)


def relu_orth_edge(L: int) -> float:
    """Largest Jacobian eigenvalue for relu with orthogonal weights at the
    variance-preserving point: L (L/(L-1))^{L-1}, valid for L >= 3 (the
    derivation's lambda_r = (L-1)/(L-2) degenerates below). Approaches e*L
    for large L."""
    if L < 3:
        raise ValueError(f"the closed form needs L >= 3, got {L}")
    return float(L * (L / (L - 1)) ** (L - 1))


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Pooled eigenvalues of sampled J J^T ensembles."""

    eigenvalues: np.ndarray
    n: int
    depth: int
    init: str
    replicates: int
    seed: int


def empirical_spectrum(
    config: NetConfig,
    replicates: int = 50,
    seed: int = 0,
) -> EmpiricalSpectrum:
    """Sample weights, form J J^T, pool sorted eigenvalues over replicates.

    Linear nets need no input; activations with data-dependent masks get
    them from a genuine forward pass, on a per-replicate standard-normal
    input from a dedicated substream.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    eigs = []
    for r in range(replicates):
        weights = init_weights(config, seed + r)
        if config.activation.kind == "linear":
            x = np.ones(config.widths[0])
        else:
            x = np.random.default_rng([seed + r, 1]).standard_normal(config.widths[0])
        j = jacobian(config, weights, x)
        eigs.append(np.linalg.eigvalsh(j @ j.T))
    pooled = np.sort(np.concatenate(eigs))
    return EmpiricalSpectrum(
        eigenvalues=pooled,
        n=config.widths[1],
        depth=config.depth,
        init=config.init,
        replicates=replicates,
        seed=seed,
    )


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting at 0; the operations
    run in the order of scipy's cumulative_trapezoid(y, x, initial=0.0), so
    the result is bit-identical to it."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def wasserstein1_to_density(values: np.ndarray, density: Density1D) -> float:
    """1-Wasserstein distance between samples and a density, by matching the
    sorted samples against the density's inverse CDF at (i - 1/2) / N."""
    values = np.sort(np.asarray(values, dtype=float))
    n = values.size
    p = (np.arange(n) + 0.5) / n
    if density.kind == "marchenko_pastur":
        xs = 4.0 * np.sin(np.linspace(0.0, math.pi / 2, 200_001)) ** 2
        quantiles = np.interp(p, mp_cdf(xs), xs)
    elif density.kind == "grid":
        x, rho = density.grid_x, density.grid_rho
        cdf = _cumulative_trapezoid(rho, x)
        if cdf[-1] <= 0:
            raise ValueError("grid density carries no mass")
        cdf /= cdf[-1]
        # collapse flat CDF stretches so interp stays well defined
        keep = np.concatenate(([True], np.diff(cdf) > 0))
        quantiles = np.interp(p, cdf[keep], x[keep])
    elif density.kind == "quadrature":
        order = np.argsort(density.quad_x)
        x, w = density.quad_x[order], density.quad_w[order]
        cdf = np.cumsum(w) - 0.5 * w
        cdf /= np.sum(w)
        keep = np.concatenate(([True], np.diff(cdf) > 0))
        quantiles = np.interp(p, cdf[keep], x[keep])
    elif density.atoms:
        pos = np.array([a[0] for a in density.atoms])
        masses = np.array([a[1] for a in density.atoms])
        order = np.argsort(pos)
        pos, masses = pos[order], masses[order]
        cum = np.cumsum(masses) / masses.sum()
        quantiles = pos[np.searchsorted(cum, p, side="left").clip(0, pos.size - 1)]
    else:
        raise ValueError(f"no quantile rule for density kind {density.kind!r}")
    return float(np.mean(np.abs(values - quantiles)))
