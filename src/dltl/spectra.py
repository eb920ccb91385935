"""Jacobian spectra of deep linear networks: the product-Wishart limit and
sampled ensembles to hold against it.

The input-output Jacobian of a depth-L net, J = W_L D_L ... W_1 D_1, has a
limiting squared-singular-value density that free probability pins down
layer by layer: the S-transform of a free product multiplies,
S_{AB} = S_A S_B, so L iid square-Wishart factors give S(z) = (1 + z)^{-L}
(Pennington, Schoenholz & Ganguli, arXiv:1802.09979). This module serves
that limit as a parametric curve (product_wishart_spectrum, with its mass,
mean and top edge) and the pooled eigenvalues of sampled J J^T ensembles
(empirical_spectrum). The tests hold the curve to the S-transform
multiplicativity and to Marchenko-Pastur at depth 1, and the samples to
the curve in 1-Wasserstein distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netcore import NetConfig, _check_at_least, init_weights, jacobian

__all__ = [
    "ParamSpectrum",
    "product_wishart_spectrum",
    "product_wishart_lambda_max",
    "empirical_spectrum",
]


def _trapezoid(y: np.ndarray, x: np.ndarray):
    """Trapezoid integral of y over the 1-D grid x. This is the expression
    of np.trapezoid (numpy >= 2.0) and of np.trapz before it for 1-D input,
    so the value is the same to the bit under either, and no lookup by numpy
    version is needed."""
    return (np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum()


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


def empirical_spectrum(
    config: NetConfig,
    replicates: int = 50,
    seed: int = 0,
) -> np.ndarray:
    """Sample weights, form J J^T, and return the sorted eigenvalues pooled
    over replicates.

    Linear nets need no input; activations with data-dependent masks get
    them from a genuine forward pass, on a per-replicate standard-normal
    input from a dedicated substream.
    """
    _check_at_least("replicates", replicates, 1)
    eigs = []
    for r in range(replicates):
        weights = init_weights(config, seed + r)
        if config.activation.kind == "linear":
            x = np.ones(config.widths[0])
        else:
            x = np.random.default_rng([seed + r, 1]).standard_normal(config.widths[0])
        j = jacobian(config, weights, x)
        eigs.append(np.linalg.eigvalsh(j @ j.T))
    return np.sort(np.concatenate(eigs))
