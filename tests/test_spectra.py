"""The product-Wishart limit spectrum and the sampled-Jacobian ensembles,
each held to an oracle kept here: the Marchenko-Pastur law in closed form,
the Stieltjes, moment and S transforms with M inverted by bisection, and
the 1-Wasserstein distance from samples to a density.

Conventions: G(z) = E tr (z - X)^{-1} (normalized trace), M(z) = z G(z) - 1,
S(z) = (1 + z) / (z M^{-1}(z)). M is inverted on the real segment to the
right of the support, where it decreases for a nonnegative density on
[0, inf).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from dltl.netcore import NetConfig
from dltl.spectra import (
    _trapezoid,
    empirical_spectrum,
    product_wishart_lambda_max,
    product_wishart_spectrum,
)

# Marchenko-Pastur integrals in t = 4 sin^2(theta), where rho dt becomes
# (4/pi) cos^2(theta) dtheta with no endpoint singularity: a 64-node
# Gauss-Legendre rule on [0, pi/2], whose half-width pi/4 cancels the 4/pi.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)
_MP_THETA = (math.pi / 4.0) * (_GL_X + 1.0)
_MP_NODES = 4.0 * np.sin(_MP_THETA) ** 2
_MP_WEIGHTS = _GL_W * np.cos(_MP_THETA) ** 2


@dataclass(frozen=True)
class _Density:
    """Marchenko-Pastur when quad_x is None (closed-form G, integrals on the
    rule above), else nodes quad_x with weights quad_w: a density sampled
    along a parametric curve, whose pointwise values diverge at an edge
    while the weights stay tame."""

    quad_x: np.ndarray | None = None
    quad_w: np.ndarray | None = None

    @property
    def support(self) -> tuple[float, float]:
        if self.quad_x is None:
            return 0.0, 4.0
        return float(self.quad_x.min()), float(self.quad_x.max())

    def integrate(self, f):
        if self.quad_x is None:
            return np.sum(_MP_WEIGHTS * f(_MP_NODES))
        return np.sum(self.quad_w * f(self.quad_x))

    def stieltjes(self, z):
        """G(z) = integral of rho(t) / (z - t), for z off the support."""
        if self.quad_x is not None:
            return self.integrate(lambda t: 1.0 / (z - t))
        # 2 / (z + sqrt(z) sqrt(z - 4)) on principal branches: no cancellation
        # at large |z|, real outside [0, 4] on the axis, Im G < 0 above it
        w = complex(z)
        g = 2.0 / (w + cmath.sqrt(w) * cmath.sqrt(w - 4.0))
        return g if np.iscomplexobj(z) else g.real

    def mass(self) -> float:
        return self.integrate(lambda t: np.ones_like(np.asarray(t, dtype=float)))

    def mean(self) -> float:
        return self.integrate(lambda t: np.asarray(t, dtype=float))


_MARCHENKO_PASTUR = _Density()


def _curve_density(spec) -> _Density:
    """A product-Wishart curve as a quadrature density on its lambda
    samples: trapezoid weights taken in phi, where rho |dlam/dphi| is
    bounded (rho itself diverges at the lower edge)."""
    integrand = spec.rho * (-spec._dlam_dphi())
    dphi = spec.phi[1] - spec.phi[0]
    w = np.full_like(integrand, dphi)
    w[0] = w[-1] = 0.5 * dphi
    return _Density(quad_x=spec.lam, quad_w=w * integrand)


def _mp_pdf(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0) & (x < 4)
    out[inside] = np.sqrt(4.0 / x[inside] - 1.0) / (2.0 * math.pi)
    return out


def _mp_cdf(x) -> np.ndarray:
    """Closed-form Marchenko-Pastur CDF via x = 4 sin^2(theta)."""
    x = np.asarray(x, dtype=float)
    th = np.arcsin(np.sqrt(np.clip(x, 0.0, 4.0) / 4.0))
    return np.where(x <= 0, 0.0, np.where(x >= 4, 1.0, (2.0 / math.pi) * (th + np.sin(th) * np.cos(th))))


def _m_inverse(density: _Density, y: float) -> float:
    """Solve M(w) = y for real w above the support, by bisection. Targets
    that equal the edge limit itself (S at the right end of its domain)
    resolve to the edge within slack."""
    hi_edge = density.support[1]

    def func(w):
        return w * density.stieltjes(w) - 1.0

    scale = max(1.0, abs(hi_edge))
    # walk the left bracket toward the spectral edge until the target is
    # enclosed
    offset = 1e-9 * scale
    lo = hi_edge + offset
    f_lo = func(lo)
    min_offset = 8.0 * np.finfo(float).eps * scale
    while f_lo < y and offset > min_offset:
        offset *= 0.1
        lo = hi_edge + offset
        f_lo = func(lo)
    if f_lo < y:
        assert y - f_lo <= 1e-6 * (1.0 + abs(y)), f"M = {y} is out of range (edge value {f_lo:g})"
        return lo
    step = scale
    while func(hi_edge + step) >= y:
        step *= 2.0
    hi = hi_edge + step
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if func(mid) > y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def _s_transform(density: _Density, z: float) -> float:
    """S(z) = (1 + z) / (z M^{-1}(z)) on the real segment where M inverts."""
    return (1.0 + z) / (z * _m_inverse(density, z))


def _w1(values: np.ndarray, density: _Density) -> float:
    """1-Wasserstein distance between samples and a density, by matching the
    sorted samples against the density's inverse CDF at (i - 1/2) / N."""
    values = np.sort(np.asarray(values, dtype=float))
    n = values.size
    p = (np.arange(n) + 0.5) / n
    if density.quad_x is None:
        xs = 4.0 * np.sin(np.linspace(0.0, math.pi / 2, 200_001)) ** 2
        quantiles = np.interp(p, _mp_cdf(xs), xs)
    else:
        order = np.argsort(density.quad_x)
        x, w = density.quad_x[order], density.quad_w[order]
        cdf = np.cumsum(w) - 0.5 * w
        cdf /= np.sum(w)
        keep = np.concatenate(([True], np.diff(cdf) > 0))
        quantiles = np.interp(p, cdf[keep], x[keep])
    return float(np.mean(np.abs(values - quantiles)))


def _mp_G(z):
    """Closed-form Stieltjes transform of the square-Wishart limit.

    The factored square roots pick the branch cut on [0, 4], so the formula
    is valid for complex z off the support (Im G < 0 above the cut).
    """
    z = complex(z) if not isinstance(z, complex) else z
    g = (z - np.sqrt(z) * np.sqrt(z - 4.0)) / (2.0 * z)
    return g.real if g.imag == 0.0 else g


class TestMarchenkoPastur:
    def test_pdf_closed_values(self):
        # rho(1) = sqrt(3) / (2 pi)
        np.testing.assert_allclose(_mp_pdf(1.0), math.sqrt(3) / (2 * math.pi), atol=1e-14)
        assert _mp_pdf(-0.5) == 0.0
        assert _mp_pdf(4.5) == 0.0

    def test_cdf_endpoints_and_median(self):
        np.testing.assert_allclose(_mp_cdf(0.0), 0.0, atol=1e-14)
        np.testing.assert_allclose(_mp_cdf(4.0), 1.0, atol=1e-12)
        # numeric cross-check against the pdf; quad absorbs the x^{-1/2}
        # edge singularity that a uniform trapezoid would truncate
        from scipy import integrate

        num, _ = integrate.quad(lambda t: float(_mp_pdf(t)), 0.0, 2.3)
        np.testing.assert_allclose(_mp_cdf(2.3), num, atol=1e-9)

    def test_density_mass_and_mean(self):
        mp = _MARCHENKO_PASTUR
        np.testing.assert_allclose(mp.mass(), 1.0, atol=1e-10)
        np.testing.assert_allclose(mp.mean(), 1.0, atol=1e-10)

    def test_support(self):
        assert _MARCHENKO_PASTUR.support == (0.0, 4.0)

    def test_moments_are_catalan_numbers(self):
        # E t^k = C_k = binom(2k, k) / (k + 1) for the square-Wishart law
        mp = _MARCHENKO_PASTUR
        for k in range(13):
            catalan = math.comb(2 * k, k) // (k + 1)
            np.testing.assert_allclose(mp.integrate(lambda t: t**k), catalan, rtol=1e-12)


def _quad_G(z):
    """G of the square-Wishart law by adaptive quadrature in t = 4 sin^2(theta),
    with a breakpoint at the Poisson peak of a near-axis probe."""
    from scipy import integrate

    z = complex(z)
    peak = math.asin(math.sqrt(min(max(z.real, 0.0), 4.0) / 4.0))
    points = [peak] if 0.0 < peak < math.pi / 2 else None
    parts = [
        integrate.quad(
            lambda th: part(1.0 / (z - 4.0 * math.sin(th) ** 2)) * (4.0 / math.pi) * math.cos(th) ** 2,
            0.0, math.pi / 2, points=points, limit=200, epsabs=1e-13, epsrel=1e-13,
        )[0]
        for part in (np.real, np.imag)
    ]
    return complex(*parts)


class TestStieltjes:
    @pytest.mark.parametrize("z", [4.5, 5.0, 8.0, 20.0, -0.5, -3.0, 0.5 + 0.01j, 2.0 + 0.01j, 3.9 + 0.01j])
    def test_closed_form_matches_quadrature(self, z):
        g = _MARCHENKO_PASTUR.stieltjes(z)
        assert isinstance(g, complex) == isinstance(z, complex)
        assert abs(g - _quad_G(z)) <= 1e-12

    def test_G_matches_closed_form(self):
        for z in (4.5, 5.0, 8.0, 20.0):
            np.testing.assert_allclose(_MARCHENKO_PASTUR.stieltjes(z), _mp_G(z), atol=1e-9)

    def test_M_and_inverse_round_trip(self):
        w = 6.0
        y = w * _MARCHENKO_PASTUR.stieltjes(w) - 1.0
        np.testing.assert_allclose(_m_inverse(_MARCHENKO_PASTUR, y), w, atol=1e-8)

    def test_S_transform_closed_form(self):
        # square-Wishart S(z) = 1 / (1 + z)
        for z in (0.2, 0.5, 0.9):
            np.testing.assert_allclose(_s_transform(_MARCHENKO_PASTUR, z), 1.0 / (1.0 + z), atol=1e-7)

    def test_S_edge_value(self):
        # M(4) = 1 exactly, so S(1) probes the boundary of the domain
        np.testing.assert_allclose(_s_transform(_MARCHENKO_PASTUR, 1.0), 0.5, atol=1e-5)

    def test_S_edge_value_is_exact(self):
        # the closed-form G keeps M(4 + delta) = 1 - O(sqrt(delta)) exact
        assert abs(_s_transform(_MARCHENKO_PASTUR, 1.0) - 0.5) <= 1e-12


class TestProductWishart:
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_mass_and_mean_are_one(self, L):
        spec = product_wishart_spectrum(L, points=100_001)
        np.testing.assert_allclose(spec.mass(), 1.0, atol=1e-4)
        np.testing.assert_allclose(spec.mean(), 1.0, atol=1e-4)

    def test_depth_one_is_marchenko_pastur(self):
        spec = product_wishart_spectrum(1, points=100_001)
        interior = (spec.lam > 0.05) & (spec.lam < 3.95)
        np.testing.assert_allclose(
            spec.rho[interior], _mp_pdf(spec.lam[interior]), atol=1e-8
        )

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_lambda_max_formula(self, L):
        want = (L + 1) ** (L + 1) / L**L
        assert product_wishart_lambda_max(L) == pytest.approx(want, abs=1e-12)
        spec = product_wishart_spectrum(L, points=20_001)
        assert spec.lambda_max == pytest.approx(want, abs=1e-10)
        assert spec.lam.max() <= want + 1e-9

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_moments_are_fuss_catalan(self, L, k):
        """The k-th moment of the product of L square-Wishart factors is the
        Fuss-Catalan number binom((L+1)k, k) / (Lk + 1) (Catalan at L = 1).
        The phi integral along the curve meets it to rounding."""
        spec = product_wishart_spectrum(L)
        weight = spec.rho * (-spec._dlam_dphi())
        moment = _trapezoid(spec.lam**k * weight, spec.phi)
        fuss_catalan = math.comb((L + 1) * k, k) / (L * k + 1)
        np.testing.assert_allclose(moment, fuss_catalan, rtol=1e-12)

    @pytest.mark.parametrize("L", [1, 2, 3, 5, 10, 20, 30])
    def test_curve_runs_from_lambda_max_to_zero(self, L):
        """lam(phi) falls strictly from the top edge at phi -> 0 to the
        bottom edge 0 at phi -> pi/(L+1), with a positive density between."""
        spec = product_wishart_spectrum(L)
        np.testing.assert_allclose(spec.lam[0], spec.lambda_max, rtol=1e-12)
        assert spec.lam[-1] < 1e-12 * spec.lambda_max
        assert np.all(np.diff(spec.lam) < 0)
        assert np.all(spec.rho > 0)

    def test_s_transform_multiplicativity(self):
        # the product of L free Wishart factors has S(z) = (1 + z)^{-L},
        # defined for z in (0, 1/L): M at the top edge equals 1/L exactly
        for L in (2, 3):
            density = _curve_density(product_wishart_spectrum(L))
            for z in (0.4 / L, 0.8 / L):
                np.testing.assert_allclose(
                    _s_transform(density, z), (1.0 + z) ** (-L), rtol=2e-5
                )

    def test_s_transform_at_domain_edge(self):
        # z = 1/L resolves to the spectral edge through the slack rule
        density = _curve_density(product_wishart_spectrum(2))
        np.testing.assert_allclose(_s_transform(density, 0.5), (1.5) ** (-2), rtol=1e-4)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            product_wishart_spectrum(0)
        with pytest.raises(ValueError):
            product_wishart_lambda_max(0)

    @pytest.mark.parametrize("points", [-1, 0, 1])
    def test_rejects_fewer_than_two_points(self, points):
        with pytest.raises(ValueError, match="at least 2 points"):
            product_wishart_spectrum(1, points=points)


class TestEmpirical:
    def test_linear_orthogonal_eigenvalues_are_one(self):
        config = NetConfig(
            widths=(64,) * 4, activation="linear", init="orthogonal", sigma_w2=1.0
        )
        eigs = empirical_spectrum(config, replicates=3, seed=0)
        np.testing.assert_allclose(eigs, 1.0, atol=1e-8)

    def test_linear_gaussian_matches_mp(self):
        config = NetConfig(widths=(128, 128, 128), activation="linear", sigma_w2=1.0)
        eigs = empirical_spectrum(config, replicates=10, seed=0)
        w1 = _w1(eigs, _MARCHENKO_PASTUR)
        assert w1 <= 0.1

    def test_relu_mean_eigenvalue_is_exact(self):
        """For relu, E mean lambda(J J^T) = (sigma_w2 / 2)^L at every width: a
        mask passes a unit with probability 1/2 whatever the weight row's
        length. Per-replicate means are right-skewed at small widths; at
        width 128, L = 3 and 40 replicates, 250 disjoint seed blocks gave z
        with mean 0.00, sd 1.06 and max |z| 3.58."""
        L, sigma_w2, replicates = 3, 3.0, 40
        config = NetConfig(widths=(128,) * (L + 2), activation="relu", sigma_w2=sigma_w2)
        singles = [empirical_spectrum(config, replicates=1, seed=r) for r in range(replicates)]
        pooled = empirical_spectrum(config, replicates=replicates, seed=0)
        # replicate r draws its weights and mask input from seed + r
        assert np.array_equal(pooled, np.sort(np.concatenate(singles)))
        means = np.array([e.mean() for e in singles])
        se = means.std(ddof=1) / math.sqrt(replicates)
        assert abs(means.mean() - (sigma_w2 / 2) ** L) <= 4 * se

    def test_linear_depth_two_matches_product_wishart(self):
        """Over 20 seeds at width 200 and 10 replicates, W1 to the L = 2 law
        had median 0.0071 and max 0.0088; to Marchenko-Pastur, the L = 1
        law, it was at least 0.31."""
        config = NetConfig(widths=(200,) * 4, activation="linear")
        eigs = empirical_spectrum(config, replicates=10, seed=0)
        assert _w1(eigs, _curve_density(product_wishart_spectrum(2))) < 0.02
        assert _w1(eigs, _MARCHENKO_PASTUR) > 0.2

    @pytest.mark.parametrize("activation", ["linear", "relu", "leaky_relu:0.3", "tanh"])
    def test_pooled_eigenvalues_of_every_activation(self, activation):
        """J J^T is positive semidefinite, so every pooled eigenvalue is
        nonnegative up to rounding, and the pool is the sorted union of
        the single replicates seed, seed + 1, ..."""
        config = NetConfig(widths=(16,) * 4, activation=activation, sigma_w2=1.5)
        pooled = empirical_spectrum(config, replicates=3, seed=5)
        singles = [empirical_spectrum(config, replicates=1, seed=5 + r) for r in range(3)]
        assert pooled.size == 16 * 3
        assert np.array_equal(pooled, np.sort(np.concatenate(singles)))
        assert pooled[0] >= -1e-12 * pooled[-1]

    @pytest.mark.parametrize("replicates", [-1, 0])
    def test_rejects_no_replicates(self, replicates):
        config = NetConfig(widths=(4,) * 3, activation="linear")
        with pytest.raises(ValueError, match="replicates must be at least 1"):
            empirical_spectrum(config, replicates=replicates)


class TestWasserstein:
    def test_zero_for_quantile_samples(self):
        # samples placed exactly at the inverse-CDF probe points
        th = np.linspace(0.0, math.pi / 2, 200_001)
        xs = 4.0 * np.sin(th) ** 2
        cdf = (2.0 / math.pi) * (th + np.sin(th) * np.cos(th))
        p = (np.arange(500) + 0.5) / 500
        samples = np.interp(p, cdf, xs)
        assert _w1(samples, _MARCHENKO_PASTUR) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 64, 1_001, 200_001])
def test_trapezoid_is_numpys(n):
    """spectra's one trapezoid rule equals numpy's to the bit on uneven
    grids: np.trapezoid from numpy 2.0, np.trapz before it."""
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(-2.0, 3.0, n))
    y = rng.standard_normal(n)
    assert _trapezoid(y, x) == trapezoid(y, x)
