"""Spectral densities and free-probability transforms: closed forms for the
square-Wishart case, the product-Wishart parametric curve, transform
round trips, and the sampled-Jacobian ensembles."""

import math

import numpy as np
import pytest

from dltl.netcore import NetConfig
from dltl.spectra import (
    Density1D,
    _cumulative_trapezoid,
    _trapezoid,
    EmpiricalSpectrum,
    StieltjesTransforms,
    d_squared_relu,
    dirac,
    empirical_spectrum,
    grid_density,
    invert_stieltjes,
    marchenko_pastur,
    mp_cdf,
    mp_pdf,
    product_wishart_lambda_max,
    product_wishart_spectrum,
    r_transform,
    relu_orth_edge,
    wasserstein1_to_density,
)


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
        np.testing.assert_allclose(mp_pdf(1.0), math.sqrt(3) / (2 * math.pi), atol=1e-14)
        assert mp_pdf(-0.5) == 0.0
        assert mp_pdf(4.5) == 0.0

    def test_cdf_endpoints_and_median(self):
        np.testing.assert_allclose(mp_cdf(0.0), 0.0, atol=1e-14)
        np.testing.assert_allclose(mp_cdf(4.0), 1.0, atol=1e-12)
        # numeric cross-check against the pdf; quad absorbs the x^{-1/2}
        # edge singularity that a uniform trapezoid would truncate
        from scipy import integrate

        num, _ = integrate.quad(lambda t: float(mp_pdf(t)), 0.0, 2.3)
        np.testing.assert_allclose(mp_cdf(2.3), num, atol=1e-9)

    def test_density_mass_and_mean(self):
        mp = marchenko_pastur()
        np.testing.assert_allclose(mp.mass(), 1.0, atol=1e-10)
        np.testing.assert_allclose(mp.mean(), 1.0, atol=1e-10)

    def test_support(self):
        assert marchenko_pastur().support == (0.0, 4.0)

    def test_moments_are_catalan_numbers(self):
        # E t^k = C_k = binom(2k, k) / (k + 1) for the square-Wishart law
        mp = marchenko_pastur()
        for k in range(13):
            catalan = math.comb(2 * k, k) // (k + 1)
            np.testing.assert_allclose(mp.integrate(lambda t: t**k), catalan, rtol=1e-12)


class TestAtomDensities:
    def test_dirac(self):
        d = dirac(2.5)
        assert d.mass() == 1.0
        assert d.mean() == 2.5

    def test_d_squared_relu(self):
        d = d_squared_relu()
        assert d.mass() == pytest.approx(1.0)
        assert d.mean() == pytest.approx(0.5)
        assert {pos for pos, _ in d.atoms} == {0.0, 1.0}


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
        g = marchenko_pastur().stieltjes(z)
        assert isinstance(g, complex) == isinstance(z, complex)
        assert abs(g - _quad_G(z)) <= 1e-12

    def test_G_matches_closed_form(self):
        tk = StieltjesTransforms(marchenko_pastur())
        for z in (4.5, 5.0, 8.0, 20.0):
            np.testing.assert_allclose(tk.G(z), _mp_G(z), atol=1e-9)

    def test_G_rejects_on_support(self):
        tk = StieltjesTransforms(marchenko_pastur())
        with pytest.raises(ValueError):
            tk.G(2.0)

    def test_M_and_inverse_round_trip(self):
        tk = StieltjesTransforms(marchenko_pastur())
        w = 6.0
        y = tk.M(w)
        np.testing.assert_allclose(tk.M_inverse(y), w, atol=1e-8)

    def test_G_inverse_round_trip(self):
        tk = StieltjesTransforms(marchenko_pastur())
        np.testing.assert_allclose(tk.G_inverse(_mp_G(5.0)), 5.0, atol=1e-7)

    def test_S_transform_closed_form(self):
        # square-Wishart S(z) = 1 / (1 + z)
        tk = StieltjesTransforms(marchenko_pastur())
        for z in (0.2, 0.5, 0.9):
            np.testing.assert_allclose(tk.S(z), 1.0 / (1.0 + z), atol=1e-7)

    def test_S_edge_value(self):
        # M(4) = 1 exactly, so S(1) probes the boundary of the domain
        tk = StieltjesTransforms(marchenko_pastur())
        np.testing.assert_allclose(tk.S(1.0), 0.5, atol=1e-5)

    def test_S_edge_value_is_exact(self):
        # the closed-form G keeps M(4 + delta) = 1 - O(sqrt(delta)) exact
        tk = StieltjesTransforms(marchenko_pastur())
        assert abs(tk.S(1.0) - 0.5) <= 1e-12

    def test_dirac_transforms(self):
        tk = StieltjesTransforms(dirac(3.0))
        np.testing.assert_allclose(tk.G(5.0), 1.0 / 2.0, atol=1e-12)
        # S(z) = 1/a for a point mass at a, any z in (0, 1)
        np.testing.assert_allclose(tk.S(0.4), 1.0 / 3.0, atol=1e-9)


class TestMonotoneCondition:
    """G decreases right of the support when the density is nonnegative, and
    M does when its support also lies in [0, inf); an inversion without its
    condition raises."""

    def test_negative_atom_mass_rejected(self):
        tk = StieltjesTransforms(Density1D(kind="dirac", atoms=((1.0, 1.5), (2.0, -0.5))))
        with pytest.raises(ValueError, match="G is not monotone"):
            tk.G_inverse(0.3)
        with pytest.raises(ValueError, match="M is not monotone"):
            tk.M_inverse(0.3)

    def test_negative_support_rejects_only_M(self):
        # G(w) = 1 / (w + 1) decreases, M(w) = -1 / (w + 1) does not
        tk = StieltjesTransforms(dirac(-1.0))
        np.testing.assert_allclose(tk.G_inverse(0.3), 1.0 / 0.3 - 1.0, atol=1e-12)
        np.testing.assert_allclose(tk.G_inverse(2.0), -0.5, atol=1e-12)
        with pytest.raises(ValueError, match="M is not monotone"):
            tk.M_inverse(0.3)

    def test_grid_with_negative_dip_rejected(self):
        x = np.linspace(0.0, 1.0, 101)
        rho = np.ones_like(x)
        rho[50] = -0.1
        tk = StieltjesTransforms(grid_density(x, rho))
        for invert in (tk.G_inverse, tk.M_inverse):
            with pytest.raises(ValueError, match="is not monotone"):
                invert(0.5)


class TestRTransform:
    def test_free_poisson(self):
        # R(zeta) = 1 / (1 - zeta) for the square-Wishart law
        R = r_transform(marchenko_pastur())
        for zeta in (0.05, 0.2, 0.4):
            np.testing.assert_allclose(R(zeta), 1.0 / (1.0 - zeta), atol=1e-6)

    def test_dirac_shift(self):
        # R of a point mass at a is the constant a
        R = r_transform(dirac(1.7))
        np.testing.assert_allclose(R(0.3), 1.7, atol=1e-9)


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
            spec.rho[interior], mp_pdf(spec.lam[interior]), atol=1e-8
        )

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_lambda_max_formula(self, L):
        want = (L + 1) ** (L + 1) / L**L
        assert product_wishart_lambda_max(L) == pytest.approx(want, abs=1e-12)
        spec = product_wishart_spectrum(L, points=20_001)
        assert spec.lambda_max == pytest.approx(want, abs=1e-10)
        assert spec.lam.max() <= want + 1e-9

    def test_s_transform_multiplicativity(self):
        # the product of L free Wishart factors has S(z) = (1 + z)^{-L},
        # defined for z in (0, 1/L): M at the top edge equals 1/L exactly
        for L in (2, 3):
            spec = product_wishart_spectrum(L)
            tk = StieltjesTransforms(spec.density())
            for z in (0.4 / L, 0.8 / L):
                np.testing.assert_allclose(
                    tk.S(z), (1.0 + z) ** (-L), rtol=2e-5
                )

    def test_s_transform_at_domain_edge(self):
        # z = 1/L resolves to the spectral edge through the slack rule
        spec = product_wishart_spectrum(2)
        tk = StieltjesTransforms(spec.density())
        np.testing.assert_allclose(tk.S(0.5), (1.5) ** (-2), rtol=1e-4)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            product_wishart_spectrum(0)
        with pytest.raises(ValueError):
            product_wishart_lambda_max(0)

    @pytest.mark.parametrize("points", [-1, 0, 1])
    def test_rejects_fewer_than_two_points(self, points):
        with pytest.raises(ValueError, match="at least 2 points"):
            product_wishart_spectrum(1, points=points)


class TestInvertStieltjes:
    def test_recovers_marchenko_pastur(self):
        grid = np.linspace(0.3, 3.7, 201)
        dens = invert_stieltjes(_mp_G, grid)
        np.testing.assert_allclose(dens.grid_rho, mp_pdf(grid), atol=1e-5)

    def test_recovers_atom_mass(self):
        grid = np.linspace(2.0, 4.0, 80_001)  # spacing below the 1e-4 probe
        dens = invert_stieltjes(lambda z: 1.0 / (z - 3.0), grid)
        np.testing.assert_allclose(dens.mass(), 1.0, rtol=2e-3)

    def test_nonconvergent_raises(self):
        # a pole inside a coarse window: the eps levels cannot agree
        grid = np.linspace(2.0, 4.0, 11)
        with pytest.raises(RuntimeError):
            invert_stieltjes(lambda z: 1.0 / (z - 3.0), grid)


class TestReluOrthEdge:
    def test_exact_at_three(self):
        assert relu_orth_edge(3) == pytest.approx(6.75, abs=1e-12)

    def test_approaches_e_times_depth(self):
        L = 100
        assert relu_orth_edge(L) == pytest.approx(math.e * L, rel=0.03)

    def test_rejects_shallow(self):
        with pytest.raises(ValueError):
            relu_orth_edge(2)


class TestEmpirical:
    def test_linear_orthogonal_eigenvalues_are_one(self):
        config = NetConfig(
            widths=(64,) * 4, activation="linear", init="orthogonal", sigma_w2=1.0
        )
        emp = empirical_spectrum(config, replicates=3, seed=0)
        np.testing.assert_allclose(emp.eigenvalues, 1.0, atol=1e-8)

    def test_linear_gaussian_matches_mp(self):
        config = NetConfig(widths=(128, 128, 128), activation="linear", sigma_w2=1.0)
        emp = empirical_spectrum(config, replicates=10, seed=0)
        w1 = wasserstein1_to_density(emp.eigenvalues, marchenko_pastur())
        assert w1 <= 0.1

    def test_relu_mean_eigenvalue_is_exact(self):
        """For relu, E mean lambda(J J^T) = (sigma_w2 / 2)^L at every width: a
        mask passes a unit with probability 1/2 whatever the weight row's
        length. Per-replicate means are right-skewed at small widths; at
        width 128, L = 3 and 40 replicates, 250 disjoint seed blocks gave z
        with mean 0.00, sd 1.06 and max |z| 3.58."""
        L, sigma_w2, replicates = 3, 3.0, 40
        config = NetConfig(widths=(128,) * (L + 2), activation="relu", sigma_w2=sigma_w2)
        singles = [empirical_spectrum(config, replicates=1, seed=r).eigenvalues for r in range(replicates)]
        pooled = empirical_spectrum(config, replicates=replicates, seed=0).eigenvalues
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
        emp = empirical_spectrum(config, replicates=10, seed=0)
        assert wasserstein1_to_density(emp.eigenvalues, product_wishart_spectrum(2).density()) < 0.02
        assert wasserstein1_to_density(emp.eigenvalues, marchenko_pastur()) > 0.2

    def test_metadata(self):
        config = NetConfig(widths=(32,) * 3, activation="linear")
        emp = empirical_spectrum(config, replicates=2, seed=9)
        assert isinstance(emp, EmpiricalSpectrum)
        assert emp.n == 32 and emp.depth == 1 and emp.replicates == 2 and emp.seed == 9
        assert emp.eigenvalues.size == 32 * 2

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
        assert wasserstein1_to_density(samples, marchenko_pastur()) < 1e-8

    def test_shift_costs_its_size(self):
        d = dirac(1.0)
        vals = np.full(100, 1.25)
        np.testing.assert_allclose(wasserstein1_to_density(vals, d), 0.25, atol=1e-12)

    def test_grid_density_path(self):
        xs = np.linspace(0.0, 1.0, 2001)
        flat = grid_density(xs, np.ones_like(xs))
        samples = (np.arange(200) + 0.5) / 200
        assert wasserstein1_to_density(samples, flat) < 1e-3

    @pytest.mark.parametrize("n", [2, 3, 50, 10_001])
    def test_grid_cdf_is_scipys_cumulative_trapezoid(self, n):
        from scipy.integrate import cumulative_trapezoid

        rng = np.random.default_rng(n)
        x = np.sort(rng.uniform(0.0, 3.0, n))
        rho = rng.uniform(0.0, 1.0, n)
        assert np.array_equal(_cumulative_trapezoid(rho, x),
                              cumulative_trapezoid(rho, x, initial=0.0))


@pytest.mark.parametrize("n", [2, 3, 64, 1_001, 200_001])
def test_trapezoid_is_numpys(n):
    """spectra's one trapezoid rule equals np.trapezoid to the bit, on
    uneven grids and on a complex integrand (Density1D.integrate)."""
    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(-2.0, 3.0, n))
    y = rng.standard_normal(n)
    assert _trapezoid(y, x) == np.trapezoid(y, x)
    z = y + 1j * rng.standard_normal(n)
    assert _trapezoid(z, x) == np.trapezoid(z, x)
