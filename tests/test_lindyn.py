"""Tests for deep-linear mode dynamics: arrival times, ODE integration,
Hessian eigenvalues, learning-rate schedules, and full-matrix GD."""

import math
import re
import warnings

import numpy as np
import pytest

from dltl import lindyn


class TestModeTime:
    def test_shallow_formula_is_exact(self):
        """For L = 1 the ODE du/dt = 2 eta u (s - u) is integrable and the
        closed form matches the RK4 arrival time."""
        r = lindyn.mode_time(0.01, 0.99, 1.0, 0.05, 1)
        assert r.exact_formula
        np.testing.assert_allclose(r.t_formula, r.t_rk4, rtol=1e-6)

    def test_shallow_formula_value(self):
        """t = ln(uf (s - u0) / (u0 (s - uf))) / (2 s eta) by hand."""
        u0, uf, s, eta = 0.03, 0.8, 1.2, 0.4
        expect = math.log(uf * (s - u0) / (u0 * (s - uf))) / (2 * s * eta)
        r = lindyn.mode_time(u0, uf, s, eta, 1)
        np.testing.assert_allclose(r.t_formula, expect, rtol=1e-14)

    def test_deep_formula_value(self):
        """t = (1/u0 - 1/uf + ln(...)/s) / ((L+1) s eta) for L >= 2."""
        u0, uf, s, eta, L = 0.05, 0.9, 1.1, 0.2, 5
        lr = math.log(uf * (s - u0) / (u0 * (s - uf)))
        expect = (1.0 / u0 - 1.0 / uf + lr / s) / ((L + 1) * s * eta)
        r = lindyn.mode_time(u0, uf, s, eta, L)
        assert not r.exact_formula
        np.testing.assert_allclose(r.t_formula, expect, rtol=1e-14)

    def test_deep_formula_gap_table(self):
        """The u^2 approximation overshoots the exact arrival time by a
        depth-dependent factor that shrinks roughly like 1/L.  Frozen
        relative gaps (t_formula - t_rk4) / t_rk4 at u0 = 0.01, uf = 0.99."""
        frozen = {
            2: 5.682885,
            4: 2.498248,
            8: 1.077528,
            16: 0.486978,
            32: 0.229829,
            64: 0.111444,
        }
        for L, gap in frozen.items():
            r = lindyn.mode_time(0.01, 0.99, 1.0, 0.05, L)
            measured = (r.t_formula - r.t_rk4) / r.t_rk4
            np.testing.assert_allclose(measured, gap, rtol=1e-4)

    def test_time_scales_inversely_with_eta(self):
        """Both the formula and the RK4 time are proportional to 1/eta."""
        for L in (1, 4):
            r1 = lindyn.mode_time(0.02, 0.95, 1.0, 0.1, L)
            r2 = lindyn.mode_time(0.02, 0.95, 1.0, 0.2, L)
            np.testing.assert_allclose(r1.t_formula, 2 * r2.t_formula, rtol=1e-12)
            np.testing.assert_allclose(r1.t_rk4, 2 * r2.t_rk4, rtol=1e-10)

    def test_rk4_arrival_lands_on_uf(self):
        """Integrating the mode ODE for exactly t_rk4 reaches uf."""
        u0, uf, s, eta, L = 0.01, 0.95, 1.3, 0.07, 3
        r = lindyn.mode_time(u0, uf, s, eta, L)
        traj = lindyn.integrate_mode_ode(u0, s, eta, L, np.linspace(0.0, r.t_rk4, 201))
        np.testing.assert_allclose(traj[-1], uf, atol=1e-8)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="hidden layer"):
            lindyn.mode_time(0.01, 0.99, 1.0, 0.05, 0)
        with pytest.raises(ValueError, match="positive"):
            lindyn.mode_time(0.01, 0.99, 1.0, -0.05, 2)
        with pytest.raises(ValueError, match="u0"):
            lindyn.mode_time(0.5, 0.2, 1.0, 0.05, 2)
        with pytest.raises(ValueError, match="not reachable"):
            lindyn.mode_time(0.01, 1.0, 1.0, 0.05, 2)
        with pytest.raises(ValueError, match="target singular value"):
            lindyn.mode_time(0.01, 0.99, -1.0, 0.05, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_target_and_rate(self, bad):
        """A nan target once gave nan times, a nan rate a nan time and an
        infinite rate t = 0."""
        with pytest.raises(ValueError, match="target singular value must be positive and finite"):
            lindyn.mode_time(0.01, 0.9, bad, 0.1, 2)
        with pytest.raises(ValueError, match="learning rate must be positive and finite"):
            lindyn.mode_time(0.01, 0.9, 1.0, bad, 2)


class TestModeODE:
    def test_shallow_logistic_closed_form(self):
        """For L = 1 the ODE is logistic: u(t) = s / (1 + (s/u0 - 1) e^{-2 eta s t})."""
        u0, s, eta = 0.02, 1.4, 0.3
        t = np.linspace(0.0, 8.0, 33)
        traj = lindyn.integrate_mode_ode(u0, s, eta, 1, t)
        exact = s / (1.0 + (s - u0) / u0 * np.exp(-2 * eta * s * t))
        np.testing.assert_allclose(traj, exact, atol=1e-9)

    def test_monotone_and_bounded(self):
        """Below the target the mode product rises monotonically toward s."""
        t = np.linspace(0.0, 400.0, 201)
        traj = lindyn.integrate_mode_ode(0.01, 1.0, 0.05, 6, t)
        assert np.all(np.diff(traj) >= 0)
        assert np.all(np.diff(traj[:100]) > 0)
        assert traj[-1] <= 1.0 + 1e-12
        np.testing.assert_allclose(traj[-1], 1.0, atol=1e-3)

    def test_fixed_point_at_target(self):
        """u0 = s stays put."""
        t = np.linspace(0.0, 10.0, 11)
        traj = lindyn.integrate_mode_ode(1.0, 1.0, 0.5, 2, t)
        np.testing.assert_allclose(traj, 1.0, atol=1e-12)

    def test_depth_validation(self):
        with pytest.raises(ValueError, match="hidden layer"):
            lindyn.integrate_mode_ode(0.1, 1.0, 0.1, 0, np.array([0.0, 1.0]))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"s": math.nan}, "target singular value must be positive and finite, got nan"),
            ({"s": -1.0}, "target singular value must be positive and finite, got -1.0"),
            ({"eta": math.nan}, "learning rate must be positive and finite, got nan"),
            ({"eta": math.inf}, "learning rate must be positive and finite, got inf"),
            ({"substeps": 0}, "substeps must be a positive integer, got 0"),
            ({"t_grid": []}, "t_grid must be a nonempty 1-D array of finite times"),
            ({"t_grid": [0.0, math.inf]}, "t_grid must be a nonempty 1-D array of finite times"),
            ({"u0": math.nan}, "u0 must be finite, got nan"),
            ({"u0": -math.inf}, "u0 must be finite, got -inf"),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs, message):
        """nan s or eta once gave nan rows, substeps = 0 a divide-by-zero
        warning and an empty grid an IndexError."""
        args = {"u0": 0.01, "s": 1.0, "eta": 0.1, "L": 2, "t_grid": [0.0, 1.0]} | kwargs
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lindyn.integrate_mode_ode(**args)


    def test_too_large_a_step_raises(self):
        """Once returned [0.5, -1.27e12] without a word."""
        with pytest.raises(RuntimeError, match=r"^RK4 diverged before t = 100.0 with eta = 100.0: u = -12743718"):
            lindyn.integrate_mode_ode(0.5, 1.0, 100.0, 2, [0, 100], substeps=1)


class TestShallowPair:
    def test_conserves_difference_of_squares(self):
        """The unbalanced flow conserves a^2 - b^2 exactly."""
        a, b = lindyn.integrate_shallow_pair(0.7, 0.2, 1.5, 0.3, 20.0)
        np.testing.assert_allclose(a**2 - b**2, 0.7**2 - 0.2**2, atol=1e-10)

    def test_product_converges_to_target(self):
        a, b = lindyn.integrate_shallow_pair(0.3, 0.1, 1.2, 0.4, 60.0)
        np.testing.assert_allclose(a[-1] * b[-1], 1.2, atol=1e-8)

    def test_balanced_pair_matches_mode_ode(self):
        """With a0 = b0 = sqrt(u0) the product ab follows the L = 1 mode ODE."""
        u0, s, eta, t_max, steps = 0.04, 1.0, 0.5, 6.0, 1200
        a, b = lindyn.integrate_shallow_pair(math.sqrt(u0), math.sqrt(u0), s, eta, t_max, steps=steps)
        grid = np.linspace(0.0, t_max, steps + 1)
        mode = lindyn.integrate_mode_ode(u0, s, eta, 1, grid)
        np.testing.assert_allclose(a * b, mode, atol=1e-10)
        np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"s": math.nan}, "target singular value must be positive and finite, got nan"),
            ({"eta": math.inf}, "learning rate must be positive and finite, got inf"),
            ({"t_max": math.inf}, "t_max must be positive and finite, got inf"),
            ({"steps": 0}, "steps must be a positive integer, got 0"),
            ({"a0": math.nan}, "a0 and b0 must be finite, got nan and 0.1"),
            ({"b0": math.inf}, "a0 and b0 must be finite, got 0.1 and inf"),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs, message):
        """nan s and infinite eta or t_max once gave nan rows, and steps = 0
        a ZeroDivisionError."""
        args = {"a0": 0.1, "b0": 0.1, "s": 1.0, "eta": 0.1, "t_max": 1.0, "steps": 3} | kwargs
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lindyn.integrate_shallow_pair(**args)


    def test_too_large_a_step_raises(self):
        """Once ended at a = -7.7e136 without a word."""
        with pytest.raises(RuntimeError, match=r"^RK4 diverged at step 1 with eta = 100.0: a = -7\.70"):
            lindyn.integrate_shallow_pair(0.5, 0.5, 1.0, 100.0, 100.0, steps=1)

    def test_mixed_signs_cross_zero(self):
        """a0 > 0 > b0 with a0^2 > b0^2: b crosses zero on its way to ab = s,
        as the flow allows, while a + b and a - b keep their signs."""
        a, b = lindyn.integrate_shallow_pair(1.0, -0.5, 1.0, 0.3, 60.0)
        assert b[0] < 0 < b[-1]
        np.testing.assert_allclose(a[-1] * b[-1], 1.0, atol=1e-6)
        np.testing.assert_allclose(a**2 - b**2, 0.75, atol=1e-10)

    def test_start_balanced_to_the_last_bit(self):
        """a0 = -b0 up to one ulp: a - b rounds across zero as the pair
        settles at a = b, which is rounding, not divergence."""
        a, b = lindyn.integrate_shallow_pair(0.5523612835089521, -0.5523612835089522, 2.544714414844597,
                                             0.2943962441914821, 454.74669869826937, steps=500)
        assert abs(a[-1] - b[-1]) < 1e-15 < abs(a[-1])


class TestHessianEigs:
    @staticmethod
    def _numeric_hessian(a: float, s: float, L: int) -> np.ndarray:
        """Central-difference Hessian of f(a) = 1/2 (s - prod a_l)^2 at the
        balanced point a_l = a."""

        def f(vec):
            return 0.5 * (s - np.prod(vec)) ** 2

        n = L + 1
        x0 = np.full(n, a)
        h = 1e-5
        hess = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                xpp = x0.copy(); xpp[i] += h; xpp[j] += h
                xpm = x0.copy(); xpm[i] += h; xpm[j] -= h
                xmp = x0.copy(); xmp[i] -= h; xmp[j] += h
                xmm = x0.copy(); xmm[i] -= h; xmm[j] -= h
                hess[i, j] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4 * h * h)
        return hess

    def test_matches_numeric_hessian(self):
        """The closed-form pair (lambda1, lambda_rest with multiplicity L)
        reproduces the full (L+1) x (L+1) spectrum."""
        for a, s, L in [(0.9, 1.3, 3), (0.5, 1.0, 1), (1.1, 2.0, 4)]:
            eigs = lindyn.hessian_mode_eigs(a, s, L)
            numeric = np.sort(np.linalg.eigvalsh(self._numeric_hessian(a, s, L)))
            expect = np.sort(np.array([eigs.lambda1] + [eigs.lambda_rest] * L))
            np.testing.assert_allclose(numeric, expect, atol=1e-5)

    def test_lambda1_at_balanced_optimum(self):
        """At a = s^{1/(L+1)} the top eigenvalue is (1+L) s^{2L/(L+1)}."""
        for s, L in [(1.0, 2), (1.7, 5), (0.6, 8)]:
            a = s ** (1.0 / (L + 1))
            eigs = lindyn.hessian_mode_eigs(a, s, L)
            np.testing.assert_allclose(eigs.lambda1, (1 + L) * s ** (2.0 * L / (L + 1)), rtol=1e-12)
            np.testing.assert_allclose(eigs.lambda_rest, 0.0, atol=1e-12)

    def test_negative_curvature_near_origin(self):
        """Small a gives a strict saddle: lambda1 < 0 < lambda_rest."""
        eigs = lindyn.hessian_mode_eigs(0.05, 1.0, 3)
        assert eigs.lambda1 < 0 < eigs.lambda_rest

    def test_grid_max_matches_analytic(self):
        """The grid search lands on (1+L) s^{2L/(L+1)} at a = s^{1/(L+1)}."""
        for s, L in [(1.0, 2), (1.4, 6)]:
            peak, argmax = lindyn.hessian_lambda1_max(s, L)
            np.testing.assert_allclose(peak, (1 + L) * s ** (2.0 * L / (L + 1)), rtol=1e-6)
            np.testing.assert_allclose(argmax, s ** (1.0 / (L + 1)), atol=1e-4)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            lindyn.hessian_mode_eigs(-0.1, 1.0, 2)
        with pytest.raises(ValueError, match="hidden layer"):
            lindyn.hessian_mode_eigs(0.5, 1.0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_arguments(self, bad):
        with pytest.raises(ValueError, match="balanced coordinate must be finite"):
            lindyn.hessian_mode_eigs(bad, 1.0, 2)
        with pytest.raises(ValueError, match="target singular value must be finite"):
            lindyn.hessian_mode_eigs(0.5, bad, 2)

    @pytest.mark.parametrize(
        "s, L, points, message",
        [
            (math.nan, 2, 11, "target singular value must be positive and finite, got nan"),
            (math.inf, 2, 11, "target singular value must be positive and finite, got inf"),
            (-1.0, 2, 11, "target singular value must be positive and finite, got -1.0"),
            (1.0, 0, 11, "need at least one hidden layer, got L = 0"),
            (1.0, 2, 0, "points must be at least 2, got 0"),
            (1e308, 1, 11, "target s = 1e+308 is too large: lambda1 overflows on the grid"),
        ],
    )
    def test_grid_max_rejects_bad_arguments(self, s, L, points, message):
        """nan s once gave (nan, nan); inf s, L = 0 and an overflowing s a
        RuntimeWarning, s = -1 a ComplexWarning and points = 0 an argmax of
        an empty sequence. No warning is raised on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                lindyn.hessian_lambda1_max(s, L, points)


class TestOptSchedule:
    def test_eta_opt_is_reciprocal_peak_curvature(self):
        """eta_opt * max_a lambda1(a) = 1."""
        for s, L in [(1.0, 2), (1.3, 7), (0.8, 16)]:
            sched = lindyn.opt_schedule(0.01, 0.99 * s, s, L)
            peak, _ = lindyn.hessian_lambda1_max(s, L)
            np.testing.assert_allclose(sched.eta_opt * peak, 1.0, rtol=1e-6)

    def test_t_opt_equals_formula_time_at_eta_opt(self):
        """t_opt is the L >= 2 arrival-time formula evaluated at eta_opt."""
        u0, uf, s, L = 0.02, 0.9, 1.2, 6
        sched = lindyn.opt_schedule(u0, uf, s, L)
        r = lindyn.mode_time(u0, uf, s, sched.eta_opt, L)
        np.testing.assert_allclose(sched.t_opt, r.t_formula, rtol=1e-12)

    def test_t_opt_depth_dependence_saturates(self):
        """At s = 1 the optimally-scheduled arrival time is independent of L,
        so deeper networks take no longer in ODE time."""
        times = [lindyn.opt_schedule(0.01, 0.99, 1.0, L).t_opt for L in (2, 8, 32)]
        np.testing.assert_allclose(times, times[0], rtol=1e-12)

    def test_overflowing_target_is_domain_error(self):
        with pytest.raises(ValueError, match="too large"):
            lindyn.opt_schedule(0.1, 0.99e300, 1e300, 8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_target(self, bad):
        with pytest.raises(ValueError, match="target singular value must be positive and finite"):
            lindyn.opt_schedule(0.01, 0.9, bad, 2)


class TestDeepLinearGD:
    def test_balanced_init_and_mode_sum(self):
        """Step 0 shows every mode at u0, and the recorded loss equals the
        mode-wise sum 1/2 sum_j (s_j - u_j)^2 throughout: the off-diagonal
        blocks stay exactly zero under the rotated balanced init."""
        eta = lindyn.opt_schedule(0.1, 0.99, 1.0, 4).eta_opt / 2
        sim = lindyn.simulate_deep_linear_gd(3, 4, (1.0, 0.6), eta, seed=0, u0=0.1)
        np.testing.assert_allclose(sim.u[0], 0.1, rtol=1e-12)
        mode_loss = 0.5 * np.sum((sim.targets[None, :] - sim.u) ** 2, axis=1)
        np.testing.assert_allclose(mode_loss, sim.losses, atol=1e-12)

    def test_rotation_seed_does_not_change_losses(self):
        """Haar conjugation is a similarity transform of the dynamics, so the
        loss trace is seed-independent to rounding."""
        eta = lindyn.opt_schedule(0.1, 0.99, 1.0, 4).eta_opt / 3
        a = lindyn.simulate_deep_linear_gd(3, 4, (1.0, 0.6), eta, seed=0, u0=0.1)
        b = lindyn.simulate_deep_linear_gd(3, 4, (1.0, 0.6), eta, seed=7, u0=0.1)
        assert a.losses.size == b.losses.size
        np.testing.assert_allclose(a.losses, b.losses, atol=1e-12)

    def test_unused_modes_decay(self):
        """Targets beyond the listed singular values are zero, and those mode
        products decay from u0 toward zero."""
        eta = lindyn.opt_schedule(0.1, 0.99, 1.0, 3).eta_opt / 2
        sim = lindyn.simulate_deep_linear_gd(3, 3, (1.0,), eta, seed=1, u0=0.1)
        assert sim.targets.tolist() == [1.0, 0.0, 0.0]
        assert sim.u[-1, 1] < 0.1
        assert sim.u[-1, 2] < 0.1

    def test_discrete_steps_track_mode_ode(self):
        """With one ODE time unit per GD step, the discrete mode products
        deviate from the continuous flow by O(eta): the frozen max deviation
        at eta_opt/10 halves when eta is halved."""
        devs = []
        for div in (10, 20):
            eta = lindyn.opt_schedule(0.1, 0.99, 1.0, 6).eta_opt / div
            sim = lindyn.simulate_deep_linear_gd(2, 6, (1.0, 0.7), eta, seed=0, u0=0.1)
            grid = np.arange(sim.u.shape[0], dtype=float)
            dev = 0.0
            for j, s in enumerate((1.0, 0.7)):
                ode = lindyn.integrate_mode_ode(0.1, s, eta, 6, grid)
                dev = max(dev, float(np.max(np.abs(sim.u[:, j] - ode))))
            devs.append(dev)
        np.testing.assert_allclose(devs[0], 0.006235, rtol=5e-3)
        assert 1.9 < devs[0] / devs[1] < 2.1

    def test_steps_to_tol_roughly_depth_independent(self):
        """At eta_opt the step count barely moves across depths; frozen counts
        for L in (8, 16, 32) sit within a factor 1.5 of each other."""
        counts = {}
        for L in (8, 16, 32):
            eta = lindyn.opt_schedule(0.1, 0.99, 1.0, L).eta_opt
            sim = lindyn.simulate_deep_linear_gd(2, L, (1.0, 0.7), eta, seed=0, u0=0.1)
            counts[L] = sim.steps_to_tol
        assert counts == {8: 17, 16: 20, 32: 21}
        assert max(counts.values()) <= 1.5 * min(counts.values())

    def test_divergence_aborts(self):
        """A learning rate far above eta_opt blows the loss past 10x its
        initial value and raises instead of looping."""
        with pytest.raises(RuntimeError, match="diverged"):
            lindyn.simulate_deep_linear_gd(2, 8, (1.0, 0.7), 2.0, seed=0, u0=0.1)

    def test_max_steps_exhaustion(self):
        """A tiny learning rate cannot reach tolerance in the step budget."""
        with pytest.raises(RuntimeError, match="still above tol"):
            lindyn.simulate_deep_linear_gd(2, 2, (1.0,), 1e-9, seed=0, u0=0.1, max_steps=50)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            lindyn.simulate_deep_linear_gd(2, 2, (), 0.1)
        with pytest.raises(ValueError, match="do not fit"):
            lindyn.simulate_deep_linear_gd(2, 2, (1.0, 0.9, 0.8), 0.1)
        with pytest.raises(ValueError, match="learning rate"):
            lindyn.simulate_deep_linear_gd(2, 2, (1.0,), -0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            lindyn.simulate_deep_linear_gd(2, 2, (1.0,), 0.1, u0=-0.5)

    @pytest.mark.parametrize("svals", [(1.0, math.nan), (math.inf,), (1e300,)])
    def test_rejects_nonfinite_targets(self, svals):
        """No silent inf loss with exit 0, and no 200k-step run on a nan."""
        with pytest.raises(ValueError, match="finite"):
            lindyn.simulate_deep_linear_gd(2, 2, svals, 0.1)

    def test_rejects_negative_step_cap(self):
        with pytest.raises(ValueError, match="max_steps"):
            lindyn.simulate_deep_linear_gd(2, 2, (1.0,), 0.1, max_steps=-1)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_rejects_nonfinite_rate(self, eta):
        with pytest.raises(ValueError, match="learning rate must be positive and finite"):
            lindyn.simulate_deep_linear_gd(2, 2, (1.0,), eta)

    @pytest.mark.parametrize("tol_loss", [math.nan, math.inf, -1.0])
    def test_rejects_bad_stop_loss(self, tol_loss):
        with pytest.raises(ValueError, match="tol_loss"):
            lindyn.simulate_deep_linear_gd(2, 2, (1.0,), 0.1, tol_loss=tol_loss)

    def test_nonfinite_loss_aborts_at_once(self):
        """An initial product too large to square gives an inf loss, which
        the 10x test cannot catch; it must abort at step 0, not run out
        the step budget on inf and nan losses."""
        with pytest.raises(RuntimeError, match="diverged at step 0"):
            lindyn.simulate_deep_linear_gd(2, 1, (1.0,), 0.1, u0=1e300, max_steps=50)
