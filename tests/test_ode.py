from dataclasses import asdict

import numpy as np
import pytest

from geomflow.ode import BudgetExceededError, SolverConfig, integrate


class TestFixedStep:
    def test_euler_exact_on_constant_field(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(10)
        y0 = rng.standard_normal(10)
        for steps in (1, 3, 17):
            y1, used = integrate(
                lambda t, y: c, y0, SolverConfig("euler", fixed_steps=steps)
            )
            assert used == steps
            # exact up to summation roundoff: n additions of h*c
            np.testing.assert_allclose(y1, y0 + c, rtol=0, atol=1e-14)

    def test_rk4_matches_linear_field_closed_form(self):
        rng = np.random.default_rng(1)
        y0 = rng.standard_normal(8)
        a = 0.7
        y1, _ = integrate(lambda t, y: a * y, y0, SolverConfig("rk4", fixed_steps=200))
        np.testing.assert_allclose(y1, y0 * np.exp(a), rtol=0, atol=1e-10)

    def test_rk4_matrix_linear_field(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 4)) * 0.4
        y0 = rng.standard_normal(4)
        y1, _ = integrate(lambda t, y: m @ y, y0, SolverConfig("rk4", fixed_steps=400))
        from scipy.linalg import expm

        np.testing.assert_allclose(y1, expm(m) @ y0, rtol=0, atol=1e-10)


class TestAdaptive:
    def test_reaches_t_one_on_smooth_field(self):
        rng = np.random.default_rng(3)
        y0 = rng.standard_normal(6)

        def f(t, y):
            return np.sin(3 * t) * y

        cfg = SolverConfig("adaptive", rtol=1e-6, atol=1e-8)
        y1, steps = integrate(f, y0, cfg)
        # closed form: y(1) = y0 * exp((1 - cos(3))/3)
        expected = y0 * np.exp((1 - np.cos(3.0)) / 3.0)
        np.testing.assert_allclose(y1, expected, rtol=1e-5)
        assert steps >= 1

    def test_tighter_tolerance_is_more_accurate(self):
        y0 = np.ones(3)

        def f(t, y):
            return np.array([np.exp(t), np.cos(8 * t), t**3]) * y

        ref, _ = integrate(f, y0, SolverConfig("rk4", fixed_steps=4000))
        errs = []
        for rtol in (1e-3, 1e-6, 1e-9):
            y1, _ = integrate(
                f, y0, SolverConfig("adaptive", rtol=rtol, atol=rtol / 10)
            )
            errs.append(np.abs(y1 - ref).max())
        assert errs[2] < errs[0]

    def test_budget_exceeded(self):
        cfg = SolverConfig("adaptive", rtol=1e-12, atol=1e-14, max_steps=3)
        with pytest.raises(BudgetExceededError, match="solver budget exceeded"):
            integrate(lambda t, y: np.sin(40 * t) * y, np.ones(4), cfg)


class TestSolverConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown solver method"):
            SolverConfig("dopri853")

    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(ValueError):
            SolverConfig("adaptive", rtol=0.0)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            SolverConfig("euler", fixed_steps=0)

    def test_roundtrips_through_dict(self):
        cfg = SolverConfig("rk4", fixed_steps=33, rtol=1e-3, atol=1e-4)
        assert SolverConfig(**asdict(cfg)) == cfg
