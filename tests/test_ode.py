import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomflow import _checks
from geomflow.ode import BudgetExceededError, SolverConfig, integrate

# Reference integrator: the Euler, RK4 and Dormand-Prince loops written out
# one by one, the Dormand-Prince one evaluating all seven stages on every
# attempt. `integrate` must reach the same bits with fewer evaluations.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


def reference_integrate(f, y0, config: SolverConfig):
    """Returns (y1, accepted_steps, attempts)."""
    y = np.array(y0, dtype=np.float64, copy=True)
    if config.method == "euler":
        n = config.fixed_steps
        h = 1.0 / n
        for i in range(n):
            y = y + h * f(i / n, y)
        return y, n, n
    if config.method == "rk4":
        n = config.fixed_steps
        h = 1.0 / n
        for i in range(n):
            t = i / n
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(min(t + h, 1.0), y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return y, n, n
    t = 0.0
    h = min(config.init_step, 1.0)
    accepted = 0
    attempts = 0
    safety, beta = 0.9, 0.04
    expo = 0.2 - 0.75 * beta
    fac_min, fac_max = 0.2, 10.0
    err_old = 1e-4
    k = [None] * 7
    while t < 1.0 - 1e-14:
        if attempts >= config.max_steps:
            raise BudgetExceededError("solver budget exceeded")
        attempts += 1
        h = min(h, 1.0 - t)
        k[0] = f(t, y)
        for s in range(1, 7):
            acc = _DP_A[s - 1][0] * k[0]
            for j in range(1, s):
                acc = acc + _DP_A[s - 1][j] * k[j]
            k[s] = f(min(t + _DP_C[s] * h, 1.0), y + h * acc)
        y5 = y + h * sum(_DP_B5[j] * k[j] for j in range(7))
        err_vec = h * sum(_DP_ERR[j] * k[j] for j in range(7))
        scale = config.atol + config.rtol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            t = t + h
            y = y5
            accepted += 1
            err_clamped = max(err, 1e-10)
            fac = safety * err_clamped ** (-expo) * err_old**beta
            h = h * min(fac_max, max(fac_min, fac))
            err_old = max(err, 1e-4)
        else:
            fac = safety * err ** (-expo)
            h = h * min(1.0, max(fac_min, fac))
    return y, accepted, attempts


def nonlinear_field(seed, size):
    """A seeded smooth nonlinear field and a counter of its evaluations."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((size, size)) * rng.uniform(0.2, 3.0)
    b = rng.standard_normal(size)
    w = rng.uniform(0.5, 12.0)
    calls = []

    def f(t, y):
        assert 0.0 <= t <= 1.0
        calls.append(t)
        return np.tanh(m @ y + b * np.sin(w * t)) - 0.3 * y * np.abs(y)

    return f, calls, rng.standard_normal(size)


class TestFixedStep:
    def test_euler_exact_on_constant_field(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(10)
        y0 = rng.standard_normal(10)
        for steps in (1, 3, 17):
            r = _checks.euler_constant_field(c, y0, steps)  # all steps, bitwise as by hand
            assert r.ok, r.checks

    def test_rk4_matches_linear_field_closed_form(self):
        r = _checks.rk4_linear_field(np.random.default_rng(1).standard_normal(8), 0.7, 200)
        assert r.ok, r.checks

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

    def test_budget_error_names_t_h_and_attempts(self):
        # Every attempt is rejected with an error far above tolerance, so
        # t stays 0 and each rejection shrinks h by the controller's
        # minimum factor 0.2.
        cfg = SolverConfig("adaptive", rtol=1e-12, atol=1e-14, max_steps=3, init_step=0.05)
        with pytest.raises(BudgetExceededError) as info:
            integrate(lambda t, y: 1e8 * np.cos(1e4 * t) * y, np.ones(4), cfg)
        found = re.fullmatch(
            r"solver budget exceeded at t=(\S+), h=(\S+) after (\d+) attempts",
            str(info.value),
        )
        assert found is not None
        h = 0.05
        for _ in range(3):
            h *= 0.2
        assert float(found[1]) == 0.0
        assert float(found[2]) == h
        assert int(found[3]) == 3


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


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 12),
        method=st.sampled_from(["euler", "rk4"]),
        steps=st.integers(1, 25),
    )
    def test_fixed_step_bitwise(self, seed, size, method, steps):
        f, calls, y0 = nonlinear_field(seed, size)
        cfg = SolverConfig(method, fixed_steps=steps)
        ref, ref_steps, _ = reference_integrate(f, y0, cfg)
        ref_calls = len(calls)
        calls.clear()
        y1, used = integrate(f, y0, cfg)
        assert used == ref_steps == steps
        assert y1.tobytes() == ref.tobytes()
        assert len(calls) == ref_calls == steps * (1 if method == "euler" else 4)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 12),
        rtol=st.sampled_from([1e-2, 1e-4, 1e-6, 1e-9]),
        init_step=st.sampled_from([0.9, 0.3, 0.05, 1e-3]),
    )
    def test_adaptive_bitwise_with_first_same_as_last(self, seed, size, rtol, init_step):
        f, calls, y0 = nonlinear_field(seed, size)
        cfg = SolverConfig("adaptive", rtol=rtol, atol=rtol / 10, init_step=init_step)
        ref, ref_steps, attempts = reference_integrate(f, y0, cfg)
        assert len(calls) == 7 * attempts
        calls.clear()
        y1, accepted = integrate(f, y0, cfg)
        assert accepted == ref_steps
        assert y1.tobytes() == ref.tobytes()
        assert len(calls) == 1 + 6 * attempts

    def test_rejections_keep_the_first_stage(self):
        # A large first step on a stiff, fast field is rejected at least once.
        f, calls, y0 = nonlinear_field(7, 6)
        cfg = SolverConfig("adaptive", rtol=1e-9, atol=1e-10, init_step=0.9)
        ref, ref_steps, attempts = reference_integrate(f, y0, cfg)
        calls.clear()
        y1, accepted = integrate(f, y0, cfg)
        assert attempts > accepted == ref_steps
        assert y1.tobytes() == ref.tobytes()
        assert len(calls) == 1 + 6 * attempts


def stacked_field(seed, size):
    """The seeded field of `nonlinear_field` applied row by row to a stack,
    a list of the row counts it was called with, and its 1-D field."""
    f1, _, _ = nonlinear_field(seed, size)
    rows = []

    def f(t, y):
        assert t.shape == (len(y),) and y.ndim == 2
        rows.append(len(y))
        return np.stack([f1(float(ti), yi) for ti, yi in zip(t, y)])

    return f, rows, f1


def varied_starts(seed, b, size):
    """b starting rows of scales 0.1 to 3, so the rows need different steps."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, size)) * rng.uniform(0.1, 3.0, (b, 1))


class TestStacked:
    def check_rows(self, seed, size, y0, cfg):
        """Every row of the stacked solve bit-equal to its solo solves;
        returns each row's (accepted, attempts)."""
        f, rows, f1 = stacked_field(seed, size)
        y1, total, accepted = integrate(f, y0, cfg)
        assert y1.shape == y0.shape and accepted.shape == (len(y0),)
        assert isinstance(total, int) and total == accepted.sum()
        counts = []
        for r, start in enumerate(y0):
            ref, ref_steps, attempts = reference_integrate(f1, start, cfg)
            solo, solo_steps = integrate(f1, start, cfg)
            assert isinstance(solo_steps, int)
            assert accepted[r] == solo_steps == ref_steps
            assert y1[r].tobytes() == solo.tobytes() == ref.tobytes()
            counts.append((ref_steps, attempts))
        if cfg.method == "adaptive":
            assert sum(rows) == sum(1 + 6 * attempts for _, attempts in counts)
        else:
            stages = 1 if cfg.method == "euler" else 4
            assert rows == [len(y0)] * (stages * cfg.fixed_steps)
        return counts

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 8),
        b=st.integers(1, 6),
        rtol=st.sampled_from([1e-2, 1e-4, 1e-6, 1e-9]),
        init_step=st.sampled_from([0.9, 0.3, 0.05]),
    )
    def test_adaptive_rows_equal_their_solo_solves(self, seed, size, b, rtol, init_step):
        cfg = SolverConfig("adaptive", rtol=rtol, atol=rtol / 10, init_step=init_step)
        self.check_rows(seed, size, varied_starts(seed, b, size), cfg)

    def test_rows_reject_and_finish_apart(self):
        # A large first step is rejected on some rows; the rows' scales make
        # them finish after different numbers of attempts.
        cfg = SolverConfig("adaptive", rtol=1e-9, atol=1e-10, init_step=0.9)
        counts = self.check_rows(7, 6, varied_starts(7, 6, 6), cfg)
        assert any(attempts > accepted for accepted, attempts in counts)
        assert len({attempts for _, attempts in counts}) > 1

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_fixed_step_rows_equal_their_solo_solves(self, method):
        self.check_rows(3, 5, varied_starts(3, 4, 5), SolverConfig(method, fixed_steps=7))

    def test_budget_exceeded_in_a_stack(self):
        cfg = SolverConfig("adaptive", rtol=1e-12, atol=1e-14, max_steps=3)

        def f(t, y):
            return 1e8 * np.cos(1e4 * t)[:, None] * y

        with pytest.raises(BudgetExceededError, match="after 3 attempts"):
            integrate(f, np.ones((3, 4)), cfg)
