"""Fixed-step and adaptive explicit integrators for dy/dt = f(t, y), t in [0, 1].

The adaptive method is the Dormand-Prince 5(4) embedded pair with a PI
step-size controller (safety 0.9, limiter exponents 0.2 - 0.75*beta and
beta = 0.04). `integrate` works on flat float arrays; callers pack their
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

METHODS = ("euler", "rk4", "adaptive")

# Dormand-Prince 5(4) tableau.
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


class BudgetExceededError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    method: str = "adaptive"
    fixed_steps: int = 100
    rtol: float = 1e-4
    atol: float = 1e-5
    max_steps: int = 10_000
    init_step: float = 0.05

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown solver method {self.method!r}")
        if self.fixed_steps < 1 or self.max_steps < 1:
            raise ValueError("step counts must be >= 1")
        tolerances = (self.rtol, self.atol, self.init_step)
        if not all(math.isfinite(v) and v > 0 for v in tolerances):
            raise ValueError("solver tolerances must be positive and finite")


def integrate(f, y0, config: SolverConfig):
    """Integrate from t=0 to t=1. Returns (y1, accepted_steps)."""
    y = np.array(y0, dtype=np.float64, copy=True)
    if config.method == "euler":
        n = config.fixed_steps
        h = 1.0 / n
        for i in range(n):
            y = y + h * f(i / n, y)
        return y, n
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
        return y, n
    return _integrate_adaptive(f, y, config)


def _integrate_adaptive(f, y, config: SolverConfig):
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
    return y, accepted
