"""Fixed-step and adaptive explicit integrators for dy/dt = f(t, y), t in [0, 1].

Euler, RK4 and the Dormand-Prince 5(4) pair are Butcher tableaux run by one
stage loop. Adaptive Dormand-Prince uses a PI step-size controller (safety
0.9, limiter exponents 0.2 - 0.75*beta and beta = 0.04); it reuses an accepted
step's last stage as the next step's first (FSAL) and keeps the first stage
across a rejection, so a solve evaluates f 1 + 6 * attempts times.
`integrate` works on flat float arrays; callers pack their state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

METHODS = ("euler", "rk4", "adaptive")


@dataclass(frozen=True)
class _Tableau:
    """Stage s is f(t + c[s] h, y + h sum_j a[s-1][j] k[j]); a step adds
    (h / b_div) sum_j b[j] k[j] and estimates its error as h sum_j e[j] k[j]."""

    c: tuple
    a: tuple
    b: tuple
    b_div: float = 1.0
    e: tuple = ()


_EULER = _Tableau((0.0,), (), (1.0,))
_RK4 = _Tableau((0.0, 0.5, 0.5, 1.0), ((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
                (1.0, 2.0, 2.0, 1.0), b_div=6.0)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP5 = _Tableau(
    (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0),
    ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
     (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
     (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656), _DP_B5[:6]),
    _DP_B5,
    e=(71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40),
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


def _weighted(w, k):
    """sum_j w[j] * k[j], added left to right. Zero weights are skipped: a
    0 * k[j] term could change no finite sum but the sign of a zero."""
    acc = None
    for wj, kj in zip(w, k):
        if wj:
            acc = wj * kj if acc is None else acc + wj * kj
    return acc


def _rk_step(f, tab: _Tableau, t, y, h, k0):
    """One step of size h from (t, y), whose first stage f(t, y) is k0.
    Returns (y + increment, error estimate or None, stages)."""
    k = [k0]
    for c, row in zip(tab.c[1:], tab.a):
        k.append(f(min(t + c * h, 1.0), y + h * _weighted(row, k)))
    err = h * _weighted(tab.e, k) if tab.e else None
    return y + (h / tab.b_div) * _weighted(tab.b, k), err, k


def integrate(f, y0, config: SolverConfig):
    """Integrate from t=0 to t=1. Returns (y1, accepted_steps)."""
    y = np.array(y0, dtype=np.float64, copy=True)
    if config.method != "adaptive":
        tab = _EULER if config.method == "euler" else _RK4
        n = config.fixed_steps
        for i in range(n):
            y, _, _ = _rk_step(f, tab, i / n, y, 1.0 / n, f(i / n, y))
        return y, n
    t, h = 0.0, min(config.init_step, 1.0)
    accepted = attempts = 0
    safety, beta = 0.9, 0.04
    expo = 0.2 - 0.75 * beta
    fac_min, fac_max = 0.2, 10.0
    err_old = 1e-4
    k0 = f(t, y)
    while t < 1.0 - 1e-14:
        if attempts >= config.max_steps:
            raise BudgetExceededError(
                f"solver budget exceeded at t={t!r}, h={h!r} after {attempts} attempts"
            )
        attempts += 1
        h = min(h, 1.0 - t)
        y5, err_vec, k = _rk_step(f, _DP5, t, y, h, k0)
        scale = config.atol + config.rtol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            # FSAL: the last stage row is b and c[-1] = 1, so k[-1] = f(t + h, y5).
            t, y, k0 = t + h, y5, k[-1]
            accepted += 1
            err_clamped = max(err, 1e-10)
            fac = safety * err_clamped ** (-expo) * err_old**beta
            h = h * min(fac_max, max(fac_min, fac))
            err_old = max(err, 1e-4)
        else:
            fac = safety * err ** (-expo)
            h = h * min(1.0, max(fac_min, fac))
    return y, accepted
