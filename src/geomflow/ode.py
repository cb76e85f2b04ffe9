"""Fixed-step and adaptive explicit integrators for dy/dt = f(t, y), t in [0, 1].

Euler, RK4 and the Dormand-Prince 5(4) pair are Butcher tableaux run by one
stage loop. Adaptive Dormand-Prince uses a PI step-size controller (safety
0.9, limiter exponents 0.2 - 0.75*beta and beta = 0.04); it reuses an accepted
step's last stage as the next step's first (FSAL) and keeps the first stage
across a rejection, so a solve evaluates f 1 + 6 * attempts times.
`integrate` works on float arrays; callers pack their state. A 2-D state
stacks independent solves, one per row: every stage evaluates f once for
the rows still running, while each row keeps its own t, step size, error
history and step count, and leaves the stack when it reaches t = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rules import FieldError, Rule, check, field_rules, ruled

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
    method: str = ruled("adaptive", Rule(str))
    fixed_steps: int = ruled(100, Rule(int, 1))
    rtol: float = ruled(1e-4, Rule(float, 0, open_low=True))
    atol: float = ruled(1e-5, Rule(float, 0, open_low=True))
    max_steps: int = ruled(10_000, Rule(int, 1))
    init_step: float = ruled(0.05, Rule(float, 0, open_low=True))

    def __post_init__(self):
        check(field_rules(self), vars(self))
        if self.method not in METHODS:
            raise FieldError("method", f"{self.method!r} is an unknown solver method")


def _weighted(w, k):
    """sum_j w[j] * k[j], added left to right. Zero weights are skipped: a
    0 * k[j] term could change no finite sum but the sign of a zero."""
    acc = None
    for wj, kj in zip(w, k):
        if wj:
            acc = wj * kj if acc is None else acc + wj * kj
    return acc


def _rk_step(f, tab: _Tableau, t, y, h, k0):
    """One step of size h[r] from (t[r], y[r]) for every row r, whose first
    stage f(t, y) is k0. Returns (y + increment, error estimate or None,
    stages)."""
    hc = h[:, None]
    k = [k0]
    for c, row in zip(tab.c[1:], tab.a):
        k.append(f(np.minimum(t + c * h, 1.0), y + hc * _weighted(row, k)))
    err = hc * _weighted(tab.e, k) if tab.e else None
    return y + (hc / tab.b_div) * _weighted(tab.b, k), err, k


def integrate(f, y0, config: SolverConfig):
    """Integrate from t=0 to t=1.

    A 1-D y0 is one state: f(t, y) gets a float t and a 1-D y, and the
    return is (y1, accepted steps). A 2-D y0 of shape (b, L) holds b
    independent states, one per row, each with its own step control: f(t, y)
    gets the times (b',) and rows (b', L) of the b' states still running, and
    the return is (y1, accepted steps of all rows, accepted steps per row).
    Each row's endpoint and step count are those of its solo solve, bit for
    bit.
    """
    y = np.array(y0, dtype=np.float64, copy=True)
    if y.ndim == 1:
        y1, steps = _integrate_rows(lambda t, rows: f(float(t[0]), rows[0])[None],
                                    y[None], config)
        return y1[0], int(steps[0])
    y1, steps = _integrate_rows(f, y, config)
    return y1, int(steps.sum()), steps


def _integrate_rows(f, y, config: SolverConfig):
    """`integrate` on a (b, L) state that it may overwrite; returns (y1,
    accepted steps per row)."""
    b = len(y)
    if config.method != "adaptive":
        tab = _EULER if config.method == "euler" else _RK4
        n = config.fixed_steps
        h = np.full(b, 1.0 / n)
        for i in range(n):
            t = np.full(b, i / n)
            y, _, _ = _rk_step(f, tab, t, y, h, f(t, y))
        return y, np.full(b, n)
    # Step control per row, in Python floats: numpy's power need not match
    # libm's pow bit for bit, and a contiguous row's mean is the 1-D mean.
    t, h = [0.0] * b, [min(config.init_step, 1.0)] * b
    accepted, attempts = [0] * b, [0] * b
    safety, beta = 0.9, 0.04
    expo = 0.2 - 0.75 * beta
    fac_min, fac_max = 0.2, 10.0
    err_old = [1e-4] * b
    k0 = np.array(f(np.zeros(b), y), dtype=np.float64)  # a copy: rows are set below
    run = list(range(b))
    while run:
        for r in run:
            if attempts[r] >= config.max_steps:
                raise BudgetExceededError(
                    f"solver budget exceeded at t={t[r]!r}, h={h[r]!r} "
                    f"after {attempts[r]} attempts"
                )
            attempts[r] += 1
            h[r] = min(h[r], 1.0 - t[r])
        rows = np.array(run)
        y_run = y[rows]
        y5, err_vec, k = _rk_step(f, _DP5, np.array([t[r] for r in run]), y_run,
                                  np.array([h[r] for r in run]), k0[rows])
        scale = config.atol + config.rtol * np.maximum(np.abs(y_run), np.abs(y5))
        sq = (err_vec / scale) ** 2
        ok = np.zeros(len(run), dtype=bool)
        for i, r in enumerate(run):
            err = float(np.sqrt(np.mean(sq[i])))
            if err <= 1.0:
                t[r] += h[r]
                accepted[r] += 1
                ok[i] = True
                err_clamped = max(err, 1e-10)
                fac = safety * err_clamped ** (-expo) * err_old[r] ** beta
                h[r] = h[r] * min(fac_max, max(fac_min, fac))
                err_old[r] = max(err, 1e-4)
            else:
                fac = safety * err ** (-expo)
                h[r] = h[r] * min(1.0, max(fac_min, fac))
        # FSAL: the last stage row is b and c[-1] = 1, so k[-1] = f(t + h, y5).
        y[rows[ok]] = y5[ok]
        k0[rows[ok]] = k[-1][ok]
        run = [r for r in run if t[r] < 1.0 - 1e-14]
    return y, np.array(accepted)
