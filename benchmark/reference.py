"""Independent reference computations the benchmark checks the program against.

None of these import geomflow: the validity rule, the Kabsch rotation, the
exhaustive alignment oracle and the fixed-step RK4 integrator are written
from their definitions.
"""

from __future__ import annotations

import itertools

import numpy as np

ORACLE_MAX_N = 8
ORACLE_CHUNK = 256


def is_valid(coords, feats, rule) -> bool:
    """Every pair at least `min_pair_dist` apart, every point within
    `max_radius` of the origin, and (for two or more classes) every feature
    row's top value ahead of its runner-up by at least `onehot_margin`."""
    n = coords.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if np.sqrt(np.sum((coords[i] - coords[j]) ** 2)) < rule.min_pair_dist:
                return False
    if np.sqrt((coords**2).sum(axis=1)).max() > rule.max_radius:
        return False
    if feats.shape[1] >= 2:
        for row in feats:
            a, b = sorted(row)[-2:]
            if b - a < rule.onehot_margin:
                return False
    return True


def optimal_rotation(x, y):
    """Proper rotation R minimizing ||x R^T - y||_F for centered (n, 3) x, y."""
    u, _, vt = np.linalg.svd(x.T @ y)
    d = np.ones(3)
    d[2] = 1.0 if np.linalg.det(u @ vt) >= 0 else -1.0
    return (u * d @ vt).T


def exhaustive_alignment(x1, h1, x0, h0, lam):
    """Global minimum over rotations R and row permutations P of
    lam ||P x1 R^T - x0||^2 + (1 - lam) ||P h1 - h0||^2, over every
    permutation (n <= 8). Returns (cost, perm, R) with row i of the aligned
    target equal to row perm[i] of the input.

    A rotation keeps each point's norm, so lam sum_i (|x1_perm[i]| - |x0_i|)^2
    plus the feature term is a lower bound on a permutation's cost. The
    permutations are costed in order of that bound, ORACLE_CHUNK at a time,
    until the bound reaches the best cost found: none of the rest can be
    lower."""
    n = x1.shape[0]
    if n > ORACLE_MAX_N:
        raise ValueError("oracle is limited to n <= 8")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    feat = ((h1[perms] - h0) ** 2).sum(axis=(1, 2))
    r1, r0 = np.linalg.norm(x1, axis=1), np.linalg.norm(x0, axis=1)
    bound = lam * ((r1[perms] - r0) ** 2).sum(axis=1) + (1.0 - lam) * feat
    order = np.argsort(bound, kind="stable")
    norms = (x1**2).sum() + (x0**2).sum()
    best, best_cost = -1, np.inf
    for start in range(0, order.size, ORACLE_CHUNK):
        idx = order[start:start + ORACLE_CHUNK]
        if bound[idx[0]] >= best_cost:
            break
        cov = x1[perms[idx]].transpose(0, 2, 1) @ x0
        s = np.linalg.svd(cov, compute_uv=False)
        # det(cov) = det(U) det(V^T) prod(s): its sign is that of the reflection.
        sign = np.where(np.linalg.det(cov) < 0, -1.0, 1.0)
        coord = norms - 2.0 * (s[:, 0] + s[:, 1] + sign * s[:, 2])
        cost = lam * coord + (1.0 - lam) * feat[idx]
        i = int(np.argmin(cost))
        if cost[i] < best_cost:
            best, best_cost = int(idx[i]), cost[i]
    perm = perms[best]
    rot = optimal_rotation(x1[perm], x0)
    cost = lam * ((x1[perm] @ rot.T - x0) ** 2).sum() + (1.0 - lam) * feat[best]
    return float(cost), perm, rot


def rk4(f, y0, steps):
    """Classical fixed-step RK4 for dy/dt = f(t, y) on [0, 1]."""
    y = np.array(y0, dtype=np.float64)
    h = 1.0 / steps
    for i in range(steps):
        t, tm, t1 = i / steps, (i + 0.5) / steps, (i + 1) / steps
        k1 = f(t, y)
        k2 = f(tm, y + h / 2 * k1)
        k3 = f(tm, y + h / 2 * k2)
        k4 = f(t1, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y
