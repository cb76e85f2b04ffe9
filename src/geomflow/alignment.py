"""Joint rotation/permutation alignment of two equal-size latent geometries.

Given a target z1 and a reference z0 (both zero-CoM), find the proper
rotation and row permutation that minimize the weighted squared cost

    lam * ||perm(R . x1) - x0||_F^2  +  (1 - lam) * ||perm(h1) - h0||_F^2.

The solver runs the classical pipeline: a per-point cost matrix, the
Hungarian assignment for the permutation, and Kabsch's SVD solution for the
rotation, optionally alternating the two until the cost stops improving.
Translation is handled implicitly by the zero-CoM precondition.

`brute_force_omt` is the exact small-n oracle: it enumerates every
permutation and solves the rotation subproblem in closed form, which is
globally optimal because the feature term does not depend on the rotation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import LatentGeometry, Permutation, Rotation, random_rotation

CENTER_TOL = 1e-8
ORACLE_MAX_N = 8
ALTERNATION_EPS = 1e-10


@dataclass(frozen=True)
class CostMatrix:
    """Per-point transport costs: m[i, j] = cost of matching z1 row i to z0 row j."""

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=np.float64, copy=True)
        m.setflags(write=False)
        object.__setattr__(self, "m", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("cost matrix must be square")
        if not np.isfinite(m).all():
            raise ValueError("cost matrix entries must be finite")
        if (m < 0).any():
            raise ValueError("cost matrix entries must be non-negative")

    @property
    def n(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True)
class OmtSolution:
    """Result of a joint alignment solve.

    `cost` is the minimized squared objective; `cost_unsquared` evaluates the
    same transforms under unsquared norms (lam * ||dx|| + (1-lam) * ||dh||),
    with `coord_cost`/`feature_cost` the two unsquared parts.
    """

    rotation: Rotation
    permutation: Permutation
    aligned_target: LatentGeometry
    cost: float
    cost_unsquared: float
    coord_cost: float
    feature_cost: float
    iterations: int


def _check_pair(z1: LatentGeometry, z0: LatentGeometry, lam: float):
    if z1.n != z0.n:
        raise ValueError("size mismatch between latent geometries")
    if z1.k != z0.k:
        raise ValueError("feature width mismatch between latent geometries")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")


def _check_centered(x: np.ndarray, who: str):
    if np.abs(x.mean(axis=0)).max() > CENTER_TOL:
        raise ValueError(f"{who} requires zero-CoM inputs")


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def cost_matrix(z1: LatentGeometry, z0: LatentGeometry, lam: float = 0.5) -> CostMatrix:
    """lam-weighted squared distances between every z1 row and every z0 row."""
    _check_pair(z1, z0, lam)
    m = lam * _sq_dists(z1.coords, z0.coords) + (1.0 - lam) * _sq_dists(
        z1.features, z0.features
    )
    return CostMatrix(m)


def hungarian(c: CostMatrix) -> Permutation:
    """Optimal assignment: the permutation minimizing sum_i c.m[perm[i], i]."""
    rows, cols = linear_sum_assignment(c.m)
    perm = np.empty(c.n, dtype=np.intp)
    perm[cols] = rows
    return Permutation(perm)


def kabsch(x_target: np.ndarray, x_ref: np.ndarray) -> Rotation:
    """Proper rotation R minimizing ||x_target @ R.T - x_ref||_F.

    Both point sets must be zero-CoM. Uses the SVD of the 3x3
    cross-covariance with the determinant sign correction applied to the
    smallest singular direction; rank-deficient inputs still yield a valid
    minimizer under that convention.
    """
    x_target = np.asarray(x_target, dtype=np.float64)
    x_ref = np.asarray(x_ref, dtype=np.float64)
    if x_target.shape != x_ref.shape or x_target.ndim != 2 or x_target.shape[1] != 3:
        raise ValueError("kabsch expects two equal-shape (n, 3) arrays")
    if x_target.shape[0] < 2:
        raise ValueError("kabsch needs at least two points")
    _check_centered(x_target, "kabsch")
    _check_centered(x_ref, "kabsch")
    return _kabsch_rotation(x_target.T @ x_ref)


def _kabsch_rotation(h: np.ndarray) -> Rotation:
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if d == 0:
        d = 1.0
    corr = np.ones(3)
    corr[2] = d
    return Rotation(vt.T @ np.diag(corr) @ u.T)


def _solution(z1, z0, lam, perm, rot, iterations) -> OmtSolution:
    x1a = z1.coords[perm.map] @ rot.r.T
    h1a = z1.features[perm.map]
    sse_x = float(((x1a - z0.coords) ** 2).sum())
    sse_h = float(((h1a - z0.features) ** 2).sum())
    return OmtSolution(
        rotation=rot,
        permutation=perm,
        aligned_target=LatentGeometry(z1.n, x1a, h1a),
        cost=lam * sse_x + (1.0 - lam) * sse_h,
        cost_unsquared=lam * math.sqrt(sse_x) + (1.0 - lam) * math.sqrt(sse_h),
        coord_cost=math.sqrt(sse_x),
        feature_cost=math.sqrt(sse_h),
        iterations=iterations,
    )


def solve_omt(
    z1: LatentGeometry,
    z0: LatentGeometry,
    lam: float = 0.5,
    max_iters: int = 1,
    restarts: int = 1,
) -> OmtSolution:
    """Align z1 onto z0: cost matrix -> Hungarian -> Kabsch, then alternate.

    max_iters = 1 is the single assignment-then-rotation pass; larger values
    alternate the two subproblems (each half-step is optimal given the other
    variable, so the cost is non-increasing) until the improvement drops
    below 1e-10. `restarts` > 1 additionally tries seeded random initial
    rotations and keeps the best solution; the identity start is always
    included, so the result can never be worse than the single pass.
    """
    _check_pair(z1, z0, lam)
    _check_centered(z1.coords, "solve_omt")
    _check_centered(z0.coords, "solve_omt")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    n = z1.n
    feat_d2 = _sq_dists(z1.features, z0.features)
    inits = [np.eye(3)] + [
        random_rotation(90_000 + 17 * i).r for i in range(restarts - 1)
    ]

    best = None
    for r_init in inits:
        rot_m = r_init
        prev_cost = np.inf
        iters_done = 0
        local_best = None
        for it in range(max_iters):
            m = lam * _sq_dists(z1.coords @ rot_m.T, z0.coords) + (1.0 - lam) * feat_d2
            perm = hungarian(CostMatrix(m))
            if n >= 2:
                rot = kabsch(z1.coords[perm.map], z0.coords)
            else:
                rot = Rotation.identity()
            cand = _solution(z1, z0, lam, perm, rot, it + 1)
            iters_done = it + 1
            if local_best is None or cand.cost < local_best.cost:
                local_best = cand
            if prev_cost - cand.cost < ALTERNATION_EPS:
                break
            prev_cost = cand.cost
            rot_m = rot.r
        local_best = replace(local_best, iterations=iters_done)
        if best is None or local_best.cost < best.cost:
            best = local_best
    return best


def brute_force_omt(z1: LatentGeometry, z0: LatentGeometry, lam: float = 0.5):
    """Exact global optimum of the squared alignment objective, n <= 8.

    Enumerates every permutation; per permutation the optimal rotation cost
    comes from the singular values of the cross-covariance (no explicit
    rotation is needed until the winner is known). Returns
    (cost, Permutation, Rotation).
    """
    _check_pair(z1, z0, lam)
    if z1.n > ORACLE_MAX_N:
        raise ValueError("oracle size limit")
    _check_centered(z1.coords, "brute_force_omt")
    _check_centered(z0.coords, "brute_force_omt")

    n = z1.n
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    feat_d2 = _sq_dists(z1.features, z0.features)
    f_cost = feat_d2[perms, np.arange(n)].sum(axis=1)

    if n == 1:
        costs = lam * ((z1.coords - z0.coords) ** 2).sum() + (1.0 - lam) * f_cost
        best = int(np.argmin(costs))
        return float(costs[best]), Permutation(perms[best]), Rotation.identity()

    x1p = z1.coords[perms]  # (P, n, 3)
    h = np.einsum("pni,nj->pij", x1p, z0.coords)
    u, s, vt = np.linalg.svd(h)
    sign = np.sign(np.linalg.det(u) * np.linalg.det(vt))
    sign[sign == 0] = 1.0
    tr_max = s[:, 0] + s[:, 1] + sign * s[:, 2]
    sse_x = np.maximum(
        (z1.coords**2).sum() + (z0.coords**2).sum() - 2.0 * tr_max, 0.0
    )
    costs = lam * sse_x + (1.0 - lam) * f_cost
    best = int(np.argmin(costs))
    perm = Permutation(perms[best])
    rot = kabsch(z1.coords[perm.map], z0.coords)
    x1a = z1.coords[perm.map] @ rot.r.T
    sse_x_best = float(((x1a - z0.coords) ** 2).sum())
    return lam * sse_x_best + (1.0 - lam) * float(f_cost[best]), perm, rot
