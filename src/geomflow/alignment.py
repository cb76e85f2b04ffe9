"""Joint rotation/permutation alignment of two equal-size latent geometries.

Given a target z1 and a reference z0 (both zero-CoM), find the proper
rotation and row permutation that minimize the weighted squared cost

    lam * ||perm(R . x1) - x0||_F^2  +  (1 - lam) * ||perm(h1) - h0||_F^2.

The solver runs the classical pipeline: a per-point cost matrix, the
Hungarian assignment for the permutation, and Kabsch's SVD solution for the
rotation, optionally alternating the two until the cost stops improving.
Translation is handled implicitly by the zero-CoM precondition. One kernel
runs every alternation: the starts of a pair, and the pairs of one point
count and feature width given to `solve_omt_batch` (which groups pairs of
any sizes itself), are rows of one stacked state, each with the bits it
would have alone. As in the stacked ODE solve, a pass works on the rows
still alternating, with one stacked `hungarian` and one stacked `kabsch`
call, and arrays indexed by row keep each row's best pass, its
permutation included; a pair's result is the first best of its starts.

`brute_force_omt` is the exact small-n oracle: it enumerates every
permutation and solves the rotation subproblem in closed form, which is
globally optimal because the feature term does not depend on the rotation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import LatentGeometry, Permutation, Rotation, _runs, random_rotation

CENTER_TOL = 1e-8
ORACLE_MAX_N = 8
ALTERNATION_EPS = 1e-10
# The coordinate-vs-feature weight of the alignment cost.
LAMBDA = 0.5
# The most stacked cost-matrix entries (rows * n^2) one alignment stack of
# `solve_omt_batch` holds; larger groups of one point count are split.
BATCH_ENTRIES = 1 << 16
# Kabsch's determinant correction: diag(1, 1, +1) or, for a reflection,
# diag(1, 1, -1) on the smallest singular direction.
_SIGN_FIX = np.array([np.eye(3), np.diag([1.0, 1.0, -1.0])])
_SIGN_FIX.setflags(write=False)


class AlignBudget(NamedTuple):
    """Alternation passes and starts of one `solve_omt` call."""

    max_iters: int
    restarts: int


# The paper's alignment: one assignment-then-rotation pass from the identity.
SINGLE_PASS = AlignBudget(max_iters=1, restarts=1)


@dataclass(frozen=True)
class CostMatrix:
    """Per-point costs: m[i, j] = cost of matching z1 row i to z0 row j; or an (r, n, n) stack."""

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=np.float64, copy=True)
        m.setflags(write=False)
        object.__setattr__(self, "m", m)
        if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
            raise ValueError("cost matrix must be square")
        if not np.isfinite(m).all():
            raise ValueError("cost matrix entries must be finite")
        if (m < 0).any():
            raise ValueError("cost matrix entries must be non-negative")

    @property
    def n(self) -> int:
        return self.m.shape[-1]


@dataclass(frozen=True)
class OmtSolution:
    """Result of a joint alignment solve.

    `cost` is the minimized squared objective; `coord_cost`/`feature_cost`
    are the unsquared norms ||dx|| and ||dh|| under the same transforms.
    """

    rotation: Rotation
    permutation: Permutation
    aligned_target: LatentGeometry
    cost: float
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


def _check_centered(who: str, *xs: np.ndarray):
    """Raise unless every (n, 3) set of the equal-shape (..., n, 3) stacks
    `xs` is zero-CoM."""
    means = np.add.reduce(np.array(xs), axis=-2) / xs[0].shape[-2]
    if np.maximum.reduce(abs(means), axis=None) > CENTER_TOL:
        raise ValueError(f"{who} requires zero-CoM inputs")


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between every row of a and every row of b, per
    set of a (..., n, w) stack."""
    diff = a[..., :, None, :] - b[..., None, :, :]
    return np.einsum("...ijk,...ijk->...ij", diff, diff)


def cost_matrix(z1: LatentGeometry, z0: LatentGeometry, lam: float = LAMBDA) -> CostMatrix:
    """lam-weighted squared distances between every z1 row and every z0 row."""
    _check_pair(z1, z0, lam)
    m = lam * _sq_dists(z1.coords, z0.coords) + (1.0 - lam) * _sq_dists(
        z1.features, z0.features
    )
    return CostMatrix(m)


def hungarian(c: CostMatrix):
    """Optimal assignment: the permutation minimizing sum_i c.m[perm[i], i].

    Like `kabsch`, it takes a leading stack axis: an (n, n) matrix returns
    a `Permutation`, an (r, n, n) stack a read-only (r, n) array of the r
    maps, each that of its own 2-D call.
    """
    m = c.m if c.m.ndim == 3 else c.m[None]
    perm = np.empty(m.shape[:2], dtype=np.intp)
    for p, mj in zip(perm, m):
        rows, cols = linear_sum_assignment(mj)
        p[cols] = rows
    if c.m.ndim == 2:
        return Permutation(perm[0])
    perm.setflags(write=False)
    return perm


def kabsch(x_target: np.ndarray, x_ref: np.ndarray):
    """Proper rotation R minimizing ||x_target @ R.T - x_ref||_F.

    Both point sets must be zero-CoM. Uses the SVD of the 3x3
    cross-covariance with the determinant sign correction applied to the
    smallest singular direction; rank-deficient inputs still yield a valid
    minimizer under that convention.

    Like `np.linalg.svd`, it takes a leading stack axis: (n, 3) inputs
    return a `Rotation`, (r, n, 3) inputs a read-only (r, 3, 3) array of
    the r rotations, each with the bits of its own 2-D call.
    """
    x_target = np.asarray(x_target, dtype=np.float64)
    x_ref = np.asarray(x_ref, dtype=np.float64)
    if (x_target.shape != x_ref.shape or x_target.ndim not in (2, 3)
            or x_target.shape[-1] != 3):
        raise ValueError("kabsch expects two equal-shape (n, 3) or (r, n, 3) arrays")
    if x_target.shape[-2] < 2:
        raise ValueError("kabsch needs at least two points")
    _check_centered("kabsch", x_target, x_ref)
    u, _, vt = np.linalg.svd(x_target.swapaxes(-1, -2) @ x_ref)
    v, ut = vt.swapaxes(-1, -2), u.swapaxes(-1, -2)
    r = v @ _SIGN_FIX[(np.linalg.det(v @ ut) < 0).astype(np.intp)] @ ut
    if r.ndim == 2:
        return Rotation(r)
    Rotation.check(r)
    r.setflags(write=False)
    return r


@functools.lru_cache(maxsize=32)
def _start_rotations(pairs: int, restarts: int) -> np.ndarray:
    """The read-only (pairs * restarts, 3, 3) alternation starts of a
    stack: per pair the identity, then seeded random rotations."""
    starts = [np.eye(3)] + [random_rotation(90_000 + 17 * i).r for i in range(restarts - 1)]
    starts = np.array(starts * pairs)
    starts.setflags(write=False)
    return starts


def _check_budget(max_iters: int, restarts: int):
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")


def _align_stack(z1s, z0s, lam, max_iters, restarts) -> list:
    """The alternation of b checked pairs of one size n, each from every
    start, as one state of R = b * restarts rows; `solve_omt` per pair.

    A pass runs on the rows still alternating, `act`: one stacked rotate
    and (a, n, n) cost, one stacked `hungarian` and one stacked `kabsch`,
    and the stacked costs, each row summed over its flattened entries as a
    lone pair would be. Arrays indexed by row keep each row's best pass and
    its pass count. A row stops once a pass improves its cost by less than
    ALTERNATION_EPS; the working arrays shrink on a pass where a row stops.
    Per pair the first minimum over its starts wins.
    """
    b, s, n = len(z1s), restarts, z1s[0].n
    x1 = np.array([z.coords for z in z1s for _ in range(s)])
    h1 = np.array([z.features for z in z1s for _ in range(s)])
    x0 = np.array([z.coords for z in z0s for _ in range(s)])
    h0 = np.array([z.features for z in z0s for _ in range(s)])
    # The feature half of every pass's cost matrix.
    feat = (1.0 - lam) * _sq_dists(h1, h0)
    rot = _start_rotations(b, s)
    act = np.arange(b * s)
    ar = act[:, None]
    passes = np.empty(b * s, np.intp)
    # Per row, its best pass: cost, permutation, rotation, aligned
    # coordinates, and the coordinate and feature sums of squares.
    best = [np.full(b * s, np.inf), np.empty((b * s, n), np.intp), np.empty((b * s, 3, 3)),
            np.empty((b * s, n, 3)), np.empty(b * s), np.empty(b * s)]
    for it in range(max_iters):
        a = len(act)
        m = lam * _sq_dists(x1 @ rot.swapaxes(-1, -2), x0) + feat
        perm = hungarian(CostMatrix(m))
        x1p = x1[ar, perm]
        rot = kabsch(x1p, x0) if n >= 2 else np.broadcast_to(np.eye(3), (a, 3, 3))
        x1a = x1p @ rot.swapaxes(-1, -2)
        sse_x = np.add.reduce(((x1a - x0) ** 2).reshape(a, -1), axis=1)
        sse_h = np.add.reduce(((h1[ar, perm] - h0) ** 2).reshape(a, -1), axis=1)
        cost = lam * sse_x + (1.0 - lam) * sse_h
        won = cost < best[0][act]
        rows = act[won]
        for keep, now in zip(best, (cost, perm, rot, x1a, sse_x, sse_h)):
            keep[rows] = now[won]
        passes[act] = it + 1
        if it + 1 == max_iters:
            break
        if it:  # after the first pass every row goes on
            go = ~(prev - cost < ALTERNATION_EPS)
            if not go.any():
                break
            if not go.all():
                act, ar = act[go], ar[:go.sum()]
                cost, rot, x1, h1, x0, h0, feat = (
                    v[go] for v in (cost, rot, x1, h1, x0, h0, feat))
        prev = cost

    cost, perm, rot, x1a, sse_x, sse_h = best
    wins = [p * s + k for p, k in enumerate(cost.reshape(b, s).argmin(axis=1).tolist())]
    return [OmtSolution(
        rotation=Rotation.of_checked(rot[w]),
        permutation=Permutation(perm[w]),
        aligned_target=LatentGeometry(n, x1a[w], z1.features[perm[w]]),
        cost=float(cost[w]),
        coord_cost=math.sqrt(sse_x[w]),
        feature_cost=math.sqrt(sse_h[w]),
        iterations=int(passes[w]),
    ) for z1, w in zip(z1s, wins)]


def solve_omt(z1: LatentGeometry, z0: LatentGeometry, lam: float = LAMBDA,
              max_iters: int = SINGLE_PASS.max_iters,
              restarts: int = SINGLE_PASS.restarts) -> OmtSolution:
    """Align z1 onto z0: cost matrix -> Hungarian -> Kabsch, then alternate.

    max_iters = 1 is the single assignment-then-rotation pass; larger values
    alternate the two subproblems (each half-step is optimal given the other
    variable, so the cost is non-increasing) until the improvement drops
    below 1e-10. `restarts` > 1 additionally tries seeded random initial
    rotations and keeps the best solution; the identity start is always
    included, so the result can never be worse than the single pass. The
    starts run side by side as rows of one stacked alternation (the
    one-pair case of `solve_omt_batch`); `iterations` is the pass count of
    the winning start.
    """
    _check_pair(z1, z0, lam)
    _check_centered("solve_omt", z1.coords, z0.coords)
    _check_budget(max_iters, restarts)
    return _align_stack([z1], [z0], lam, max_iters, restarts)[0]


def solve_omt_batch(z1s, z0s, lam: float = LAMBDA,
                    max_iters: int = SINGLE_PASS.max_iters,
                    restarts: int = SINGLE_PASS.restarts) -> list:
    """`solve_omt` of each pair (z1s[i], z0s[i]), the pairs of each point
    count and feature width run as stacked alternations of at most
    BATCH_ENTRIES cost-matrix entries; the solutions in input order, each
    bit-identical to its own `solve_omt` call."""
    z1s, z0s = list(z1s), list(z0s)
    if len(z1s) != len(z0s) or not z1s:
        raise ValueError("solve_omt_batch needs equal, non-empty lists of targets and references")
    for z1, z0 in zip(z1s, z0s):
        _check_pair(z1, z0, lam)
        _check_centered("solve_omt_batch", z1.coords, z0.coords)
    _check_budget(max_iters, restarts)
    return _runs(list(zip(z1s, z0s)), [(z1.n, z1.k) for z1 in z1s], BATCH_ENTRIES,
                 lambda key: restarts * key[0] ** 2,
                 lambda run: _align_stack(*zip(*run), lam, max_iters, restarts))


def brute_force_omt(z1: LatentGeometry, z0: LatentGeometry, lam: float = LAMBDA):
    """Exact global optimum of the squared alignment objective, n <= 8.

    Enumerates every permutation; per permutation the optimal rotation cost
    comes from the singular values of the cross-covariance (no explicit
    rotation is needed until the winner is known). Returns
    (cost, Permutation, Rotation).
    """
    _check_pair(z1, z0, lam)
    if z1.n > ORACLE_MAX_N:
        raise ValueError(f"oracle size limit ORACLE_MAX_N = {ORACLE_MAX_N}: {z1.n} points")
    _check_centered("brute_force_omt", z1.coords, z0.coords)

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
