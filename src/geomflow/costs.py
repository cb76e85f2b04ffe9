"""Transport-cost functionals: per-pair, optimally aligned, and batch-level.

The batch report follows the "sum of unsquared coordinate and feature norms"
convention: `total_cost` is the Monte Carlo mean of
||dx||_F + ||dh||_F over aligned pairs, `per_atom_cost` divides the summed
pair costs by the summed point counts, and lambda only steers which
alignment is chosen, not how the report is added up. Every aligned cost
runs through one path: the pairs are re-centered, then the oracle aligns
each one (`exact`), or one `alignment.solve_omt_batch` call aligns them
all, each pair's result unchanged. `optimal_molecule_cost` is its one-pair
case.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass

import numpy as np

from ._rules import Rule, check, field_rules, ruled
from .alignment import LAMBDA, ORACLE_MAX_N, AlignBudget, brute_force_omt, solve_omt_batch
from .geometry import Geometry, LatentGeometry

CSV_HEADER = "space,total_cost,per_atom_cost,coord_part,feature_part,num_pairs"
# Reports alternate assignment and rotation from several starts.
REPORT_BUDGET = AlignBudget(max_iters=20, restarts=4)


@dataclass(frozen=True)
class CostReport:
    """Batch transport-cost summary over a coupling."""

    space: str
    total_cost: float = ruled(MISSING, Rule(float, 0))
    per_atom_cost: float = ruled(MISSING, Rule(float, 0))
    coord_part: float = ruled(MISSING, Rule(float, 0))
    feature_part: float = ruled(MISSING, Rule(float, 0))
    num_pairs: int = ruled(MISSING, Rule(int, 1))

    def __post_init__(self):
        check(field_rules(self), vars(self))

    def csv_row(self) -> str:
        return (
            f"{self.space},{self.total_cost!r},{self.per_atom_cost!r},"
            f"{self.coord_part!r},{self.feature_part!r},{self.num_pairs}"
        )


def _as_latent(g) -> LatentGeometry:
    if isinstance(g, LatentGeometry):
        return g
    if isinstance(g, Geometry):
        return LatentGeometry(g.n, g.coords, g.features)
    raise TypeError(f"expected Geometry or LatentGeometry, got {type(g)!r}")


def molecule_cost(g0, g1) -> float:
    """Unaligned pair cost: ||x1 - x0||_F + ||h1 - h0||_F."""
    a, b = _as_latent(g0), _as_latent(g1)
    if a.n != b.n or a.k != b.k:
        raise ValueError("size mismatch between geometries")
    return float(
        np.linalg.norm(b.coords - a.coords) + np.linalg.norm(b.features - a.features)
    )


def optimal_molecule_cost(g0, g1, lam: float = LAMBDA, exact: bool = False,
                          max_iters: int = REPORT_BUDGET.max_iters,
                          restarts: int = REPORT_BUDGET.restarts) -> float:
    """Minimized squared alignment objective between g1 (target) and g0.

    Inputs are re-centered first (centering realizes the optimal
    translation). `exact` switches to the permutation-enumeration oracle
    (n <= 8); otherwise the Hungarian/Kabsch solver is used.
    """
    return _aligned([(_as_latent(g0), _as_latent(g1))], lam, exact, max_iters, restarts)[0][0]


def _centered(z: LatentGeometry) -> LatentGeometry:
    """z with its coordinates re-centered (which realizes the optimal
    translation)."""
    return LatentGeometry(z.n, z.coords - z.coords.mean(axis=0), z.features)


def _aligned(pairs, lam, exact, max_iters, restarts) -> list:
    """(squared objective, ||dx||, ||dh||) of each re-centered (z0, z1) pair,
    in order, optimally aligned by the oracle (`exact`) or by one
    `solve_omt_batch` call."""
    pairs = [(_centered(z0), _centered(z1)) for z0, z1 in pairs]
    if not exact:
        sols = solve_omt_batch([z1 for _, z1 in pairs], [z0 for z0, _ in pairs], lam,
                               max_iters=max_iters, restarts=restarts)
        return [(sol.cost, sol.coord_cost, sol.feature_cost) for sol in sols]
    out = []
    for z0, z1 in pairs:
        cost, perm, rot = brute_force_omt(z1, z0, lam)
        dx = z1.coords[perm.map] @ rot.r.T - z0.coords
        dh = z1.features[perm.map] - z0.features
        out.append((float(cost), float(np.linalg.norm(dx)), float(np.linalg.norm(dh))))
    return out


def distribution_cost(pairs, lam: float = LAMBDA, exact: bool = False,
                      max_iters: int = REPORT_BUDGET.max_iters,
                      restarts: int = REPORT_BUDGET.restarts,
                      space: str = "latent") -> CostReport:
    """Monte Carlo estimate of the expected aligned transport cost.

    `pairs` is any iterable of objects with `.z0` and `.z1` latent
    geometries (a CouplingSet works). Each pair is re-centered; one
    `solve_omt_batch` call aligns them all, with the same result as pair
    by pair.
    With `exact`, the oracle aligns each pair once every pair's size is checked.
    Summation is compensated so the reduction order cannot perturb the
    report.
    """
    pair_list = list(pairs)
    if not pair_list:
        raise ValueError("empty coupling")
    for i, p in enumerate(pair_list):
        if p.z0.n != p.z1.n:
            raise ValueError("size mismatch inside coupling")
        if exact and p.z0.n > ORACLE_MAX_N:
            raise ValueError(f"pair {i} has {p.z0.n} points, above the oracle size limit "
                             f"ORACLE_MAX_N = {ORACLE_MAX_N}")
    _, coord, feat = zip(*_aligned([(p.z0, p.z1) for p in pair_list], lam, exact,
                                   max_iters, restarts))
    total = [c + f for c, f in zip(coord, feat)]
    atoms = sum(p.z0.n for p in pair_list)
    num = len(pair_list)
    return CostReport(
        space=space,
        total_cost=math.fsum(total) / num,
        per_atom_cost=math.fsum(total) / atoms,
        coord_part=math.fsum(coord) / num,
        feature_part=math.fsum(feat) / num,
        num_pairs=num,
    )
