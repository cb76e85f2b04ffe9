import math

import numpy as np
import pytest

from geomflow import alignment
from geomflow.alignment import solve_omt
from geomflow.costs import CostReport, distribution_cost, molecule_cost, optimal_molecule_cost
from geomflow.flow import CouplingPair, CouplingSet
from geomflow.geometry import Geometry, LatentGeometry, random_rotation


def random_geometry(seed, n=5, d=3):
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n, 3))
    coords -= coords.mean(axis=0)
    return Geometry(n, coords, rng.standard_normal((n, d)))


def random_latent(seed, n=5, k=2):
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n, 3))
    coords -= coords.mean(axis=0)
    return LatentGeometry(n, coords, rng.standard_normal((n, k)))


class TestMoleculeCost:
    def test_zero_on_identical(self):
        g = random_geometry(0)
        assert molecule_cost(g, g) == 0.0

    def test_single_row_offset(self):
        g0 = random_geometry(1, n=4)
        coords = np.array(g0.coords)
        coords[2] += np.array([3.0, 0.0, 0.0])
        g1 = Geometry(4, coords, g0.features)
        assert abs(molecule_cost(g0, g1) - 3.0) <= 1e-12

    def test_matches_direct_recomputation(self):
        g0, g1 = random_geometry(2), random_geometry(3)
        expected = np.sqrt(((g1.coords - g0.coords) ** 2).sum()) + np.sqrt(
            ((g1.features - g0.features) ** 2).sum()
        )
        assert abs(molecule_cost(g0, g1) - expected) <= 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            molecule_cost(random_geometry(0, n=4), random_geometry(1, n=5))


class TestOptimalMoleculeCost:
    def test_rigid_permuted_copy_is_free(self):
        rng = np.random.default_rng(4)
        g0 = random_geometry(5, n=6)
        perm = rng.permutation(6)
        rot = random_rotation(6)
        g1 = Geometry(6, (g0.coords @ rot.r.T)[perm], g0.features[perm])
        assert optimal_molecule_cost(g0, g1, exact=True) <= 1e-8

    def test_heuristic_dominated_by_oracle(self):
        for i in range(15):
            g0 = random_geometry(100 + 2 * i, n=5)
            g1 = random_geometry(101 + 2 * i, n=5)
            exact = optimal_molecule_cost(g0, g1, exact=True)
            heur = optimal_molecule_cost(g0, g1, exact=False)
            assert heur >= exact - 1e-9

    def test_lambda_zero_ignores_coordinate_perturbation(self):
        g0 = random_geometry(7, n=4)
        coords = np.array(g0.coords) + np.random.default_rng(8).standard_normal((4, 3))
        g1 = Geometry(4, coords - coords.mean(axis=0), g0.features)
        assert optimal_molecule_cost(g0, g1, lam=0.0, exact=True) <= 1e-10

    def test_dominates_identity_transform_cost(self):
        g0, g1 = random_geometry(9), random_geometry(10)
        identity = 0.5 * ((g1.coords - g0.coords) ** 2).sum() + 0.5 * (
            (g1.features - g0.features) ** 2
        ).sum()
        assert optimal_molecule_cost(g0, g1) <= identity + 1e-12

    def test_equals_solve_omt_cost_on_a_centred_pair(self):
        # the one-pair case of the stacked report path
        g0, g1 = random_latent(12, n=9, k=3), random_latent(13, n=9, k=3)
        for budget in ({}, {"max_iters": 1, "restarts": 1}):
            want = solve_omt(g1, g0, 0.5, **({"max_iters": 20, "restarts": 4} | budget)).cost
            assert optimal_molecule_cost(g0, g1, 0.5, **budget) == want

    def test_recentering_makes_translation_free(self):
        g0 = random_geometry(11)
        g1 = Geometry(g0.n, g0.coords + np.array([5.0, -1.0, 2.0]), g0.features)
        assert optimal_molecule_cost(g0, g1, exact=True) <= 1e-12


def make_pair(seed, n=4, k=2):
    return CouplingPair(random_latent(seed, n, k), random_latent(seed + 1, n, k))


class TestDistributionCost:
    def test_identical_pairs_cost_zero(self):
        z = random_latent(0)
        report = distribution_cost(CouplingSet([CouplingPair(z, z)] * 3))
        assert report.total_cost <= 1e-12
        assert report.num_pairs == 3

    def test_mean_of_two_known_costs(self):
        pairs = [make_pair(20), make_pair(30, n=6)]
        singles = [distribution_cost(CouplingSet([p])) for p in pairs]
        combined = distribution_cost(CouplingSet(pairs))
        expected = (singles[0].total_cost + singles[1].total_cost) / 2
        assert abs(combined.total_cost - expected) <= 1e-12

    def test_parts_sum_to_total(self):
        report = distribution_cost(CouplingSet([make_pair(40 + i) for i in range(5)]))
        assert abs(report.total_cost - (report.coord_part + report.feature_part)) <= 1e-9

    def test_per_atom_normalization(self):
        pairs = [make_pair(50, n=4), make_pair(60, n=8)]
        report = distribution_cost(CouplingSet(pairs))
        assert abs(report.per_atom_cost - report.total_cost * 2 / 12) <= 1e-12

    def test_linear_in_empirical_measure(self):
        a = CouplingSet([make_pair(70 + i, n=4) for i in range(3)])
        b = CouplingSet([make_pair(80 + i, n=6) for i in range(2)])
        ra, rb = distribution_cost(a), distribution_cost(b)
        rc = distribution_cost(a.concat(b))
        pair_weighted = (3 * ra.total_cost + 2 * rb.total_cost) / 5
        assert abs(rc.total_cost - pair_weighted) <= 1e-12
        atoms_a, atoms_b = 3 * 4, 2 * 6
        atom_weighted = (
            ra.per_atom_cost * atoms_a + rb.per_atom_cost * atoms_b
        ) / (atoms_a + atoms_b)
        assert abs(rc.per_atom_cost - atom_weighted) <= 1e-12

    def test_empty_coupling_rejected(self):
        with pytest.raises(ValueError, match="empty coupling"):
            distribution_cost(CouplingSet([]))

    def test_csv_row_schema(self):
        report = distribution_cost(CouplingSet([make_pair(90)]), space="data")
        row = report.csv_row()
        assert row.startswith("data,")
        assert len(row.split(",")) == 6

    def test_invariant_under_rigid_permutation_of_argument(self):
        rng = np.random.default_rng(13)
        pair = make_pair(95, n=5)
        base = distribution_cost(CouplingSet([pair]), exact=True).total_cost
        rot = random_rotation(96)
        perm = rng.permutation(5)
        moved = (pair.z1.coords @ rot.r.T)[perm]
        z1t = LatentGeometry(5, moved - moved.mean(axis=0), pair.z1.features[perm])
        moved_cost = distribution_cost(
            CouplingSet([CouplingPair(pair.z0, z1t)]), exact=True
        ).total_cost
        assert abs(moved_cost - base) <= 1e-8


class TestGroupedDistributionCost:
    """The report aligns the pairs of each point count as one stack."""

    @staticmethod
    def mixed_pairs():
        rng = np.random.default_rng(14)
        pairs = []
        for i, n in enumerate([5, 7, 5, 1, 7, 9, 5, 2, 7, 5]):
            z0 = LatentGeometry(n, rng.standard_normal((n, 3)) + 1.0, rng.standard_normal((n, 3)))
            if i % 2:
                perm = rng.permutation(n)
                coords = (z0.coords @ random_rotation(i).r.T)[perm] - 2.0
                z1 = LatentGeometry(n, coords, z0.features[perm])
            else:
                z1 = LatentGeometry(n, rng.standard_normal((n, 3)), rng.standard_normal((n, 3)))
            pairs.append(CouplingPair(z0, z1))
        return pairs

    def test_equals_per_pair_solve_omt_by_hand(self):
        pairs = self.mixed_pairs()
        coord, feat = [], []
        for p in pairs:
            z0, z1 = (LatentGeometry(z.n, z.coords - z.coords.mean(axis=0), z.features)
                      for z in (p.z0, p.z1))
            sol = solve_omt(z1, z0, 0.5, max_iters=20, restarts=4)
            coord.append(sol.coord_cost)
            feat.append(sol.feature_cost)
        total = [c + f for c, f in zip(coord, feat)]
        atoms = sum(p.z0.n for p in pairs)
        expected = CostReport("latent", math.fsum(total) / len(pairs),
                              math.fsum(total) / atoms, math.fsum(coord) / len(pairs),
                              math.fsum(feat) / len(pairs), len(pairs))
        assert distribution_cost(CouplingSet(pairs)) == expected

    def test_independent_of_pair_order(self):
        pairs = self.mixed_pairs()
        base = distribution_cost(CouplingSet(pairs)).csv_row()
        order = np.random.default_rng(3).permutation(len(pairs))
        assert distribution_cost(CouplingSet([pairs[i] for i in order])).csv_row() == base

    def test_independent_of_the_chunk_cap(self, monkeypatch):
        pairs = self.mixed_pairs()
        base = distribution_cost(CouplingSet(pairs)).csv_row()
        monkeypatch.setattr(alignment, "BATCH_ENTRIES", 1)
        assert distribution_cost(CouplingSet(pairs)).csv_row() == base


class TestCostReportValidation:
    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            CostReport("latent", -1.0, 0.0, 0.0, 0.0, 1)

    def test_rejects_zero_pairs(self):
        with pytest.raises(ValueError):
            CostReport("latent", 0.0, 0.0, 0.0, 0.0, 0)
