import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomflow import _checks, alignment
from geomflow.alignment import (
    ALTERNATION_EPS,
    CostMatrix,
    brute_force_omt,
    cost_matrix,
    hungarian,
    kabsch,
    solve_omt,
    solve_omt_batch,
)
from geomflow.geometry import LatentGeometry, Permutation, Rotation, random_rotation


def random_latent(seed, n=5, k=2, centered=True):
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n, 3))
    if centered:
        coords -= coords.mean(axis=0)
    return LatentGeometry(n, coords, rng.standard_normal((n, k)))


class TestCostMatrix:
    def test_identical_inputs_zero_diagonal(self):
        z = random_latent(0)
        m = cost_matrix(z, z, 0.5).m
        np.testing.assert_allclose(np.diag(m), 0.0, atol=1e-15)

    def test_lambda_one_ignores_features(self):
        z1, z0 = random_latent(1), random_latent(2)
        m1 = cost_matrix(z1, z0, 1.0).m
        z1b = LatentGeometry(z1.n, z1.coords, z1.features + 17.0)
        np.testing.assert_array_equal(cost_matrix(z1b, z0, 1.0).m, m1)

    def test_lambda_zero_ignores_coords(self):
        z1, z0 = random_latent(3), random_latent(4)
        m0 = cost_matrix(z1, z0, 0.0).m
        shifted = z1.coords + np.array([1.0, -2.0, 0.5])
        z1b = LatentGeometry(z1.n, shifted, z1.features)
        np.testing.assert_array_equal(cost_matrix(z1b, z0, 0.0).m, m0)

    def test_two_point_hand_case(self):
        z1 = LatentGeometry(2, [[0.0, 0, 0], [1.0, 0, 0]], [[1.0], [1.0]])
        z0 = LatentGeometry(2, [[1.0, 0, 0], [0.0, 0, 0]], [[1.0], [1.0]])
        np.testing.assert_allclose(
            cost_matrix(z1, z0, 1.0).m, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15
        )

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            cost_matrix(random_latent(0, n=4), random_latent(1, n=5), 0.5)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="non-negative"):
            CostMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))


class TestHungarian:
    def test_identity_favoring(self):
        m = 1.0 - np.eye(4)
        assert np.array_equal(hungarian(CostMatrix(m)).map, np.arange(4))

    def test_antidiagonal_two_by_two(self):
        perm = hungarian(CostMatrix(np.array([[1.0, 0.0], [0.0, 1.0]])))
        assert np.array_equal(perm.map, [1, 0])
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert m[perm.map, np.arange(2)].sum() == 0.0

    def test_matches_enumeration_exactly(self):
        r = _checks.assignment_exactness(200, seed=12, sizes=(7, 8))  # c01's bound, 7 x 7
        assert r.ok, r.checks


class TestStackedHungarian:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 6), n=st.integers(1, 9),
           ties=st.booleans())
    def test_stack_equals_per_matrix_maps(self, seed, r, n, ties):
        rng = np.random.default_rng(seed)
        # Integer-valued entries in 0..2 give many tied optima.
        m = rng.integers(0, 3, (r, n, n)).astype(float) if ties else rng.random((r, n, n))
        c = CostMatrix(m)
        assert c.n == n
        perm = hungarian(c)
        assert perm.shape == (r, n) and perm.dtype == np.intp
        assert not perm.flags.writeable
        for i in range(r):
            assert np.array_equal(perm[i], hungarian(CostMatrix(m[i])).map)

    def test_two_d_call_returns_a_permutation(self):
        perm = hungarian(CostMatrix(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 2.0], [2.0, 2.0, 0.0]])))
        assert isinstance(perm, Permutation)
        assert np.array_equal(perm.map, [1, 0, 2])

    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 2, 3, 3), (3,)])
    def test_cost_matrix_rejects_non_square_stacks(self, shape):
        with pytest.raises(ValueError, match="square"):
            CostMatrix(np.ones(shape))

    @pytest.mark.parametrize("value, match", [(-1.0, "non-negative"), (np.nan, "finite"),
                                              (np.inf, "finite")])
    def test_cost_matrix_rejects_a_bad_entry_in_any_slice(self, value, match):
        for i in range(3):
            m = np.ones((3, 4, 4))
            m[i, 1, 2] = value
            with pytest.raises(ValueError, match=match):
                CostMatrix(m)


class TestKabsch:
    def test_identity_on_equal_inputs(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 3))
        x -= x.mean(axis=0)
        rot = kabsch(x, x)
        np.testing.assert_allclose(rot.r, np.eye(3), atol=1e-9)

    def test_recovers_planted_rotation(self):
        r = _checks.rotation_optimality(10, 1000, seed=6)  # c02's bounds on draws of its own
        assert r.ok, r.checks

    def test_beats_random_rotations(self):
        r = _checks.rotation_optimality(3, 10_000, seed=3)  # unplanted pairs, 10k rotations
        assert r.ok, r.checks

    def test_rejects_uncentered(self):
        x = np.ones((4, 3))
        with pytest.raises(ValueError, match="zero-CoM"):
            kabsch(x, x)

    def test_collinear_input_still_valid(self):
        x = np.array([[-1.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
        y = np.array([[0.0, -1.0, 0], [0.0, 0, 0], [0.0, 1.0, 0]])
        rot = kabsch(x, y)  # Rotation invariants checked in constructor
        res = ((x @ rot.r.T - y) ** 2).sum()
        assert res <= 1e-18


class TestSolveOmt:
    def test_identical_inputs(self):
        z = random_latent(0)
        sol = solve_omt(z, z, 0.5)
        assert sol.cost <= 1e-18
        assert np.array_equal(sol.permutation.map, np.arange(z.n))
        np.testing.assert_allclose(sol.rotation.r, np.eye(3), atol=1e-9)

    def test_recovers_rigid_permuted_copy(self):
        rng = np.random.default_rng(9)
        z0 = random_latent(10, n=6, k=3)
        perm = rng.permutation(6)
        rot = random_rotation(4)
        z1 = LatentGeometry(6, (z0.coords @ rot.r.T)[perm], z0.features[perm])
        sol = solve_omt(z1, z0, 0.5, max_iters=20, restarts=8)
        assert sol.cost < 1e-8

    def test_cost_recomputes_from_solution(self):
        z1, z0 = random_latent(11), random_latent(12)
        sol = solve_omt(z1, z0, 0.3, max_iters=5)
        dx = sol.aligned_target.coords - z0.coords
        dh = sol.aligned_target.features - z0.features
        recomputed = 0.3 * (dx**2).sum() + 0.7 * (dh**2).sum()
        assert abs(recomputed - sol.cost) <= 1e-9

    def test_matches_oracle_on_small_instances(self):
        r = _checks.omt_oracle_agreement(40, seed=100, sizes=(5, 6))  # c03's bounds, 5 points
        assert r.ok, r.checks

    def test_monotone_in_max_iters(self):
        z1, z0 = random_latent(13, n=7), random_latent(14, n=7)
        costs = [
            solve_omt(z1, z0, 0.5, max_iters=it).cost for it in (1, 2, 4, 8, 16)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))

    def test_beats_identity_transforms(self):
        z1, z0 = random_latent(15), random_latent(16)
        identity_cost = 0.5 * ((z1.coords - z0.coords) ** 2).sum() + 0.5 * (
            (z1.features - z0.features) ** 2
        ).sum()
        assert solve_omt(z1, z0, 0.5).cost <= identity_cost + 1e-12

    def test_exactly_invariant_under_permutation(self):
        rng = np.random.default_rng(17)
        z1, z0 = random_latent(18, n=6), random_latent(19, n=6)
        base = solve_omt(z1, z0, 0.5, max_iters=10).cost
        perm = rng.permutation(6)
        z1p = LatentGeometry(6, z1.coords[perm], z1.features[perm])
        assert solve_omt(z1p, z0, 0.5, max_iters=10).cost == base

    def test_rejects_uncentered(self):
        z = random_latent(20, centered=False)
        with pytest.raises(ValueError, match="zero-CoM"):
            solve_omt(z, random_latent(21), 0.5)


class TestBruteForceOmt:
    def test_identical_inputs_zero(self):
        z = random_latent(30)
        cost, _, _ = brute_force_omt(z, z, 0.5)
        assert cost <= 1e-18

    def test_two_point_swap_construction(self):
        z0 = LatentGeometry(
            2, [[-0.5, 0, 0], [0.5, 0, 0]], [[1.0, 0.0], [0.0, 1.0]]
        )
        z1 = LatentGeometry(
            2, [[0.5, 0, 0], [-0.5, 0, 0]], [[0.0, 1.0], [1.0, 0.0]]
        )
        cost, perm, _ = brute_force_omt(z1, z0, 0.5)
        assert cost <= 1e-18
        assert np.array_equal(perm.map, [1, 0])

    def test_never_beaten_by_heuristic(self):
        for i in range(20):
            z1 = random_latent(200 + 2 * i, n=5)
            z0 = random_latent(201 + 2 * i, n=5)
            oracle, _, _ = brute_force_omt(z1, z0, 0.5)
            assert oracle <= solve_omt(z1, z0, 0.5, max_iters=10).cost + 1e-9

    def test_size_limit(self):
        with pytest.raises(ValueError, match="oracle size limit"):
            brute_force_omt(random_latent(0, n=9), random_latent(1, n=9), 0.5)

    def test_invariant_under_rigid_and_permutation(self):
        r = _checks.transform_invariance(25, seed=40, sizes=(3, 6))
        assert r.ok, r.checks

    def test_symmetry_between_arguments(self):
        for i in range(10):
            z1 = random_latent(400 + 2 * i, n=4)
            z0 = random_latent(401 + 2 * i, n=4)
            a, _, _ = brute_force_omt(z1, z0, 0.5)
            b, _, _ = brute_force_omt(z0, z1, 0.5)
            assert abs(a - b) <= 1e-8

    def test_single_point(self):
        z1 = LatentGeometry(1, [[0.0, 0, 0]], [[2.0, 0.0]])
        z0 = LatentGeometry(1, [[0.0, 0, 0]], [[0.0, 0.0]])
        cost, _, _ = brute_force_omt(z1, z0, 0.5)
        assert abs(cost - 0.5 * 4.0) <= 1e-12


def centered(rng, shape):
    x = rng.standard_normal(shape)
    return x - x.mean(axis=-2, keepdims=True)


class TestStackedKabsch:
    def test_stack_equals_per_matrix_bits(self):
        rng = np.random.default_rng(60)
        for n in (2, 3, 7, 29):
            a, b = centered(rng, (9, n, 3)), centered(rng, (9, n, 3))
            stacked = kabsch(a, b)
            assert stacked.shape == (9, 3, 3) and not stacked.flags.writeable
            for j in range(9):
                assert stacked[j].tobytes() == kabsch(a[j], b[j]).r.tobytes()

    def test_two_d_call_still_returns_a_rotation(self):
        rng = np.random.default_rng(61)
        assert isinstance(kabsch(centered(rng, (5, 3)), centered(rng, (5, 3))), Rotation)

    def test_uncentred_slice_raises_the_two_d_error(self):
        rng = np.random.default_rng(62)
        a, b = centered(rng, (4, 6, 3)), centered(rng, (4, 6, 3))
        a[2] += 1.0
        with pytest.raises(ValueError) as two_d:
            kabsch(a[2], b[2])
        with pytest.raises(ValueError) as stacked:
            kabsch(a, b)
        assert str(stacked.value) == str(two_d.value)

    def test_stack_of_one_point_raises_the_two_d_error(self):
        x = np.zeros((3, 1, 3))
        with pytest.raises(ValueError) as two_d:
            kabsch(x[0], x[0])
        with pytest.raises(ValueError) as stacked:
            kabsch(x, x)
        assert str(stacked.value) == str(two_d.value) == "kabsch needs at least two points"

    def test_stacked_reflection_raises_the_two_d_error(self):
        stack = np.array([np.eye(3), np.diag([1.0, 1.0, -1.0]), random_rotation(5).r])
        with pytest.raises(ValueError) as two_d:
            Rotation(stack[1])
        with pytest.raises(ValueError) as stacked:
            Rotation.check(stack)
        assert str(stacked.value) == str(two_d.value)
        Rotation.check(stack[[0, 2]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-shape"):
            kabsch(np.zeros((2, 4, 3)), np.zeros((4, 3)))


def solve_omt_per_start(z1, z0, lam, max_iters, restarts):
    """The alignment loop as it ran before the stacked kernel: every start
    and every pass its own Python step (a reference for bit identity)."""
    def sq_dists(a, b):
        diff = a[:, None, :] - b[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)

    feat_d2 = sq_dists(z1.features, z0.features)
    inits = [np.eye(3)] + [random_rotation(90_000 + 17 * i).r for i in range(restarts - 1)]
    best = None
    for rot_m in inits:
        prev_cost, local_best = np.inf, None
        for it in range(max_iters):
            m = lam * sq_dists(z1.coords @ rot_m.T, z0.coords) + (1.0 - lam) * feat_d2
            perm = hungarian(CostMatrix(m))
            rot = kabsch(z1.coords[perm.map], z0.coords) if z1.n >= 2 else Rotation.identity()
            x1a = z1.coords[perm.map] @ rot.r.T
            sse_x = float(((x1a - z0.coords) ** 2).sum())
            sse_h = float(((z1.features[perm.map] - z0.features) ** 2).sum())
            cand = (lam * sse_x + (1.0 - lam) * sse_h, sse_x, sse_h, perm, rot, x1a)
            if local_best is None or cand[0] < local_best[0]:
                local_best = cand
            if prev_cost - cand[0] < ALTERNATION_EPS:
                break
            prev_cost, rot_m = cand[0], rot.r
        local_best = (*local_best, it + 1)
        if best is None or local_best[0] < best[0]:
            best = local_best
    return best


def assert_same_bits(sol, ref, z1):
    cost, sse_x, sse_h, perm, rot, x1a, iterations = ref
    assert sol.cost == cost
    assert sol.coord_cost == math.sqrt(sse_x) and sol.feature_cost == math.sqrt(sse_h)
    assert sol.iterations == iterations
    assert np.array_equal(sol.permutation.map, perm.map)
    assert sol.rotation.r.tobytes() == rot.r.tobytes()
    assert sol.aligned_target.coords.tobytes() == x1a.tobytes()
    assert sol.aligned_target.features.tobytes() == z1.features[perm.map].tobytes()


def draw_pairs(seed, n, k, count, planted):
    """`count` centred pairs of n points; with `planted`, each z0 is a
    rotated, permuted (and slightly moved) copy of its z1."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        z1 = LatentGeometry(n, centered(rng, (n, 3)), rng.standard_normal((n, k)))
        if planted:
            perm = rng.permutation(n)
            moved = (z1.coords @ random_rotation(int(rng.integers(1 << 30))).r.T)[perm]
            moved = moved + 1e-3 * rng.standard_normal((n, 3))
            z0 = LatentGeometry(n, moved - moved.mean(axis=0), z1.features[perm])
        else:
            z0 = LatentGeometry(n, centered(rng, (n, 3)), rng.standard_normal((n, k)))
        pairs.append((z1, z0))
    return pairs


class TestStackedAlignmentKernel:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 29), restarts=st.integers(1, 8),
           lam=st.sampled_from([0.0, 0.5, 1.0]), max_iters=st.sampled_from([1, 3, 20]),
           planted=st.booleans())
    def test_batch_equals_per_start_loop_and_solve_omt(self, seed, n, restarts, lam,
                                                       max_iters, planted):
        pairs = draw_pairs(seed, n, 2, 3, planted)
        batch = solve_omt_batch([z1 for z1, _ in pairs], [z0 for _, z0 in pairs], lam,
                                max_iters=max_iters, restarts=restarts)
        assert len(batch) == len(pairs)
        for (z1, z0), sol in zip(pairs, batch):
            ref = solve_omt_per_start(z1, z0, lam, max_iters, restarts)
            assert_same_bits(sol, ref, z1)
            assert_same_bits(solve_omt(z1, z0, lam, max_iters=max_iters, restarts=restarts),
                             ref, z1)

    def test_report_budget_on_planted_and_independent_pairs(self):
        for n in (1, 2, 5, 13, 29):
            pairs = []
            for planted in (False, True):
                for z1, z0 in draw_pairs(n, n, 4, 2, planted):
                    ref = solve_omt_per_start(z1, z0, 0.5, 20, 4)
                    assert_same_bits(solve_omt(z1, z0, 0.5, max_iters=20, restarts=4), ref, z1)
                    pairs.append((z1, z0, ref))
            # all of one size in one stack, whose rows stop at different passes
            batch = solve_omt_batch([z1 for z1, _, _ in pairs], [z0 for _, z0, _ in pairs],
                                    0.5, max_iters=20, restarts=4)
            for (z1, _, ref), sol in zip(pairs, batch, strict=True):
                assert_same_bits(sol, ref, z1)
            assert n < 5 or len({sol.iterations for sol in batch}) > 1

    @pytest.mark.parametrize("cap", [None, 1])
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 9), max_size=6),
           restarts=st.integers(1, 4), max_iters=st.sampled_from([1, 3, 20]),
           planted=st.booleans())
    def test_mixed_sizes_and_widths_come_back_in_input_order(self, cap, seed, sizes, restarts,
                                                              max_iters, planted):
        # two pairs of each size and width, n = 1 and 2 always among them, shuffled
        pairs = [pair for i, n in enumerate([1, 2, *sizes]) for k in (2, 3)
                 for pair in draw_pairs(seed + i, n, k, 2, planted)]
        pairs = [pairs[i] for i in np.random.default_rng(seed).permutation(len(pairs))]
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                mp.setattr(alignment, "BATCH_ENTRIES", cap)
            batch = solve_omt_batch([z1 for z1, _ in pairs], [z0 for _, z0 in pairs], 0.5,
                                    max_iters=max_iters, restarts=restarts)
        for (z1, z0), sol in zip(pairs, batch, strict=True):
            solo = solve_omt(z1, z0, 0.5, max_iters=max_iters, restarts=restarts)
            assert (sol.cost, sol.coord_cost, sol.feature_cost, sol.iterations) == (
                solo.cost, solo.coord_cost, solo.feature_cost, solo.iterations)
            assert np.array_equal(sol.permutation.map, solo.permutation.map)
            assert sol.rotation.r.tobytes() == solo.rotation.r.tobytes()
            got, want = sol.aligned_target, solo.aligned_target
            assert got.coords.tobytes() == want.coords.tobytes()
            assert got.features.tobytes() == want.features.tobytes()

    def test_batch_rejects_mixed_sizes_and_uncentred_pairs(self):
        (a1, a0), = draw_pairs(0, 4, 2, 1, False)
        with pytest.raises(ValueError, match="non-empty"):
            solve_omt_batch([], [])
        off = LatentGeometry(4, a1.coords + 1.0, a1.features)
        with pytest.raises(ValueError, match="zero-CoM"):
            solve_omt_batch([a1, off], [a0, a0])
