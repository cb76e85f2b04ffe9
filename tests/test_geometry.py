import numpy as np
import pytest

from geomflow.geometry import (
    Geometry,
    Permutation,
    Rotation,
    Translation,
    apply_permutation,
    apply_rigid,
    center_of_mass,
    project_zero_com,
    random_rotation,
)


def random_geometry(seed, n=5, d=3):
    rng = np.random.default_rng(seed)
    return Geometry(n, rng.standard_normal((n, 3)), rng.standard_normal((n, d)))


class TestCenterOfMass:
    def test_all_zero(self):
        assert np.array_equal(center_of_mass(np.zeros((3, 3))), np.zeros(3))

    def test_symmetric_pair(self):
        coords = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        assert np.array_equal(center_of_mass(coords), np.zeros(3))

    def test_simplex(self):
        coords = np.array([[2.0, 0, 0], [0, 2.0, 0], [0, 0, 2.0]])
        np.testing.assert_allclose(center_of_mass(coords), [2 / 3, 2 / 3, 2 / 3])


class TestProjectZeroCom:
    def test_idempotent_on_centered(self):
        g = project_zero_com(random_geometry(1))
        g2 = project_zero_com(g)
        np.testing.assert_allclose(g2.coords, g.coords, atol=1e-15)

    def test_known_shift(self):
        coords = np.ones((4, 3))  # CoM (1, 1, 1)
        g = Geometry(4, coords, np.zeros((4, 2)))
        out = project_zero_com(g)
        np.testing.assert_array_equal(out.coords, np.zeros((4, 3)))

    def test_recomputed_com_is_zero(self):
        g = project_zero_com(random_geometry(7))
        assert np.abs(center_of_mass(g.coords)).max() <= 1e-12

    def test_features_untouched(self):
        g = random_geometry(3)
        out = project_zero_com(g)
        np.testing.assert_array_equal(out.features, g.features)

    def test_commutes_with_permutation(self):
        g = random_geometry(9, n=6)
        perm = Permutation(np.random.default_rng(0).permutation(6))
        a = project_zero_com(apply_permutation(g, perm))
        b = apply_permutation(project_zero_com(g), perm)
        np.testing.assert_allclose(a.coords, b.coords, atol=1e-15)


class TestApplyRigid:
    def test_identity(self):
        g = random_geometry(2)
        out = apply_rigid(g, Rotation.identity(), Translation.zero())
        np.testing.assert_array_equal(out.coords, g.coords)

    def test_quarter_turn_about_z(self):
        rot = Rotation(np.array([[0.0, -1, 0], [1, 0, 0], [0, 0, 1.0]]))
        g = Geometry(1, [[1.0, 0, 0]], [[1.0]])
        out = apply_rigid(g, rot, Translation.zero())
        np.testing.assert_allclose(out.coords, [[0.0, 1.0, 0.0]], atol=1e-15)

    def test_preserves_pairwise_distances(self):
        g = random_geometry(4, n=7)
        rot = random_rotation(5)
        tr = Translation(np.array([0.3, -2.0, 1.1]))
        out = apply_rigid(g, rot, tr)

        def dists(c):
            diff = c[:, None, :] - c[None, :, :]
            return np.sqrt((diff**2).sum(-1))

        np.testing.assert_allclose(dists(out.coords), dists(g.coords), atol=1e-12)

    def test_keeps_zero_com_when_t_zero(self):
        g = project_zero_com(random_geometry(6))
        out = apply_rigid(g, random_rotation(8), Translation.zero())
        assert np.abs(center_of_mass(out.coords)).max() <= 1e-12


class TestApplyPermutation:
    def test_identity(self):
        g = random_geometry(4)
        out = apply_permutation(g, Permutation.identity(g.n))
        np.testing.assert_array_equal(out.coords, g.coords)
        np.testing.assert_array_equal(out.features, g.features)

    def test_inverse_roundtrip(self):
        g = random_geometry(5, n=6)
        perm = Permutation(np.random.default_rng(1).permutation(6))
        out = apply_permutation(apply_permutation(g, perm), perm.inverse())
        np.testing.assert_array_equal(out.coords, g.coords)

    def test_two_point_swap(self):
        g = Geometry(2, [[1.0, 0, 0], [0, 1.0, 0]], [[1.0, 0], [0, 1.0]])
        out = apply_permutation(g, Permutation([1, 0]))
        np.testing.assert_array_equal(out.coords, g.coords[::-1])
        np.testing.assert_array_equal(out.features, g.features[::-1])

    def test_size_mismatch(self):
        g = random_geometry(6, n=4)
        with pytest.raises(ValueError, match="permutation size mismatch"):
            apply_permutation(g, Permutation([0, 1, 2]))

    def test_preserves_row_multiset(self):
        g = random_geometry(8, n=6)
        perm = Permutation(np.random.default_rng(2).permutation(6))
        out = apply_permutation(g, perm)
        rows = lambda geo: {tuple(np.concatenate([c, f])) for c, f in zip(geo.coords, geo.features)}
        assert rows(out) == rows(g)


class TestRandomRotation:
    def test_is_proper_rotation(self):
        for seed in range(10):
            rot = random_rotation(seed)  # Rotation validates its invariants
            assert np.linalg.norm(rot.r.T @ rot.r - np.eye(3)) <= 1e-9
            assert abs(np.linalg.det(rot.r) - 1.0) <= 1e-9

    def test_deterministic(self):
        np.testing.assert_array_equal(random_rotation(11).r, random_rotation(11).r)

    def test_distinct_seeds_differ(self):
        assert np.linalg.norm(random_rotation(1).r - random_rotation(2).r) > 0


class TestTypeInvariants:
    def test_rejects_reflection(self):
        m = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            Rotation(m)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Rotation(np.eye(3) * 2.0)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rejects_non_finite_rotation(self, entry):
        m = np.eye(3)
        m[1, 2] = entry
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="orthonormal"):
                Rotation(m)
            with pytest.raises(ValueError, match="orthonormal"):
                Rotation.check(np.array([np.eye(3), m]))

    def test_rejects_nan_coords(self):
        bad = np.zeros((2, 3))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Geometry(2, bad, np.zeros((2, 1)))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError):
            Geometry(3, np.zeros((2, 3)), np.zeros((3, 1)))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            Permutation([0, 0, 2])

    def test_geometry_arrays_are_readonly(self):
        g = random_geometry(0)
        with pytest.raises(ValueError):
            g.coords[0, 0] = 1.0
