"""Featured point sets and the group actions that leave them "the same".

A geometry is a set of points in R^3, each carrying a feature vector
(categorical features are stored one-hot as reals). Rotations, translations
and row permutations act on geometries; transport costs are defined modulo
those actions, so this module also provides the zero center-of-mass
projection that removes the translational degree of freedom.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

ORTHO_TOL = 1e-9


def _as_readonly(a, dtype=np.float64) -> np.ndarray:
    out = np.array(a, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out


def _check_point_set(g, kind: str):
    """Freeze a point set's arrays read-only and check their shapes and values."""
    object.__setattr__(g, "coords", _as_readonly(g.coords))
    object.__setattr__(g, "features", _as_readonly(g.features))
    if isinstance(g.n, bool) or not isinstance(g.n, numbers.Integral):
        raise ValueError(f"{kind} point count must be an integer, got {g.n!r}")
    if g.n < 1:
        raise ValueError(f"{kind} needs at least one point")
    if g.coords.shape != (g.n, 3):
        raise ValueError(f"coords shape {g.coords.shape} != ({g.n}, 3)")
    if g.features.ndim != 2 or g.features.shape[0] != g.n:
        raise ValueError("features must have one row per point")
    if not np.isfinite(g.coords).all() or not np.isfinite(g.features).all():
        raise ValueError(f"{kind} entries must be finite")


@dataclass(frozen=True)
class Geometry:
    """A featured point set: coords (n, 3) and features (n, d)."""

    n: int
    coords: np.ndarray
    features: np.ndarray
    tag: str | None = None

    def __post_init__(self):
        _check_point_set(self, "geometry")

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class LatentGeometry:
    """An encoded point set: coords (n, 3) and latent features (n, k).

    Expected to live in zero-CoM coordinate space; consumers that rely on
    centering (alignment, the flow) check it at their boundary.
    """

    n: int
    coords: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        _check_point_set(self, "latent geometry")

    @property
    def k(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Rotation:
    """A proper rotation of R^3 (orthonormal, det = +1)."""

    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", _as_readonly(self.r))
        if self.r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if np.linalg.norm(self.r.T @ self.r - np.eye(3)) > ORTHO_TOL:
            raise ValueError("rotation matrix is not orthonormal")
        if abs(np.linalg.det(self.r) - 1.0) > ORTHO_TOL:
            raise ValueError("rotation matrix must have determinant +1")

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.eye(3))

    def inverse(self) -> "Rotation":
        return Rotation(self.r.T)


@dataclass(frozen=True)
class Translation:
    """A translation of R^3."""

    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", _as_readonly(self.t))
        if self.t.shape != (3,):
            raise ValueError("translation must be a length-3 vector")
        if not np.isfinite(self.t).all():
            raise ValueError("translation entries must be finite")

    @classmethod
    def zero(cls) -> "Translation":
        return cls(np.zeros(3))


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0, ..., n-1}; row i of the permuted object is row map[i]."""

    map: np.ndarray = field()

    def __post_init__(self):
        m = np.array(self.map, dtype=np.intp, copy=True)
        m.setflags(write=False)
        object.__setattr__(self, "map", m)
        n = len(m)
        if n < 1:
            raise ValueError("permutation must be non-empty")
        if not np.array_equal(np.sort(m), np.arange(n)):
            raise ValueError("permutation map must be a bijection on {0..n-1}")

    @property
    def n(self) -> int:
        return len(self.map)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))

    def inverse(self) -> "Permutation":
        inv = np.empty(self.n, dtype=np.intp)
        inv[self.map] = np.arange(self.n)
        return Permutation(inv)


def center_of_mass(coords) -> np.ndarray:
    """Arithmetic mean of the coordinate rows."""
    coords = np.asarray(coords, dtype=np.float64)
    return coords.mean(axis=0)


def project_zero_com(g: Geometry) -> Geometry:
    """Shift coordinates so their mean is zero; features are untouched."""
    return Geometry(g.n, g.coords - center_of_mass(g.coords), g.features, g.tag)


def apply_rigid(g: Geometry, rot: Rotation, tr: Translation) -> Geometry:
    """Apply x_i -> R x_i + t to every coordinate row."""
    return Geometry(g.n, g.coords @ rot.r.T + tr.t, g.features, g.tag)


def apply_permutation(g: Geometry, perm: Permutation) -> Geometry:
    """Reorder rows: output row i = input row map[i], on coords and features."""
    if perm.n != g.n:
        raise ValueError("permutation size mismatch")
    return Geometry(g.n, g.coords[perm.map], g.features[perm.map], g.tag)


def random_rotation(seed) -> Rotation:
    """A seeded random proper rotation.

    Orthonormalizes a Gaussian 3x3 matrix (QR with the sign convention that
    makes the factorization unique) and flips one axis if the result is a
    reflection.
    """
    rng = np.random.default_rng(seed)
    return rotation_from_rng(rng)


def rotation_from_rng(rng: np.random.Generator) -> Rotation:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q = q.copy()
        q[:, 0] *= -1.0
    return Rotation(q)


def sample_noise(n: int, k: int, seed) -> LatentGeometry:
    """Standard Gaussian latent noise with the coordinate part centered.

    `seed` is a seed or a Generator; a Generator is drawn from in place.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n, 3))
    coords -= coords.mean(axis=0)
    return LatentGeometry(n, coords, rng.standard_normal((n, k)))
