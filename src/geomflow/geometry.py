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
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


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
        self.check(self.r)

    @staticmethod
    def check(r: np.ndarray):
        """Raise unless every 3x3 matrix of the (..., 3, 3) stack `r` is
        orthonormal with determinant +1, within ORTHO_TOL (so a NaN entry
        fails)."""
        worst = np.maximum.reduce
        gram = r.swapaxes(-1, -2) @ r - _EYE3
        if not worst(np.sqrt(np.einsum("...ij,...ij->...", gram, gram)), axis=None) <= ORTHO_TOL:
            raise ValueError("rotation matrix is not orthonormal")
        if not worst(abs(np.linalg.det(r) - 1.0), axis=None) <= ORTHO_TOL:
            raise ValueError("rotation matrix must have determinant +1")

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.eye(3))

    @classmethod
    def of_checked(cls, r: np.ndarray) -> "Rotation":
        """The Rotation of a 3x3 matrix that has already passed `check`
        (say, as one matrix of a checked stack), without checking it again."""
        rot = object.__new__(cls)
        object.__setattr__(rot, "r", _as_readonly(r))
        return rot

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
        if m.ndim != 1 or not (np.sort(m) == np.arange(n)).all():
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


def _runs(items, keys, cap: int, per_item, solve, mapper=map) -> list:
    """The result of `solve` for each of `items`, in input order. The items
    are grouped by `keys` in first-seen order, each group cut into runs of
    at most max(1, cap // per_item(key)) items; `mapper` maps `solve` over
    the runs, and `solve` returns one result per item of its run."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    runs = []
    for key, idx in groups.items():
        size = max(1, cap // per_item(key))
        runs += [idx[lo : lo + size] for lo in range(0, len(idx), size)]
    out = [None] * len(items)
    for run, results in zip(runs, mapper(lambda run: solve([items[i] for i in run]), runs)):
        for i, result in zip(run, results, strict=True):
            out[i] = result
    return out


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
    """A seeded random proper rotation."""
    rng = np.random.default_rng(seed)
    return rotation_from_rng(rng)


def rotation_from_rng(rng: np.random.Generator) -> Rotation:
    return Rotation(_rotations_from_rng(rng, 1)[0])


def _rotations_from_rng(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` random proper rotations drawn from `rng`, as a (count, 3, 3)
    stack. Orthonormalizes each Gaussian 3x3 matrix (QR with the sign
    convention that makes the factorization unique) and flips one axis
    where the result is a reflection."""
    q, r = np.linalg.qr(rng.standard_normal((count, 3, 3)))
    q = q * np.sign(np.einsum("rii->ri", r))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


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
