"""Seeded benchmark inputs and the benchmark's own readers and writers.

The readers and writers follow the file formats documented in the
repository README, not the package's persistence code, so that a file the
program writes is checked by code that shares nothing with it:

* ``*.geoms.jsonl``: one JSON object per line,
  ``{"n": int, "coords": [[f64;3];n], "features": [[f64;d];n], "tag": str?}``.
* ``*.pairs.bin``: one JSON header line ``{"count", "k", "version": 1}``,
  then per pair ``n`` (u32 LE), z0 coords, z0 features, z1 coords,
  z1 features (little-endian f64, row-major), then one byte each for
  source, valid and aligned. The README does not give the source codes;
  the package writes 0 for ``random`` and 1 for ``estimated``.
* ``*.gflow.ckpt``: only the JSON header line is read here.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

SOURCE_NAMES = {0: "random", 1: "estimated"}
PAIRS_VERSION = 1

# Templates: points at least MIN_SEP apart, within TEMPLATE_RADIUS of the
# origin. Copies and planted pairs add Gaussian noise of deviation JITTER.
MIN_SEP = 0.7
TEMPLATE_RADIUS = 3.0
JITTER = 0.05


class FormatError(ValueError):
    """A file does not match the documented format."""


@dataclass(frozen=True)
class Rule:
    """The validity rule's three thresholds (README config keys)."""

    min_pair_dist: float = 0.25
    max_radius: float = 4.0
    onehot_margin: float = 0.5

    def to_config(self) -> dict:
        return {
            "min_pair_dist": self.min_pair_dist,
            "max_radius": self.max_radius,
            "onehot_margin": self.onehot_margin,
        }


@dataclass(frozen=True)
class Pair:
    n: int
    x0: np.ndarray
    h0: np.ndarray
    x1: np.ndarray
    h1: np.ndarray
    source: str
    valid: bool
    aligned: bool


# --------------------------------------------------------------------------
# geometries


def write_geoms(path, geoms):
    """geoms: iterable of (coords (n,3), features (n,d), tag or None)."""
    with open(path, "w", encoding="utf-8") as f:
        for coords, feats, tag in geoms:
            rec = {"n": int(coords.shape[0]), "coords": coords.tolist(),
                   "features": feats.tolist()}
            if tag is not None:
                rec["tag"] = tag
            f.write(json.dumps(rec) + "\n")


def read_geoms(path):
    """List of (coords, features, tag); raises FormatError on any deviation."""
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                n = rec["n"]
                coords = np.array(rec["coords"], dtype=np.float64)
                feats = np.array(rec["features"], dtype=np.float64)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
                raise FormatError(f"{path}:{lineno}: {e}") from e
            if not isinstance(n, int) or coords.shape != (n, 3) or (
                feats.ndim != 2 or feats.shape[0] != n
            ):
                raise FormatError(f"{path}:{lineno}: shapes do not match n={n}")
            out.append((coords, feats, rec.get("tag")))
    return out


# --------------------------------------------------------------------------
# pairs


def write_pairs(path, pairs, k):
    """pairs: iterable of (x0, h0, x1, h1) arrays; written as random, valid
    and unaligned."""
    pairs = list(pairs)
    with open(path, "wb") as f:
        f.write(json.dumps({"count": len(pairs), "k": k,
                            "version": PAIRS_VERSION}).encode() + b"\n")
        for x0, h0, x1, h1 in pairs:
            f.write(struct.pack("<I", x0.shape[0]))
            for arr in (x0, h0, x1, h1):
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
            f.write(bytes([0, 1, 0]))


def read_pairs(path):
    with open(path, "rb") as f:
        blob = f.read()
    end = blob.find(b"\n")
    if end < 0:
        raise FormatError(f"{path}: no header line")
    try:
        header = json.loads(blob[:end])
        count, k = int(header["count"]), int(header["k"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{path}: bad header: {e}") from e
    if header.get("version") != PAIRS_VERSION:
        raise FormatError(f"{path}: version {header.get('version')}")
    off = end + 1
    pairs = []

    def take(nbytes):
        nonlocal off
        if off + nbytes > len(blob):
            raise FormatError(f"{path}: truncated")
        chunk = blob[off:off + nbytes]
        off += nbytes
        return chunk

    for _ in range(count):
        (n,) = struct.unpack("<I", take(4))
        arrays = [np.frombuffer(take(8 * n * w), dtype="<f8").reshape(n, w)
                  for w in (3, k, 3, k)]
        src, valid, aligned = take(3)
        if src not in SOURCE_NAMES or valid > 1 or aligned > 1:
            raise FormatError(f"{path}: bad flag bytes")
        pairs.append(Pair(n, *arrays, SOURCE_NAMES[src], bool(valid), bool(aligned)))
    if off != len(blob):
        raise FormatError(f"{path}: trailing bytes")
    return k, pairs


def read_ckpt_header(path) -> dict:
    with open(path, "rb") as f:
        line = f.readline()
    if not line.endswith(b"\n"):
        raise FormatError(f"{path}: no header line")
    return json.loads(line)


# --------------------------------------------------------------------------
# seeded generators


def rotation(rng):
    """A uniformly random proper rotation matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def template(n, classes, rng):
    """Gaussian points placed one at a time, each at least MIN_SEP from the
    others and within TEMPLATE_RADIUS of the origin, with one-hot labels."""
    pts = []
    while len(pts) < n:
        p = rng.standard_normal(3)
        if np.linalg.norm(p) <= TEMPLATE_RADIUS and all(
            np.linalg.norm(p - q) >= MIN_SEP for q in pts
        ):
            pts.append(p)
    coords = np.array(pts)
    coords -= coords.mean(axis=0)
    feats = np.zeros((n, classes))
    feats[np.arange(n), rng.integers(0, classes, n)] = 1.0
    return coords, feats


def dataset(sizes, per_template, classes, seed):
    """`per_template` rotated, permuted, jittered, centered copies of one
    template per size, in template-cycling order (a fixed size mix)."""
    rng = np.random.default_rng(seed)
    temps = [template(n, classes, rng) for n in sizes]
    out = []
    for _ in range(per_template):
        for t, (coords, feats) in enumerate(temps):
            n = coords.shape[0]
            x = coords @ rotation(rng).T + rng.normal(0.0, JITTER, (n, 3))
            perm = rng.permutation(n)
            x = x[perm]
            out.append((x - x.mean(axis=0), feats[perm].copy(), f"t{t}"))
    return out


def latent_noise(n, k, rng):
    x = rng.standard_normal((n, 3))
    return x - x.mean(axis=0), rng.standard_normal((n, k))


def eval_pairs(sizes, k, seed):
    """One pair per entry of `sizes`. Even entries: the target is a rotated,
    row-permuted, jittered copy of the noise; odd entries: an independent
    draw."""
    rng = np.random.default_rng(seed)
    out = []
    for i, n in enumerate(sizes):
        x0, h0 = latent_noise(n, k, rng)
        if i % 2 == 0:
            perm = rng.permutation(n)
            x1 = (x0 @ rotation(rng).T)[perm] + rng.normal(0.0, JITTER, (n, 3))
            x1 -= x1.mean(axis=0)
            h1 = h0[perm] + rng.normal(0.0, JITTER, (n, k))
        else:
            x1, h1 = latent_noise(n, k, rng)
        out.append((x0, h0, x1, h1))
    return out
