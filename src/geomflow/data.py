"""Synthetic featured-geometry datasets, the validity predicate, and file IO.

The generator draws a handful of rigid templates (random point clouds with
per-point class labels) and emits samples as rotated, row-shuffled,
jittered, re-centered copies. That deliberately embeds rigid-motion and
ordering nuisance into the data so that the alignment stage of the pipeline
is load-bearing. Every emitted sample is guaranteed to pass the validity
rule it was generated with (rejection sampling, with a rate monitor that
refuses specs whose jitter makes validity a coin flip).

File formats owned here:
  *.geoms.jsonl   one JSON object per line: {"n", "coords", "features", "tag"?}
  *.gflow.ckpt    one JSON header line, then little-endian f64 parameters
  *.pairs.bin     one JSON header line, then fixed-layout binary pair records
  metrics.csv     one RunMetrics per row, header METRICS_FIELDS
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import secrets
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .flow import CouplingPair, CouplingSet, SizeSampler
from .geometry import Geometry, LatentGeometry, rotation_from_rng
from .nn import VectorFieldModel

CKPT_VERSION = 1
PAIRS_VERSION = 1


class PersistenceError(Exception):
    """Base class for file-format failures."""


class MalformedFileError(PersistenceError):
    pass


class VersionMismatchError(PersistenceError):
    pass


class TruncatedFileError(PersistenceError):
    pass


# --------------------------------------------------------------------------
# dataset generation


@dataclass(frozen=True)
class TemplateSpec:
    """Shape of the synthetic distribution."""

    num_templates: int = 4
    atoms_per_template: tuple = (5, 6, 7, 8)
    coord_scale: float = 1.0
    feature_classes: int = 4
    jitter_sigma: float = 0.05
    feature_jitter: float = 0.0
    feature_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "atoms_per_template", tuple(self.atoms_per_template))
        if self.num_templates < 1:
            raise ValueError("need at least one template")
        if len(self.atoms_per_template) != self.num_templates:
            raise ValueError("atoms_per_template length must equal num_templates")
        if any(n < 2 for n in self.atoms_per_template):
            raise ValueError("template sizes must be >= 2")
        if self.jitter_sigma < 0 or self.feature_jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.coord_scale <= 0 or self.feature_scale <= 0:
            raise ValueError("scales must be positive")
        if self.feature_classes < 1:
            raise ValueError("need at least one feature class")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class ValidityRule:
    """Geometric stand-in for a chemistry validity check."""

    min_pair_dist: float = 0.25
    max_radius: float = 4.0
    onehot_margin: float = 0.5

    def __post_init__(self):
        if not all(map(math.isfinite, (self.min_pair_dist, self.max_radius,
                                       self.onehot_margin))):
            raise ValueError("validity thresholds must be finite")
        if self.min_pair_dist <= 0:
            raise ValueError("min_pair_dist must be positive")
        if not self.min_pair_dist < self.max_radius:
            raise ValueError("min_pair_dist must be below max_radius")
        if not 0.0 < self.onehot_margin <= 1.0:
            raise ValueError("onehot_margin must lie in (0, 1]")

    @classmethod
    def from_meta(cls, meta: dict) -> "ValidityRule | None":
        """The rule a trained model's `meta` stores, or None."""
        return cls(**meta["rule"]) if "rule" in meta else None


def default_rule(spec: TemplateSpec) -> ValidityRule:
    """The default rule with its distances scaled by the spec's coord_scale."""
    base = ValidityRule()
    return ValidityRule(
        min_pair_dist=base.min_pair_dist * spec.coord_scale,
        max_radius=base.max_radius * spec.coord_scale,
    )


def _min_pair_dist(coords: np.ndarray) -> float:
    n = coords.shape[0]
    if n < 2:
        return np.inf
    diff = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return float(d[np.triu_indices(n, k=1)].min())


def is_valid(g: Geometry, rule: ValidityRule):
    """(ok, reason): reason names the first failed clause, empty if valid."""
    if _min_pair_dist(g.coords) < rule.min_pair_dist:
        return False, "min_pair_dist"
    if float(np.linalg.norm(g.coords, axis=1).max()) > rule.max_radius:
        return False, "max_radius"
    if g.d >= 2:
        top2 = np.sort(g.features, axis=1)[:, -2:]
        if float((top2[:, 1] - top2[:, 0]).min()) < rule.onehot_margin:
            return False, "onehot_margin"
    return True, ""


def snap_onehot(g: Geometry) -> Geometry:
    """Replace each feature row by the one-hot argmax (ties -> lowest index)."""
    snapped = np.zeros_like(g.features)
    snapped[np.arange(g.n), np.argmax(g.features, axis=1)] = 1.0
    return Geometry(g.n, g.coords, snapped, g.tag)


def make_dataset(spec: TemplateSpec, count: int, rule: ValidityRule | None = None):
    """Generate `count` geometries; all of them satisfy `rule`."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(spec.seed)
    rule = rule if rule is not None else default_rule(spec)

    # Templates keep a separation/radius margin so that jittered copies
    # almost never need to be rejected.
    sep_needed = rule.min_pair_dist + 8.0 * spec.jitter_sigma
    radius_allowed = rule.max_radius - 6.0 * spec.jitter_sigma
    if radius_allowed <= 0:
        raise ValueError("spec inconsistent with validity rule")
    templates = []
    for n in spec.atoms_per_template:
        for _ in range(1000):
            coords = rng.standard_normal((n, 3)) * spec.coord_scale
            coords -= coords.mean(axis=0)
            if _min_pair_dist(coords) >= sep_needed and (
                np.linalg.norm(coords, axis=1).max() <= radius_allowed
            ):
                break
        else:
            raise ValueError("spec inconsistent with validity rule")
        labels = rng.integers(0, spec.feature_classes, size=n)
        feats = np.zeros((n, spec.feature_classes))
        feats[np.arange(n), labels] = spec.feature_scale
        templates.append((coords, feats))

    samples = []
    attempts = 0
    for _ in range(count):
        while True:
            attempts += 1
            if attempts >= 40 and (len(samples) + 1) / attempts < 0.5:
                raise ValueError("spec inconsistent with validity rule")
            tidx = int(rng.integers(len(templates)))
            coords0, feats0 = templates[tidx]
            n = coords0.shape[0]
            coords = coords0 @ rotation_from_rng(rng).r.T
            if spec.jitter_sigma > 0:
                coords = coords + rng.normal(0.0, spec.jitter_sigma, (n, 3))
            perm = rng.permutation(n)
            coords = coords[perm]
            coords -= coords.mean(axis=0)
            feats = feats0[perm]
            if spec.feature_jitter > 0:
                feats = feats + rng.normal(0.0, spec.feature_jitter, feats.shape)
            g = Geometry(n, coords, feats, tag=f"t{tidx}")
            if is_valid(g, rule)[0]:
                samples.append(g)
                break
    return samples


# --------------------------------------------------------------------------
# persistence


@contextlib.contextmanager
def _atomic_open(path, mode, **kwargs):
    """Open a fresh file beside `path` for writing; it replaces `path` when
    the block ends and is removed if the block raises, so `path` holds
    either its old bytes or all of the new ones."""
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_geometries(path, geoms):
    with _atomic_open(path, "w", encoding="utf-8") as f:
        for g in geoms:
            rec = {
                "n": int(g.n),
                "coords": g.coords.tolist(),
                "features": g.features.tolist(),
            }
            if g.tag is not None:
                rec["tag"] = g.tag
            f.write(json.dumps(rec) + "\n")


def load_geometries(path):
    geoms = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                geoms.append(
                    Geometry(
                        rec["n"],
                        np.array(rec["coords"], dtype=np.float64),
                        np.array(rec["features"], dtype=np.float64),
                        rec.get("tag"),
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
                raise MalformedFileError(f"{path}:{lineno}: {e}") from e
    if not geoms:
        raise MalformedFileError(f"{path}: empty dataset file")
    return geoms


def save_checkpoint(path, model: VectorFieldModel):
    header = {
        "arch": model.arch_dict(),
        "k": model.k,
        "d": model.d,
        "param_count": model.param_count,
        "version": CKPT_VERSION,
    }
    with _atomic_open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        f.write(model.get_flat().astype("<f8").tobytes())


def _read_header(f, path, what, version) -> dict:
    """The JSON-object header line of a binary file, its version checked."""
    line = f.readline()
    if not line.endswith(b"\n"):
        raise TruncatedFileError(f"{path}: missing {what} header")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise MalformedFileError(f"{path}: bad {what} header: {e}") from e
    if not isinstance(header, dict):
        raise MalformedFileError(f"{path}: {what} header is not a JSON object")
    if header.get("version") != version:
        raise VersionMismatchError(
            f"{path}: {what} version {header.get('version')}, expected {version}"
        )
    return header


def _check_meta_numbers(meta: dict):
    """The meta fields that reflow reads as numbers, where present: a
    positive integer `train_size` and a finite non-negative `sigma0`."""
    size = meta.get("train_size", 1)
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        raise ValueError(f"meta 'train_size' must be a positive integer, got {size!r}")
    sigma0 = meta.get("sigma0", 0.0)
    if (isinstance(sigma0, bool) or not isinstance(sigma0, (int, float))
            or not (math.isfinite(sigma0) and sigma0 >= 0)):
        raise ValueError(f"meta 'sigma0' must be a finite number >= 0, got {sigma0!r}")


def load_checkpoint(path) -> VectorFieldModel:
    with open(path, "rb") as f:
        header = _read_header(f, path, "checkpoint", CKPT_VERSION)
        arch = header.get("arch")
        if not isinstance(arch, dict):
            raise MalformedFileError(f"{path}: architecture record is not a JSON object")
        try:
            model = VectorFieldModel.from_arch(arch)
            if "size_hist" in model.meta:
                SizeSampler.from_meta(model.meta)
            ValidityRule.from_meta(model.meta)
            _check_meta_numbers(model.meta)
        except (TypeError, ValueError) as e:
            raise MalformedFileError(f"{path}: bad architecture record: {e}") from e
        if header.get("param_count") != model.param_count:
            raise MalformedFileError(f"{path}: parameter count mismatch in header")
        blob = f.read()
    expected = model.param_count * 8
    if len(blob) < expected:
        raise TruncatedFileError(
            f"{path}: expected {expected} parameter bytes, found {len(blob)}"
        )
    if len(blob) > expected:
        raise MalformedFileError(f"{path}: trailing bytes after parameters")
    params = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    if not np.isfinite(params).all():
        raise MalformedFileError(f"{path}: non-finite parameter values")
    model.set_flat(params)
    return model


_SOURCE_CODES = {"random": 0, "estimated": 1}
_SOURCE_NAMES = {v: k for k, v in _SOURCE_CODES.items()}


def save_pairs(path, cset: CouplingSet):
    k = cset.k if len(cset) else 0
    header = {"count": len(cset), "k": k, "version": PAIRS_VERSION}
    with _atomic_open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        for p in cset:
            f.write(struct.pack("<I", p.z0.n))
            for arr in (p.z0.coords, p.z0.features, p.z1.coords, p.z1.features):
                f.write(np.asarray(arr).astype("<f8").tobytes())
            f.write(
                bytes(
                    [_SOURCE_CODES[p.source], 1 if p.valid else 0, 1 if p.aligned else 0]
                )
            )


def _read_exact(f, nbytes, size, path, what):
    """`nbytes` bytes of `f`, a file of `size` bytes; checked against the
    size first, so a corrupt length cannot ask for a huge buffer."""
    if f.tell() + nbytes > size:
        raise TruncatedFileError(f"{path}: truncated while reading {what}")
    return f.read(nbytes)


def _header_count(header, key, path) -> int:
    value = header.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise MalformedFileError(f"{path}: pairs header {key!r} is not a count")
    return value


def load_pairs(path) -> CouplingSet:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = _read_header(f, path, "pairs", PAIRS_VERSION)
        count, k = _header_count(header, "count", path), _header_count(header, "k", path)
        pairs = []
        for i in range(count):
            (n,) = struct.unpack("<I", _read_exact(f, 4, size, path, f"pair {i} size"))
            if n < 1:
                raise MalformedFileError(f"{path}: pair {i} has no points")
            arrays = []
            for name, width in (("z0 coords", 3), ("z0 features", k),
                                ("z1 coords", 3), ("z1 features", k)):
                blob = _read_exact(f, 8 * n * width, size, path, f"pair {i} {name}")
                arrays.append(np.frombuffer(blob, dtype="<f8").reshape(n, width))
            src, valid, aligned = _read_exact(f, 3, size, path, f"pair {i} flags")
            if src not in _SOURCE_NAMES:
                raise MalformedFileError(f"{path}: pair {i} has unknown source byte")
            try:
                pair = CouplingPair(
                    LatentGeometry(n, arrays[0], arrays[1]),
                    LatentGeometry(n, arrays[2], arrays[3]),
                    aligned=bool(aligned),
                    source=_SOURCE_NAMES[src],
                    valid=bool(valid),
                )
            except ValueError as e:
                raise MalformedFileError(f"{path}: pair {i}: {e}") from e
            pairs.append(pair)
        if f.read(1):
            raise MalformedFileError(f"{path}: trailing bytes after pair records")
    return CouplingSet(pairs)


@dataclass(kw_only=True)
class RunMetrics:
    """One metrics.csv row, fields in header order; unset measurements stay
    empty in the file."""

    phase: str
    distribution_cost: float | None = None
    per_atom_cost: float | None = None
    mean_steps: float | None = None
    median_steps: float | None = None
    validity_rate: float | None = None
    wall_seconds: float | None = None
    seed: int
    config_hash: str

    def __post_init__(self):
        if self.validity_rate is not None and not 0.0 <= self.validity_rate <= 1.0:
            raise ValueError("validity_rate must lie in [0, 1]")
        for name in ("distribution_cost", "per_atom_cost"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be non-negative")

    def as_row(self) -> dict:
        return {name: "" if v is None else v for name, v in asdict(self).items()}


METRICS_FIELDS = [f.name for f in fields(RunMetrics)]


def append_metrics(path, row: dict):
    unknown = set(row) - set(METRICS_FIELDS)
    if unknown:
        raise ValueError(f"unknown metrics fields: {sorted(unknown)}")
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=METRICS_FIELDS)
        if fresh:
            writer.writeheader()
        writer.writerow(row)  # a float is written as its repr, a missing field empty


def read_metrics(path):
    with open(path, "r", newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def save_loss_curve(path, losses):
    with _atomic_open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "loss"])
        for i, v in enumerate(losses):
            writer.writerow([i, repr(float(v))])
