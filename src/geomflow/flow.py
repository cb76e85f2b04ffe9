"""Straight-path flow matching on aligned couplings, plus reflow.

Training (per step): encode a data geometry, sample matching noise, align
the encoded target onto the noise with the joint rotation/permutation
solver, draw t uniformly, and regress the velocity net onto the straight
path target z1_hat - z0. Sampling integrates dz/dt = v(z, t) from 0 to 1.
Reflow re-pairs each noise sample with the ODE endpoint it generates,
optionally filters the decoded endpoints through a validity predicate
(purification), re-aligns, and fine-tunes on the new coupling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .alignment import solve_omt
from .geometry import LatentGeometry, sample_noise
from .nn import AdamState, VectorFieldModel, adam_step, decode, encode
from .ode import SolverConfig, integrate

_SOURCES = ("random", "estimated")
# TrainConfig's architecture fields, named as VectorFieldModel's arguments.
_ARCH_FIELDS = ("k", "hidden", "flow_layers", "decoder_layers", "identity_latent",
                "coord_scale")


@dataclass(frozen=True)
class CouplingPair:
    """One (noise, target) latent pair; `aligned` marks an OMT-aligned target."""

    z0: LatentGeometry
    z1: LatentGeometry
    aligned: bool = False
    source: str = "random"
    valid: bool = True

    def __post_init__(self):
        if self.z0.n != self.z1.n:
            raise ValueError("coupling pair size mismatch")
        if self.z0.k != self.z1.k:
            raise ValueError("coupling pair feature width mismatch")
        if self.source not in _SOURCES:
            raise ValueError(f"unknown coupling source {self.source!r}")


@dataclass
class CouplingSet:
    """A batch of coupling pairs with a common latent width."""

    pairs: list

    def __post_init__(self):
        if self.pairs:
            k = self.pairs[0].z0.k
            if any(p.z0.k != k for p in self.pairs):
                raise ValueError("coupling set mixes latent widths")

    @property
    def k(self) -> int:
        if not self.pairs:
            raise ValueError("empty coupling")
        return self.pairs[0].z0.k

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, i):
        return self.pairs[i]

    def concat(self, other: "CouplingSet") -> "CouplingSet":
        return CouplingSet(list(self.pairs) + list(other.pairs))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for training, alignment, and reflow."""

    lam: float = 0.5
    epochs: int = 10
    batch_size: int = 16
    lr: float = 1e-4
    sigma0: float = 0.01
    purify: bool = True
    seed: int = 0
    # architecture
    k: int = 2
    hidden: int = 64
    flow_layers: int = 3
    decoder_layers: int = 1
    identity_latent: bool = False
    coord_scale: float = 1.0
    # alignment during training (paper-faithful single pass by default)
    use_omt: bool = True
    omt_iters: int = 1
    omt_restarts: int = 1
    # autoencoder
    ae_epochs: int = 10
    # reflow
    reflow_pairs: int | None = None
    reflow_epochs: int | None = None
    fresh_reflow: bool = False
    estimate_solver: SolverConfig = field(
        default_factory=lambda: SolverConfig(method="rk4", fixed_steps=40)
    )

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        if self.epochs < 1 or self.batch_size < 1 or self.ae_epochs < 0:
            raise ValueError("epochs and batch size must be positive")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.sigma0 < 0:
            raise ValueError("sigma0 must be non-negative")
        if not all(map(math.isfinite, (self.lr, self.sigma0, self.coord_scale))):
            raise ValueError("lr, sigma0 and coord_scale must be finite")
        if self.reflow_pairs is not None and self.reflow_pairs < 1:
            raise ValueError("reflow_pairs must be >= 1")


@dataclass(frozen=True)
class SizeSampler:
    """Draws point counts from an empirical histogram."""

    sizes: tuple
    probs: tuple

    @classmethod
    def from_histogram(cls, hist: dict) -> "SizeSampler":
        if not hist:
            raise ValueError("empty size histogram")
        sizes = sorted(int(n) for n in hist)
        counts = np.array([hist[n] if n in hist else hist[str(n)] for n in sizes], float)
        return cls(tuple(sizes), tuple(counts / counts.sum()))

    @classmethod
    def from_dataset(cls, geoms) -> "SizeSampler":
        return cls.from_histogram(size_histogram(geoms))

    @classmethod
    def fixed(cls, n: int) -> "SizeSampler":
        return cls((n,), (1.0,))

    def sample(self, rng: np.random.Generator) -> int:
        return int(self.sizes[rng.choice(len(self.sizes), p=np.array(self.probs))])


def size_histogram(geoms) -> dict:
    hist: dict = {}
    for g in geoms:
        hist[int(g.n)] = hist.get(int(g.n), 0) + 1
    return hist


def interpolate(z0: LatentGeometry, z1: LatentGeometry, t: float) -> LatentGeometry:
    """Convex combination (1-t) z0 + t z1 of both channels."""
    if z0.n != z1.n or z0.k != z1.k:
        raise ValueError("shape mismatch between latent geometries")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    return LatentGeometry(
        z0.n,
        (1.0 - t) * z0.coords + t * z1.coords,
        (1.0 - t) * z0.features + t * z1.features,
    )


def align_pair(pair: CouplingPair, lam=0.5, max_iters=1, restarts=1):
    """Replace the pair's target with its OMT-aligned version."""
    sol = solve_omt(pair.z1, pair.z0, lam, max_iters=max_iters, restarts=restarts)
    return replace(pair, z1=sol.aligned_target, aligned=True), sol


def _velocity_regression(model: VectorFieldModel, z0, z1t, t, backward=True):
    """Mean-squared velocity regression against the straight-path target."""
    zt = interpolate(z0, z1t, t)
    tape = [] if backward else None
    v = model.velocity(zt, t, tape)
    ux = z1t.coords - z0.coords
    uh = z1t.features - z0.features
    numel = z0.n * (3 + z0.k)
    loss = (np.sum((v.coords - ux) ** 2) + np.sum((v.features - uh) ** 2)) / numel
    if backward:
        model.backward_velocity(
            2.0 * (v.coords - ux) / numel, 2.0 * (v.features - uh) / numel, tape
        )
    return float(loss)


def fm_loss(model: VectorFieldModel, pair: CouplingPair, t: float, backward=True):
    """Straight-path flow-matching loss on an aligned pair.

    Returns (loss, gradient record); gradients accumulate on the model, so
    callers batching several pairs should `model.zero_grads()` first.
    """
    if not pair.aligned:
        raise ValueError("pair must be OMT-aligned")
    loss = _velocity_regression(model, pair.z0, pair.z1, t, backward=backward)
    return loss, (model.gradients() if backward else None)


def _check_dataset(dataset):
    if not dataset:
        raise ValueError("empty dataset")
    d = dataset[0].features.shape[1]
    if any(g.features.shape[1] != d for g in dataset):
        raise ValueError("dataset mixes feature widths")
    return d


def train(dataset, config: TrainConfig):
    """Train the velocity field (and, unless identity-latent, the autoencoder).

    Returns (model, loss_curve) with one loss value per optimizer step.
    """
    d = _check_dataset(dataset)
    model = VectorFieldModel.from_arch({
        "d": d,
        **{name: getattr(config, name) for name in _ARCH_FIELDS},
        "seed": config.seed,
        "meta": {
            "size_hist": {str(n): c for n, c in sorted(size_histogram(dataset).items())},
            "train_size": len(dataset),
            "sigma0": config.sigma0,
            "lambda": config.lam,
        },
    })
    rng = np.random.default_rng(config.seed)
    if not config.identity_latent and config.ae_epochs > 0:
        train_autoencoder(model, dataset, config, rng)

    def item_loss(g, rng):
        z1 = encode(model, g, config.sigma0, rng)
        z0 = sample_noise(g.n, model.k, rng)
        if config.use_omt:
            z1 = solve_omt(
                z1, z0, config.lam,
                max_iters=config.omt_iters, restarts=config.omt_restarts,
            ).aligned_target
        return _velocity_regression(model, z0, z1, float(rng.uniform()))

    losses = _fit(model, "flow", dataset, item_loss, config.epochs, config, rng)
    return model, losses


def _fit(model, group, items, item_loss, epochs, config: TrainConfig, rng):
    """Minibatch Adam on the `group` parameters over shuffled `items`.

    `item_loss(item, rng)` returns one item's loss and accumulates its
    gradients on the model; each step averages them over the batch. Returns
    the mean loss of every step.
    """
    params, grads = model.parameters(group), model.gradients(group)
    state = AdamState.init(params)
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(items))
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            model.zero_grads()
            total = sum(item_loss(items[int(idx)], rng) for idx in batch)
            inv = 1.0 / len(batch)
            for gr in grads:
                gr *= inv
            adam_step(params, grads, state, config.lr)
            losses.append(total / len(batch))
    return losses


def _softmax(rows):
    shifted = rows - rows.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=1, keepdims=True)


def train_autoencoder(model, dataset, config, rng):
    """Reconstruction training: squared error on coords, cross-entropy on
    one-hot classes (targets taken as the argmax of each feature row)."""

    def item_loss(g, rng):
        x = g.coords - g.coords.mean(axis=0)
        eps = sample_noise(g.n, model.k, rng)
        tape = []
        mu_x, mu_h = model.encode_means(x, g.features, tape)
        zx = mu_x + config.sigma0 * eps.coords
        zh = mu_h + config.sigma0 * eps.features
        x_rec, logits = model.decode_arrays(zx, zh, tape)
        labels = np.argmax(g.features, axis=1)
        p = _softmax(logits)
        coord_loss = float(((x_rec - x) ** 2).mean())
        ce = float(-np.log(np.maximum(p[np.arange(g.n), labels], 1e-300)).mean())
        y = np.zeros_like(p)
        y[np.arange(g.n), labels] = 1.0
        model.ae_backward(2.0 * (x_rec - x) / x.size, (p - y) / g.n, tape)
        return coord_loss + ce

    return _fit(model, "ae", dataset, item_loss, config.ae_epochs, config, rng)


def _pack(z: LatentGeometry) -> np.ndarray:
    return np.concatenate([np.asarray(z.coords).ravel(), np.asarray(z.features).ravel()])


def _unpack(y: np.ndarray, n: int, k: int) -> LatentGeometry:
    return LatentGeometry(n, y[: 3 * n].reshape(n, 3), y[3 * n :].reshape(n, k))


def sample_ode(model: VectorFieldModel, z0: LatentGeometry, solver: SolverConfig, n=None):
    """Integrate the learned field from the noise sample to t = 1.

    With `n`, z0 stacks z0.n // n draws of n points, integrated as one
    state: a fixed-step solver brings each draw to the endpoint it reaches
    alone, bit for bit, while an adaptive one would choose one step size for
    all. Returns (terminal latent geometry, accepted step count).
    """
    if z0.k != model.k:
        raise ValueError("latent feature width mismatch")
    rows, k = z0.n, z0.k

    def f(t, y):
        return _pack(model.velocity(_unpack(y, rows, k), t, n=n))

    y1, steps = integrate(f, _pack(z0), solver)
    return _unpack(y1, rows, k), steps


def _spawned(seed, count):
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return ss.spawn(count)


def _map_indexed(fn, items, threads):
    if threads <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# Most edges, b * n * (n - 1), in one stacked solve: bounds the edge arrays of
# a velocity call (a few MB at hidden width 64) however many draws share n.
_STACK_EDGES = 4096


def _stacks(draws, fixed_step):
    """Indices of `draws` in solve order, split into stacks: one stack per
    draw, or with a fixed-step solver per point count up to _STACK_EDGES."""
    groups: dict = {}
    for i, z in enumerate(draws):
        groups.setdefault(z.n if fixed_step else i, []).append(i)
    stacks = []
    for idx in groups.values():
        n = draws[idx[0]].n
        size = max(1, _STACK_EDGES // max(1, n * (n - 1)))
        stacks += [idx[start : start + size] for start in range(0, len(idx), size)]
    return stacks


def _endpoints(model, size_sampler: SizeSampler, count, solver: SolverConfig, seed,
               threads):
    """(noise, ODE endpoint, accepted steps) for each of `count` draws, each
    draw from its own child of `seed`, in draw order.

    Draws of one size that share a fixed-step solve are integrated as one
    stacked state; `threads` maps over the stacks.
    """
    draws = []
    for ss in _spawned(seed, count):
        rng = np.random.default_rng(ss)
        draws.append(sample_noise(size_sampler.sample(rng), model.k, rng))

    def solve(idx):
        n = draws[idx[0]].n
        z0 = LatentGeometry(
            n * len(idx),
            np.concatenate([draws[i].coords for i in idx]),
            np.concatenate([draws[i].features for i in idx]),
        )
        z1, steps = sample_ode(model, z0, solver, n)
        return [
            (i, LatentGeometry(n, z1.coords[s * n : (s + 1) * n],
                               z1.features[s * n : (s + 1) * n]), steps)
            for s, i in enumerate(idx)
        ]

    out = [None] * count
    for solved in _map_indexed(solve, _stacks(draws, solver.method != "adaptive"), threads):
        for i, z1, steps in solved:
            out[i] = (draws[i], z1, steps)
    return out


def generate(model, size_sampler: SizeSampler, count, solver: SolverConfig, seed, threads=1):
    """Draw sizes, sample noise, integrate, decode. Deterministic per seed."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return [
        (decode(model, z1), steps)
        for _, z1, steps in _endpoints(model, size_sampler, count, solver, seed, threads)
    ]


def estimate_couplings(model, count, solver: SolverConfig, seed,
                       size_sampler: SizeSampler, threads=1) -> CouplingSet:
    """Pair each noise draw with its ODE endpoint (the estimated coupling)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return CouplingSet([
        CouplingPair(z0, z1, aligned=False, source="estimated")
        for z0, z1, _ in _endpoints(model, size_sampler, count, solver, seed, threads)
    ])


def random_couplings(model, dataset, count, seed) -> CouplingSet:
    """Independent (noise, encoded data) pairs: the random coupling baseline."""
    if count < 1:
        raise ValueError("count must be >= 1")
    sigma0 = float(model.meta.get("sigma0", 0.0))
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        g = dataset[int(rng.integers(len(dataset)))]
        z1 = encode(model, g, sigma0, rng)
        z0 = sample_noise(g.n, model.k, rng)
        pairs.append(CouplingPair(z0, z1, aligned=False, source="random"))
    return CouplingSet(pairs)


def reflow(model: VectorFieldModel, config: TrainConfig, validity, threads=1):
    """One round: estimate couplings, purify, re-align, and fine-tune.

    `validity` maps a decoded Geometry to bool. Returns (model, coupling
    set); with purify on, every returned pair decoded to a geometry the
    predicate accepted.
    """
    if "size_hist" not in model.meta:
        raise ValueError("model has no size histogram; train it first")
    sampler = SizeSampler.from_histogram(model.meta["size_hist"])
    count = config.reflow_pairs
    if count is None:
        count = 10 * int(model.meta.get("train_size", 100))

    # Streams are keyed (seed, purpose, 0); `reflow --rounds` varies the seed.
    est = estimate_couplings(
        model, count, config.estimate_solver,
        np.random.SeedSequence([config.seed, 101, 0]), sampler, threads,
    )
    flagged = [replace(p, valid=bool(validity(decode(model, p.z1)))) for p in est]
    kept = [p for p in flagged if p.valid] if config.purify else flagged
    if not kept:
        raise ValueError("purification rejected all samples")
    coupling = CouplingSet([
        align_pair(p, config.lam, config.omt_iters, config.omt_restarts)[0] for p in kept
    ])
    if config.fresh_reflow:
        model = VectorFieldModel.from_arch({**model.arch_dict(), "seed": config.seed})
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 202, 0]))
    epochs = config.reflow_epochs if config.reflow_epochs is not None else config.epochs
    _fit(model, "flow", coupling,
         lambda p, rng: _velocity_regression(model, p.z0, p.z1, float(rng.uniform())),
         epochs, config, rng)
    return model, coupling
