"""Straight-path flow matching on aligned couplings, plus reflow.

Training (per step): draw the encoded data geometry and matching noise
(`_draw_pair`), align the target onto the noise with the joint
rotation/permutation solver (`align_pair`), draw t uniformly, and regress
the velocity net onto the straight path target z1_hat - z0
(`_velocity_regression`). Sampling integrates dz/dt = v(z, t) from 0 to 1.
Reflow re-pairs each noise sample with the ODE endpoint it generates,
optionally filters the decoded endpoints through a validity predicate
(purification), re-aligns the kept pairs with one `solve_omt_batch` call,
each pair with the bits of its own `align_pair`, and fine-tunes through
`_velocity_regression`.

Every ODE solve runs through `_solve_draws`: the draws of one size are
grouped by `geometry._runs`, the grouping the batched alignment uses, and
integrated as one stacked state of one row per draw, each row with its own
step control, so each draw reaches the endpoint of its solo solve bit for
bit. `sample_ode` is its one-draw case.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from ._rules import Rule, check, field_rules, ruled
from .alignment import LAMBDA, SINGLE_PASS, solve_omt, solve_omt_batch
from .geometry import LatentGeometry, _runs, sample_noise
from .nn import (
    ARCH_DEFAULTS,
    ARCH_RULES,
    AdamState,
    VectorFieldModel,
    _center_sets,
    _regression_loss,
    adam_step,
    decode,
    encode,
)
from .ode import SolverConfig, integrate

_SOURCES = ("random", "estimated")


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


def _arch(name):  # an architecture field, with nn's default and rule
    return ruled(ARCH_DEFAULTS[name], ARCH_RULES[name])


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for training, alignment, and reflow."""

    lam: float = ruled(LAMBDA, Rule(float, 0, 1))
    epochs: int = ruled(10, Rule(int, 1))
    batch_size: int = ruled(16, Rule(int, 1))
    lr: float = ruled(1e-4, Rule(float, 0, open_low=True))
    sigma0: float = ruled(0.01, Rule(float, 0))
    purify: bool = ruled(True, Rule(bool))
    seed: int = ruled(0, Rule(int, 0))
    # architecture: the fields of nn.ARCH_DEFAULTS
    k: int = _arch("k")
    hidden: int = _arch("hidden")
    flow_layers: int = _arch("flow_layers")
    decoder_layers: int = _arch("decoder_layers")
    identity_latent: bool = _arch("identity_latent")
    coord_scale: float = _arch("coord_scale")
    # alignment during training
    use_omt: bool = ruled(True, Rule(bool))
    omt_iters: int = ruled(SINGLE_PASS.max_iters, Rule(int, 1))
    omt_restarts: int = ruled(SINGLE_PASS.restarts, Rule(int, 1))
    # autoencoder
    ae_epochs: int = ruled(10, Rule(int, 0))
    # reflow
    reflow_pairs: int | None = ruled(None, Rule(int, 1, null=True))
    reflow_epochs: int | None = ruled(None, Rule(int, 0, null=True))
    fresh_reflow: bool = ruled(False, Rule(bool))
    estimate_solver: SolverConfig = ruled(SolverConfig(method="rk4", fixed_steps=40),
                                          Rule(SolverConfig))

    def __post_init__(self):
        check(field_rules(self), vars(self))


@dataclass(frozen=True)
class SizeSampler:
    """Draws point counts from an empirical histogram."""

    sizes: tuple
    probs: tuple

    @classmethod
    def from_histogram(cls, hist: dict) -> "SizeSampler":
        """From a map of point counts (integers >= 1, or their `str`) to
        integer counts >= 1."""
        if not isinstance(hist, dict) or not hist:
            raise ValueError("size histogram must be a non-empty object")
        positive, items = Rule(int, 1), []
        for key, c in hist.items():
            n = int(key) if isinstance(key, str) and key.isdecimal() else key
            if str(n) != str(key) or not positive.admits(n):
                raise ValueError(f"size histogram size must be {positive} or its string, "
                                 f"got {key!r}")
            items.append((int(n), positive.check("size histogram count", c)))
        items.sort()
        sizes = [n for n, _ in items]
        if len(set(sizes)) < len(sizes):
            raise ValueError("size histogram sizes must be distinct")
        counts = np.array([c for _, c in items], float)
        return cls(tuple(sizes), tuple(counts / counts.sum()))

    @classmethod
    def from_meta(cls, meta: dict) -> "SizeSampler":
        """From the histogram a trained model's `meta` stores."""
        if "size_hist" not in meta:
            raise ValueError("model has no size histogram; train it first")
        return cls.from_histogram(meta["size_hist"])

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


def align_pair(pair: CouplingPair, lam=LAMBDA, max_iters=SINGLE_PASS.max_iters,
               restarts=SINGLE_PASS.restarts):
    """Replace the pair's target with its OMT-aligned version."""
    sol = solve_omt(pair.z1, pair.z0, lam, max_iters=max_iters, restarts=restarts)
    return replace(pair, z1=sol.aligned_target, aligned=True), sol


def _draw_pair(model: VectorFieldModel, g, sigma0, rng) -> CouplingPair:
    """A random-coupling pair for `g`: its sigma0-noised encoding as the
    target, then base noise of its size, drawn from `rng` in that order."""
    z1 = encode(model, g, sigma0, rng)
    return CouplingPair(sample_noise(g.n, model.k, rng), z1)


def _velocity_regression(model: VectorFieldModel, pair: CouplingPair, t, backward=True):
    """Mean-squared velocity regression against the pair's straight-path
    target; with `backward`, accumulates its gradients on the model."""
    z0, z1 = pair.z0, pair.z1
    zt = interpolate(z0, z1, t)
    ux, uh = z1.coords - z0.coords, z1.features - z0.features
    return float(_regression_loss(model, zt, t, ux, uh, [] if backward else None))


def fm_loss(model: VectorFieldModel, pair: CouplingPair, t: float, backward=True):
    """Straight-path flow-matching loss on an aligned pair.

    Returns (loss, gradient record); gradients accumulate on the model, so
    callers batching several pairs should `model.zero_grads()` first.
    """
    if not pair.aligned:
        raise ValueError("pair must be OMT-aligned")
    loss = _velocity_regression(model, pair, t, backward=backward)
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
        **{name: getattr(config, name) for name in ARCH_DEFAULTS},
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
        pair = _draw_pair(model, g, config.sigma0, rng)
        if config.use_omt:
            pair = align_pair(pair, config.lam, config.omt_iters, config.omt_restarts)[0]
        return _velocity_regression(model, pair, float(rng.uniform()))

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
        x = _center_sets(g.coords, g.n)
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


def sample_ode(model: VectorFieldModel, z0: LatentGeometry, solver: SolverConfig):
    """Integrate the learned field from the noise sample to t = 1.

    Returns (terminal latent geometry, accepted steps).
    """
    return _solve_draws(model, [z0], solver)[0]


# Most edges, b * n * (n - 1), in one stacked solve: bounds the edge arrays of
# a velocity call (a few MB at hidden width 64) however many draws share n.
_STACK_EDGES = 4096


def _solve_draws(model, draws, solver: SolverConfig, threads=1):
    """(ODE endpoint, accepted steps) of each latent draw, in draw order.

    The draws of one point count, in stacks of at most _STACK_EDGES edges
    (or one draw), are integrated as one state of one row per draw,
    [coords, features] flattened; `threads` maps over the stacks.
    """
    k = model.k
    if any(z.k != k for z in draws):
        raise ValueError("latent feature width mismatch")

    def solve(stack):
        n = stack[0].n
        cut = 3 * n

        def unpack(y):
            return LatentGeometry(len(y) * n, y[:, :cut].reshape(-1, 3),
                                  y[:, cut:].reshape(-1, k))

        def f(t, y):
            v = model.velocity(unpack(y), t, n=n)
            return np.concatenate([v.coords.reshape(-1, cut), v.features.reshape(-1, n * k)],
                                  axis=1)

        y0 = np.stack([np.concatenate([z.coords.ravel(), z.features.ravel()]) for z in stack])
        y1, _, steps = integrate(f, y0, solver)
        return [(unpack(y1[s : s + 1]), int(steps[s])) for s in range(len(stack))]

    with (ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext()) as pool:
        return _runs(draws, [z.n for z in draws], _STACK_EDGES, lambda n: max(1, n * (n - 1)),
                     solve, pool.map if pool else map)


def _endpoints(model, size_sampler: SizeSampler, count, solver: SolverConfig, seed,
               threads):
    """(noise, ODE endpoint, accepted steps) for each of `count` draws, each
    draw from its own child of `seed`, in draw order."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    draws = []
    for ss in seed.spawn(count):
        rng = np.random.default_rng(ss)
        draws.append(sample_noise(size_sampler.sample(rng), model.k, rng))
    return [(z0, *solved) for z0, solved in
            zip(draws, _solve_draws(model, draws, solver, threads))]


def generate(model, size_sampler: SizeSampler, count, solver: SolverConfig, seed, threads=1):
    """Draw sizes, sample noise, integrate, decode. Deterministic per seed."""
    Rule(int, 0).check("count", count)
    return [
        (decode(model, z1), steps)
        for _, z1, steps in _endpoints(model, size_sampler, count, solver, seed, threads)
    ]


def estimate_couplings(model, count, solver: SolverConfig, seed,
                       size_sampler: SizeSampler, threads=1) -> CouplingSet:
    """Pair each noise draw with its ODE endpoint (the estimated coupling)."""
    Rule(int, 1).check("count", count)
    return CouplingSet([
        CouplingPair(z0, z1, aligned=False, source="estimated")
        for z0, z1, _ in _endpoints(model, size_sampler, count, solver, seed, threads)
    ])


def random_couplings(model, dataset, count, seed) -> CouplingSet:
    """Independent (noise, encoded data) pairs: the random coupling baseline."""
    Rule(int, 1).check("count", count)
    sigma0 = float(model.meta.get("sigma0", 0.0))
    rng = np.random.default_rng(seed)
    return CouplingSet([_draw_pair(model, dataset[int(rng.integers(len(dataset)))],
                                   sigma0, rng) for _ in range(count)])


def _reflow_count(model: VectorFieldModel, config: TrainConfig) -> int:
    """The pairs a reflow round estimates: `reflow_pairs`, or by default ten
    per training geometry."""
    if config.reflow_pairs is not None:
        return config.reflow_pairs
    return 10 * int(model.meta.get("train_size", 100))


def reflow(model: VectorFieldModel, config: TrainConfig, validity, threads=1):
    """One round: estimate couplings, purify, re-align, and fine-tune.

    `validity` maps a decoded Geometry to bool. Returns (model, coupling
    set); with purify on, every returned pair decoded to a geometry the
    predicate accepted.
    """
    sampler = SizeSampler.from_meta(model.meta)
    count = _reflow_count(model, config)

    # Streams are keyed (seed, purpose, 0); `reflow --rounds` varies the seed.
    est = estimate_couplings(
        model, count, config.estimate_solver,
        np.random.SeedSequence([config.seed, 101, 0]), sampler, threads,
    )
    flagged = [replace(p, valid=bool(validity(decode(model, p.z1)))) for p in est]
    kept = [p for p in flagged if p.valid] if config.purify else flagged
    if not kept:
        raise ValueError("purification rejected all samples")
    sols = solve_omt_batch([p.z1 for p in kept], [p.z0 for p in kept], config.lam,
                           max_iters=config.omt_iters, restarts=config.omt_restarts)
    coupling = CouplingSet([replace(p, z1=sol.aligned_target, aligned=True)
                            for p, sol in zip(kept, sols)])
    if config.fresh_reflow:
        model = VectorFieldModel.from_arch({**model.arch_dict(), "seed": config.seed})
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 202, 0]))
    epochs = config.reflow_epochs if config.reflow_epochs is not None else config.epochs
    _fit(model, "flow", coupling,
         lambda p, rng: _velocity_regression(model, p, float(rng.uniform())),
         epochs, config, rng)
    return model, coupling
