"""The package's self-checks, each defined once: the acceptance criteria
c01-c07, the synthetic fields of c11, and four smaller checks.

A check is a function of its sample size(s) that draws from its own seed
and returns a `_result`. `geomflow selftest` passes small sizes;
`tests/test_acceptance.py` passes the criteria's own and asserts `ok`; the
unit tests pass other seeds and sizes, so they hold the same bounds on
draws of their own. Every bound lives here, in one place: a check passes
where its bounds hold, whatever it is given.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np

from . import costs, data, flow, nn, ode
from .alignment import LAMBDA, CostMatrix, brute_force_omt, hungarian, kabsch, solve_omt
from .geometry import LatentGeometry, _rotations_from_rng, rotation_from_rng, sample_noise


def _result(*checks, **values) -> SimpleNamespace:
    """A check's measured quantities; `checks`, its bounds as (name, ok,
    detail) in the order and words `selftest` prints; and `ok`, all held."""
    return SimpleNamespace(checks=checks, ok=all(ok for _, ok, _ in checks), **values)


def assignment_exactness(count, seed=101, sizes=(2, 8)) -> SimpleNamespace:
    """c01: `hungarian` on `count` random n x n matrices, n drawn from the
    half-open `sizes`, reaches the enumerated minimum exactly."""
    rng = np.random.default_rng(seed)
    perms_by_n = {n: np.array(list(itertools.permutations(range(n))), dtype=np.intp)
                  for n in range(*sizes)}
    exact = 0
    for _ in range(count):
        n = int(rng.integers(*sizes))
        m = rng.random((n, n))
        achieved = m[hungarian(CostMatrix(m)).map, np.arange(n)].sum()
        exact += achieved == m[perms_by_n[n], np.arange(n)].sum(axis=1).min()
    return _result(("hungarian-vs-enumeration", exact == count, f"{exact}/{count} exact"),
                  exact=exact)


def rotation_optimality(count, trials, seed=102) -> SimpleNamespace:
    """c02: on `count` centred clouds of 4-10 points, `kabsch` recovers a
    planted rotation; and aligning each cloud to a second, unplanted one
    from a separate generator, none of `trials` random rotations beats it."""
    rng, free = np.random.default_rng(seed), np.random.default_rng([seed, 1])
    worst, held = 0.0, 0
    for _ in range(count):
        n = int(rng.integers(4, 11))
        x = rng.standard_normal((n, 3))
        x -= x.mean(axis=0)
        planted = rotation_from_rng(rng)
        est = kabsch(x @ planted.r.T, x)
        worst = max(worst, float(np.linalg.norm(est.r - planted.r.T)))
        target = free.standard_normal((n, 3))
        target -= target.mean(axis=0)
        ours = ((target @ kabsch(target, x).r.T - x) ** 2).sum()
        qs = _rotations_from_rng(rng, trials)
        trial = ((np.einsum("rij,nj->rni", qs, target) - x) ** 2).sum(axis=(1, 2)).min()
        held += ours <= trial + 1e-12
    return _result(
        ("kabsch-planted-rotation", worst <= 1e-9, f"max dev {worst:.2e}"),
        ("kabsch-random-rotation-oracle", held == count,
         f"{held}/{count} never beaten by {trials} rotations"),
        worst=worst)


def omt_oracle_agreement(count, seed=103, sizes=(2, 7)) -> SimpleNamespace:
    """c03: `solve_omt` (30 passes, 32 starts) on `count` pairs of noise
    points, their sizes drawn from the half-open `sizes`, agrees with the
    enumeration oracle to 1e-8 on at least 95% of them, and never
    undershoots it. Also measures the single-pass gap."""
    rng = np.random.default_rng(seed)
    agree, under, gaps = 0, 0.0, []
    for _ in range(count):
        n = int(rng.integers(*sizes))
        z1 = sample_noise(n, 2, rng)
        z0 = sample_noise(n, 2, rng)
        oracle, _, _ = brute_force_omt(z1, z0, 0.5)
        sol = solve_omt(z1, z0, 0.5, max_iters=30, restarts=32)
        agree += abs(sol.cost - oracle) <= 1e-8
        under = max(under, oracle - sol.cost)
        gaps.append(solve_omt(z1, z0, 0.5, max_iters=1, restarts=1).cost - oracle)
    return _result(
        ("solve-omt-vs-oracle", 20 * agree >= 19 * count and under <= 1e-9,
         f"{agree}/{count} within 1e-8, max undershoot {under:.1e}"),
        agree=agree, under=under, gaps=np.array(gaps))


def _moved(z, rot, shift, perm) -> LatentGeometry:
    """z rotated, shifted and permuted, then re-centred."""
    x = (z.coords @ rot.r.T + shift)[perm]
    x -= x.mean(axis=0)
    return LatentGeometry(z.n, x, z.features[perm])


def transform_invariance(count, seed=104, sizes=(2, 7)) -> SimpleNamespace:
    """c04: the oracle cost of `count` pairs of noise points, their sizes
    drawn from the half-open `sizes`, is unchanged by a rotation,
    translation and permutation of either argument."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(count):
        n = int(rng.integers(*sizes))
        z1 = sample_noise(n, 2, rng)
        z0 = sample_noise(n, 2, rng)
        base, _, _ = brute_force_omt(z1, z0, 0.5)
        rot = rotation_from_rng(rng)
        perm = rng.permutation(n)
        shift = rng.standard_normal(3)
        if i % 2 == 0:  # transform the target argument
            cost, _, _ = brute_force_omt(_moved(z1, rot, shift, perm), z0, 0.5)
        else:  # transform the reference argument
            cost, _, _ = brute_force_omt(z1, _moved(z0, rot, shift, perm), 0.5)
        worst = max(worst, abs(cost - base))
    return _result(("oracle-transform-invariance", worst <= 1e-8, f"max dev {worst:.2e}"),
                  worst=worst)


def equivariance(count, seed=105, hidden=16) -> SimpleNamespace:
    """c05: on `count` fresh velocity fields of width `hidden`, each at one
    draw of 3-8 noise points: rotating the input rotates the coordinate
    velocity and leaves the feature velocity alone, every layer and the
    velocity keep the CoM at zero, and permuting the points permutes the
    output bit for bit."""
    rng = np.random.default_rng(seed)
    rot_dev = feat_dev = layer_com = vel_com = 0.0
    perm_exact = True
    for draw in range(count):
        model = nn.VectorFieldModel(d=3, k=3, hidden=hidden, flow_layers=2,
                                    identity_latent=True, seed=500 + draw)
        n = int(rng.integers(3, 9))
        z = sample_noise(n, 3, rng)
        t = float(rng.uniform())
        v = nn.forward(model, z, t)
        rot = rotation_from_rng(rng)
        vr = nn.forward(model, LatentGeometry(n, z.coords @ rot.r.T, z.features), t)
        rot_dev = max(rot_dev, float(np.abs(vr.coords - v.coords @ rot.r.T).max()))
        feat_dev = max(feat_dev, float(np.abs(vr.features - v.features).max()))
        vel_com = max(vel_com, float(np.abs(v.coords.mean(axis=0)).max()))
        perm = rng.permutation(n)
        vp = nn.forward(model, LatentGeometry(n, z.coords[perm], z.features[perm]), t)
        perm_exact &= (np.array_equal(vp.coords, v.coords[perm])
                       and np.array_equal(vp.features, v.features[perm]))
        embed, *stack, _ = model.blocks["flow"]
        h = embed.forward(np.concatenate([z.features, np.full((n, 1), t)], axis=1))
        x = np.asarray(z.coords)
        for layer in stack:
            x, h = layer.forward(x, h)
            layer_com = max(layer_com, float(np.abs(x.mean(axis=0)).max()))
    return _result(
        ("rotation-equivariance", rot_dev <= 1e-7, f"max dev {rot_dev:.1e}"),
        ("feature-invariance", feat_dev <= 1e-7, f"max dev {feat_dev:.1e}"),
        ("zero-com-velocity", max(layer_com, vel_com) <= 1e-9,
         f"max CoM per layer {layer_com:.1e}, of the velocity {vel_com:.1e}"),
        ("permutation-exactness", perm_exact, "bitwise"),
        rot_dev=rot_dev, feat_dev=feat_dev, layer_com=layer_com)


def gradient_correctness(seeds) -> SimpleNamespace:
    """c06: `grad_check` of one small velocity field, at seeds 0 to
    `seeds` - 1, within its 1e-4 tolerance and parameter limit."""
    reps = [nn.grad_check(lambda: nn.VectorFieldModel(d=3, k=3, hidden=8, flow_layers=2,
                                                      identity_latent=True, seed=42),
                          tolerance=1e-4, seed=seed)
            for seed in range(seeds)]
    worst = max(rep.max_rel_err for rep in reps)
    params = reps[0].param_count
    return _result(("gradient-check", all(rep.passed for rep in reps) and params <= 5000,
                   f"{params} params, max rel err {worst:.2e}"),
                  worst=worst, params=params)


def coupling_cost_monotone(estimated, random) -> SimpleNamespace:
    """c07: the mean aligned cost of the estimated couplings is at most that
    of the random ones plus two standard errors of the difference; each set
    is re-centred and aligned in one call, 10 passes from 2 starts."""
    def aligned(cset):
        return np.array([cost for cost, _, _ in
                         costs._aligned([(p.z0, p.z1) for p in cset], LAMBDA, False, 10, 2)])

    est, rand = aligned(estimated), aligned(random)
    two_se = 2 * float(np.sqrt(est.var() / len(est) + rand.var() / len(rand)))
    return _result(("estimated-coupling-cost-monotone", est.mean() <= rand.mean() + two_se,
                   f"estimated {est.mean():.3f} vs random {rand.mean():.3f} "
                   f"(2se {two_se:.3f})"),
                  est_mean=est.mean(), rand_mean=rand.mean(), two_se=two_se)


def loss_decreases(losses, window) -> SimpleNamespace:
    """The mean of the last `window` training losses is below the first's."""
    first, last = np.mean(losses[:window]), np.mean(losses[-window:])
    return _result(("training-loss-decreases", last < first, f"{first:.3f} -> {last:.3f}"))


def trained_couplings(count) -> SimpleNamespace:
    """A small flow trained on 120 geometries of 4 and 5 points: c07 on
    `count` estimated and `count` random couplings of it, then its loss."""
    spec = data.TemplateSpec(num_templates=2, atoms_per_template=(4, 5), feature_classes=3,
                             jitter_sigma=0.03, seed=5)
    dataset = data.make_dataset(spec, 120)
    conf = flow.TrainConfig(epochs=4, batch_size=16, lr=2e-3, sigma0=0.01, seed=3, k=3,
                            hidden=16, flow_layers=2, identity_latent=True,
                            estimate_solver=ode.SolverConfig("rk4", fixed_steps=30))
    model, losses = flow.train(dataset, conf)
    sampler = flow.SizeSampler.from_dataset(dataset)
    est = flow.estimate_couplings(model, count, conf.estimate_solver, 17, sampler)
    rand = flow.random_couplings(model, dataset, count, 18)
    return _result(*coupling_cost_monotone(est, rand).checks, *loss_decreases(losses, 10).checks)


def euler_constant_field(c, y0, steps) -> SimpleNamespace:
    """`steps` Euler steps on dy/dt = c, all taken, equal the same steps
    taken by hand bit for bit, and the exact endpoint y0 + c to 1e-14."""
    euler, used = ode.integrate(lambda t, y: c, y0, ode.SolverConfig("euler", fixed_steps=steps))
    by_hand = y0
    for _ in range(steps):
        by_hand = by_hand + (1 / steps) * c
    dev = float(np.abs(euler - (y0 + c)).max())
    return _result(("euler-constant-field-exact",
                    used == steps and np.array_equal(euler, by_hand) and dev <= 1e-14,
                    f"bitwise, max dev from y0 + c {dev:.1e}"))


def rk4_linear_field(y0, rate, steps) -> SimpleNamespace:
    """`steps` RK4 steps on dy/dt = rate y reach y0 e^rate to 1e-10."""
    rk4, _ = ode.integrate(lambda t, y: rate * y, y0, ode.SolverConfig("rk4", fixed_steps=steps))
    dev = float(np.abs(rk4 - y0 * np.exp(rate)).max())
    return _result(("rk4-linear-field", dev <= 1e-10, f"max dev {dev:.1e}"))


def synthetic_fields() -> SimpleNamespace:
    """c11's synthetic fields, at one draw in 9 dimensions: 13 Euler steps
    on a constant field and 300 RK4 steps on dy/dt = 0.8 y."""
    rng = np.random.default_rng(111)
    c = rng.standard_normal(9)
    y0 = rng.standard_normal(9)
    return _result(*euler_constant_field(c, y0, 13).checks, *rk4_linear_field(y0, 0.8, 300).checks)


def dense_closed_form_gradient() -> SimpleNamespace:
    """A one-layer `DenseNet`'s backward pass gives the closed-form gradients
    of the squared error, for its weights and for its input."""
    rng = np.random.default_rng(0)
    net = nn.DenseNet([4, 3], np.random.default_rng(1))
    x = rng.standard_normal((7, 4))
    y = rng.standard_normal((7, 3))
    tape = []
    pred = net.forward(x, tape)
    net.zero_grads()
    dx = net.backward(2.0 * (pred - y), tape)
    w = net.weights[0]
    dev_w = float(np.abs(net.grad_w[0] - 2.0 * (x @ w.T + net.biases[0] - y).T @ x).max())
    dev_x = float(np.abs(dx - 2.0 * (pred - y) @ w).max())
    return _result(("dense-closed-form-gradient", dev_w <= 1e-9 and dev_x <= 1e-12,
                   f"max dev weights {dev_w:.1e}, input {dev_x:.1e}"))


def interpolate_endpoints() -> SimpleNamespace:
    """The straight path between two noise draws starts and ends on them,
    bit for bit."""
    z0, z1 = sample_noise(4, 2, 0), sample_noise(4, 2, 1)
    at0, at1 = flow.interpolate(z0, z1, 0.0), flow.interpolate(z0, z1, 1.0)
    ok = all(np.array_equal(a, b) for a, b in ((at0.coords, z0.coords),
                                               (at0.features, z0.features),
                                               (at1.coords, z1.coords),
                                               (at1.features, z1.features)))
    return _result(("interpolate-endpoints", ok, ""))


def noise_zero_com(count) -> SimpleNamespace:
    """Noise draws of 6 points at seeds 0 to `count` - 1 have zero CoM."""
    com = max(float(np.abs(sample_noise(6, 2, s).coords.mean(axis=0)).max())
              for s in range(count))
    return _result(("noise-zero-com", com <= 1e-12, f"max CoM {com:.1e}"))
