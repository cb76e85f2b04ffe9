"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities. Run with `pytest tests/test_acceptance.py -v -s`.

The shared fixture pipeline (dataset -> trained model -> estimated couplings
-> reflowed model) uses the identity-latent mode so these checks measure the
alignment/flow machinery rather than autoencoder fit quality; the trained
autoencoder path is exercised in the unit suites.
"""

import itertools
import time

import numpy as np
import pytest

from geomflow import cli, data
from geomflow.alignment import CostMatrix, brute_force_omt, cost_matrix, hungarian, kabsch, solve_omt
from geomflow.costs import distribution_cost, optimal_molecule_cost
from geomflow.flow import (
    CouplingPair,
    SizeSampler,
    TrainConfig,
    _solve_draws,
    align_pair,
    estimate_couplings,
    fm_loss,
    generate,
    random_couplings,
    reflow,
    sample_noise,
    train,
)
from geomflow.geometry import LatentGeometry, random_rotation, rotation_from_rng
from geomflow.nn import AdamState, VectorFieldModel, adam_step, forward, grad_check
from geomflow.ode import SolverConfig, integrate

FIXTURE_SPEC = data.TemplateSpec(
    num_templates=4,
    atoms_per_template=(5, 6, 7, 8),
    feature_classes=4,
    jitter_sigma=0.05,
    seed=0,
)
TRAIN_CONF = TrainConfig(
    lam=0.5,
    epochs=30,
    batch_size=16,
    lr=1e-3,  # desk-scale schedule; the production default stays 1e-4
    sigma0=0.01,
    seed=0,
    k=4,
    hidden=32,
    flow_layers=2,
    identity_latent=True,
    reflow_pairs=1200,
    reflow_epochs=4,
    estimate_solver=SolverConfig("rk4", fixed_steps=40),
)
MEASURE_SOLVER = SolverConfig("adaptive", rtol=1e-5, atol=1e-6, init_step=0.05)


def clone_model(model):
    out = VectorFieldModel.from_arch(model.arch_dict())
    out.set_flat(model.get_flat())
    return out


@pytest.fixture(scope="module")
def dataset():
    return data.make_dataset(FIXTURE_SPEC, 2000)


@pytest.fixture(scope="module")
def rule():
    return data.default_rule(FIXTURE_SPEC)


@pytest.fixture(scope="module")
def trained(dataset):
    model, losses = train(dataset, TRAIN_CONF)
    assert np.mean(losses[-100:]) < np.mean(losses[:100])
    return model


@pytest.fixture(scope="module")
def estimated_1000(trained, rule):
    sampler = SizeSampler.from_histogram(trained.meta["size_hist"])
    cset = estimate_couplings(trained, 1000, TRAIN_CONF.estimate_solver, 5, sampler)
    from dataclasses import replace
    from geomflow.nn import decode

    flagged = [
        replace(p, valid=data.is_valid(decode(trained, p.z1), rule)[0]) for p in cset
    ]
    from geomflow.flow import CouplingSet

    return CouplingSet(flagged)


@pytest.fixture(scope="module")
def reflowed(trained, rule):
    model = clone_model(trained)

    def validity(g):
        return data.is_valid(g, rule)[0]

    model, cset = reflow(model, TRAIN_CONF, validity)
    return model, cset


def test_c01_assignment_exactness():
    rng = np.random.default_rng(101)
    perms_by_n = {
        n: np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        for n in range(2, 8)
    }
    t0 = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(2, 8))
        m = rng.random((n, n))
        perm = hungarian(CostMatrix(m))
        achieved = m[perm.map, np.arange(n)].sum()
        best = m[perms_by_n[n], np.arange(n)].sum(axis=1).min()
        assert achieved == best  # exact, zero tolerance
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"[criterion 01] PASS assignment exactness: 500/500 exact, {elapsed:.1f}s")


def test_c02_rotation_optimality():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst_recovery = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 11))
        x = rng.standard_normal((n, 3))
        x -= x.mean(axis=0)
        planted = rotation_from_rng(rng)
        target = x @ planted.r.T
        est = kabsch(target, x)
        worst_recovery = max(worst_recovery, float(np.linalg.norm(est.r - planted.r.T)))
        ours = ((target @ est.r.T - x) ** 2).sum()
        qs, rs = np.linalg.qr(rng.standard_normal((10_000, 3, 3)))
        qs = qs * np.sign(np.einsum("rii->ri", rs))[:, None, :]
        flip = np.linalg.det(qs) < 0
        qs[flip, :, 0] *= -1.0
        trial = ((np.einsum("rij,nj->rni", qs, target) - x) ** 2).sum(axis=(1, 2)).min()
        assert ours <= trial + 1e-12
    elapsed = time.perf_counter() - t0
    assert worst_recovery <= 1e-9
    assert elapsed < 30.0
    print(
        f"[criterion 02] PASS rotation optimality: max recovery dev "
        f"{worst_recovery:.2e}, never beaten by 10k random rotations, {elapsed:.1f}s"
    )


def test_c03_omt_oracle_agreement():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    agree = 0
    worst_under = 0.0
    single_pass_gaps = []
    for i in range(300):
        n = int(rng.integers(2, 7))
        z1 = sample_noise(n, 2, rng)
        z0 = sample_noise(n, 2, rng)
        oracle, _, _ = brute_force_omt(z1, z0, 0.5)
        sol = solve_omt(z1, z0, 0.5, max_iters=30, restarts=32)
        agree += abs(sol.cost - oracle) <= 1e-8
        worst_under = max(worst_under, oracle - sol.cost)
        single = solve_omt(z1, z0, 0.5, max_iters=1, restarts=1)
        single_pass_gaps.append(single.cost - oracle)
    elapsed = time.perf_counter() - t0
    assert agree >= 285  # >= 95% of 300
    assert worst_under <= 1e-9
    assert elapsed < 60.0
    print(
        f"[criterion 03] PASS OMT oracle agreement: {agree}/300 within 1e-8, "
        f"max undershoot {worst_under:.1e}; single-pass gap mean "
        f"{np.mean(single_pass_gaps):.3f} / median {np.median(single_pass_gaps):.3f} "
        f"(reported, not asserted), {elapsed:.1f}s"
    )


def test_c04_transform_invariance():
    rng = np.random.default_rng(104)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(2, 7))
        z1 = sample_noise(n, 2, rng)
        z0 = sample_noise(n, 2, rng)
        base, _, _ = brute_force_omt(z1, z0, 0.5)
        rot = rotation_from_rng(rng)
        perm = rng.permutation(n)
        shift = rng.standard_normal(3)
        if i % 2 == 0:  # transform the target argument
            moved = (z1.coords @ rot.r.T + shift)[perm]
            moved -= moved.mean(axis=0)
            cost, _, _ = brute_force_omt(
                LatentGeometry(n, moved, z1.features[perm]), z0, 0.5
            )
        else:  # transform the reference argument
            moved = (z0.coords @ rot.r.T + shift)[perm]
            moved -= moved.mean(axis=0)
            cost, _, _ = brute_force_omt(
                z1, LatentGeometry(n, moved, z0.features[perm]), 0.5
            )
        worst = max(worst, abs(cost - base))
    assert worst <= 1e-8
    print(f"[criterion 04] PASS transform invariance: max deviation {worst:.2e}")


def test_c05_equivariance_suite():
    rng = np.random.default_rng(105)
    rot_dev = feat_dev = layer_com = 0.0
    for draw in range(50):
        model = VectorFieldModel(
            d=3, k=3, hidden=16, flow_layers=2, identity_latent=True, seed=500 + draw
        )
        n = int(rng.integers(3, 9))
        z = sample_noise(n, 3, rng)
        t = float(rng.uniform())
        v = forward(model, z, t)
        rot = rotation_from_rng(rng)
        vr = forward(model, LatentGeometry(n, z.coords @ rot.r.T, z.features), t)
        rot_dev = max(rot_dev, float(np.abs(vr.coords - v.coords @ rot.r.T).max()))
        feat_dev = max(feat_dev, float(np.abs(vr.features - v.features).max()))
        perm = rng.permutation(n)
        vp = forward(model, LatentGeometry(n, z.coords[perm], z.features[perm]), t)
        assert np.array_equal(vp.coords, v.coords[perm])
        assert np.array_equal(vp.features, v.features[perm])
        # zero-CoM after every layer of the velocity stack
        embed, *stack, _ = model.blocks["flow"]
        h = embed.forward(np.concatenate([z.features, np.full((n, 1), t)], axis=1))
        x = np.asarray(z.coords)
        for layer in stack:
            x, h = layer.forward(x, h)
            layer_com = max(layer_com, float(np.abs(x.mean(axis=0)).max()))
    assert rot_dev <= 1e-7
    assert feat_dev <= 1e-7
    assert layer_com <= 1e-9
    print(
        f"[criterion 05] PASS equivariance suite: rotation dev {rot_dev:.1e}, "
        f"feature dev {feat_dev:.1e}, per-layer CoM {layer_com:.1e}, permutation exact"
    )


def test_c06_gradient_correctness():
    worst = 0.0
    count = None
    for seed in range(10):
        rep = grad_check(
            lambda: VectorFieldModel(
                d=3, k=3, hidden=8, flow_layers=2, identity_latent=True, seed=42
            ),
            tolerance=1e-4,
            seed=seed,
        )
        assert rep.param_count <= 5000
        assert rep.passed, f"seed {seed}: max rel err {rep.max_rel_err}"
        worst = max(worst, rep.max_rel_err)
        count = rep.param_count
    print(
        f"[criterion 06] PASS gradient correctness: {count} params, "
        f"10 seeds, max rel err {worst:.2e}"
    )


def test_c07_theorem_monotonicity(trained, dataset, estimated_1000):
    t0 = time.perf_counter()
    rand = random_couplings(trained, dataset, 1000, seed=6)
    est_costs = np.array(
        [optimal_molecule_cost(p.z0, p.z1, max_iters=10, restarts=2) for p in estimated_1000]
    )
    rand_costs = np.array(
        [optimal_molecule_cost(p.z0, p.z1, max_iters=10, restarts=2) for p in rand]
    )
    se_diff = float(
        np.sqrt(est_costs.var() / len(est_costs) + rand_costs.var() / len(rand_costs))
    )
    elapsed = time.perf_counter() - t0
    assert est_costs.mean() <= rand_costs.mean() + 2 * se_diff
    assert elapsed < 1800.0
    print(
        f"[criterion 07] PASS theorem monotonicity: estimated {est_costs.mean():.3f} "
        f"<= random {rand_costs.mean():.3f} + 2se {2 * se_diff:.3f} "
        f"({len(est_costs)}+{len(rand_costs)} pairs, {elapsed:.0f}s)"
    )


def test_c08_reflow_speeds_sampling(trained, reflowed):
    model2, _ = reflowed
    sampler = SizeSampler.from_histogram(trained.meta["size_hist"])
    before = [s for _, s in generate(trained, sampler, 200, MEASURE_SOLVER, seed=777)]
    after = [s for _, s in generate(model2, sampler, 200, MEASURE_SOLVER, seed=777)]
    med_before, med_after = float(np.median(before)), float(np.median(after))
    assert med_after <= med_before
    print(
        f"[criterion 08] PASS reflow speeds sampling: median steps "
        f"{med_before} -> {med_after} (ratio {med_after / med_before:.3f}, 200 samples)"
    )


def test_c09_purification_contract(reflowed, estimated_1000, rule):
    from geomflow.nn import decode

    model2, kept = reflowed
    revalid = [data.is_valid(decode(model2, p.z1), rule)[0] for p in kept]
    assert all(p.valid for p in kept)
    assert all(revalid), "purified couplings must decode to valid geometries"
    off_rate = sum(p.valid for p in estimated_1000) / len(estimated_1000)
    assert off_rate < 1.0
    print(
        f"[criterion 09] PASS purification contract: purify=on retained "
        f"{len(kept)} pairs all valid on re-decode; purify=off validity rate "
        f"{off_rate:.3f} (< 1, filter is load-bearing)"
    )


def test_c10_lambda_ablation(trained, dataset):
    from geomflow.flow import CouplingSet

    table = []
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        pairs = random_couplings(trained, dataset, 200, seed=10)
        aligned = CouplingSet(
            [align_pair(p, lam, max_iters=10, restarts=2)[0] for p in pairs]
        )
        report = distribution_cost(aligned, lam=lam, max_iters=1, restarts=1)
        table.append((lam, report.total_cost, report.per_atom_cost))
    assert len(table) == 5

    # lambda = 1 ignores features: perturbation leaves matrix and solution alone
    rng = np.random.default_rng(110)
    z1, z0 = sample_noise(6, 4, rng), sample_noise(6, 4, rng)
    m1 = cost_matrix(z1, z0, 1.0).m
    z1f = LatentGeometry(6, z1.coords, z1.features + rng.standard_normal((6, 4)))
    assert np.array_equal(cost_matrix(z1f, z0, 1.0).m, m1)
    s_base = solve_omt(z1, z0, 1.0, max_iters=5)
    s_pert = solve_omt(z1f, z0, 1.0, max_iters=5)
    assert s_pert.cost == s_base.cost

    # lambda = 0 ignores coordinates in the matrix
    m0 = cost_matrix(z1, z0, 0.0).m
    moved = z1.coords + rng.standard_normal((6, 3))
    z1c = LatentGeometry(6, moved - moved.mean(axis=0), z1.features)
    assert np.array_equal(cost_matrix(z1c, z0, 0.0).m, m0)

    lines = "\n".join(
        f"  lambda={lam:<4} total={tc:.4f} per_atom={pc:.4f}" for lam, tc, pc in table
    )
    print(f"[criterion 10] PASS lambda ablation table produced:\n{lines}")


def test_c11_ode_solver_correctness(trained):
    rng = np.random.default_rng(111)
    # constant field: exact for euler up to summation roundoff
    c = rng.standard_normal(9)
    y0 = rng.standard_normal(9)
    y1, _ = integrate(lambda t, y: c, y0, SolverConfig("euler", fixed_steps=13))
    assert np.abs(y1 - (y0 + c)).max() <= 1e-14
    # linear field: rk4 against the closed form
    a = 0.8
    y1, _ = integrate(lambda t, y: a * y, y0, SolverConfig("rk4", fixed_steps=300))
    assert np.abs(y1 - y0 * np.exp(a)).max() <= 1e-10

    sampler = SizeSampler.from_histogram(trained.meta["size_hist"])
    adaptive = SolverConfig("adaptive", rtol=1e-4, atol=1e-5, init_step=0.05)
    reference = SolverConfig("rk4", fixed_steps=1000)
    worst_ratio = 0.0
    t0 = time.perf_counter()
    draws = []
    for seed in range(50):
        srng = np.random.default_rng(seed)
        draws.append(sample_noise(sampler.sample(srng), trained.k, srng))
    # The draws of one size are solved as one stacked state, by both solvers:
    # each draw reaches its solo endpoint bit for bit.
    def flat(z):
        return np.concatenate([z.coords.ravel(), z.features.ravel()])

    refs = _solve_draws(trained, draws, reference)
    adps = _solve_draws(trained, draws, adaptive)
    for seed, ((zr, _), (za, _)) in enumerate(zip(refs, adps)):
        ref_vec, adp_vec = flat(zr), flat(za)
        err = float(np.linalg.norm(adp_vec - ref_vec))
        bound = 10.0 * max(adaptive.rtol * float(np.linalg.norm(ref_vec)), adaptive.atol)
        assert err <= bound, f"seed {seed}: {err} > {bound}"
        worst_ratio = max(worst_ratio, err / bound)
    elapsed = time.perf_counter() - t0
    print(
        f"[criterion 11] PASS ODE solver correctness: synthetic fields exact; "
        f"adaptive vs 1000-step RK4 within bound on 50 seeds "
        f"(worst err/bound {worst_ratio:.2f}, {elapsed:.0f}s)"
    )


def test_c12_memorization_smoke():
    rng = np.random.default_rng(5)
    z0 = sample_noise(4, 3, rng)
    z1 = sample_noise(4, 3, rng)
    pair, _ = align_pair(CouplingPair(z0, z1), lam=0.5, max_iters=10, restarts=4)
    model = VectorFieldModel(
        d=3, k=3, hidden=32, flow_layers=3, identity_latent=True, seed=6
    )
    params = model.parameters("flow")
    state = AdamState.init(params)
    trng = np.random.default_rng(1)
    steps, tbatch = 8000, 8
    loss = np.inf
    for step in range(steps):
        frac = step / steps
        lr = 3e-3 if frac < 0.35 else (5e-4 if frac < 0.6 else (1e-4 if frac < 0.85 else 1e-5))
        model.zero_grads()
        total = 0.0
        for _ in range(tbatch):
            l, _ = fm_loss(model, pair, float(trng.uniform()))
            total += l
        grads = model.gradients("flow")
        for g in grads:
            g *= 1.0 / tbatch
        adam_step(params, grads, state, lr=lr)
        loss = total / tbatch
    assert loss < 1e-3
    v = forward(model, pair.z0, 0.0)  # one Euler step across [0, 1]
    end_coords = pair.z0.coords + v.coords
    end_feats = pair.z0.features + v.features
    dev = max(
        float(np.abs(end_coords - pair.z1.coords).max()),
        float(np.abs(end_feats - pair.z1.features).max()),
    )
    assert dev <= 1e-2
    print(
        f"[criterion 12] PASS memorization smoke: loss {loss:.2e} < 1e-3, "
        f"one-step Euler endpoint dev {dev:.2e} <= 1e-2"
    )


def test_c13_determinism_and_persistence(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        '{"num_templates": 2, "atoms_per_template": [4, 5], "feature_classes": 3,'
        ' "jitter_sigma": 0.02, "seed": 11}'
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(
        '{"epochs": 2, "batch_size": 8, "lr": 0.002, "k": 3, "hidden": 12,'
        ' "flow_layers": 1, "identity_latent": true, "ae_epochs": 0,'
        ' "reflow_pairs": 30, "reflow_epochs": 1, "estimate_steps": 10, "seed": 4}'
    )

    def run_pipeline(root):
        root.mkdir()
        ds = root / "ds.geoms.jsonl"
        ckpt = root / "m.gflow.ckpt"
        ckpt2 = root / "m2.gflow.ckpt"
        pairs = root / "c.pairs.bin"
        out = root / "gen.geoms.jsonl"
        metrics = root / "metrics.csv"
        for argv in (
            ["gendata", "--spec", spec_path, "--count", "200", "--out", ds],
            ["train", "--data", ds, "--config", config_path, "--out", ckpt],
            ["reflow", "--ckpt", ckpt, "--rounds", "1", "--purify", "off",
             "--out", ckpt2, "--pairs-out", pairs, "--config", config_path,
             "--metrics", metrics],
            ["sample", "--ckpt", ckpt2, "--count", "20", "--solver", "rk4",
             "--steps", "15", "--out", out, "--metrics", metrics, "--seed", "9"],
        ):
            assert cli.main([str(a) for a in argv]) == 0
        assert cli.main(["eval", "--pairs", str(pairs), "--lambda", "0.5"]) == 0
        return ds, ckpt, ckpt2, pairs, out, metrics

    arts_a = run_pipeline(tmp_path / "a")
    arts_b = run_pipeline(tmp_path / "b")
    names = ("dataset", "checkpoint", "reflowed checkpoint", "pairs", "samples")
    for name, pa, pb in zip(names, arts_a[:5], arts_b[:5]):
        assert pa.read_bytes() == pb.read_bytes(), f"{name} differs between runs"

    rows_a = data.read_metrics(arts_a[5])
    rows_b = data.read_metrics(arts_b[5])
    for ra, rb in zip(rows_a, rows_b):
        ra.pop("wall_seconds")  # wall time is the one legitimately varying field
        rb.pop("wall_seconds")
        assert ra == rb

    # save/load round-trips are exact for every persisted artifact
    ds_path, ckpt_path, _, pairs_path, out_path, _ = arts_a
    resaved = tmp_path / "resave"
    resaved.mkdir()
    data.save_geometries(resaved / "ds", data.load_geometries(ds_path))
    assert (resaved / "ds").read_bytes() == ds_path.read_bytes()
    data.save_checkpoint(resaved / "ckpt", data.load_checkpoint(ckpt_path))
    assert (resaved / "ckpt").read_bytes() == ckpt_path.read_bytes()
    data.save_pairs(resaved / "pairs", data.load_pairs(pairs_path))
    assert (resaved / "pairs").read_bytes() == pairs_path.read_bytes()
    print(
        "[criterion 13] PASS determinism & persistence: full pipeline "
        "bit-reproducible; every save/load round-trips exactly"
    )
