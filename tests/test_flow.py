from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from geomflow import _checks
from geomflow import flow as flow_module
from geomflow.data import TemplateSpec, make_dataset
from geomflow.flow import (
    CouplingPair,
    CouplingSet,
    SizeSampler,
    TrainConfig,
    align_pair,
    estimate_couplings,
    fm_loss,
    generate,
    interpolate,
    random_couplings,
    reflow,
    sample_noise,
    sample_ode,
    train,
)
from geomflow.geometry import LatentGeometry, _runs
from geomflow.nn import ARCH_DEFAULTS, AdamState, VectorFieldModel, adam_step, decode
from geomflow.ode import SolverConfig, integrate


def tiny_dataset(count=60, seed=1):
    spec = TemplateSpec(
        num_templates=2, atoms_per_template=(4, 5), feature_classes=3,
        jitter_sigma=0.02, seed=seed,
    )
    return make_dataset(spec, count)


def tiny_config(**over):
    base = dict(
        epochs=2, batch_size=8, lr=2e-3, sigma0=0.01, seed=0,
        k=3, hidden=12, flow_layers=2, identity_latent=True,
        estimate_solver=SolverConfig("rk4", fixed_steps=20),
        reflow_pairs=30, reflow_epochs=1,
    )
    base.update(over)
    return TrainConfig(**base)


class TestSampleNoise:
    def test_coords_centered(self):
        r = _checks.noise_zero_com(20)
        assert r.ok, r.checks

    def test_deterministic(self):
        a, b = sample_noise(5, 3, 42), sample_noise(5, 3, 42)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.features, b.features)

    def test_feature_moments(self):
        feats = np.stack([sample_noise(5, 2, s).features for s in range(10_000)])
        means = feats.mean(axis=0)
        assert np.abs(means).max() <= 0.03  # 3 sigma of the standard error
        var = feats.var(axis=0)
        assert np.abs(var - 1.0).max() <= 0.05

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_noise(0, 2, 0)


class TestInterpolate:
    def test_endpoints_exact(self):
        r = _checks.interpolate_endpoints()
        assert r.ok, r.checks

    def test_midpoint_hand_case(self):
        z0 = LatentGeometry(2, np.zeros((2, 3)), np.zeros((2, 2)))
        z1 = LatentGeometry(2, 2 * np.ones((2, 3)), 2 * np.ones((2, 2)))
        mid = interpolate(z0, z1, 0.5)
        np.testing.assert_array_equal(mid.coords, np.ones((2, 3)))
        np.testing.assert_array_equal(mid.features, np.ones((2, 2)))

    def test_straight_path_derivative(self):
        z0, z1 = sample_noise(5, 2, 2), sample_noise(5, 2, 3)
        h = 1e-6
        for t in (0.2, 0.5, 0.8):
            fd = (interpolate(z0, z1, t + h).coords - interpolate(z0, z1, t - h).coords) / (2 * h)
            np.testing.assert_allclose(fd, z1.coords - z0.coords, atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            interpolate(sample_noise(4, 2, 0), sample_noise(5, 2, 1), 0.5)


class TestFmLoss:
    def test_zero_model_identical_pair_zero_loss(self):
        model = VectorFieldModel(d=2, k=2, hidden=8, flow_layers=1,
                                 identity_latent=True, seed=0)
        model.set_flat(np.zeros(model.param_count))
        z = sample_noise(4, 2, 0)
        loss, _ = fm_loss(model, CouplingPair(z, z, aligned=True), 0.3)
        assert loss == 0.0

    def test_zero_model_unit_difference_single_point(self):
        model = VectorFieldModel(d=1, k=1, hidden=8, flow_layers=1,
                                 identity_latent=True, seed=0)
        model.set_flat(np.zeros(model.param_count))
        z0 = LatentGeometry(1, np.zeros((1, 3)), np.zeros((1, 1)))
        z1 = LatentGeometry(1, np.ones((1, 3)), np.ones((1, 1)))
        pair = CouplingPair(z0, z1, aligned=True)
        loss, _ = fm_loss(model, pair, 0.0)
        assert loss == 1.0

    def test_unaligned_pair_rejected(self):
        model = VectorFieldModel(d=2, k=2, hidden=8, flow_layers=1,
                                 identity_latent=True, seed=0)
        pair = CouplingPair(sample_noise(3, 2, 0), sample_noise(3, 2, 1), aligned=False)
        with pytest.raises(ValueError, match="OMT-aligned"):
            fm_loss(model, pair, 0.5)

    def test_gradient_matches_finite_differences(self):
        model = VectorFieldModel(d=2, k=2, hidden=6, flow_layers=1,
                                 identity_latent=True, seed=1)
        pair = CouplingPair(sample_noise(4, 2, 2), sample_noise(4, 2, 3), aligned=True)
        t = 0.37
        model.zero_grads()
        _, grads = fm_loss(model, pair, t)
        analytic = np.concatenate([g.ravel() for g in grads])
        flat = model.get_flat()
        step = 1e-5
        rng = np.random.default_rng(4)
        idxs = rng.choice(flat.size, size=40, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            model.set_flat(flat)
            lp, _ = fm_loss(model, pair, t, backward=False)
            flat[i] = orig - step
            model.set_flat(flat)
            lm, _ = fm_loss(model, pair, t, backward=False)
            flat[i] = orig
            fd = (lp - lm) / (2 * step)
            denom = max(abs(fd), abs(analytic[i]), 1e-3)
            assert abs(fd - analytic[i]) / denom <= 1e-4
        model.set_flat(flat)


class TestMemorization:
    # The strict endpoint criterion runs in the acceptance suite; this is the
    # quick loss-floor smoke test.
    def test_single_pair_overfit(self):
        rng = np.random.default_rng(5)
        z0 = sample_noise(4, 3, rng)
        z1 = sample_noise(4, 3, rng)
        pair, _ = align_pair(CouplingPair(z0, z1), lam=0.5, max_iters=10, restarts=4)
        model = VectorFieldModel(d=3, k=3, hidden=16, flow_layers=2,
                                 identity_latent=True, seed=6)
        params = model.parameters("flow")
        state = AdamState.init(params)
        losses = []
        for step in range(2500):
            lr = 3e-3 if step < 1500 else 3e-4
            model.zero_grads()
            loss, _ = fm_loss(model, pair, float(rng.uniform()))
            adam_step(params, model.gradients("flow"), state, lr=lr)
            losses.append(loss)
            if loss < 1e-4:
                break
        assert min(losses) < 1e-3


class TestTrain:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            train([], tiny_config())

    def test_fixed_seed_bit_identical(self):
        ds = tiny_dataset(24)
        m1, l1 = train(ds, tiny_config(epochs=1))
        m2, l2 = train(ds, tiny_config(epochs=1))
        assert l1 == l2
        assert np.array_equal(m1.get_flat(), m2.get_flat())

    def test_loss_decreases_on_fixture(self):
        ds = tiny_dataset(80)
        _, losses = train(ds, tiny_config(epochs=6))
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_records_meta(self):
        ds = tiny_dataset(24)
        model, _ = train(ds, tiny_config(epochs=1))
        assert model.meta["train_size"] == 24
        assert set(model.meta["size_hist"]) == {"4", "5"}

    def test_without_omt_never_aligns_and_is_deterministic(self, monkeypatch):
        def no_alignment(*args, **kwargs):
            raise AssertionError("solve_omt called with use_omt=False")

        monkeypatch.setattr(flow_module, "solve_omt", no_alignment)
        ds = tiny_dataset(24)
        m1, l1 = train(ds, tiny_config(epochs=1, use_omt=False, seed=4))
        m2, l2 = train(ds, tiny_config(epochs=1, use_omt=False, seed=4))
        m3, _ = train(ds, tiny_config(epochs=1, use_omt=False, seed=5))
        assert l1 == l2
        assert np.array_equal(m1.get_flat(), m2.get_flat())
        assert not np.array_equal(m1.get_flat(), m3.get_flat())


class TestSampleOde:
    def test_zero_model_keeps_state(self):
        model = VectorFieldModel(d=2, k=2, hidden=8, flow_layers=1,
                                 identity_latent=True, seed=0)
        model.set_flat(np.zeros(model.param_count))
        z0 = sample_noise(5, 2, 7)
        z1, steps = sample_ode(model, z0, SolverConfig("euler", fixed_steps=4))
        np.testing.assert_array_equal(z1.coords, z0.coords)
        np.testing.assert_array_equal(z1.features, z0.features)
        assert steps == 4

    @pytest.mark.parametrize("method", ["euler", "rk4", "adaptive"])
    def test_returns_one_geometry_and_an_int_step_count(self, method):
        model = mixed_sizes_model()
        z0 = sample_noise(5, model.k, 3)
        z1, steps = sample_ode(model, z0, SolverConfig(method, fixed_steps=3))
        assert isinstance(z1, LatentGeometry) and (z1.n, z1.k) == (5, model.k)
        assert type(steps) is int and steps >= 1

    def test_rejects_a_draw_of_another_latent_width(self):
        model = mixed_sizes_model()
        with pytest.raises(ValueError, match="latent feature width mismatch"):
            sample_ode(model, sample_noise(4, model.k + 1, 0), SolverConfig("euler"))

    def test_terminal_state_zero_com(self):
        ds = tiny_dataset(24)
        model, _ = train(ds, tiny_config(epochs=1))
        for seed in range(5):
            z0 = sample_noise(6, 3, seed)
            z1, _ = sample_ode(model, z0, SolverConfig("adaptive"))
            assert np.abs(z1.coords.mean(axis=0)).max() <= 1e-8


class TestGenerate:
    def test_count_zero_empty(self):
        model = VectorFieldModel(d=2, k=2, hidden=8, flow_layers=1,
                                 identity_latent=True, seed=0)
        assert generate(model, SizeSampler.fixed(4), 0, SolverConfig("euler"), 0) == []

    def test_outputs_centered_and_deterministic(self):
        ds = tiny_dataset(24)
        model, _ = train(ds, tiny_config(epochs=1))
        sampler = SizeSampler.from_dataset(ds)
        solver = SolverConfig("rk4", fixed_steps=12)
        a = generate(model, sampler, 6, solver, seed=9)
        b = generate(model, sampler, 6, solver, seed=9)
        for (ga, sa), (gb, sb) in zip(a, b):
            assert sa == sb
            assert np.array_equal(ga.coords, gb.coords)
            assert np.abs(ga.coords.mean(axis=0)).max() <= 1e-8

    def test_threads_do_not_change_results(self):
        ds = tiny_dataset(24)
        model, _ = train(ds, tiny_config(epochs=1))
        sampler = SizeSampler.from_dataset(ds)
        solver = SolverConfig("rk4", fixed_steps=8)
        serial = generate(model, sampler, 8, solver, seed=3, threads=1)
        parallel = generate(model, sampler, 8, solver, seed=3, threads=4)
        for (ga, _), (gb, _) in zip(serial, parallel):
            assert np.array_equal(ga.coords, gb.coords)


def mixed_sizes_model():
    return VectorFieldModel(d=3, k=3, hidden=12, flow_layers=2,
                            identity_latent=True, seed=21)


MIXED_SIZES = SizeSampler.from_histogram({3: 3, 5: 2, 8: 1})


def per_draw_endpoints(model, count, solver, seed):
    """(noise, endpoint, steps) of each draw, integrated one by one."""
    out = []
    for ss in np.random.SeedSequence(seed).spawn(count):
        rng = np.random.default_rng(ss)
        z0 = sample_noise(MIXED_SIZES.sample(rng), model.k, rng)
        out.append((z0, *sample_ode(model, z0, solver)))
    return out


class TestStackedEndpoints:
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("cap", [None, 40])
    @pytest.mark.parametrize("method", ["rk4", "euler", "adaptive"])
    def test_bitwise_equal_to_per_draw_sample_ode(self, monkeypatch, method, cap, threads):
        if cap is not None:
            # splits the stacks of 3 and 5 points and leaves 8 points alone
            monkeypatch.setattr(flow_module, "_STACK_EDGES", cap)
        model = mixed_sizes_model()
        solver = SolverConfig(method, fixed_steps=5)
        want = per_draw_endpoints(model, 14, solver, seed=0)
        assert len({z0.n for z0, _, _ in want}) == 3
        got = generate(model, MIXED_SIZES, 14, solver, seed=0, threads=threads)
        est = estimate_couplings(model, 14, solver, 0, MIXED_SIZES, threads=threads)
        if method == "adaptive":
            assert len({steps for _, _, steps in want}) > 1
        for (z0, z1, steps), (g, g_steps), pair in zip(want, got, est, strict=True):
            assert g_steps == steps
            assert method == "adaptive" or steps == 5
            ref = decode(model, z1)
            assert np.array_equal(g.coords, ref.coords)
            assert np.array_equal(g.features, ref.features)
            for a, b in ((pair.z0, z0), (pair.z1, z1)):
                assert np.array_equal(a.coords, b.coords)
                assert np.array_equal(a.features, b.features)

    def test_stacks_group_fixed_step_draws_by_size_under_the_cap(self):
        sizes = [3, 5, 3, 8, 5, 3, 5, 8, 3, 5]
        stacks = []

        def solve(idx):
            stacks.append(idx)
            return [-i for i in idx]

        # the grouping `_solve_draws` asks of `_runs`, at a cap of 40 edges
        out = _runs(list(range(10)), sizes, 40, lambda n: max(1, n * (n - 1)), solve)
        assert out == [-i for i in range(10)]
        for idx in stacks:
            n = sizes[idx[0]]
            assert all(sizes[i] == n for i in idx) and idx == sorted(idx)
            assert len(idx) == 1 or len(idx) * n * (n - 1) <= 40
        assert [len(idx) for idx in stacks] == [4, 2, 2, 1, 1]

    def test_adaptive_draws_are_stacked_by_size(self, monkeypatch):
        # one adaptive solve per point count, each a (draws, packed draw) state
        shapes = []

        def recorded(f, y0, config):
            shapes.append(np.shape(y0))
            return integrate(f, y0, config)

        monkeypatch.setattr(flow_module, "integrate", recorded)
        model = mixed_sizes_model()
        got = generate(model, MIXED_SIZES, 14, SolverConfig("adaptive"), seed=0)
        counts = Counter(g.n for g, _ in got)  # in order of first appearance
        assert shapes == [(counts[n], n * (3 + model.k)) for n in counts]

    def test_adaptive_generate_matches_per_draw(self):
        model = mixed_sizes_model()
        solver = SolverConfig("adaptive")
        want = per_draw_endpoints(model, 5, solver, seed=4)
        got = generate(model, MIXED_SIZES, 5, solver, seed=4, threads=2)
        for (_, z1, steps), (g, g_steps) in zip(want, got, strict=True):
            assert g_steps == steps
            assert np.array_equal(g.coords, decode(model, z1).coords)

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    def test_diverging_field_fails_as_per_draw(self, method):
        model = mixed_sizes_model()
        model.set_flat(model.get_flat() * 10.0)
        solver = SolverConfig(method, fixed_steps=10)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="must be finite"):
                per_draw_endpoints(model, 6, solver, seed=1)
            with pytest.raises(ValueError, match="must be finite"):
                generate(model, MIXED_SIZES, 6, solver, seed=1)


class TestSizeSampler:
    def test_matches_histogram_frequencies(self):
        sampler = SizeSampler.from_histogram({4: 3, 6: 1})
        rng = np.random.default_rng(0)
        draws = np.array([sampler.sample(rng) for _ in range(4000)])
        assert abs((draws == 4).mean() - 0.75) < 0.03

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SizeSampler.from_histogram({})

    @pytest.mark.parametrize(
        "hist",
        [[5], {"5": -1}, {"5": 0}, {"5": 1.5}, {"5": True}, {"5": "2"}, {"x": 1},
         {"0": 1}, {"5": 1, "05": 2}, {"5_0": 1}, {"+6": 2}, {5.9: 1}, {True: 1},
         {5: 1, "5": 2}],
        ids=["list", "negative-count", "zero-count", "float-count", "bool-count",
             "string-count", "non-numeric-size", "zero-size", "repeated-size",
             "underscored-size", "signed-size", "float-size", "bool-size",
             "size-as-int-and-string"],
    )
    def test_rejects_malformed_histograms(self, hist):
        with pytest.raises(ValueError):
            SizeSampler.from_histogram(hist)

    def test_from_meta_reads_the_stored_histogram(self):
        assert SizeSampler.from_meta({"size_hist": {"6": 1, "4": 3}}) == SizeSampler(
            (4, 6), (0.75, 0.25))
        with pytest.raises(ValueError, match="no size histogram"):
            SizeSampler.from_meta({})


class TestArchitectureRecord:
    def test_train_config_defaults_are_the_model_defaults(self):
        conf = TrainConfig()
        assert {name: getattr(conf, name) for name in ARCH_DEFAULTS} == ARCH_DEFAULTS

    def test_arch_dict_key_order_is_the_checkpoint_order(self):
        arch = VectorFieldModel(d=3, hidden=4, flow_layers=1, seed=0).arch_dict()
        assert list(arch) == ["d", "k", "hidden", "flow_layers", "decoder_layers",
                              "identity_latent", "coord_scale", "meta"]

    def test_train_builds_the_configured_architecture(self):
        conf = tiny_config(epochs=1, hidden=6, flow_layers=2, coord_scale=0.5)
        model, _ = train(tiny_dataset(8), conf)
        arch = model.arch_dict()
        assert {name: arch[name] for name in ARCH_DEFAULTS} == {
            name: getattr(conf, name) for name in ARCH_DEFAULTS}

    @pytest.mark.parametrize(
        "over",
        [{"k": 0}, {"hidden": 0}, {"flow_layers": 0}, {"decoder_layers": -1},
         {"omt_iters": 0}, {"omt_restarts": 0}, {"reflow_epochs": -3}],
    )
    def test_train_config_rejects_out_of_range_counts(self, over):
        with pytest.raises(ValueError, match=">= "):
            TrainConfig(**over)


class TestReflow:
    def test_all_rejected_raises(self):
        ds = tiny_dataset(24)
        model, _ = train(ds, tiny_config(epochs=1))
        with pytest.raises(ValueError, match="purification rejected all samples"):
            reflow(model, tiny_config(), lambda g: False)

    def test_accept_all_returns_aligned_estimated_pairs(self):
        ds = tiny_dataset(24)
        model, _ = train(ds, tiny_config(epochs=1))
        model2, cset = reflow(model, tiny_config(), lambda g: True)
        assert len(cset) == 30
        assert all(p.aligned and p.source == "estimated" and p.valid for p in cset)

    def test_purify_keeps_only_valid(self):
        ds = tiny_dataset(24)
        model, _ = train(ds, tiny_config(epochs=1))

        def alternating(g):
            alternating.calls += 1
            return alternating.calls % 2 == 0

        alternating.calls = 0
        _, cset = reflow(model, tiny_config(), alternating)
        assert len(cset) == 15
        assert all(p.valid for p in cset)

    def test_realigns_each_kept_pair_as_align_pair_does(self, monkeypatch):
        ds = tiny_dataset(24)
        model, _ = train(ds, tiny_config(epochs=1))
        conf = tiny_config(omt_iters=6, omt_restarts=3)
        # independent pairs of mixed sizes as the estimate, so that the
        # alignment's passes and starts matter; purify keeps every other one
        est = CouplingSet([CouplingPair(sample_noise(n, 3, 2 * i), sample_noise(n, 3, 2 * i + 1),
                                        source="estimated")
                           for i, n in enumerate([1, 2, 5, 8, 13, 8, 5, 13, 2, 8, 5, 13] * 2)])
        monkeypatch.setattr(flow_module, "estimate_couplings", lambda *args: est)
        flags = iter([False, True] * len(est))
        _, cset = reflow(model, conf, lambda g: next(flags))
        kept = [replace(p, valid=True) for p in est.pairs[1::2]]
        passes = []
        for got, p in zip(cset, kept, strict=True):
            want, sol = align_pair(p, conf.lam, conf.omt_iters, conf.omt_restarts)
            passes.append(sol.iterations)
            assert (got.aligned, got.source, got.valid) == (True, "estimated", True)
            for a, b in ((got.z0, want.z0), (got.z1, want.z1)):
                assert a.coords.tobytes() == b.coords.tobytes()
                assert a.features.tobytes() == b.features.tobytes()
        assert max(passes) > 2

    def test_fresh_reflow_keeps_arch_and_is_deterministic(self):
        ds = tiny_dataset(24)
        model, _ = train(ds, tiny_config(epochs=1))
        conf = tiny_config(fresh_reflow=True, seed=7)
        a, _ = reflow(model, conf, lambda g: True)
        b, _ = reflow(model, conf, lambda g: True)
        c, _ = reflow(model, replace(conf, seed=8), lambda g: True)
        assert a is not model
        assert a.arch_dict() == model.arch_dict()
        assert not np.array_equal(a.get_flat(), model.get_flat())
        assert np.array_equal(a.get_flat(), b.get_flat())
        assert not np.array_equal(a.get_flat(), c.get_flat())

    def test_requires_trained_model(self):
        model = VectorFieldModel(d=3, k=3, hidden=8, flow_layers=1,
                                 identity_latent=True, seed=0)
        with pytest.raises(ValueError, match="size histogram"):
            reflow(model, tiny_config(), lambda g: True)


class TestCouplingHelpers:
    def test_random_couplings_sizes_match(self):
        ds = tiny_dataset(24)
        model, _ = train(ds, tiny_config(epochs=1))
        cset = random_couplings(model, ds, 10, seed=4)
        assert len(cset) == 10
        assert all(p.z0.n == p.z1.n and p.source == "random" for p in cset)

    def test_estimate_couplings_deterministic(self):
        ds = tiny_dataset(24)
        model, _ = train(ds, tiny_config(epochs=1))
        sampler = SizeSampler.from_dataset(ds)
        solver = SolverConfig("rk4", fixed_steps=8)
        a = estimate_couplings(model, 5, solver, 11, sampler)
        b = estimate_couplings(model, 5, solver, 11, sampler)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.z1.coords, pb.z1.coords)

    def test_coupling_pair_validation(self):
        with pytest.raises(ValueError, match="size mismatch"):
            CouplingPair(sample_noise(3, 2, 0), sample_noise(4, 2, 1))
        with pytest.raises(ValueError, match="unknown coupling source"):
            CouplingPair(sample_noise(3, 2, 0), sample_noise(3, 2, 1), source="guessed")

    def test_coupling_set_mixed_width_rejected(self):
        p1 = CouplingPair(sample_noise(3, 2, 0), sample_noise(3, 2, 1))
        p2 = CouplingPair(sample_noise(3, 3, 2), sample_noise(3, 3, 3))
        with pytest.raises(ValueError, match="mixes latent widths"):
            CouplingSet([p1, p2])
