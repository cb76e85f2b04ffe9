import numpy as np
import pytest

from geomflow.flow import sample_noise
from geomflow.geometry import LatentGeometry, random_rotation
from geomflow.nn import (
    AdamState,
    DenseNet,
    EquivariantLayer,
    VectorFieldModel,
    adam_step,
    backward,
    decode,
    encode,
    forward,
    grad_check,
    sigmoid,
    silu,
    silu_grad,
)


def small_model(seed=0, d=3, k=3, hidden=10, layers=2):
    return VectorFieldModel(
        d=d, k=k, hidden=hidden, flow_layers=layers, identity_latent=True, seed=seed
    )


def random_latent(seed, n=5, k=3):
    return sample_noise(n, k, np.random.default_rng(seed))


class TestDenseNet:
    def test_silu_matches_formula(self):
        z = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(silu(z), z / (1.0 + np.exp(-z)), atol=1e-12)
        h = 1e-6
        fd = (silu(z + h) - silu(z - h)) / (2 * h)
        np.testing.assert_allclose(silu_grad(z), fd, atol=1e-6)

    def test_closed_form_gradient_single_layer(self):
        rng = np.random.default_rng(0)
        net = DenseNet([4, 3], np.random.default_rng(1))
        x = rng.standard_normal((7, 4))
        y = rng.standard_normal((7, 3))
        pred = net.forward(x)
        net.zero_grads()
        dx = net.backward(2.0 * (pred - y))
        w = net.weights[0]
        expected_dw = 2.0 * (x @ w.T + net.biases[0] - y).T @ x
        np.testing.assert_allclose(net.grad_w[0], expected_dw, atol=1e-9)
        np.testing.assert_allclose(dx, 2.0 * (pred - y) @ w, atol=1e-12)

    def test_zero_adjoint_gives_zero_gradients(self):
        net = DenseNet([3, 5, 2], np.random.default_rng(2))
        net.forward(np.random.default_rng(3).standard_normal((4, 3)))
        net.zero_grads()
        net.backward(np.zeros((4, 2)))
        assert all(np.all(g == 0) for g in net.grads())

    def test_backward_without_forward_raises(self):
        net = DenseNet([3, 2], np.random.default_rng(4))
        with pytest.raises(RuntimeError, match="cached forward"):
            net.backward(np.zeros((1, 2)))

    def test_gradients_accumulate_until_cleared(self):
        net = DenseNet([2, 2], np.random.default_rng(5))
        x = np.ones((1, 2))
        net.forward(x)
        net.backward(np.ones((1, 2)))
        once = net.grad_w[0].copy()
        net.forward(x)
        net.backward(np.ones((1, 2)))
        np.testing.assert_allclose(net.grad_w[0], 2 * once, atol=1e-15)


class TestEquivariantLayer:
    def layer_and_input(self, seed, n=6, width=8):
        rng = np.random.default_rng(seed)
        layer = EquivariantLayer(width, np.random.default_rng(seed + 1))
        x = rng.standard_normal((n, 3))
        x -= x.mean(axis=0)
        h = rng.standard_normal((n, width))
        return layer, x, h

    def test_preserves_zero_com(self):
        for seed in range(5):
            layer, x, h = self.layer_and_input(seed)
            x_out, _ = layer.forward(x, h, cache=False)
            assert np.abs(x_out.mean(axis=0)).max() <= 1e-9

    def test_rotation_equivariance_and_feature_invariance(self):
        layer, x, h = self.layer_and_input(7)
        rot = random_rotation(8)
        x_out, h_out = layer.forward(x, h, cache=False)
        xr_out, hr_out = layer.forward(x @ rot.r.T, h, cache=False)
        np.testing.assert_allclose(xr_out, x_out @ rot.r.T, atol=1e-7)
        np.testing.assert_allclose(hr_out, h_out, atol=1e-7)

    def test_permutation_exactness(self):
        layer, x, h = self.layer_and_input(9)
        perm = np.random.default_rng(10).permutation(len(x))
        x_out, h_out = layer.forward(x, h, cache=False)
        xp_out, hp_out = layer.forward(x[perm], h[perm], cache=False)
        assert np.array_equal(xp_out, x_out[perm])
        assert np.array_equal(hp_out, h_out[perm])

    def test_single_point(self):
        layer = EquivariantLayer(4, np.random.default_rng(11))
        x = np.zeros((1, 3))
        h = np.ones((1, 4))
        x_out, h_out = layer.forward(x, h, cache=False)
        np.testing.assert_array_equal(x_out, x)
        assert h_out.shape == (1, 4)


class TestVelocityField:
    def test_zero_parameters_give_zero_velocity(self):
        model = small_model()
        model.set_flat(np.zeros(model.param_count))
        v = forward(model, random_latent(0), 0.4)
        assert np.all(v.coords == 0.0)
        assert np.all(v.features == 0.0)

    def test_rotation_equivariance(self):
        model = small_model(1)
        z = random_latent(2)
        rot = random_rotation(3)
        v = forward(model, z, 0.7)
        vr = forward(model, LatentGeometry(z.n, z.coords @ rot.r.T, z.features), 0.7)
        np.testing.assert_allclose(vr.coords, v.coords @ rot.r.T, atol=1e-7)
        np.testing.assert_allclose(vr.features, v.features, atol=1e-7)

    def test_permutation_exactness(self):
        model = small_model(4)
        z = random_latent(5, n=7)
        perm = np.random.default_rng(6).permutation(7)
        v = forward(model, z, 0.2)
        vp = forward(model, LatentGeometry(7, z.coords[perm], z.features[perm]), 0.2)
        assert np.array_equal(vp.coords, v.coords[perm])
        assert np.array_equal(vp.features, v.features[perm])

    def test_velocity_coords_zero_com(self):
        model = small_model(7)
        for seed in range(10):
            v = forward(model, random_latent(seed), 0.5)
            assert np.abs(v.coords.mean(axis=0)).max() <= 1e-9

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError, match="t must lie"):
            forward(small_model(), random_latent(0), 1.5)

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError, match="width mismatch"):
            forward(small_model(), random_latent(0, k=2), 0.5)

    def test_deterministic_given_seed_and_input(self):
        a = forward(small_model(11), random_latent(12), 0.3)
        b = forward(small_model(11), random_latent(12), 0.3)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.features, b.features)


class TestBackward:
    def test_zero_adjoint_zero_gradients(self):
        model = small_model(13)
        z = random_latent(14)
        forward(model, z, 0.5, cache=True)
        model.zero_grads()
        grads = backward(model, (np.zeros((z.n, 3)), np.zeros((z.n, model.k))))
        assert all(np.all(g == 0) for g in grads)

    def test_missing_cache_raises(self):
        model = small_model(15)
        z = random_latent(16)
        forward(model, z, 0.5, cache=False)
        with pytest.raises(RuntimeError, match="cached forward"):
            backward(model, (np.zeros((z.n, 3)), np.zeros((z.n, model.k))))

    def test_full_model_matches_finite_differences(self):
        rep = grad_check(lambda: small_model(17, hidden=8), tolerance=1e-4, seed=0)
        assert rep.passed, f"max rel err {rep.max_rel_err}"

    def test_input_gradient_matches_finite_differences(self):
        model = small_model(18, hidden=6)
        z = random_latent(19, n=4)
        target = random_latent(20, n=4)
        numel = z.n * (3 + z.k)

        def loss(zx, zh):
            v = forward(model, LatentGeometry(z.n, zx, zh), 0.6)
            return (
                np.sum((v.coords - target.coords) ** 2)
                + np.sum((v.features - target.features) ** 2)
            ) / numel

        v = forward(model, z, 0.6, cache=True)
        model.zero_grads()
        dzx, dzh = model.backward_velocity(
            2.0 * (v.coords - target.coords) / numel,
            2.0 * (v.features - target.features) / numel,
        )
        h = 1e-6
        zx = np.array(z.coords)
        for idx in [(0, 0), (2, 1), (3, 2)]:
            bump = np.zeros_like(zx)
            bump[idx] = h
            fd = (loss(zx + bump, z.features) - loss(zx - bump, z.features)) / (2 * h)
            assert abs(fd - dzx[idx]) <= 1e-6


class TestEncodeDecode:
    def test_sigma_zero_equals_means(self):
        model = small_model(21)
        g = decode(model, random_latent(22))
        z = encode(model, g, sigma0=0.0)
        zc = g.coords - g.coords.mean(axis=0)
        np.testing.assert_array_equal(z.coords, zc)
        np.testing.assert_array_equal(z.features, g.features)

    def test_same_seed_identical(self):
        model = small_model(23)
        g = decode(model, random_latent(24))
        a = encode(model, g, sigma0=0.05, seed=9)
        b = encode(model, g, sigma0=0.05, seed=9)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.features, b.features)

    def test_encoded_com_is_zero(self):
        model = VectorFieldModel(d=3, k=2, hidden=8, flow_layers=1, seed=25)
        rng = np.random.default_rng(26)
        for i in range(100):
            n = int(rng.integers(2, 8))
            from geomflow.geometry import Geometry

            g = Geometry(n, rng.standard_normal((n, 3)) + 3.0, rng.standard_normal((n, 3)))
            z = encode(model, g, sigma0=0.01, seed=i)
            assert np.abs(z.coords.mean(axis=0)).max() <= 1e-9

    def test_identity_latent_roundtrip_exact(self):
        model = small_model(27)
        rng = np.random.default_rng(28)
        coords = rng.standard_normal((5, 3))
        coords -= coords.mean(axis=0)
        from geomflow.geometry import Geometry

        g = Geometry(5, coords, rng.standard_normal((5, 3)))
        out = decode(model, encode(model, g, sigma0=0.0))
        np.testing.assert_allclose(out.coords, g.coords, atol=1e-15)
        np.testing.assert_array_equal(out.features, g.features)

    def test_decoder_equivariance(self):
        model = VectorFieldModel(d=4, k=2, hidden=8, flow_layers=1, seed=29)
        z = random_latent(30, k=2)
        rot = random_rotation(31)
        g = decode(model, z)
        gr = decode(model, LatentGeometry(z.n, z.coords @ rot.r.T, z.features))
        np.testing.assert_allclose(gr.coords, g.coords @ rot.r.T, atol=1e-7)
        np.testing.assert_allclose(gr.features, g.features, atol=1e-7)

    def test_trained_encoder_output_centered(self):
        model = VectorFieldModel(d=3, k=2, hidden=8, flow_layers=1, seed=32)
        from geomflow.geometry import Geometry

        rng = np.random.default_rng(33)
        g = Geometry(6, rng.standard_normal((6, 3)) * 2.0, rng.standard_normal((6, 3)))
        z = encode(model, g, sigma0=0.0)
        assert np.abs(z.coords.mean(axis=0)).max() <= 1e-9


class TestAdam:
    def test_zero_gradient_is_noop(self):
        params = [np.ones((2, 2)), np.full(3, 0.5)]
        state = AdamState.init(params)
        before = [p.copy() for p in params]
        adam_step(params, [np.zeros((2, 2)), np.zeros(3)], state, lr=0.1)
        for p, b in zip(params, before):
            np.testing.assert_array_equal(p, b)

    def test_constant_gradient_step_approaches_lr(self):
        p = [np.array([0.0])]
        state = AdamState.init(p)
        lr = 1e-3
        prev = p[0][0]
        for _ in range(500):
            prev = p[0][0]
            adam_step(p, [np.array([2.5])], state, lr=lr)
        assert abs(abs(p[0][0] - prev) - lr) <= lr * 0.01

    def test_quadratic_loss_decreases_monotonically_after_warmup(self):
        p = [np.array([1.0])]
        state = AdamState.init(p)
        losses = []
        for _ in range(100):
            losses.append(p[0][0] ** 2)
            adam_step(p, [np.array([2.0 * p[0][0]])], state, lr=0.02)
        window = losses[10:45]
        assert all(a >= b for a, b in zip(window, window[1:]))
        assert losses[-1] < losses[0]


class TestGradCheck:
    def test_dense_only_model_is_tight(self):
        # flow layer count 1 with tiny width: closest to a pure dense stack
        rep = grad_check(
            lambda: small_model(34, hidden=4, layers=1), tolerance=1e-6, seed=1
        )
        assert rep.passed, f"max rel err {rep.max_rel_err}"

    def test_reports_param_count_and_index(self):
        rep = grad_check(lambda: small_model(35, hidden=6), seed=2)
        assert rep.param_count > 0
        assert 0 <= rep.worst_index < rep.param_count

    def test_refuses_oversized_models(self):
        with pytest.raises(ValueError, match="5k parameters"):
            grad_check(
                lambda: VectorFieldModel(
                    d=4, k=4, hidden=64, flow_layers=3, identity_latent=True, seed=0
                )
            )


class TestParameterPlumbing:
    def test_flat_roundtrip(self):
        model = small_model(36)
        flat = model.get_flat()
        model.set_flat(np.zeros_like(flat))
        assert np.all(model.get_flat() == 0)
        model.set_flat(flat)
        np.testing.assert_array_equal(model.get_flat(), flat)

    def test_param_count_matches_arrays(self):
        model = VectorFieldModel(d=4, k=2, hidden=8, flow_layers=2, seed=37)
        assert model.param_count == sum(p.size for p in model.parameters())
        assert len(model.parameters()) == len(model.gradients())

    def test_identity_latent_has_no_ae_params(self):
        model = small_model(38)
        assert model.parameters("ae") == []
        full = VectorFieldModel(d=4, k=2, hidden=8, flow_layers=1, seed=39)
        assert len(full.parameters("ae")) > 0


def masked_sigmoid(z):
    """The boolean-mask logistic that `sigmoid` must reproduce bit for bit."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def stack(zs):
    return LatentGeometry(
        sum(z.n for z in zs),
        np.concatenate([z.coords for z in zs]),
        np.concatenate([z.features for z in zs]),
    )


class TestSigmoid:
    def test_bitwise_equal_to_masked_formula(self):
        rng = np.random.default_rng(40)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0,
                            -800.0, 710.0, -710.0, 36.7, -36.7, 1e-300, -1e-300])
        wide = rng.uniform(-800.0, 800.0, 5000)
        narrow = rng.standard_normal((300, 7)) * 4.0
        strided = (narrow.T, narrow[::3, 1::2])
        assert not any(z.flags.c_contiguous for z in strided)
        with np.errstate(invalid="ignore"):
            for z in (special, wide, narrow, *strided):
                got, want = sigmoid(z), masked_sigmoid(z)
                # NaN in gives NaN out; every other output has the same bits
                # (the sign of an output NaN may differ).
                nan = np.isnan(z)
                assert np.array_equal(np.isnan(got), nan)
                assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))

    def test_keeps_shape_and_never_overflows(self):
        z = np.linspace(-800.0, 800.0, 24).reshape(4, 6)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out = sigmoid(z)
        assert out.shape == z.shape and out.dtype == np.float64


class TestDenseTape:
    def test_backward_matches_silu_grad_bitwise(self):
        rng = np.random.default_rng(41)
        net = DenseNet([5, 7, 6, 3], rng)
        x = rng.standard_normal((9, 5))
        dy = rng.standard_normal((9, 3))
        net.forward(x)
        dx = net.backward(dy)
        # the same chain rule with the activation slope recomputed
        zs, a = [], x
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            z = np.einsum("ni,oi->no", a, w, optimize=False) + b
            zs.append(z)
            a = silu(z)
        d = dy
        for l in range(len(net.weights) - 1, -1, -1):
            d_in = d @ net.weights[l]
            if l > 0:
                d = d_in * silu_grad(zs[l - 1])
        np.testing.assert_array_equal(dx, d_in)


@pytest.mark.parametrize("identity_latent", [True, False])
@pytest.mark.parametrize("b", [1, 2, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 29])
def test_stacked_velocity_bitwise_equals_per_geometry(n, b, identity_latent):
    model = VectorFieldModel(d=3, k=3, hidden=10, flow_layers=2,
                             identity_latent=identity_latent, seed=n * 10 + b)
    zs = [random_latent(100 * n + s, n=n) for s in range(b)]
    v = model.velocity(stack(zs), 0.37, n=n)
    for s, z in enumerate(zs):
        u = model.velocity(z, 0.37)
        assert np.array_equal(v.coords[s * n : (s + 1) * n], u.coords)
        assert np.array_equal(v.features[s * n : (s + 1) * n], u.features)


class TestStackedVelocity:
    def test_rows_must_be_whole_sets(self):
        with pytest.raises(ValueError, match="whole number of sets"):
            small_model(42).velocity(random_latent(43, n=7), 0.5, n=3)

    def test_stacked_backward_matches_per_geometry(self):
        model = small_model(44)
        zs = [random_latent(45 + s, n=4) for s in range(3)]
        rng = np.random.default_rng(48)
        dvx, dvh = rng.standard_normal((12, 3)), rng.standard_normal((12, 3))
        model.zero_grads()
        model.velocity(stack(zs), 0.6, cache=True, n=4)
        dzx, dzh = model.backward_velocity(dvx, dvh)
        stacked = [g.copy() for g in model.gradients()]
        model.zero_grads()
        for s, z in enumerate(zs):
            model.velocity(z, 0.6, cache=True)
            ex, eh = model.backward_velocity(dvx[4 * s : 4 * s + 4], dvh[4 * s : 4 * s + 4])
            np.testing.assert_allclose(dzx[4 * s : 4 * s + 4], ex, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(dzh[4 * s : 4 * s + 4], eh, rtol=1e-12, atol=1e-12)
        for a, b in zip(stacked, model.gradients()):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)
