import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomflow.flow import sample_noise
from geomflow.geometry import Geometry, LatentGeometry, random_rotation
from geomflow.nn import (
    AdamState,
    DenseNet,
    EquivariantLayer,
    VectorFieldModel,
    _center_sets,
    _rowwise_matmul,
    _set_sums,
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
        tape = []
        pred = net.forward(x, tape)
        net.zero_grads()
        dx = net.backward(2.0 * (pred - y), tape)
        w = net.weights[0]
        expected_dw = 2.0 * (x @ w.T + net.biases[0] - y).T @ x
        np.testing.assert_allclose(net.grad_w[0], expected_dw, atol=1e-9)
        np.testing.assert_allclose(dx, 2.0 * (pred - y) @ w, atol=1e-12)

    def test_zero_adjoint_gives_zero_gradients(self):
        net = DenseNet([3, 5, 2], np.random.default_rng(2))
        tape = []
        net.forward(np.random.default_rng(3).standard_normal((4, 3)), tape)
        net.zero_grads()
        net.backward(np.zeros((4, 2)), tape)
        assert all(np.all(g == 0) for g in net.grads())

    def test_backward_without_forward_raises(self):
        net = DenseNet([3, 2], np.random.default_rng(4))
        with pytest.raises(RuntimeError, match="recorded forward"):
            net.backward(np.zeros((1, 2)), [])

    def test_gradients_accumulate_until_cleared(self):
        net = DenseNet([2, 2], np.random.default_rng(5))
        x = np.ones((1, 2))
        tape = []
        net.forward(x, tape)
        net.backward(np.ones((1, 2)), tape)
        once = net.grad_w[0].copy()
        net.forward(x, tape)
        net.backward(np.ones((1, 2)), tape)
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
            x_out, _ = layer.forward(x, h)
            assert np.abs(x_out.mean(axis=0)).max() <= 1e-9

    def test_rotation_equivariance_and_feature_invariance(self):
        layer, x, h = self.layer_and_input(7)
        rot = random_rotation(8)
        x_out, h_out = layer.forward(x, h)
        xr_out, hr_out = layer.forward(x @ rot.r.T, h)
        np.testing.assert_allclose(xr_out, x_out @ rot.r.T, atol=1e-7)
        np.testing.assert_allclose(hr_out, h_out, atol=1e-7)

    def test_permutation_exactness(self):
        layer, x, h = self.layer_and_input(9)
        perm = np.random.default_rng(10).permutation(len(x))
        x_out, h_out = layer.forward(x, h)
        xp_out, hp_out = layer.forward(x[perm], h[perm])
        assert np.array_equal(xp_out, x_out[perm])
        assert np.array_equal(hp_out, h_out[perm])

    def test_single_point(self):
        layer = EquivariantLayer(4, np.random.default_rng(11))
        x = np.zeros((1, 3))
        h = np.ones((1, 4))
        x_out, h_out = layer.forward(x, h)
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
        tape = []
        forward(model, z, 0.5, tape)
        model.zero_grads()
        grads = backward(model, (np.zeros((z.n, 3)), np.zeros((z.n, model.k))), tape)
        assert all(np.all(g == 0) for g in grads)

    def test_missing_cache_raises(self):
        model = small_model(15)
        z = random_latent(16)
        tape = []
        forward(model, z, 0.5)
        with pytest.raises(RuntimeError, match="recorded forward"):
            backward(model, (np.zeros((z.n, 3)), np.zeros((z.n, model.k))), tape)

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

        tape = []
        v = forward(model, z, 0.6, tape)
        model.zero_grads()
        dzx, dzh = model.backward_velocity(
            2.0 * (v.coords - target.coords) / numel,
            2.0 * (v.features - target.features) / numel,
            tape,
        )
        h = 1e-6
        zx = np.array(z.coords)
        for idx in [(0, 0), (2, 1), (3, 2)]:
            bump = np.zeros_like(zx)
            bump[idx] = h
            fd = (loss(zx + bump, z.features) - loss(zx - bump, z.features)) / (2 * h)
            assert abs(fd - dzx[idx]) <= 1e-6


    def test_autoencoder_matches_finite_differences(self):
        # train_autoencoder's loss: squared coordinate error plus cross-entropy
        # on the argmax class, through noised latents.
        model = VectorFieldModel(d=3, k=2, hidden=6, flow_layers=1, seed=34)
        rng = np.random.default_rng(35)
        n, sigma0 = 5, 0.1
        x = rng.standard_normal((n, 3))
        x -= x.mean(axis=0)
        feats = rng.standard_normal((n, 3))
        labels = np.argmax(feats, axis=1)
        eps = sample_noise(n, model.k, rng)

        x_in = x.copy()  # the encoder's input; x stays the target

        def run(tape=None):
            mu_x, mu_h = model.encode_means(x_in, feats, tape)
            x_rec, logits = model.decode_arrays(mu_x + sigma0 * eps.coords,
                                                mu_h + sigma0 * eps.features, tape)
            ez = np.exp(logits - logits.max(axis=1, keepdims=True))
            p = ez / ez.sum(axis=1, keepdims=True)
            loss = ((x_rec - x) ** 2).mean() - np.log(p[np.arange(n), labels]).mean()
            return loss, x_rec, p

        tape = []
        _, x_rec, p = run(tape)
        model.zero_grads()
        dx = model.ae_backward(2.0 * (x_rec - x) / x.size,
                               (p - np.eye(3)[labels]) / n, tape)
        assert not tape
        analytic = np.concatenate([g.ravel() for g in model.gradients("ae")] + [dx.ravel()])
        step, numeric = 1e-5, []
        for arr in [*model.parameters("ae"), x_in]:
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + step
                lp = run()[0]
                arr[idx] = orig - step
                lm = run()[0]
                arr[idx] = orig
                numeric.append((lp - lm) / (2.0 * step))
        numeric = np.array(numeric)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
        assert np.max(np.abs(analytic - numeric) / denom) <= 1e-4


class TestSetSums:
    def test_sums_each_run_independent_of_row_order(self):
        rng = np.random.default_rng(4)
        vals = rng.standard_normal((12, 5)) * 10.0 ** rng.integers(-8, 8, (12, 5))
        sums = _set_sums(vals, 4)
        assert sums.shape == (3, 5)
        np.testing.assert_allclose(sums, vals.reshape(3, 4, 5).sum(axis=1), rtol=1e-12)
        shuffled = np.concatenate([vals[4 * s + rng.permutation(4)] for s in range(3)])
        assert np.array_equal(_set_sums(shuffled, 4), sums)

    def test_center_sets_subtracts_each_sets_mean(self):
        vals = np.random.default_rng(5).standard_normal((9, 3))
        centered = _center_sets(vals, 3)
        assert np.abs(centered.reshape(3, 3, 3).mean(axis=1)).max() <= 1e-15
        assert np.array_equal(centered[:3], _center_sets(vals[:3], 3))


class TestEncodeDecode:
    def test_sigma_zero_equals_means(self):
        model = small_model(21)
        g = decode(model, random_latent(22))
        z = encode(model, g, sigma0=0.0)
        np.testing.assert_array_equal(z.coords, _center_sets(g.coords, g.n))
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
            g = Geometry(n, rng.standard_normal((n, 3)) + 3.0, rng.standard_normal((n, 3)))
            z = encode(model, g, sigma0=0.01, seed=i)
            assert np.abs(z.coords.mean(axis=0)).max() <= 1e-9

    def test_identity_latent_roundtrip_exact(self):
        model = small_model(27)
        rng = np.random.default_rng(28)
        coords = rng.standard_normal((5, 3))
        coords -= coords.mean(axis=0)
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
        rng = np.random.default_rng(33)
        g = Geometry(6, rng.standard_normal((6, 3)) * 2.0, rng.standard_normal((6, 3)))
        z = encode(model, g, sigma0=0.0)
        assert np.abs(z.coords.mean(axis=0)).max() <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 29),
           identity_latent=st.booleans())
    def test_permutation_exactness(self, seed, n, identity_latent):
        rng = np.random.default_rng(seed)
        model = VectorFieldModel(d=3, k=2, hidden=8, flow_layers=1,
                                 identity_latent=identity_latent, seed=seed)
        perm = rng.permutation(n)
        g = Geometry(n, rng.standard_normal((n, 3)) + 2.0, rng.standard_normal((n, 3)))
        z = encode(model, g)
        zp = encode(model, Geometry(n, g.coords[perm], g.features[perm]))
        assert np.array_equal(zp.coords, z.coords[perm])
        assert np.array_equal(zp.features, z.features[perm])
        x = decode(model, z)
        xp = decode(model, LatentGeometry(n, z.coords[perm], z.features[perm]))
        assert np.array_equal(xp.coords, x.coords[perm])
        assert np.array_equal(xp.features, x.features[perm])


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


def _matmul_input(rng, m, k, layout):
    """An (m, k) operand laid out as a contiguous array, an offset and
    strided view into a larger one, or a buffer misaligned for float64."""
    if layout == "strided":
        return rng.standard_normal((3 * m + 2, k + 3))[2::3, 1 : k + 1]
    a = rng.standard_normal((m, k))
    if layout == "misaligned":
        raw = np.zeros(a.nbytes + 4, dtype=np.uint8)[4:].view(np.float64).reshape(m, k)
        raw[...] = a
        assert not raw.flags.aligned
        return raw
    return a


class TestRowwiseMatmul:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 200),
           k=st.integers(1, 130), n=st.integers(1, 70),
           layout=st.sampled_from(["contiguous", "strided", "misaligned"]))
    def test_each_row_is_its_own_product(self, seed, m, k, n, layout):
        rng = np.random.default_rng(seed)
        a = _matmul_input(rng, m, k, layout)
        w = rng.standard_normal((n, k))
        out = _rowwise_matmul(a, w)
        assert out.shape == (m, n)
        # A row's bits are those of the same product on a fresh one-row
        # copy. This also fails if the stack is ever folded into one gemm,
        # whose row blocking makes a row's bits depend on its position.
        for i in range(m):
            assert np.array_equal(out[i], _rowwise_matmul(a[i : i + 1].copy(), w)[0])
        perm = rng.permutation(m)
        assert np.array_equal(_rowwise_matmul(a[perm], w), out[perm])
        s, e = np.sort(rng.integers(0, m + 1, 2))
        assert np.array_equal(_rowwise_matmul(a[s:e], w), out[s:e])
        # the same product as einsum up to rounding: within 1e-12 of the
        # sum of the absolute products
        ref = np.einsum("ni,oi->no", a, w, optimize=False)
        assert np.all(np.abs(out - ref) <= 1e-12 * (np.abs(a) @ np.abs(w).T))


class TestDenseTape:
    def test_backward_matches_silu_grad_bitwise(self):
        rng = np.random.default_rng(41)
        net = DenseNet([5, 7, 6, 3], rng)
        x = rng.standard_normal((9, 5))
        dy = rng.standard_normal((9, 3))
        tape = []
        net.forward(x, tape)
        dx = net.backward(dy, tape)
        # the same chain rule with the activation slope recomputed
        zs, a = [], x
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            z = _rowwise_matmul(a, w) + b
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

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_per_set_times_bitwise_equal_solo_calls(self, n):
        model = small_model(50 + n)
        zs = [random_latent(60 + s, n=n) for s in range(4)]
        times = [0.0, 0.31, 1.0, 0.77]
        v = model.velocity(stack(zs), np.array(times), n=n)
        for s, (z, t) in enumerate(zip(zs, times)):
            u = model.velocity(z, t)
            assert np.array_equal(v.coords[s * n : (s + 1) * n], u.coords)
            assert np.array_equal(v.features[s * n : (s + 1) * n], u.features)
        # one set without n, its time given as a length-1 array
        u = model.velocity(zs[1], np.array([0.31]))
        assert np.array_equal(u.coords, model.velocity(zs[1], 0.31).coords)

    @pytest.mark.parametrize(
        "times", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4], [[0.1, 0.2, 0.3]],
                  [0.1, -0.2, 0.3], [0.1, 1.5, 0.3], [0.1, np.nan, 0.3]],
        ids=["short", "long", "2-d", "negative", "above-one", "nan"])
    def test_bad_per_set_times_raise(self, times):
        z = stack([random_latent(70 + s, n=4) for s in range(3)])
        with pytest.raises(ValueError, match="one time per set|t must lie"):
            small_model(71).velocity(z, np.array(times), n=4)

    def test_stacked_backward_matches_per_geometry(self):
        model = small_model(44)
        zs = [random_latent(45 + s, n=4) for s in range(3)]
        rng = np.random.default_rng(48)
        dvx, dvh = rng.standard_normal((12, 3)), rng.standard_normal((12, 3))
        model.zero_grads()
        tape = []
        model.velocity(stack(zs), 0.6, tape, n=4)
        dzx, dzh = model.backward_velocity(dvx, dvh, tape)
        stacked = [g.copy() for g in model.gradients()]
        model.zero_grads()
        for s, z in enumerate(zs):
            model.velocity(z, 0.6, tape)
            ex, eh = model.backward_velocity(dvx[4 * s : 4 * s + 4], dvh[4 * s : 4 * s + 4],
                                             tape)
            np.testing.assert_allclose(dzx[4 * s : 4 * s + 4], ex, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(dzh[4 * s : 4 * s + 4], eh, rtol=1e-12, atol=1e-12)
        for a, b in zip(stacked, model.gradients()):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)


def _velocity_pass(model, seed, n):
    z = random_latent(seed, n=n)
    adjoint = np.random.default_rng(seed + 1).standard_normal((2, n, 3))
    return (lambda tape: model.velocity(z, 0.3, tape),
            lambda tape: model.backward_velocity(adjoint[0], adjoint[1], tape))


def _autoencoder_pass(model, seed, n):
    rng = np.random.default_rng(seed)
    x, feats = rng.standard_normal((n, 3)), rng.standard_normal((n, 3))
    dx_rec, dlogits = rng.standard_normal((n, 3)), rng.standard_normal((n, 3))
    return (lambda tape: model.decode_arrays(*model.encode_means(x, feats, tape), tape),
            lambda tape: (model.ae_backward(dx_rec, dlogits, tape),))


class TestTape:
    def model(self):
        return VectorFieldModel(d=3, k=3, hidden=8, flow_layers=2, seed=60)

    @pytest.mark.parametrize("make_pass", [_velocity_pass, _autoencoder_pass])
    def test_interleaved_tapes_match_passes_alone(self, make_pass):
        model = self.model()
        passes = [make_pass(model, 61, 4), make_pass(model, 62, 6)]
        alone = []
        for fwd, bwd in passes:
            tape = []
            fwd(tape)
            model.zero_grads()
            alone.append((bwd(tape), [g.copy() for g in model.gradients()]))
        tapes = [[], []]
        for (fwd, _), tape in zip(passes, tapes):
            fwd(tape)
        for (_, bwd), tape, (adjoints, grads) in zip(passes, tapes, alone):
            model.zero_grads()
            got = bwd(tape)
            assert not tape
            assert all(np.array_equal(a, b) for a, b in zip(got, adjoints))
            assert all(np.array_equal(a, b) for a, b in zip(model.gradients(), grads))

    @pytest.mark.parametrize("make_pass", [_velocity_pass, _autoencoder_pass])
    def test_passes_leave_no_state_on_blocks(self, make_pass):
        model = self.model()
        layers = [layer for blocks in model.blocks.values() for layer in blocks[1:-1]]
        objects = [model, *layers, *model._nets()]
        before = [dict(vars(obj)) for obj in objects]
        fwd, bwd = make_pass(model, 63, 5)
        tape = []
        fwd(tape)
        bwd(tape)
        for obj, attrs in zip(objects, before):
            assert vars(obj).keys() == attrs.keys()
            assert all(vars(obj)[key] is value for key, value in attrs.items())

    def test_backward_on_empty_tape_raises(self):
        model = self.model()
        with pytest.raises(RuntimeError, match="recorded forward"):
            model.ae_backward(np.zeros((4, 3)), np.zeros((4, 3)), [])
