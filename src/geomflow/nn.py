"""Hand-rolled differentiable blocks for the equivariant velocity field.

Dense nets with SiLU activations, a rotation-equivariant message-passing
layer on the fully connected point graph, the velocity model v(z, t), and
the equivariant encoder/decoder. Every backward pass is coded analytically
and checked against central finite differences (`grad_check`).

Two floating-point disciplines matter here:

* Forward matmuls go through ``np.einsum(..., optimize=False)`` whose
  per-row reduction order does not depend on row position, so permuting the
  input points permutes the outputs bit-exactly (BLAS gemm does not have
  that property). Backward passes use BLAS since gradients only need to be
  mathematically exact.
* Sums over neighbours are taken in sorted order, which makes the reduction
  independent of how the points were enumerated.

Backward passes read a tape that the caller owns. A forward pass given a
list as `tape` appends the records its backward needs; the matching backward
pops them. Records are pushed in forward order and popped in reverse, so one
list serves a whole net, and passes recorded on separate tapes can be pulled
back in any order. No pass stores state on the model or its blocks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import Geometry, LatentGeometry, sample_noise

GRAD_CHECK_PARAM_LIMIT = 5000
_GROUPS = {"all": ("enc", "dec", "flow"), "ae": ("enc", "dec"), "flow": ("flow",)}


def sigmoid(z):
    # exp(-|z|) never overflows; the two branches of the logistic share it.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def silu(z):
    return z * sigmoid(z)


def silu_grad(z):
    s = sigmoid(z)
    return s * (1.0 + z * (1.0 - s))


def _pop(tape):
    """The newest record on `tape`: every backward's one misuse check."""
    if not tape:
        raise RuntimeError("backward called without a recorded forward pass")
    return tape.pop()


def _rowwise_matmul(a, w):
    # einsum keeps each output row's reduction order independent of the row
    # position; required for exact permutation equivariance.
    return np.einsum("ni,oi->no", a, w, optimize=False)


@functools.lru_cache(maxsize=64)
def _edges(n: int, b: int):
    """Fully connected directed edge lists of b stacked sets of n points,
    i-major within each set, plus the j-major order of each set."""
    i_idx = np.repeat(np.arange(n), n - 1)
    j_idx = np.concatenate(
        [np.delete(np.arange(n), i) for i in range(n)]
    ) if n > 1 else np.zeros(0, dtype=np.intp)
    jmaj = np.lexsort((i_idx, j_idx))
    set_rows = n * np.arange(b)[:, None]
    set_edges = n * (n - 1) * np.arange(b)[:, None]
    lists = (i_idx + set_rows, j_idx + set_rows, jmaj + set_edges)
    out = tuple(np.ascontiguousarray(a.ravel(), dtype=np.intp) for a in lists)
    for a in out:
        a.setflags(write=False)  # every caller shares these arrays
    return out


def _reduce_i(vals, n):
    """Sum edge values per source node, summands in sorted (canonical) order."""
    return np.sort(vals.reshape(-1, n - 1, vals.shape[1]), axis=1).sum(axis=1)


def _reduce_j(vals, n, jmaj):
    """Sum edge values per neighbour node, summands in sorted order."""
    return np.sort(vals[jmaj].reshape(-1, n - 1, vals.shape[1]), axis=1).sum(axis=1)


def _center_sets(vals, n):
    """Subtract from each set of n rows its mean, summed in sorted order."""
    sets = vals.reshape(-1, n, vals.shape[1])
    return (sets - np.sort(sets, axis=1).sum(axis=1, keepdims=True) / n).reshape(vals.shape)


class DenseNet:
    """MLP with SiLU between layers and a linear final layer.

    Weights are (out, in); `widths` lists layer sizes input-first. Gradients
    accumulate across backward calls until `zero_grads`.
    """

    def __init__(self, widths, rng):
        if len(widths) < 2:
            raise ValueError("dense net needs at least input and output widths")
        self.widths = list(widths)
        self.weights = [
            rng.standard_normal((o, i)) / np.sqrt(i)
            for i, o in zip(widths[:-1], widths[1:])
        ]
        self.biases = [np.zeros(o) for o in widths[1:]]
        self.grad_w = [np.zeros_like(w) for w in self.weights]
        self.grad_b = [np.zeros_like(b) for b in self.biases]

    def forward(self, x, tape=None):
        last = len(self.weights) - 1
        xs, zs, ss = [], [], []
        a = np.asarray(x, dtype=np.float64)
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            xs.append(a)
            z = _rowwise_matmul(a, w) + b
            if l < last:
                s = sigmoid(z)
                zs.append(z)
                ss.append(s)
                a = z * s
            else:
                a = z
        if tape is not None:
            tape.append((xs, zs, ss))
        return a

    def backward(self, dy, tape):
        xs, zs, ss = _pop(tape)
        dy = np.asarray(dy, dtype=np.float64)
        dx = None
        for l in range(len(self.weights) - 1, -1, -1):
            self.grad_w[l] += dy.T @ xs[l]
            self.grad_b[l] += dy.sum(axis=0)
            dx = dy @ self.weights[l]
            if l > 0:
                # silu_grad(z), from the sigmoid the forward pass kept
                z, s = zs[l - 1], ss[l - 1]
                dy = dx * (s * (1.0 + z * (1.0 - s)))
        return dx

    def params(self):
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def grads(self):
        return [g for pair in zip(self.grad_w, self.grad_b) for g in pair]

    def zero_grads(self):
        for g in self.grads():
            g[...] = 0.0

    def sub_nets(self):
        return [self]


class EquivariantLayer:
    """One message-passing update on the fully connected point graph.

    Messages m_ij = edge_net(h_i, h_j, |x_i - x_j|^2); coordinates move by
    scale/(n-1) * sum_j (x_i - x_j) * coord_net(m_ij) with the displacement
    projected back to zero CoM (the raw update does not conserve the CoM
    when messages are asymmetric); features become node_net(h_i, sum_j m_ij).
    """

    def __init__(self, width, rng, coord_scale=1.0):
        self.width = width
        self.coord_scale = coord_scale
        self.edge_net = DenseNet([2 * width + 1, width, width], rng)
        self.coord_net = DenseNet([width, width, 1], rng)
        # Small initial coordinate updates keep freshly initialized models
        # integrable; compounding O(1) updates across layers produces
        # superlinear fields the adaptive solver cannot finish.
        self.coord_net.weights[-1] *= 0.1
        self.node_net = DenseNet([2 * width, width, width], rng)

    def forward(self, x, h, tape=None, n=None):
        """Update b stacked sets of n points; x and h hold b*n rows, set by
        set. Each set's output bits are those of its own unstacked pass."""
        n = x.shape[0] if n is None else n
        b = x.shape[0] // n
        if n == 1:
            n_in = np.concatenate([h, np.zeros((b, self.width))], axis=1)
            h_out = self.node_net.forward(n_in, tape)
            diff = w = None
            x_out = x.copy()
        else:
            i_idx, j_idx, _ = _edges(n, b)
            diff = x[i_idx] - x[j_idx]
            d2 = np.einsum("ei,ei->e", diff, diff, optimize=False)[:, None]
            e_in = np.concatenate([h[i_idx], h[j_idx], d2], axis=1)
            m = self.edge_net.forward(e_in, tape)
            w = self.coord_net.forward(m, tape)
            delta = _reduce_i(diff * w, n) * (self.coord_scale / (n - 1))
            x_out = x + _center_sets(delta, n)
            agg = _reduce_i(m, n)
            h_out = self.node_net.forward(np.concatenate([h, agg], axis=1), tape)
        if tape is not None:
            tape.append((diff, w, n, b))
        return x_out, h_out

    def backward(self, dx_out, dh_out, tape):
        diff, w, n, b = _pop(tape)
        width = self.width
        dn_in = self.node_net.backward(dh_out, tape)
        dh = dn_in[:, :width].copy()
        dagg = dn_in[:, width:]
        dx = np.array(dx_out, dtype=np.float64, copy=True)
        if n > 1:
            i_idx, j_idx, jmaj = _edges(n, b)
            sets = dx.reshape(b, n, 3)
            ddelta = (sets - sets.mean(axis=1, keepdims=True)).reshape(dx.shape) * (
                self.coord_scale / (n - 1))
            dwdiff = ddelta[i_idx]
            dw = np.einsum("ei,ei->e", dwdiff, diff, optimize=False)[:, None]
            ddiff = dwdiff * w
            dm = self.coord_net.backward(dw, tape) + dagg[i_idx]
            de_in = self.edge_net.backward(dm, tape)
            dd2 = de_in[:, 2 * width :]
            ddiff = ddiff + 2.0 * diff * dd2
            dh += _reduce_i(de_in[:, :width], n) + _reduce_j(
                de_in[:, width : 2 * width], n, jmaj
            )
            dx += _reduce_i(ddiff, n) - _reduce_j(ddiff, n, jmaj)
        return dx, dh

    def sub_nets(self):
        return [self.edge_net, self.coord_net, self.node_net]


class VectorFieldModel:
    """Velocity field plus equivariant encoder/decoder.

    With `identity_latent` the encoder/decoder are the identity (latent
    width k equals the data feature width d) and carry no parameters. Time
    enters the velocity net as one extra invariant scalar feature per point.
    """

    def __init__(
        self,
        d,
        k=2,
        hidden=64,
        flow_layers=3,
        decoder_layers=1,
        identity_latent=False,
        coord_scale=1.0,
        seed=0,
    ):
        if d < 1 or k < 1 or hidden < 1 or flow_layers < 1 or decoder_layers < 1:
            raise ValueError("model sizes must be positive")
        if identity_latent:
            k = d
        self.d = d
        self.k = k
        self.hidden = hidden
        self.n_flow_layers = flow_layers
        self.n_decoder_layers = decoder_layers
        self.identity_latent = identity_latent
        self.coord_scale = coord_scale
        self.meta: dict = {}

        rng = np.random.default_rng(seed)
        if identity_latent:
            self.enc_embed = self.enc_layer = self.enc_out = None
            self.dec_embed = self.dec_out = None
            self.dec_stack = []
        else:
            self.enc_embed = DenseNet([d, hidden], rng)
            self.enc_layer = EquivariantLayer(hidden, rng, coord_scale)
            self.enc_out = DenseNet([hidden, k], rng)
            self.dec_embed = DenseNet([k, hidden], rng)
            self.dec_stack = [
                EquivariantLayer(hidden, rng, coord_scale)
                for _ in range(decoder_layers)
            ]
            self.dec_out = DenseNet([hidden, d], rng)
        self.flow_embed = DenseNet([k + 1, hidden], rng)
        self.flow_stack = [
            EquivariantLayer(hidden, rng, coord_scale) for _ in range(flow_layers)
        ]
        self.flow_out = DenseNet([hidden, k], rng)

    # -- parameter plumbing -------------------------------------------------

    def _blocks(self, net):
        """The "enc", "dec" or "flow" net in forward order: an embed net, its
        equivariant layers and an out net."""
        stack = [self.enc_layer] if net == "enc" else getattr(self, f"{net}_stack")
        return [getattr(self, f"{net}_embed"), *stack, getattr(self, f"{net}_out")]

    def _nets(self, group="all"):
        """Dense nets of `group` ("ae", "flow" or "all"), in checkpoint order."""
        if group not in _GROUPS:
            raise ValueError(f"unknown parameter group {group!r}")
        nets = [net for net in _GROUPS[group] if net == "flow" or not self.identity_latent]
        return [sub for net in nets for block in self._blocks(net) for sub in block.sub_nets()]

    def parameters(self, group="all"):
        return [p for net in self._nets(group) for p in net.params()]

    def gradients(self, group="all"):
        return [g for net in self._nets(group) for g in net.grads()]

    def zero_grads(self):
        for net in self._nets():
            net.zero_grads()

    @property
    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def get_flat(self) -> np.ndarray:
        params = self.parameters()
        if not params:
            return np.zeros(0)
        return np.concatenate([p.ravel() for p in params])

    def set_flat(self, vec):
        vec = np.asarray(vec, dtype=np.float64)
        off = 0
        for p in self.parameters():
            p[...] = vec[off : off + p.size].reshape(p.shape)
            off += p.size
        if off != vec.size:
            raise ValueError("parameter vector size mismatch")

    def arch_dict(self) -> dict:
        return {
            "d": self.d,
            "k": self.k,
            "hidden": self.hidden,
            "flow_layers": self.n_flow_layers,
            "decoder_layers": self.n_decoder_layers,
            "identity_latent": self.identity_latent,
            "coord_scale": self.coord_scale,
            "meta": self.meta,
        }

    @classmethod
    def from_arch(cls, arch: dict) -> "VectorFieldModel":
        """A freshly initialised model from an `arch_dict` record (which may
        also name the `seed`); a missing key takes the constructor's default."""
        model = cls(**{key: value for key, value in arch.items() if key != "meta"})
        model.meta = dict(arch.get("meta", {}))
        return model

    # -- the one walk in each direction ---------------------------------------

    def _forward(self, net, x, h, tape, n=None):
        """Coordinate and feature outputs of `net` on inputs (x, h)."""
        embed, *stack, out = self._blocks(net)
        h = embed.forward(h, tape)
        x = np.asarray(x, dtype=np.float64)
        for layer in stack:
            x, h = layer.forward(x, h, tape, n)
        return x, out.forward(h, tape)

    def _backward(self, net, dx, dh, tape):
        """Pull output adjoints (dx, dh) of `net` back to its inputs."""
        embed, *stack, out = self._blocks(net)
        dh = out.backward(dh, tape)
        for layer in reversed(stack):
            dx, dh = layer.backward(dx, dh, tape)
        return dx, embed.backward(dh, tape)

    # -- velocity field ------------------------------------------------------

    def velocity(self, z: LatentGeometry, t: float, tape=None, n=None) -> LatentGeometry:
        """v(z, t); with `n`, z stacks z.n // n sets of n points, each
        evaluated as if alone."""
        if not 0.0 <= t <= 1.0:
            raise ValueError("t must lie in [0, 1]")
        if z.k != self.k:
            raise ValueError("latent feature width mismatch")
        if n is not None and (n < 1 or z.n % n):
            raise ValueError("stacked rows are not a whole number of sets")
        h_in = np.concatenate([z.features, np.full((z.n, 1), float(t))], axis=1)
        x, vh = self._forward("flow", z.coords, h_in, tape, n)
        return LatentGeometry(z.n, x - z.coords, vh)

    def backward_velocity(self, dvx, dvh, tape):
        """Pull the velocity adjoint back to (dz_x, dz_h); accumulates grads."""
        dx, dh_in = self._backward("flow", dvx, dvh, tape)
        return dx - dvx, dh_in[:, : self.k]

    # -- autoencoder ---------------------------------------------------------

    def encode_means(self, x_centered, features, tape=None):
        if self.identity_latent:
            return np.array(x_centered, dtype=np.float64), np.array(
                features, dtype=np.float64
            )
        return self._forward("enc", x_centered, features, tape)

    def decode_arrays(self, zx, zh, tape=None):
        if self.identity_latent:
            return np.array(zx, dtype=np.float64), np.array(zh, dtype=np.float64)
        return self._forward("dec", zx, zh, tape)

    def ae_backward(self, dx_rec, dlogits, tape):
        """Backward through decoder then encoder; accumulates grads and
        returns the adjoint of the encoder's input coordinates."""
        if self.identity_latent:
            raise RuntimeError("identity-latent model has no autoencoder")
        dzx, dzh = self._backward("dec", dx_rec, dlogits, tape)
        return self._backward("enc", dzx, dzh, tape)[0]


def forward(model: VectorFieldModel, z: LatentGeometry, t: float, tape=None):
    """Evaluate the velocity field v(z, t)."""
    return model.velocity(z, t, tape)


def backward(model: VectorFieldModel, adjoint, tape):
    """Accumulate parameter gradients for a velocity adjoint.

    `adjoint` is LatentGeometry-shaped (anything with `.coords` and
    `.features`, or a (dvx, dvh) pair); `tape` holds the forward's records.
    Returns the gradient record, a list of arrays parallel to
    `model.parameters()`.
    """
    if hasattr(adjoint, "coords"):
        dvx, dvh = adjoint.coords, adjoint.features
    else:
        dvx, dvh = adjoint
    model.backward_velocity(dvx, dvh, tape)
    return model.gradients()


def encode(model: VectorFieldModel, g: Geometry, sigma0=0.0, seed=0):
    """Center, encode, and add zero-CoM-projected noise scaled by sigma0.

    `seed` is a seed or a Generator; a Generator is drawn from in place.
    """
    if sigma0 < 0:
        raise ValueError("sigma0 must be non-negative")
    x = g.coords - g.coords.mean(axis=0)
    mu_x, mu_h = model.encode_means(x, g.features)
    if sigma0 > 0:
        eps = sample_noise(g.n, model.k, seed)
        return LatentGeometry(g.n, mu_x + sigma0 * eps.coords, mu_h + sigma0 * eps.features)
    return LatentGeometry(g.n, mu_x, mu_h)


def decode(model: VectorFieldModel, z: LatentGeometry) -> Geometry:
    """Map a latent point set back to a Geometry (coords re-centered)."""
    if z.k != model.k:
        raise ValueError("latent feature width mismatch")
    zx = z.coords - z.coords.mean(axis=0)
    x, feats = model.decode_arrays(zx, z.features)
    return Geometry(z.n, x - x.mean(axis=0), feats)


@dataclass
class AdamState:
    step: int
    m: list
    v: list

    @classmethod
    def init(cls, params) -> "AdamState":
        return cls(0, [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Standard Adam update with bias correction; parameters change in place."""
    state.step += 1
    bc1 = 1.0 - beta1**state.step
    bc2 = 1.0 - beta2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return params, state


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_index: int
    param_count: int
    tolerance: float
    passed: bool


def grad_check(model_factory, tolerance=1e-4, seed=0, step=1e-5) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Builds a model, a random latent input and a random regression target,
    and perturbs every parameter by +/-step. The relative error uses an
    absolute floor of 1e-3 in the denominator so near-zero gradients cannot
    produce spurious blowups.
    """
    model = model_factory()
    if model.param_count > GRAD_CHECK_PARAM_LIMIT:
        raise ValueError("grad_check is limited to models with <= 5k parameters")
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    z = sample_noise(n, model.k, rng)
    t = float(rng.uniform())
    ux = rng.standard_normal((n, 3))
    uh = rng.standard_normal((n, model.k))
    numel = n * (3 + model.k)

    def loss_value():
        v = model.velocity(z, t)
        return (np.sum((v.coords - ux) ** 2) + np.sum((v.features - uh) ** 2)) / numel

    tape = []
    v = model.velocity(z, t, tape)
    model.zero_grads()
    model.backward_velocity(2.0 * (v.coords - ux) / numel, 2.0 * (v.features - uh) / numel,
                            tape)
    analytic = np.concatenate([g.ravel() for g in model.gradients()])

    flat = model.get_flat()
    numeric = np.empty_like(analytic)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        model.set_flat(flat)
        lp = loss_value()
        flat[i] = orig - step
        model.set_flat(flat)
        lm = loss_value()
        flat[i] = orig
        numeric[i] = (lp - lm) / (2.0 * step)
    model.set_flat(flat)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel)) if rel.size else 0
    max_rel = float(rel.max()) if rel.size else 0.0
    return GradCheckReport(
        max_rel_err=max_rel,
        worst_index=worst,
        param_count=model.param_count,
        tolerance=tolerance,
        passed=max_rel <= tolerance,
    )
