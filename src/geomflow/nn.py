"""Hand-rolled differentiable blocks for the equivariant velocity field.

Dense nets with SiLU activations, a rotation-equivariant message-passing
layer on the fully connected point graph, the velocity model v(z, t), and
the equivariant encoder/decoder. Every backward pass is coded analytically
and checked against central finite differences (`grad_check`).

One floating-point discipline makes permutation equivariance bit-exact.
Every pass puts each set's rows into one canonical order, once
(`_canonical_order`: by the bit patterns of the input columns), runs the
whole net on them in that order and scatters the outputs back to the
caller's order. Two inputs whose rows are a permutation of each other
gather to the same array, so permuting the input points permutes every
output bit-for-bit. Rows that tie in the sort are bitwise identical, but
BLAS may round them differently at different positions of one product, so
each takes the outputs of the first row of its run. Inside a pass, each
forward product is one BLAS product per set (`_set_matmul`), whose bits
depend on that set's rows alone, not on the sets stacked with it; neighbour
sums and set means add rows in canonical order. Backward passes use plain
BLAS over all rows, since gradients only need to be mathematically exact.
Only where rows arrive in the caller's order, in the centring of `encode`
and `decode`, are set sums taken in sorted order (`_set_sums`).

Backward passes read a tape that the caller owns. A forward pass given a
list as `tape` appends the records its backward needs; the matching backward
pops them. Records are pushed in forward order and popped in reverse, so one
list serves a whole net, and passes recorded on separate tapes can be pulled
back in any order. No pass stores state on the model or its blocks.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass

import numpy as np

from ._rules import Rule, check
from .geometry import Geometry, LatentGeometry, sample_noise

GRAD_CHECK_PARAM_LIMIT = 5000
_GROUPS = {"all": ("enc", "dec", "flow"), "ae": ("enc", "dec"), "flow": ("flow",)}


def sigmoid(z):
    # exp(-|z|) never overflows; the two branches of the logistic share it:
    # 1 / (1 + e) for z >= 0, e / (1 + e) below. Since e <= 1, the numerator
    # max(z >= 0, e) is 1 or e on those branches, and it keeps a NaN.
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.greater_equal(z, 0.0).astype(np.float64)
    np.maximum(num, e, out=num)
    e += 1.0
    return np.divide(num, e, out=num)


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


def _set_matmul(a, w, sets):
    """a @ w.T as one BLAS product per set, for a C-contiguous, aligned `a`
    that stacks `sets` equal runs of rows: a set's bits are those of the
    same product on that set alone, at any stack position or height."""
    return np.matmul(a.reshape(sets, -1, a.shape[1]), w.T).reshape(len(a), -1)


def _canonical_order(n, x, h):
    """Gather index that puts each of the stacked sets of n rows into one
    canonical order (by set, then by the int64 bit patterns of the columns of
    x and then of h), and for each canonical position the first position of
    its run of tied, bitwise identical, rows."""
    bits = np.concatenate([x, h], axis=1).view(np.int64)
    order = np.lexsort((*bits.T[::-1], np.arange(len(bits)) // n))
    bits = bits[order]
    pos = np.arange(len(bits))
    tied = (bits[1:] == bits[:-1]).all(axis=1) & (pos[1:] % n != 0)
    return order, np.maximum.accumulate(np.where(np.r_[True, ~tied], pos, 0))


def _scatter(vals, order):
    """Rows gathered by `order` put back in the order they were gathered from."""
    out = np.empty_like(vals)
    out[order] = vals
    return out


def _canonical(step, n, x, h, tape):
    """`step(x, h, tape)` run on the rows gathered into canonical order, its
    outputs scattered back, each tied row taking the outputs of the first
    row of its run; pushes the gather index after step's records."""
    x, h = np.asarray(x, dtype=np.float64), np.asarray(h, dtype=np.float64)
    order, first = _canonical_order(n, x, h)
    x_out, h_out = step(x[order], h[order], tape)
    if tape is not None:
        tape.append(order)
    return _scatter(x_out[first], order), _scatter(h_out[first], order)


def _canonical_pull(pull, dx, dh, tape):
    """The backward of `_canonical`: `pull(dx, dh, tape)` on the adjoints
    gathered into the recorded order, its input adjoints scattered back."""
    order = _pop(tape)
    dx, dh = np.asarray(dx, dtype=np.float64), np.asarray(dh, dtype=np.float64)
    dx, dh = pull(dx[order], dh[order], tape)
    return _scatter(dx, order), _scatter(dh, order)


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


def _set_sums(vals, size):
    """Sum each run of `size` consecutive rows, summands in sorted order, so
    the sum does not depend on how a run's rows were enumerated."""
    return np.sort(vals.reshape(-1, size, vals.shape[1]), axis=1).sum(axis=1)


def _run_sums(vals, size):
    """Sum each run of `size` consecutive rows, in row order."""
    return vals.reshape(-1, size, vals.shape[1]).sum(axis=1)


def _center_sets(vals, n):
    """Subtract from each set of n rows its mean."""
    return vals - np.repeat(_set_sums(vals, n) / n, n, axis=0)


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

    def forward(self, x, tape=None, sets=1):
        """Outputs for the rows of x, which stacks `sets` equal runs of rows;
        each run's output bits are those of its own unstacked pass."""
        last = len(self.weights) - 1
        xs, zs, ss = [], [], []
        a = np.asarray(x, dtype=np.float64)
        if not (a.flags.c_contiguous and a.flags.aligned):
            a = a.copy()
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            xs.append(a)
            z = _set_matmul(a, w, sets)
            z += b
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


def _layer_widths(width):
    """The widths of an EquivariantLayer's edge, coord and node nets, in build order."""
    return [2 * width + 1, width, width], [width, width, 1], [2 * width, width, width]


def _dense_count(widths) -> int:
    """The parameter count of a DenseNet of `widths`."""
    return sum((i + 1) * o for i, o in zip(widths, widths[1:]))


def _net_widths(d, k, hidden, flow_layers, decoder_layers, identity_latent, **_):
    """Each net's (embed widths, equivariant layers of width `hidden`, out
    widths), in build order, from a VectorFieldModel's arguments."""
    k = d if identity_latent else k
    nets = {} if identity_latent else {"enc": (d, 1, k), "dec": (k, decoder_layers, d)}
    nets["flow"] = (k + 1, flow_layers, k)
    return {net: ([w_in, hidden], layers, [hidden, w_out])
            for net, (w_in, layers, w_out) in nets.items()}


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
        self.edge_net, self.coord_net, self.node_net = (
            DenseNet(widths, rng) for widths in _layer_widths(width))
        # Scales the initial coordinate updates down tenfold. This does not
        # make fresh models integrable at the CLI's widths: their features
        # grow with n through the summed messages (ROADMAP, open item 1).
        self.coord_net.weights[-1] *= 0.1

    def forward(self, x, h, tape=None, n=None):
        """Update b stacked sets of n points; x and h hold b*n rows, set by
        set, each set's rows in any order. Each set's output bits are those
        of its own unstacked pass, and a permutation of its rows permutes
        them."""
        n = len(x) if n is None else n
        return _canonical(lambda x, h, tape: self._update(x, h, tape, n), n, x, h, tape)

    def backward(self, dx_out, dh_out, tape):
        return _canonical_pull(self._pull, dx_out, dh_out, tape)

    def _update(self, x, h, tape, n):
        """`forward` on rows already in canonical order."""
        b = x.shape[0] // n
        if n == 1:
            n_in = np.concatenate([h, np.zeros((b, self.width))], axis=1)
            h_out = self.node_net.forward(n_in, tape, b)
            diff = w = None
            x_out = x.copy()
        else:
            i_idx, j_idx, _ = _edges(n, b)
            diff = x[i_idx] - x[j_idx]
            d2 = np.einsum("ei,ei->e", diff, diff, optimize=False)[:, None]
            e_in = np.concatenate([h[i_idx], h[j_idx], d2], axis=1)
            m = self.edge_net.forward(e_in, tape, b)
            w = self.coord_net.forward(m, tape, b)
            delta = _run_sums(diff * w, n - 1) * (self.coord_scale / (n - 1))
            sets = delta.reshape(b, n, 3)
            x_out = x + (sets - sets.sum(axis=1, keepdims=True) / n).reshape(delta.shape)
            agg = _run_sums(m, n - 1)
            h_out = self.node_net.forward(np.concatenate([h, agg], axis=1), tape, b)
        if tape is not None:
            tape.append((diff, w, n, b))
        return x_out, h_out

    def _pull(self, dx_out, dh_out, tape):
        """`backward` of `_update`, on adjoints in canonical order."""
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
            dh += _run_sums(de_in[:, :width], n - 1) + _run_sums(
                de_in[jmaj, width : 2 * width], n - 1
            )
            dx += _run_sums(ddiff, n - 1) - _run_sums(ddiff[jmaj], n - 1)
        return dx, dh

    def sub_nets(self):
        return [self.edge_net, self.coord_net, self.node_net]


class VectorFieldModel:
    """Velocity field plus equivariant encoder/decoder.

    The constructor's arguments but `d` and `seed` are the architecture
    record (`ARCH_DEFAULTS`), which checkpoints store and training configs
    carry; the constructor holds every argument but `seed` to `ARCH_RULES`.
    `blocks` maps each net, "enc", "dec" and "flow", to its blocks in
    forward order: an embed net, its equivariant layers and an out net.
    With `identity_latent` the model has no "enc" or "dec" net: encoding
    and decoding are the identity (latent width k equals the data feature
    width d) and carry no parameters. Time enters the velocity net as one
    extra invariant scalar feature per point.
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
        check(ARCH_RULES, locals())
        if identity_latent:
            k = d
        self.d = d
        self.k = k
        self.hidden = hidden
        self.flow_layers = flow_layers
        self.decoder_layers = decoder_layers
        self.identity_latent = identity_latent
        self.coord_scale = coord_scale
        self.meta: dict = {}

        rng = np.random.default_rng(seed)

        def build(embed, layers, out):
            return [DenseNet(embed, rng),
                    *(EquivariantLayer(hidden, rng, coord_scale) for _ in range(layers)),
                    DenseNet(out, rng)]

        self.blocks = {net: build(*widths) for net, widths in
                       _net_widths(d, k, hidden, flow_layers, decoder_layers,
                                   identity_latent).items()}

    # -- parameter plumbing -------------------------------------------------

    def _nets(self, group="all"):
        """Dense nets of `group` ("ae", "flow" or "all"), in checkpoint order."""
        if group not in _GROUPS:
            raise ValueError(f"unknown parameter group {group!r}")
        return [sub for net in _GROUPS[group] for block in self.blocks.get(net, ())
                for sub in block.sub_nets()]

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
        return np.concatenate([p.ravel() for p in self.parameters()])

    def set_flat(self, vec):
        vec = np.asarray(vec, dtype=np.float64)
        off = 0
        for p in self.parameters():
            p[...] = vec[off : off + p.size].reshape(p.shape)
            off += p.size
        if off != vec.size:
            raise ValueError("parameter vector size mismatch")

    def arch_dict(self) -> dict:
        """`d`, the architecture record (with the effective `k`), `meta`."""
        return {"d": self.d, **{name: getattr(self, name) for name in ARCH_DEFAULTS},
                "meta": self.meta}

    @classmethod
    def count_params(cls, arch: dict) -> int:
        """The `param_count` of `from_arch(arch)`, from its widths alone, so
        nothing is allocated. Raises as `from_arch` does on a bad key or field."""
        args = inspect.signature(cls).bind(**{key: v for key, v in arch.items() if key != "meta"})
        args.apply_defaults()
        check(ARCH_RULES, args.arguments)
        layer = sum(map(_dense_count, _layer_widths(args.arguments["hidden"])))
        return sum(_dense_count(embed) + layers * layer + _dense_count(out)
                   for embed, layers, out in _net_widths(**args.arguments).values())

    @classmethod
    def from_arch(cls, arch: dict) -> "VectorFieldModel":
        """A freshly initialised model from an `arch_dict` record (which may
        also name the `seed`); a missing key takes the constructor's default."""
        model = cls(**{key: value for key, value in arch.items() if key != "meta"})
        model.meta = dict(arch.get("meta", {}))
        return model

    # -- the one walk in each direction ---------------------------------------

    def _forward(self, net, x, h, tape, n=None):
        """Coordinate and feature outputs of `net` on inputs (x, h), stacked
        sets of n rows (one set without n), run in canonical row order; a
        net the model lacks is the identity and returns copies of its
        inputs."""
        if net not in self.blocks:
            return np.array(x, dtype=np.float64), np.array(h, dtype=np.float64)
        embed, *stack, out = self.blocks[net]
        n = len(x) if n is None else n
        sets = len(x) // n

        def walk(x, h, tape):
            h = embed.forward(h, tape, sets)
            for layer in stack:
                x, h = layer._update(x, h, tape, n)
            return x, out.forward(h, tape, sets)

        return _canonical(walk, n, x, h, tape)

    def _backward(self, net, dx, dh, tape):
        """Pull output adjoints (dx, dh) of `net` back to its inputs."""
        embed, *stack, out = self.blocks[net]

        def pull(dx, dh, tape):
            dh = out.backward(dh, tape)
            for layer in reversed(stack):
                dx, dh = layer._pull(dx, dh, tape)
            return dx, embed.backward(dh, tape)

        return _canonical_pull(pull, dx, dh, tape)

    # -- velocity field ------------------------------------------------------

    def velocity(self, z: LatentGeometry, t, tape=None, n=None) -> LatentGeometry:
        """v(z, t); with `n`, z stacks z.n // n sets of n points, each
        evaluated as if alone. `t` is one time for all sets or one per set."""
        if z.k != self.k:
            raise ValueError("latent feature width mismatch")
        if n is not None and (n < 1 or z.n % n):
            raise ValueError("stacked rows are not a whole number of sets")
        size = z.n if n is None else n
        t = np.asarray(t, dtype=np.float64)
        if t.ndim and t.shape != (z.n // size,):
            raise ValueError(f"need one time per set: {z.n // size}, got shape {t.shape}")
        if not ((t >= 0.0) & (t <= 1.0)).all():
            raise ValueError("t must lie in [0, 1]")
        t_col = np.repeat(np.broadcast_to(t, (z.n // size,)), size)[:, None]
        h_in = np.concatenate([z.features, t_col], axis=1)
        x, vh = self._forward("flow", z.coords, h_in, tape, n)
        return LatentGeometry(z.n, x - z.coords, vh)

    def backward_velocity(self, dvx, dvh, tape):
        """Pull the velocity adjoint back to (dz_x, dz_h); accumulates grads."""
        dx, dh_in = self._backward("flow", dvx, dvh, tape)
        return dx - dvx, dh_in[:, : self.k]

    # -- autoencoder ---------------------------------------------------------

    def encode_means(self, x_centered, features, tape=None):
        return self._forward("enc", x_centered, features, tape)

    def decode_arrays(self, zx, zh, tape=None):
        return self._forward("dec", zx, zh, tape)

    def ae_backward(self, dx_rec, dlogits, tape):
        """Backward through decoder then encoder; accumulates grads and
        returns the adjoint of the encoder's input coordinates."""
        if self.identity_latent:
            raise RuntimeError("identity-latent model has no autoencoder")
        dzx, dzh = self._backward("dec", dx_rec, dlogits, tape)
        return self._backward("enc", dzx, dzh, tape)[0]


# The architecture record: VectorFieldModel's arguments but `d` (the data's
# feature width) and `seed`, with their defaults, in the key order of a
# checkpoint's "arch" object. Training configs carry these fields.
ARCH_DEFAULTS = {
    name: param.default
    for name, param in inspect.signature(VectorFieldModel).parameters.items()
    if name not in ("d", "seed")
}
# The rule of each architecture argument, `d` included: VectorFieldModel holds its
# arguments to them, and training configs declare their architecture fields with them.
ARCH_RULES = {**dict.fromkeys(("d", "k", "hidden", "flow_layers", "decoder_layers"),
                              Rule(int, 1)),
              "identity_latent": Rule(bool), "coord_scale": Rule(float)}


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
    x = _center_sets(g.coords, g.n)
    mu_x, mu_h = model.encode_means(x, g.features)
    if sigma0 > 0:
        eps = sample_noise(g.n, model.k, seed)
        return LatentGeometry(g.n, mu_x + sigma0 * eps.coords, mu_h + sigma0 * eps.features)
    return LatentGeometry(g.n, mu_x, mu_h)


def decode(model: VectorFieldModel, z: LatentGeometry) -> Geometry:
    """Map a latent point set back to a Geometry (coords re-centered)."""
    if z.k != model.k:
        raise ValueError("latent feature width mismatch")
    x, feats = model.decode_arrays(_center_sets(z.coords, z.n), z.features)
    return Geometry(z.n, _center_sets(x, z.n), feats)


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


def _regression_loss(model: VectorFieldModel, z: LatentGeometry, t, ux, uh, tape=None):
    """Mean-squared error of v(z, t) against the target velocity (ux, uh);
    given a tape, also accumulates the loss's parameter gradients."""
    v = model.velocity(z, t, tape)
    dx, dh = v.coords - ux, v.features - uh
    numel = z.n * (3 + z.k)
    loss = (np.sum(dx**2) + np.sum(dh**2)) / numel
    if tape is not None:
        model.backward_velocity(2.0 * dx / numel, 2.0 * dh / numel, tape)
    return loss


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

    model.zero_grads()
    _regression_loss(model, z, t, ux, uh, tape=[])
    analytic = np.concatenate([g.ravel() for g in model.gradients()])

    flat = model.get_flat()
    numeric = np.empty_like(analytic)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        model.set_flat(flat)
        lp = _regression_loss(model, z, t, ux, uh)
        flat[i] = orig - step
        model.set_flat(flat)
        lm = _regression_loss(model, z, t, ux, uh)
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
