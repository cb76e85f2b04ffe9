"""Command-line driver: gendata / train / reflow / sample / eval / selftest.

Every command is deterministic given --seed. Exit codes: 0 success, 1 usage
error, 2 data error, 3 self-test failure, 4 solver error (the adaptive step
budget ran out).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, fields, replace

import numpy as np

from . import alignment, costs, data, flow, geometry, nn, ode

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# The flat config is TrainConfig's fields, with `lam` named "lambda" and its
# estimate_solver flattened through _SOLVER_KEYS, followed by ValidityRule's
# fields.
_RENAMED = {"lam": "lambda"}
_SOLVER_KEYS = {"method": "estimate_solver", "fixed_steps": "estimate_steps"}


def _flatten(tconf: flow.TrainConfig, rule: data.ValidityRule) -> dict:
    flat = {_RENAMED.get(f.name, f.name): getattr(tconf, f.name) for f in fields(tconf)}
    solver = flat.pop("estimate_solver")
    flat.update({_SOLVER_KEYS.get(k, k): v for k, v in asdict(solver).items()})
    flat.update(asdict(rule))
    return flat


DEFAULT_CONFIG = _flatten(flow.TrainConfig(), data.ValidityRule())


def train_config_from(cfg: dict) -> flow.TrainConfig:
    solver = ode.SolverConfig(
        **{f.name: cfg[_SOLVER_KEYS.get(f.name, f.name)] for f in fields(ode.SolverConfig)}
    )
    return flow.TrainConfig(**{
        f.name: solver if f.name == "estimate_solver" else cfg[_RENAMED.get(f.name, f.name)]
        for f in fields(flow.TrainConfig)
    })


def rule_from(cfg: dict) -> data.ValidityRule:
    return data.ValidityRule(**{f.name: cfg[f.name] for f in fields(data.ValidityRule)})


def _same_kind(value, default) -> bool:
    """Whether `value` has the JSON kind of the default `default`; a tuple
    default asks for a list of values of its first item's kind."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_same_kind(v, default[0]) for v in value)
    if isinstance(value, bool) or isinstance(default, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and math.isfinite(value)
    if default is None:
        return value is None or isinstance(value, int)
    return isinstance(value, type(default))


def _check_kinds(obj: dict, defaults: dict, what: str):
    """A UsageError naming the first key of `obj` whose value is not of the
    kind of its default; keys without a default are left to the caller."""
    for key, value in obj.items():
        if key in defaults and not _same_kind(value, defaults[key]):
            raise UsageError(f"{what} key {key!r} has value {value!r}, "
                             f"not of the kind of its default {defaults[key]!r}")


def _read_json_object(path, what: str) -> dict:
    """The JSON object in `path`; other JSON, or none, is a UsageError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise UsageError(f"{what} {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise UsageError(f"{what} {path} must hold a JSON object")
    return raw


def load_config(path, seed=None) -> dict:
    """The defaults updated from the flat JSON object in `path`, then from
    `seed` unless it is None, checked in full (kinds, then the TrainConfig
    and ValidityRule checks) before any work; every failure is a UsageError."""
    cfg = dict(DEFAULT_CONFIG)
    if path:
        user = _read_json_object(path, "config")
        unknown = set(user) - set(DEFAULT_CONFIG)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        _check_kinds(user, DEFAULT_CONFIG, "config")
        cfg.update(user)
    if seed is not None:
        cfg["seed"] = seed
    try:
        train_config_from(cfg)
        rule_from(cfg)
    except ValueError as e:
        raise UsageError(f"bad config: {e}") from e
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]


# --------------------------------------------------------------------------
# commands


def cmd_gendata(args) -> int:
    raw = _read_json_object(args.spec, "template spec")
    rule_dict = raw.pop("rule", None)
    if rule_dict is not None and not isinstance(rule_dict, dict):
        raise UsageError(f"template spec key 'rule' must be a JSON object, got {rule_dict!r}")
    _check_kinds(raw, asdict(data.TemplateSpec()), "template spec")
    _check_kinds(rule_dict or {}, asdict(data.ValidityRule()), "template spec rule")
    try:
        spec = data.TemplateSpec(**raw)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
        rule = data.ValidityRule(**rule_dict) if rule_dict else data.default_rule(spec)
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad template spec: {e}") from e
    geoms = data.make_dataset(spec, args.count, rule)
    data.save_geometries(args.out, geoms)
    sizes = sorted({g.n for g in geoms})
    print(
        f"wrote {len(geoms)} geometries (sizes {sizes}, d={geoms[0].d}) to {args.out}"
    )
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    tconf, rule = train_config_from(cfg), rule_from(cfg)
    dataset = data.load_geometries(args.data)
    t0 = time.perf_counter()
    model, losses = flow.train(dataset, tconf)
    wall = time.perf_counter() - t0
    model.meta["rule"] = asdict(rule)
    model.meta["config_hash"] = config_hash(cfg)
    data.save_checkpoint(args.out, model)
    if args.loss_csv:
        data.save_loss_curve(args.loss_csv, losses)
    tail = float(np.mean(losses[-100:]))
    print(
        f"trained {model.param_count}-parameter model on {len(dataset)} geometries "
        f"in {wall:.1f}s ({len(losses)} steps, trailing loss {tail:.3e}); "
        f"checkpoint {args.out}"
    )
    return 0


def _flag_checked(build, *args, **kwargs):
    """`build(*args, **kwargs)`, its range errors reported as usage errors:
    checks command-line flags before any file is read."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        raise UsageError(f"bad flag value: {e}") from e


def _shuffled_baseline(cset: flow.CouplingSet) -> flow.CouplingSet:
    """Re-pair each noise with the target of another pair of its size
    (cyclic shift per size). A size with one pair has no other target, so
    its pair is left out; the result may be empty."""
    by_n: dict = {}
    for p in cset:
        by_n.setdefault(p.z0.n, []).append(p)
    pairs = []
    for group in by_n.values():
        if len(group) > 1:
            for i, p in enumerate(group):
                q = group[(i + 1) % len(group)]
                pairs.append(flow.CouplingPair(p.z0, q.z1, source="random"))
    return flow.CouplingSet(pairs)


def cmd_reflow(args) -> int:
    cfg = load_config(args.config, args.seed)
    if args.purify is not None:
        cfg["purify"] = args.purify == "on"
    if args.pairs is not None:
        cfg["reflow_pairs"] = args.pairs
    tconf = _flag_checked(train_config_from, cfg)
    model = data.load_checkpoint(args.ckpt)
    rule = data.ValidityRule.from_meta(model.meta) or rule_from(cfg)
    dataset = data.load_geometries(args.data) if args.data else None

    def validity(g):
        return data.is_valid(g, rule)[0]

    chash = config_hash(cfg)
    for rnd in range(args.rounds):
        t0 = time.perf_counter()
        round_conf = replace(tconf, seed=tconf.seed + rnd)
        model, cset = flow.reflow(model, round_conf, validity, threads=args.threads)
        wall = time.perf_counter() - t0
        est = costs.distribution_cost(cset, lam=tconf.lam)
        if dataset is not None:
            base_set = flow.random_couplings(
                model, dataset, len(cset), seed=tconf.seed + 90_000 + rnd
            )
        else:
            base_set = _shuffled_baseline(cset)
        base = (f"{costs.distribution_cost(base_set, lam=tconf.lam).total_cost:.4f}"
                if len(base_set) else "n/a")
        kept_rate = sum(1 for p in cset if p.valid) / len(cset)
        print(
            f"round {rnd + 1}: estimated-coupling cost {est.total_cost:.4f} "
            f"vs random-coupling cost {base} "
            f"({len(cset)} pairs, retained validity {kept_rate:.3f})"
        )
        if args.metrics:
            data.append_metrics(args.metrics, data.RunMetrics(
                phase=f"reflow_round{rnd + 1}", seed=tconf.seed, config_hash=chash,
                distribution_cost=est.total_cost, per_atom_cost=est.per_atom_cost,
                validity_rate=kept_rate, wall_seconds=wall,
            ).as_row())
    data.save_checkpoint(args.out, model)
    if args.pairs_out:
        data.save_pairs(args.pairs_out, cset)
    return 0


def cmd_sample(args) -> int:
    solver = _flag_checked(ode.SolverConfig, method=args.solver, fixed_steps=args.steps,
                           rtol=args.rtol, atol=args.atol, max_steps=args.max_steps,
                           init_step=args.init_step)
    model = data.load_checkpoint(args.ckpt)
    sampler = flow.SizeSampler.from_meta(model.meta)
    t0 = time.perf_counter()
    out = flow.generate(model, sampler, args.count, solver, args.seed, threads=args.threads)
    wall = time.perf_counter() - t0
    geoms = [g for g, _ in out]
    steps = [s for _, s in out]
    data.save_geometries(args.out, geoms)
    rule = data.ValidityRule.from_meta(model.meta)
    validity = (sum(data.is_valid(g, rule)[0] for g in geoms) / len(geoms)
                if geoms and rule is not None else None)
    metrics = data.RunMetrics(
        phase="sample",
        seed=args.seed,
        config_hash=model.meta.get("config_hash", ""),
        mean_steps=float(np.mean(steps)) if steps else None,
        median_steps=float(np.median(steps)) if steps else None,
        validity_rate=validity,
        wall_seconds=wall,
    )
    if args.metrics:
        data.append_metrics(args.metrics, metrics.as_row())
    print(
        f"sampled {len(geoms)} geometries to {args.out} "
        f"(mean steps {metrics.mean_steps}, validity {validity}, {wall:.1f}s)"
    )
    return 0


def cmd_eval(args) -> int:
    if not 0.0 <= args.lam <= 1.0:
        raise UsageError("--lambda must lie in [0, 1]")
    cset = data.load_pairs(args.pairs)
    report = costs.distribution_cost(cset, lam=args.lam, exact=args.exact)
    print(costs.CSV_HEADER)
    print(report.csv_row())
    return 0


# --------------------------------------------------------------------------
# self-test suites


def _check(checks, name, ok, detail=""):
    checks.append((name, bool(ok), detail))
    return ok


def suite_align():
    checks = []
    rng = np.random.default_rng(11)

    exact = 0
    for _ in range(60):
        n = int(rng.integers(2, 8))
        m = rng.random((n, n))
        perm = alignment.hungarian(alignment.CostMatrix(m))
        got = m[perm.map, np.arange(n)].sum()
        best = min(
            m[list(p), np.arange(n)].sum() for p in itertools.permutations(range(n))
        )
        exact += got == best
    _check(checks, "hungarian-vs-enumeration", exact == 60, f"{exact}/60 exact")

    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(3, 9))
        x = rng.standard_normal((n, 3))
        x -= x.mean(axis=0)
        rot = geometry.rotation_from_rng(rng)
        est = alignment.kabsch(x @ rot.r.T, x)
        worst = max(worst, float(np.linalg.norm(est.r - rot.r.T)))
    _check(checks, "kabsch-planted-rotation", worst < 1e-9, f"max dev {worst:.2e}")

    dominated = True
    for _ in range(5):
        n = int(rng.integers(3, 8))
        a = rng.standard_normal((n, 3))
        b = rng.standard_normal((n, 3))
        a -= a.mean(axis=0)
        b -= b.mean(axis=0)
        best = alignment.kabsch(a, b)
        ours = ((a @ best.r.T - b) ** 2).sum()
        qs, _ = np.linalg.qr(rng.standard_normal((2000, 3, 3)))
        trial = ((np.einsum("rij,nj->rni", qs, a) - b) ** 2).sum(axis=(1, 2)).min()
        dominated &= ours <= trial + 1e-12
    _check(checks, "kabsch-random-rotation-oracle", dominated, "5x2000 rotations")

    agree, below = 0, 0.0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        z1 = flow.sample_noise(n, 2, rng)
        z0 = flow.sample_noise(n, 2, rng)
        sol = alignment.solve_omt(z1, z0, max_iters=30, restarts=32)
        oracle, _, _ = alignment.brute_force_omt(z1, z0)
        agree += abs(sol.cost - oracle) <= 1e-8
        below = max(below, oracle - sol.cost)
    _check(
        checks,
        "solve-omt-vs-oracle",
        agree >= 38 and below <= 1e-9,
        f"{agree}/40 within 1e-8, max undershoot {below:.1e}",
    )

    dev = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 6))
        z1 = flow.sample_noise(n, 2, rng)
        z0 = flow.sample_noise(n, 2, rng)
        base, _, _ = alignment.brute_force_omt(z1, z0)
        rot = geometry.rotation_from_rng(rng)
        perm = rng.permutation(n)
        x = (z1.coords @ rot.r.T + rng.standard_normal(3))[perm]
        z1t = geometry.LatentGeometry(n, x - x.mean(axis=0), z1.features[perm])
        moved, _, _ = alignment.brute_force_omt(z1t, z0)
        dev = max(dev, abs(moved - base))
    _check(checks, "oracle-transform-invariance", dev <= 1e-8, f"max dev {dev:.1e}")
    return checks


def suite_nn():
    checks = []
    rng = np.random.default_rng(23)

    rot_dev, feat_dev, com_dev, perm_exact = 0.0, 0.0, 0.0, True
    for draw in range(10):
        model = nn.VectorFieldModel(
            d=2, k=2, hidden=12, flow_layers=2, identity_latent=True, seed=100 + draw
        )
        n = int(rng.integers(3, 8))
        z = flow.sample_noise(n, 2, rng)
        t = float(rng.uniform())
        v = model.velocity(z, t)
        rot = geometry.rotation_from_rng(rng)
        zr = geometry.LatentGeometry(n, z.coords @ rot.r.T, z.features)
        vr = model.velocity(zr, t)
        rot_dev = max(rot_dev, float(np.abs(vr.coords - v.coords @ rot.r.T).max()))
        feat_dev = max(feat_dev, float(np.abs(vr.features - v.features).max()))
        com_dev = max(com_dev, float(np.abs(v.coords.mean(axis=0)).max()))
        perm = rng.permutation(n)
        zp = geometry.LatentGeometry(n, z.coords[perm], z.features[perm])
        vp = model.velocity(zp, t)
        perm_exact &= np.array_equal(vp.coords, v.coords[perm]) and np.array_equal(
            vp.features, v.features[perm]
        )
    _check(checks, "rotation-equivariance", rot_dev <= 1e-7, f"max dev {rot_dev:.1e}")
    _check(checks, "feature-invariance", feat_dev <= 1e-7, f"max dev {feat_dev:.1e}")
    _check(checks, "zero-com-velocity", com_dev <= 1e-9, f"max CoM {com_dev:.1e}")
    _check(checks, "permutation-exactness", perm_exact, "bitwise")

    worst = 0.0
    for seed in (0, 1):
        rep = nn.grad_check(
            lambda: nn.VectorFieldModel(
                d=2, k=2, hidden=6, flow_layers=2, identity_latent=True, seed=5
            ),
            tolerance=1e-4,
            seed=seed,
        )
        worst = max(worst, rep.max_rel_err)
    _check(checks, "gradient-check", worst <= 1e-4, f"max rel err {worst:.1e}")

    w = rng.standard_normal((3, 4))
    x = rng.standard_normal((6, 4))
    y = rng.standard_normal((6, 3))
    net = nn.DenseNet([4, 3], np.random.default_rng(0))
    net.weights[0][...] = w
    net.biases[0][...] = 0.0
    tape = []
    pred = net.forward(x, tape)
    net.zero_grads()
    net.backward(2.0 * (pred - y), tape)
    closed = 2.0 * (x @ w.T - y).T @ x
    dev = float(np.abs(net.grad_w[0] - closed).max())
    _check(checks, "dense-closed-form-gradient", dev <= 1e-9, f"max dev {dev:.1e}")
    return checks


def suite_flow():
    checks = []
    rng = np.random.default_rng(37)

    c = rng.standard_normal(12)
    y0 = rng.standard_normal(12)
    y1, _ = ode.integrate(lambda t, y: c, y0, ode.SolverConfig("euler", fixed_steps=7))
    # Seven rounded steps of h = 1/7 need not sum to y0 + c exactly; they
    # must equal the same seven steps taken by hand, bit for bit.
    y = y0
    for _ in range(7):
        y = y + (1 / 7) * c
    dev = float(np.abs(y1 - (y0 + c)).max())
    _check(checks, "euler-constant-field-exact", np.array_equal(y1, y) and dev <= 1e-14,
           f"bitwise, max dev from y0 + c {dev:.1e}")

    a = 0.6
    y1, _ = ode.integrate(
        lambda t, y: a * y, y0, ode.SolverConfig("rk4", fixed_steps=200)
    )
    dev = float(np.abs(y1 - y0 * np.exp(a)).max())
    _check(checks, "rk4-linear-field", dev <= 1e-10, f"max dev {dev:.1e}")

    z0 = flow.sample_noise(5, 2, rng)
    z1 = flow.sample_noise(5, 2, rng)
    ok = (
        np.array_equal(flow.interpolate(z0, z1, 0.0).coords, z0.coords)
        and np.array_equal(flow.interpolate(z0, z1, 1.0).features, z1.features)
    )
    _check(checks, "interpolate-endpoints", ok, "")

    com = max(
        float(np.abs(flow.sample_noise(6, 2, s).coords.mean(axis=0)).max())
        for s in range(50)
    )
    _check(checks, "noise-zero-com", com <= 1e-12, f"max CoM {com:.1e}")

    spec = data.TemplateSpec(
        num_templates=2, atoms_per_template=(4, 5), feature_classes=3,
        jitter_sigma=0.03, seed=5,
    )
    dataset = data.make_dataset(spec, 120)
    conf = flow.TrainConfig(
        epochs=4, batch_size=16, lr=2e-3, sigma0=0.01, seed=3,
        k=3, hidden=16, flow_layers=2, identity_latent=True,
        estimate_solver=ode.SolverConfig("rk4", fixed_steps=30),
    )
    model, losses = flow.train(dataset, conf)
    sampler = flow.SizeSampler.from_dataset(dataset)
    est = flow.estimate_couplings(model, 150, conf.estimate_solver, 17, sampler)
    rand = flow.random_couplings(model, dataset, 150, 18)
    est_costs = [
        costs.optimal_molecule_cost(p.z0, p.z1, max_iters=10, restarts=2) for p in est
    ]
    rand_costs = [
        costs.optimal_molecule_cost(p.z0, p.z1, max_iters=10, restarts=2) for p in rand
    ]
    se = float(
        np.sqrt(np.var(est_costs) / len(est_costs) + np.var(rand_costs) / len(rand_costs))
    )
    gap = float(np.mean(est_costs) - np.mean(rand_costs))
    _check(
        checks,
        "estimated-coupling-cost-monotone",
        gap <= 2 * se,
        f"estimated {np.mean(est_costs):.3f} vs random {np.mean(rand_costs):.3f} (2se {2 * se:.3f})",
    )
    _check(
        checks,
        "training-loss-decreases",
        np.mean(losses[-10:]) < np.mean(losses[:10]),
        f"{np.mean(losses[:10]):.3f} -> {np.mean(losses[-10:]):.3f}",
    )
    return checks


def cmd_selftest(args) -> int:
    suites = {"align": suite_align, "nn": suite_nn, "flow": suite_flow}
    names = list(suites) if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        for check, ok, detail in suites[name]():
            status = "PASS" if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            print(f"[{name}] {check}: {status}{suffix}")
            failed += not ok
    if failed:
        print(f"{failed} self-test check(s) failed")
        return 3
    print("all self-test checks passed")
    return 0


# --------------------------------------------------------------------------
# argument plumbing


def _int_at_least(low):
    """An argparse type: an integer of at least `low`; others are usage
    errors at parse time, before any file is read."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def build_parser() -> _Parser:
    parser = _Parser(prog="geomflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gendata", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="TemplateSpec JSON file")
    p.add_argument("--count", type=_int_at_least(1), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.set_defaults(func=cmd_gendata)

    p = sub.add_parser("train", help="train the flow model")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="flat JSON config")
    p.add_argument("--out", required=True)
    p.add_argument("--loss-csv", default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reflow", help="estimate/purify couplings and fine-tune")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--rounds", type=_int_at_least(1), default=1)
    p.add_argument("--purify", choices=("on", "off"), default=None,
                   help="overrides the config's purify")
    p.add_argument("--out", required=True)
    p.add_argument("--pairs-out", default=None)
    p.add_argument("--pairs", type=int, default=None, help="couplings per round")
    p.add_argument("--config", default=None)
    p.add_argument("--data", default=None, help="dataset for the random-coupling baseline")
    p.add_argument("--metrics", default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument("--threads", type=_int_at_least(1), default=1)
    p.set_defaults(func=cmd_reflow)

    solver = ode.SolverConfig()
    p = sub.add_parser("sample", help="generate geometries from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--count", type=_int_at_least(0), required=True)
    p.add_argument("--solver", choices=ode.METHODS, default=solver.method)
    p.add_argument("--steps", type=int, default=solver.fixed_steps)
    p.add_argument("--rtol", type=float, default=solver.rtol)
    p.add_argument("--atol", type=float, default=solver.atol)
    p.add_argument("--max-steps", type=int, default=solver.max_steps)
    p.add_argument("--init-step", type=float, default=solver.init_step)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--threads", type=_int_at_least(1), default=1)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="transport cost of a coupling file")
    p.add_argument("--pairs", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=alignment.LAMBDA)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selftest", help="run the built-in verification suites")
    p.add_argument("--suite", choices=("align", "nn", "flow", "all"), default="all")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ode.BudgetExceededError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return 4
    except (data.PersistenceError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
