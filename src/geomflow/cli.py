"""Command-line driver: gendata / train / reflow / sample / eval / selftest.

Every command is deterministic given --seed. Exit codes: 0 success, 1 usage
error, 2 data error, 3 self-test failure, 4 solver error (the adaptive step
budget ran out).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import sys
import time
from dataclasses import asdict, fields, replace
from functools import partial

import numpy as np

from . import _checks, alignment, costs, data, flow, ode
from ._rules import FieldError, Rule, field_rules


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# The flat config is TrainConfig's fields, its estimate_solver flattened into SolverConfig's,
# then ValidityRule's. A field in _KEYS has that config key, every other its own name.
_KEYS = {"lam": "lambda", "method": "estimate_solver", "fixed_steps": "estimate_steps"}


def _flatten(tconf: flow.TrainConfig, rule: data.ValidityRule) -> dict:
    flat = {_KEYS.get(f.name, f.name): getattr(tconf, f.name) for f in fields(tconf)}
    solver = flat.pop("estimate_solver")
    flat.update({_KEYS.get(k, k): v for k, v in asdict(solver).items()})
    flat.update(asdict(rule))
    return flat


DEFAULT_CONFIG = _flatten(flow.TrainConfig(), data.ValidityRule())


def train_config_from(cfg: dict) -> flow.TrainConfig:
    solver = ode.SolverConfig(**{f.name: cfg[_KEYS.get(f.name, f.name)]
                                 for f in fields(ode.SolverConfig)})
    return flow.TrainConfig(**{
        f.name: solver if f.name == "estimate_solver" else cfg[_KEYS.get(f.name, f.name)]
        for f in fields(flow.TrainConfig)
    })


def rule_from(cfg: dict) -> data.ValidityRule:
    return data.ValidityRule(**{f.name: cfg[f.name] for f in fields(data.ValidityRule)})


def _usage_error(what: str, e: Exception) -> UsageError:
    """A record's TypeError or ValueError as a usage error; a field is named by its key."""
    problem = f"{_KEYS.get(e.field, e.field)} {e.problem}" if isinstance(e, FieldError) else e
    return UsageError(f"bad {what}: {problem}")


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
    `seed` unless it is None, checked in full (by building the TrainConfig
    and the ValidityRule) before any work; every failure is a UsageError."""
    cfg = dict(DEFAULT_CONFIG)
    if path:
        user = _read_json_object(path, "config")
        unknown = set(user) - set(DEFAULT_CONFIG)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(user)
    if seed is not None:
        cfg["seed"] = seed
    try:
        train_config_from(cfg)
        rule_from(cfg)
    except ValueError as e:
        raise _usage_error("config", e) from e
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
    if args.seed is not None:
        raw["seed"] = args.seed
    try:
        spec = data.TemplateSpec(**raw)
        rule = data.ValidityRule(**rule_dict) if rule_dict else data.default_rule(spec)
    except (TypeError, ValueError) as e:
        raise _usage_error("template spec", e) from e
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
    tconf = train_config_from(cfg)
    model = data.load_checkpoint(args.ckpt)
    rule = data.ValidityRule.from_meta(model.meta) or rule_from(cfg)
    dataset = data.load_geometries(args.data) if args.data else None

    def validity(g):
        return data.is_valid(g, rule)[0]

    chash = config_hash(cfg)
    for rnd in range(args.rounds):
        t0 = time.perf_counter()
        round_conf = replace(tconf, seed=tconf.seed + rnd)
        count = flow._reflow_count(model, round_conf)
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
        # The share of the round's estimated pairs that decoded valid, kept or not.
        kept_rate = sum(1 for p in cset if p.valid) / count
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
    solver = ode.SolverConfig(method=args.solver, fixed_steps=args.steps, rtol=args.rtol,
                              atol=args.atol, max_steps=args.max_steps,
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
    cset = data.load_pairs(args.pairs)
    report = costs.distribution_cost(cset, lam=args.lam, exact=args.exact)
    print(costs.CSV_HEADER)
    print(report.csv_row())
    return 0


# --------------------------------------------------------------------------
# self-test

# Each suite's checks, from geomflow._checks, with the small sizes selftest
# passes; the acceptance tests pass the criteria's own sizes.
SELFTEST = {
    "align": ((_checks.assignment_exactness, 60), (_checks.rotation_optimality, 30, 2000),
              (_checks.omt_oracle_agreement, 40), (_checks.transform_invariance, 20)),
    "nn": ((_checks.equivariance, 10), (_checks.gradient_correctness, 2),
           (_checks.dense_closed_form_gradient,)),
    "flow": ((_checks.synthetic_fields,), (_checks.interpolate_endpoints,),
             (_checks.noise_zero_com, 50), (_checks.trained_couplings, 150)),
}


def cmd_selftest(args) -> int:
    failed = 0
    for suite in SELFTEST if args.suite == "all" else [args.suite]:
        for check, *sizes in SELFTEST[suite]:
            for name, ok, detail in check(*sizes).checks:
                suffix = f" ({detail})" if detail else ""
                print(f"[{suite}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
                failed += not ok
    if failed:
        print(f"{failed} self-test check(s) failed")
        return 3
    print("all self-test checks passed")
    return 0


# --------------------------------------------------------------------------
# argument plumbing


def _flag(rule, text):
    """A flag's `text` read as `rule`'s kind and held to the rule. Bound to a
    rule by `partial`, this is an argparse type: a bad value is a usage error
    at parse time, before any file is read."""
    try:
        return rule.check("flag", rule.kind(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="geomflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    train_rules = field_rules(flow.TrainConfig)
    positive, seed = partial(_flag, Rule(int, 1)), partial(_flag, train_rules["seed"])

    p = sub.add_parser("gendata", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="TemplateSpec JSON file")
    p.add_argument("--count", type=positive, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=partial(_flag, field_rules(data.TemplateSpec)["seed"]),
                   default=None)
    p.set_defaults(func=cmd_gendata)

    p = sub.add_parser("train", help="train the flow model")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="flat JSON config")
    p.add_argument("--out", required=True)
    p.add_argument("--loss-csv", default=None)
    p.add_argument("--seed", type=seed, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reflow", help="estimate/purify couplings and fine-tune")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--rounds", type=positive, default=1)
    p.add_argument("--purify", choices=("on", "off"), default=None,
                   help="overrides the config's purify")
    p.add_argument("--out", required=True)
    p.add_argument("--pairs-out", default=None)
    p.add_argument("--pairs", type=partial(_flag, train_rules["reflow_pairs"]), default=None,
                   help="couplings per round")
    p.add_argument("--config", default=None)
    p.add_argument("--data", default=None, help="dataset for the random-coupling baseline")
    p.add_argument("--metrics", default=None)
    p.add_argument("--seed", type=seed, default=None)
    p.add_argument("--threads", type=positive, default=1)
    p.set_defaults(func=cmd_reflow)

    solver = ode.SolverConfig()
    p = sub.add_parser("sample", help="generate geometries from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--count", type=partial(_flag, Rule(int, 0)), required=True)
    p.add_argument("--solver", choices=ode.METHODS, default=solver.method)
    for flag, name in (("--steps", "fixed_steps"), ("--rtol", "rtol"), ("--atol", "atol"),
                       ("--max-steps", "max_steps"), ("--init-step", "init_step")):
        p.add_argument(flag, type=partial(_flag, field_rules(solver)[name]),
                       default=getattr(solver, name))
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--threads", type=positive, default=1)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="transport cost of a coupling file")
    p.add_argument("--pairs", required=True)
    p.add_argument("--lambda", dest="lam", type=partial(_flag, train_rules["lam"]),
                   default=alignment.LAMBDA)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selftest", help="run the built-in verification suites")
    p.add_argument("--suite", choices=(*SELFTEST, "all"), default="all")
    p.set_defaults(func=cmd_selftest)
    return parser


# glibc's mallopt(3) parameters. By default glibc returns a freed heap top
# above its trim threshold to the kernel and maps blocks above its mmap
# threshold (128 KiB at start) afresh, so each training item or stacked
# solve, which frees its pass records at its end, leaves the next one to
# zero-fill fresh pages: about 50,000 page faults per benchmark `train`
# command. The largest array of a pass is an edge array, at most
# flow._STACK_EDGES x (2 hidden + 1) x 8 B, which stays under the 32 MiB mmap
# threshold (the ceiling of glibc's own threshold adjustment on 64-bit
# systems) up to hidden 511. A pass's tape holds a few such arrays per layer;
# the 256 MiB trim threshold keeps the whole freed tape. Both only bound what
# is kept: the heap never holds more than its peak.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_BYTES = 256 << 20
_MMAP_BYTES = 32 << 20


def _keep_heap() -> None:
    """Keep the freed heap in the process (glibc only; elsewhere a no-op).
    Where arrays live changes no output bit. Called by `main`, not at import:
    a library leaves its host's allocator alone."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)


def main(argv=None) -> int:
    _keep_heap()
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
