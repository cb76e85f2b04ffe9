"""The four workloads: seeded inputs, set-up, one timed CLI command, checks.

Every operation is one `geomflow.cli.main([...])` call made in-process with
its standard output captured; only that call is timed. All operations of a
run are the same command with a per-operation seed drawn from the run's
seed, so every run attempts whole rounds of the same work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import inputs
import reference
from geomflow import cli, data, flow, nn, ode
from geomflow.geometry import LatentGeometry

RULE = inputs.Rule()
CLASSES = 4

# The model that `sample` and `reflow` run on. It is trained in set-up from
# a fixed dataset and seed, so that runs differ only in the draws their seed
# controls: a model per seed moved the adaptive solver's step count per
# geometry by up to 20% between seeds, more than the bounds allow.
MODEL_SIZES = (5, 6, 7, 8)
MODEL_COPIES = 32
MODEL_DATA_SEED = 0
MODEL_CONFIG = {"hidden": 32, "flow_layers": 2, "k": 2, "identity_latent": False,
                "epochs": 10, "ae_epochs": 8, "batch_size": 16, "lr": 1e-3,
                "seed": 0, **RULE.to_config()}

SAMPLE_COUNT = 8
# The adaptive solve is compared with a fixed-step RK4 of RK4_STEPS steps
# (its own error is below 1e-6). The agreement bound is in units of the
# solver's per-step tolerance atol + rtol |y|, RMS over the state: local
# errors of about 6 accepted steps added up to global errors of up to 4.7
# such units on this model over 60 draws.
RK4_STEPS = 100
RK4_AGREEMENT = 10.0

REFLOW_PAIRS = 16
REFLOW_CONFIG = {**MODEL_CONFIG, "reflow_epochs": 2}

TRAIN_SIZES = (5, 9, 13, 17, 21, 25, 29)
TRAIN_COPIES = 4
TRAIN_CONFIG = {"hidden": 32, "flow_layers": 2, "k": 2, "identity_latent": False,
                "use_omt": True, "epochs": 3, "ae_epochs": 1, "batch_size": 4,
                "lr": 2e-3, **RULE.to_config()}
# One step's loss can be hundreds of times the curve's median, so one
# command's curve of 21 steps does not always show the decrease: over 160
# commands the trailing third's mean was above the leading third's once
# (README). The check asks it of this share of a run's commands.
LOSS_DECREASE_SHARE = 0.8

EVAL_SIZES = (5, 6, 7, 8, 11, 14, 17, 20, 23, 26, 29) * 2
EVAL_K = 2
EVAL_LAMBDA = 0.5
# The oracle check pools the pairs of at most 8 points of the first
# ORACLE_OPS operations: 80 planted copies and 80 independent pairs. Over
# 3200 such pairs `geomflow eval` reached the oracle's optimum on 77% of the
# planted copies and 44% of the independent pairs (see README.md). The
# floors below are where a binomial count of 80 falls with probability
# 1e-5 at rates two standard errors under those (75% and 41%); with one
# restart instead of four the rates fell to 32% and 13%.
ORACLE_OPS = 20
ORACLE_FLOORS = {"planted": 42, "independent": 15}
EVAL_HEADER = "space,total_cost,per_atom_cost,coord_part,feature_part,num_pairs"


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def run_cli(argv):
    """(exit code, captured standard output) of one in-process CLI call. An
    exception that escapes cli.main, SystemExit included, is printed to
    standard error and counts as exit code 1."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main([str(a) for a in argv])
        except (Exception, SystemExit):
            traceback.print_exc()
            rc = 1
    return rc, buf.getvalue()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def file_bytes(d):
    """Every file of an operation's directory, metrics.csv without its
    wall-clock column."""
    out = {}
    for name in sorted(os.listdir(d)):
        path = os.path.join(d, name)
        if name == "metrics.csv":
            rows = [{k: v for k, v in r.items() if k != "wall_seconds"}
                    for r in read_csv(path)]
            out[name] = json.dumps(rows).encode()
        else:
            with open(path, "rb") as f:
                out[name] = f.read()
    return out


def pack(z):
    return np.concatenate([z.coords.ravel(), z.features.ravel()])


def unpack(y, n, k):
    return LatentGeometry(n, y[: 3 * n].reshape(n, 3), y[3 * n:].reshape(n, k))


@dataclass
class Op:
    index: int
    dir: str
    items: int
    seconds: float
    rc: int
    stdout: str


class Workload:
    """Set-up writes the inputs into a directory; `run_op` runs operation i
    in a directory of its own; the checks raise CheckFailed."""

    name = ""
    items = 1
    compare_stdout = False

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = None
        self.record = {}  # untimed measurements for the run record

    def op_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def setup(self, d):
        raise NotImplementedError

    def argv(self, i, d):
        raise NotImplementedError

    def run_op(self, i, d) -> Op:
        os.makedirs(d)
        argv = self.argv(i, d)
        t0 = perf_counter()
        rc, out = run_cli(argv)
        return Op(i, d, self.items, perf_counter() - t0, rc, out)

    def outputs(self, op: Op) -> dict:
        out = file_bytes(op.dir)
        if self.compare_stdout:
            out["stdout"] = op.stdout.encode()
        return out

    def check_op(self, op: Op):
        pass

    def check_run(self, ops, work):
        pass


def _model_setup(d):
    """Write the fixed model dataset and train the model with the CLI."""
    os.makedirs(d)
    geoms = inputs.dataset(MODEL_SIZES, MODEL_COPIES, CLASSES, MODEL_DATA_SEED)
    paths = {k: os.path.join(d, v) for k, v in (
        ("data", "model.geoms.jsonl"), ("config", "model.json"),
        ("ckpt", "model.gflow.ckpt"), ("loss", "model.loss.csv"))}
    inputs.write_geoms(paths["data"], geoms)
    with open(paths["config"], "w", encoding="utf-8") as f:
        json.dump(MODEL_CONFIG, f)
    rc, _ = run_cli(["train", "--data", paths["data"], "--config", paths["config"],
                     "--out", paths["ckpt"], "--loss-csv", paths["loss"]])
    check(rc == 0, f"set-up training exited {rc}")
    return paths


class Sample(Workload):
    """geomflow sample --solver adaptive at the CLI's default tolerances."""

    name = "sample"
    items = SAMPLE_COUNT

    def setup(self, d):
        self.inputs = _model_setup(d)
        header = inputs.read_ckpt_header(self.inputs["ckpt"])
        self.sizes = {int(n) for n in header["arch"]["meta"]["size_hist"]}

    def argv(self, i, d):
        return ["sample", "--ckpt", self.inputs["ckpt"], "--count", SAMPLE_COUNT,
                "--solver", "adaptive", "--out", os.path.join(d, "samples.geoms.jsonl"),
                "--metrics", os.path.join(d, "metrics.csv"), "--seed", self.op_seed(i),
                "--threads", 1]

    def check_op(self, op):
        geoms = inputs.read_geoms(os.path.join(op.dir, "samples.geoms.jsonl"))
        check(len(geoms) == SAMPLE_COUNT, f"{len(geoms)} geometries, not {SAMPLE_COUNT}")
        for x, h, _ in geoms:
            check(np.isfinite(x).all() and np.isfinite(h).all(), "non-finite geometry")
            check(np.abs(x.mean(axis=0)).max() <= 1e-9, "geometry not zero-CoM")
            check(x.shape[0] in self.sizes, f"size {x.shape[0]} not in the histogram")
        valid = sum(reference.is_valid(x, h, RULE) for x, h, _ in geoms)
        (row,) = read_csv(os.path.join(op.dir, "metrics.csv"))
        check(abs(float(row["validity_rate"]) - valid / len(geoms)) <= 1e-12,
              f"validity {row['validity_rate']} but the rule accepts {valid}/{len(geoms)}")

    def check_run(self, ops, work):
        # Repeat operation 0 untimed, counting velocity evaluations.
        cls = nn.VectorFieldModel
        velocity = cls.velocity
        calls = [0]

        def counted(self_, *args, **kwargs):
            calls[0] += 1
            return velocity(self_, *args, **kwargs)

        cls.velocity = counted
        try:
            again = self.run_op(0, os.path.join(work, "nfe"))
        finally:
            cls.velocity = velocity
        check(again.rc == 0, f"repeated sample exited {again.rc}")
        check(self.outputs(again) == self.outputs(ops[0]),
              "the same seed gave different sample files")
        (row,) = read_csv(os.path.join(again.dir, "metrics.csv"))
        self.record["nfe_per_geom"] = calls[0] / SAMPLE_COUNT
        self.record["accepted_steps_per_geom"] = float(row["mean_steps"])
        check(calls[0] / SAMPLE_COUNT >= float(row["mean_steps"]),
              "fewer velocity evaluations than accepted steps")

        # The adaptive solve against a fine fixed-step RK4 on nn.forward.
        model = data.load_checkpoint(self.inputs["ckpt"])
        solver = ode.SolverConfig("adaptive")
        errors = []
        for j, n in enumerate(sorted(self.sizes)[-3:]):
            z0 = flow.sample_noise(n, model.k, self.op_seed(10_000 + j))
            z1, _ = flow.sample_ode(model, z0, solver)
            ref = reference.rk4(
                lambda t, y: pack(nn.forward(model, unpack(y, n, model.k), t)),
                pack(z0), RK4_STEPS)
            scale = solver.atol + solver.rtol * np.abs(ref)
            errors.append(float(np.sqrt(np.mean(((pack(z1) - ref) / scale) ** 2))))
        self.record["adaptive_vs_rk4_error"] = errors
        check(max(errors) <= RK4_AGREEMENT,
              f"adaptive vs RK4 error {max(errors):.2f} tolerance units")


class Train(Workload):
    """geomflow train with the autoencoder and OMT alignment on."""

    name = "train"
    items = (TRAIN_CONFIG["epochs"] + TRAIN_CONFIG["ae_epochs"]) * len(TRAIN_SIZES) * TRAIN_COPIES

    def __init__(self, seed):
        super().__init__(seed)
        # Drawn once, outside set-up: placing 29 points at random takes a
        # seed-dependent number of tries, which made set-up time vary by a
        # third between seeds.
        self.geoms = inputs.dataset(TRAIN_SIZES, TRAIN_COPIES, CLASSES, seed)
        self.decreased = []

    def setup(self, d):
        os.makedirs(d)
        self.inputs = {"data": os.path.join(d, "train.geoms.jsonl"),
                       "config": os.path.join(d, "train.json")}
        inputs.write_geoms(self.inputs["data"], self.geoms)
        with open(self.inputs["config"], "w", encoding="utf-8") as f:
            json.dump(TRAIN_CONFIG, f)
        # Warm-up: one epoch of each kind on one geometry per size.
        warm = os.path.join(d, "warmup.geoms.jsonl")
        inputs.write_geoms(warm, self.geoms[: len(TRAIN_SIZES)])
        warm_config = os.path.join(d, "warmup.json")
        with open(warm_config, "w", encoding="utf-8") as f:
            json.dump({**TRAIN_CONFIG, "epochs": 1, "ae_epochs": 1}, f)
        rc, _ = run_cli(["train", "--data", warm, "--config", warm_config,
                         "--out", os.path.join(d, "warmup.gflow.ckpt")])
        check(rc == 0, f"warm-up training exited {rc}")

    def argv(self, i, d):
        return ["train", "--data", self.inputs["data"], "--config", self.inputs["config"],
                "--out", os.path.join(d, "model.gflow.ckpt"),
                "--loss-csv", os.path.join(d, "loss.csv"), "--seed", self.op_seed(i)]

    def check_op(self, op):
        losses = np.array([float(r["loss"]) for r in read_csv(os.path.join(op.dir, "loss.csv"))])
        check(losses.size >= 3 and np.isfinite(losses).all(), "loss curve not finite")
        third = losses.size // 3
        self.decreased.append(bool(losses[-third:].mean() < losses[:third].mean()))
        path = os.path.join(op.dir, "model.gflow.ckpt")
        model = data.load_checkpoint(path)
        rng = np.random.default_rng(op.index)
        n = 9
        x = rng.standard_normal((n, 3))
        z = LatentGeometry(n, x - x.mean(axis=0), rng.standard_normal((n, model.k)))
        t = 0.37
        v = model.velocity(z, t)
        rot = inputs.rotation(rng)
        vr = model.velocity(LatentGeometry(n, z.coords @ rot.T, z.features), t)
        check(np.abs(vr.coords - v.coords @ rot.T).max() <= 1e-7,
              "velocity is not rotation-equivariant")
        check(np.abs(vr.features - v.features).max() <= 1e-7,
              "velocity features are not rotation-invariant")
        perm = rng.permutation(n)
        vp = model.velocity(LatentGeometry(n, z.coords[perm], z.features[perm]), t)
        check(np.array_equal(vp.coords, v.coords[perm])
              and np.array_equal(vp.features, v.features[perm]),
              "velocity is not bitwise permutation-equivariant")
        again = os.path.join(op.dir, "resaved.gflow.ckpt")
        data.save_checkpoint(again, model)
        with open(path, "rb") as f1, open(again, "rb") as f2:
            check(f1.read() == f2.read(), "save -> load -> save changed the checkpoint")
        os.remove(again)

    def check_run(self, ops, work):
        check(self.decreased, "no loss curve passed its checks")
        share = sum(self.decreased) / len(self.decreased)
        self.record["loss_decreased_share"] = share
        check(share >= LOSS_DECREASE_SHARE, f"the trailing loss is below the leading loss "
              f"in {share:.0%} of the commands, fewer than {LOSS_DECREASE_SHARE:.0%}")


_COST_LINE = re.compile(
    r"estimated-coupling cost ([0-9.]+) vs random-coupling cost ([0-9.]+) \((\d+) pairs")


class Reflow(Workload):
    """One round of geomflow reflow --purify on --data from the sample model."""

    name = "reflow"
    items = REFLOW_PAIRS
    compare_stdout = True

    def setup(self, d):
        self.inputs = _model_setup(d)
        self.inputs["reflow_config"] = os.path.join(d, "reflow.json")
        with open(self.inputs["reflow_config"], "w", encoding="utf-8") as f:
            json.dump(REFLOW_CONFIG, f)

    def argv(self, i, d):
        return ["reflow", "--ckpt", self.inputs["ckpt"], "--rounds", 1, "--purify", "on",
                "--data", self.inputs["data"], "--pairs", REFLOW_PAIRS,
                "--config", self.inputs["reflow_config"],
                "--out", os.path.join(d, "reflow.gflow.ckpt"),
                "--pairs-out", os.path.join(d, "coupling.pairs.bin"),
                "--metrics", os.path.join(d, "metrics.csv"),
                "--seed", self.op_seed(i), "--threads", 1]

    def costs(self, op):
        m = _COST_LINE.search(op.stdout)
        check(m is not None, "reflow printed no cost line")
        return float(m.group(1)), float(m.group(2)), int(m.group(3))

    def check_op(self, op):
        _, _, kept = self.costs(op)
        _, pairs = inputs.read_pairs(os.path.join(op.dir, "coupling.pairs.bin"))
        check(len(pairs) == kept, f"{len(pairs)} stored pairs, {kept} printed")
        model = data.load_checkpoint(os.path.join(op.dir, "reflow.gflow.ckpt"))
        for p in pairs:
            check(p.source == "estimated" and p.valid and p.aligned,
                  "stored pair is not estimated, valid and aligned")
            g = nn.decode(model, LatentGeometry(p.n, p.x1, p.h1))
            check(reference.is_valid(g.coords, g.features, RULE),
                  "a purified pair decodes to an invalid geometry")
            rot = reference.optimal_rotation(p.x1, p.x0)
            check(np.abs(rot - np.eye(3)).max() <= 1e-8,
                  "an aligned pair is not at its optimal rotation")

    def check_run(self, ops, work):
        # The coupling-cost theorem holds in expectation; one command's 16
        # pairs are too few to resolve it, so compare the run's pooled means.
        rows = [self.costs(op) for op in ops if op.rc == 0]
        n = sum(r[2] for r in rows)
        est = math.fsum(r[0] * r[2] for r in rows) / n
        rnd = math.fsum(r[1] * r[2] for r in rows) / n
        self.record["pooled_costs"] = {"estimated": est, "random": rnd, "pairs": n}
        check(est <= rnd, f"estimated-coupling cost {est:.4f} > random {rnd:.4f}")


class Eval(Workload):
    """geomflow eval on a pairs file written by the benchmark."""

    name = "eval"
    items = len(EVAL_SIZES)
    compare_stdout = True

    def write_input(self, d, seed):
        path = os.path.join(d, "eval.pairs.bin")
        inputs.write_pairs(path, inputs.eval_pairs(EVAL_SIZES, EVAL_K, seed), EVAL_K)
        return path

    def setup(self, d):
        # A fixed warm-up file: with the run's seed, the warm-up's alignment
        # work, and with it set-up time, varied by a third between seeds.
        os.makedirs(d)
        path = self.write_input(d, 0)
        rc, _ = run_cli(["eval", "--pairs", path, "--lambda", EVAL_LAMBDA])
        check(rc == 0, f"warm-up eval exited {rc}")

    def argv(self, i, d):
        # Each operation evaluates its own file, so a run covers many draws.
        return ["eval", "--pairs", self.write_input(d, self.op_seed(i)),
                "--lambda", EVAL_LAMBDA]

    def check_op(self, op):
        total, coord, feat, num_pairs = eval_report(op.stdout)
        check(abs(total - (coord + feat)) <= 1e-12 * total,
              "total_cost != coord_part + feature_part")
        _, pairs = inputs.read_pairs(os.path.join(op.dir, "eval.pairs.bin"))
        check(num_pairs == len(pairs), "num_pairs does not match the file")

    def check_run(self, ops, work):
        again = self.run_op(0, os.path.join(work, "again"))
        check(again.stdout == ops[0].stdout, "eval printed a different report for the same file")
        # `geomflow eval` on each pair of at most 8 points alone, against the
        # exhaustive oracle. The pairs are those of operations 0 to
        # ORACLE_OPS - 1, drawn again from their seeds, so the check does not
        # depend on how many operations the run made.
        d = os.path.join(work, "oracle")
        os.makedirs(d)
        path = os.path.join(d, "pair.pairs.bin")
        matched = {"planted": 0, "independent": 0}
        for i in range(ORACLE_OPS):
            for j, (x0, h0, x1, h1) in enumerate(
                    inputs.eval_pairs(EVAL_SIZES, EVAL_K, self.op_seed(i))):
                n = x0.shape[0]
                if n > reference.ORACLE_MAX_N:
                    continue
                inputs.write_pairs(path, [(x0, h0, x1, h1)], EVAL_K)
                rc, out = run_cli(["eval", "--pairs", path, "--lambda", EVAL_LAMBDA])
                check(rc == 0, f"eval of one pair exited {rc}")
                _, coord, feat, _ = eval_report(out)
                cost = EVAL_LAMBDA * coord**2 + (1.0 - EVAL_LAMBDA) * feat**2
                best, _, _ = reference.exhaustive_alignment(
                    x1 - x1.mean(axis=0), h1, x0, h0, EVAL_LAMBDA)
                check(cost >= best - 1e-9, f"eval's alignment cost {cost} is below the "
                      f"oracle's {best} (operation {i}, pair {j})")
                matched["planted" if j % 2 == 0 else "independent"] += cost - best <= 1e-8
        self.record["oracle_matches"] = matched
        for kind, floor in ORACLE_FLOORS.items():
            check(matched[kind] >= floor, f"eval reached the oracle's optimum on "
                  f"{matched[kind]} {kind} pairs, fewer than {floor}")


def eval_report(stdout):
    """(total_cost, coord_part, feature_part, num_pairs) of an eval report."""
    header, row = stdout.strip().splitlines()[-2:]
    check(header == EVAL_HEADER, f"unexpected eval header {header!r}")
    fields = row.split(",")
    return float(fields[1]), float(fields[3]), float(fields[4]), int(fields[5])


WORKLOADS = {w.name: w for w in (Sample, Train, Reflow, Eval)}
