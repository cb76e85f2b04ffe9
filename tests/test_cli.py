import json
import re
from pathlib import Path

import numpy as np
import pytest

from geomflow import cli, data, flow, nn, ode


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "num_templates": 2,
                "atoms_per_template": [4, 5],
                "feature_classes": 3,
                "jitter_sigma": 0.02,
                "seed": 3,
            }
        )
    )
    return path


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "epochs": 1,
                "batch_size": 8,
                "lr": 2e-3,
                "k": 3,
                "hidden": 12,
                "flow_layers": 1,
                "identity_latent": True,
                "ae_epochs": 0,
                "reflow_pairs": 12,
                "reflow_epochs": 1,
                "estimate_steps": 8,
                "omt_iters": 1,
            }
        )
    )
    return path


def run(*argv):
    return cli.main([str(a) for a in argv])


class TestGendata:
    def test_writes_dataset(self, tmp_path, spec_file, capsys):
        out = tmp_path / "ds.geoms.jsonl"
        assert run("gendata", "--spec", spec_file, "--count", 30, "--out", out) == 0
        assert "wrote 30 geometries" in capsys.readouterr().out
        assert len(data.load_geometries(out)) == 30

    def test_seed_override_changes_data(self, tmp_path, spec_file):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run("gendata", "--spec", spec_file, "--count", 5, "--out", a)
        run("gendata", "--spec", spec_file, "--count", 5, "--out", b, "--seed", 99)
        assert a.read_bytes() != b.read_bytes()


class TestPipeline:
    def test_train_sample_eval(self, tmp_path, spec_file, config_file, capsys):
        ds = tmp_path / "ds.geoms.jsonl"
        ckpt = tmp_path / "m.gflow.ckpt"
        run("gendata", "--spec", spec_file, "--count", 40, "--out", ds)
        loss_csv = tmp_path / "loss.csv"
        assert (
            run("train", "--data", ds, "--config", config_file, "--out", ckpt,
                "--loss-csv", loss_csv) == 0
        )
        assert ckpt.exists() and loss_csv.exists()

        out = tmp_path / "gen.geoms.jsonl"
        metrics = tmp_path / "metrics.csv"
        assert (
            run("sample", "--ckpt", ckpt, "--count", 5, "--solver", "rk4",
                "--steps", 8, "--out", out, "--metrics", metrics) == 0
        )
        assert len(data.load_geometries(out)) == 5
        rows = data.read_metrics(metrics)
        assert rows[0]["phase"] == "sample"
        assert float(rows[0]["mean_steps"]) == 8.0

        pairs = tmp_path / "c.pairs.bin"
        newckpt = tmp_path / "m2.gflow.ckpt"
        capsys.readouterr()
        assert (
            run("reflow", "--ckpt", ckpt, "--rounds", 1, "--purify", "off",
                "--out", newckpt, "--pairs-out", pairs) == 0
        )
        assert "estimated-coupling cost" in capsys.readouterr().out
        assert newckpt.exists()

        capsys.readouterr()
        assert run("eval", "--pairs", pairs, "--lambda", 0.5) == 0
        out_text = capsys.readouterr().out
        assert out_text.startswith("space,total_cost")

    def test_sample_count_zero_writes_empty_file(self, tmp_path, spec_file, config_file):
        ds = tmp_path / "ds.geoms.jsonl"
        ckpt = tmp_path / "m.gflow.ckpt"
        run("gendata", "--spec", spec_file, "--count", 20, "--out", ds)
        run("train", "--data", ds, "--config", config_file, "--out", ckpt)
        out = tmp_path / "none.geoms.jsonl"
        assert run("sample", "--ckpt", ckpt, "--count", 0, "--out", out) == 0
        assert out.exists() and out.read_bytes() == b""


class TestExitCodes:
    def test_usage_error_missing_argument(self):
        assert run("gendata", "--count", 3) == 1

    def test_usage_error_unknown_config_key(self, tmp_path, spec_file, capsys):
        ds = tmp_path / "ds.geoms.jsonl"
        run("gendata", "--spec", spec_file, "--count", 10, "--out", ds)
        bad = tmp_path / "bad.json"
        bad.write_text('{"nonsense_knob": 1}')
        code = run("train", "--data", ds, "--config", bad, "--out", tmp_path / "m.ckpt")
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_data_error_missing_file(self, tmp_path):
        code = run("train", "--data", tmp_path / "nope.jsonl", "--out", tmp_path / "m")
        assert code == 2

    def test_eval_empty_pairs_is_data_error(self, tmp_path, capsys):
        from geomflow.flow import CouplingSet

        path = tmp_path / "empty.pairs.bin"
        data.save_pairs(path, CouplingSet([]))
        assert run("eval", "--pairs", path) == 2
        assert "empty coupling" in capsys.readouterr().err

    def test_version_mismatch_is_data_error(self, tmp_path):
        path = tmp_path / "bad.pairs.bin"
        path.write_bytes(b'{"count": 0, "k": 2, "version": 42}\n')
        assert run("eval", "--pairs", path) == 2

    @pytest.mark.parametrize(
        "header",
        [b"[1]", b'{"count": "2", "k": 2, "version": 1}', b'{"count": 1, "k": -1, "version": 1}'],
        ids=["array", "string-count", "negative-k"],
    )
    def test_malformed_pairs_header_is_data_error(self, tmp_path, capsys, header):
        path = tmp_path / "bad.pairs.bin"
        path.write_bytes(header + b"\n")
        assert run("eval", "--pairs", path) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header", [b"3", b"[1, 2]", b'{"arch": [1], "version": 1}'],
        ids=["number", "array", "array-arch"],
    )
    def test_malformed_checkpoint_header_is_data_error(self, tmp_path, capsys, header):
        path = tmp_path / "bad.gflow.ckpt"
        path.write_bytes(header + b"\n")
        out = tmp_path / "gen.geoms.jsonl"
        assert run("sample", "--ckpt", path, "--count", 2, "--out", out) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "meta", [{"rule": {"bogus": 1}}, {"size_hist": [5]}, {"size_hist": {"5": -1}},
                 {"train_size": "x"}, {"sigma0": "y"}],
        ids=["unknown-rule-key", "list-hist", "negative-count", "string-train-size",
             "string-sigma0"],
    )
    def test_malformed_checkpoint_meta_is_data_error(self, tmp_path, capsys, meta):
        model = nn.VectorFieldModel(d=3, k=3, hidden=4, flow_layers=1,
                                    identity_latent=True, seed=0)
        model.meta = {"size_hist": {"3": 1}, **meta}
        path = tmp_path / "bad.gflow.ckpt"
        data.save_checkpoint(path, model)
        out = tmp_path / "gen.geoms.jsonl"
        assert run("sample", "--ckpt", path, "--count", 2, "--out", out) == 2
        assert "bad architecture record" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["solver", "fixed_steps", "reflow_rounds"])
    def test_removed_config_key_is_usage_error(self, tmp_path, capsys, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({key: cli.DEFAULT_CONFIG["estimate_steps"]}))
        code = run("train", "--data", tmp_path / "missing.jsonl", "--config", bad,
                   "--out", tmp_path / "m.gflow.ckpt")
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err


class TestDeterminism:
    def test_sample_bit_reproducible(self, tmp_path, spec_file, config_file):
        ds = tmp_path / "ds.geoms.jsonl"
        ckpt = tmp_path / "m.gflow.ckpt"
        run("gendata", "--spec", spec_file, "--count", 30, "--out", ds)
        run("train", "--data", ds, "--config", config_file, "--out", ckpt)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run("sample", "--ckpt", ckpt, "--count", 6, "--solver", "euler",
            "--steps", 6, "--out", a, "--seed", 11)
        run("sample", "--ckpt", ckpt, "--count", 6, "--solver", "euler",
            "--steps", 6, "--out", b, "--seed", 11)
        assert a.read_bytes() == b.read_bytes()


class TestSelftest:
    def test_align_suite_passes(self, capsys):
        assert run("selftest", "--suite", "align") == 0
        out = capsys.readouterr().out
        assert "[align] hungarian-vs-enumeration: PASS" in out

    def test_nn_suite_passes(self, capsys):
        assert run("selftest", "--suite", "nn") == 0
        out = capsys.readouterr().out
        assert "[nn] gradient-check: PASS" in out

    def test_all_suites_pass(self, capsys):
        assert run("selftest") == 0
        out = capsys.readouterr().out
        assert "[flow] euler-constant-field-exact: PASS" in out
        assert "all self-test checks passed" in out


class TestConfigHash:
    def test_stable_and_sensitive(self):
        cfg = dict(cli.DEFAULT_CONFIG)
        h1 = cli.config_hash(cfg)
        assert h1 == cli.config_hash(dict(cfg))
        cfg["lambda"] = 0.25
        assert cli.config_hash(cfg) != h1


class TestConfigChecks:
    # Each case must exit 1 before any work: --data names a missing file,
    # which would be exit 2 had the config been accepted.
    @pytest.mark.parametrize(
        "text",
        [
            '{"epochs": "3"}',
            '{"epochs": 1.5}',
            '{"epochs": true}',
            "3",
            '["epochs", 3]',
            '{"lr": NaN}',
            '{"rtol": NaN}',
            '{"max_radius": Infinity}',
            '{"lambda": 2}',
            '{"use_omt": 1}',
            '{"reflow_pairs": 2.0}',
            '{"estimate_solver": 3}',
            '{"estimate_solver": "midpoint"}',
            '{"min_pair_dist": 5.0}',
            '{"onehot_margin": 0}',
            '{"k": 0}',
            '{"hidden": 0}',
            '{"flow_layers": 0}',
            '{"decoder_layers": 0}',
            '{"omt_iters": 0}',
            '{"omt_restarts": -1}',
            '{"reflow_epochs": -3}',
            '{"seed": -1}',
        ],
        ids=[
            "string-for-int", "float-for-int", "bool-for-int", "bare-number",
            "array", "nan-lr", "nan-rtol", "infinite-max-radius", "lambda-range",
            "int-for-bool", "float-for-null", "int-for-string", "unknown-method",
            "rule-order", "rule-margin-range", "zero-k", "zero-hidden",
            "zero-flow-layers", "zero-decoder-layers", "zero-omt-iters",
            "negative-omt-restarts", "negative-reflow-epochs", "negative-seed",
        ],
    )
    def test_bad_config_is_usage_error_before_work(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "m.gflow.ckpt"
        code = run("train", "--data", tmp_path / "missing.jsonl", "--config", bad,
                   "--out", out)
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_reflow_checks_config_before_loading(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lambda": 2}')
        code = run("reflow", "--ckpt", tmp_path / "missing.gflow.ckpt", "--config", bad,
                   "--out", tmp_path / "m2.gflow.ckpt")
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ['{"lr": 2, "max_radius": 5, "reflow_pairs": 3, "reflow_epochs": null}',
         '{"seed": 4, "estimate_solver": "euler", "purify": false}'],
    )
    def test_matching_kinds_accepted(self, tmp_path, text):
        good = tmp_path / "good.json"
        good.write_text(text)
        cfg = cli.load_config(good)
        assert {k: cfg[k] for k in json.loads(text)} == json.loads(text)

    def test_defaults_build_the_default_configs(self):
        assert cli.train_config_from(cli.DEFAULT_CONFIG) == flow.TrainConfig()
        assert cli.rule_from(cli.DEFAULT_CONFIG) == data.ValidityRule()

    def test_every_key_lands_in_its_field(self, tmp_path):
        cfg = {
            "lambda": 0.3, "sigma0": 0.02, "k": 3, "hidden": 8, "flow_layers": 2,
            "decoder_layers": 2, "identity_latent": True, "coord_scale": 0.5,
            "epochs": 4, "batch_size": 5, "lr": 0.003, "seed": 9, "use_omt": False,
            "omt_iters": 6, "omt_restarts": 7, "ae_epochs": 11,
            "purify": False, "reflow_pairs": 12, "reflow_epochs": 13,
            "fresh_reflow": True, "rtol": 0.002,
            "atol": 0.0003, "max_steps": 15, "init_step": 0.1,
            "estimate_solver": "adaptive", "estimate_steps": 16,
            "min_pair_dist": 0.1, "max_radius": 5.0, "onehot_margin": 0.25,
        }
        assert set(cfg) == set(cli.DEFAULT_CONFIG)
        assert all(cfg[key] != cli.DEFAULT_CONFIG[key] for key in cfg)
        path = tmp_path / "all.json"
        path.write_text(json.dumps(cfg))
        loaded = cli.load_config(path)
        assert loaded == cfg
        assert cli.train_config_from(loaded) == flow.TrainConfig(
            lam=0.3, epochs=4, batch_size=5, lr=0.003, sigma0=0.02,
            purify=False, seed=9, k=3, hidden=8, flow_layers=2, decoder_layers=2,
            identity_latent=True, coord_scale=0.5, use_omt=False, omt_iters=6,
            omt_restarts=7, ae_epochs=11, reflow_pairs=12, reflow_epochs=13,
            fresh_reflow=True,
            estimate_solver=ode.SolverConfig(method="adaptive", fixed_steps=16, rtol=0.002,
                                             atol=0.0003, max_steps=15, init_step=0.1),
        )
        assert cli.rule_from(loaded) == data.ValidityRule(
            min_pair_dist=0.1, max_radius=5.0, onehot_margin=0.25
        )

    @pytest.mark.parametrize(
        "conf",
        [{"lr": float("nan")}, {"sigma0": float("inf")}, {"coord_scale": float("nan")}],
    )
    def test_train_config_rejects_non_finite(self, conf):
        with pytest.raises(ValueError, match="finite"):
            flow.TrainConfig(**conf)

    @pytest.mark.parametrize(
        "conf", [{"rtol": float("nan")}, {"atol": float("inf")}, {"init_step": float("nan")}]
    )
    def test_solver_config_rejects_non_finite(self, conf):
        with pytest.raises(ValueError, match="finite"):
            ode.SolverConfig(**conf)

    @pytest.mark.parametrize(
        "conf", [{"max_radius": float("inf")}, {"min_pair_dist": float("nan")}]
    )
    def test_validity_rule_rejects_non_finite(self, conf):
        with pytest.raises(ValueError, match="finite"):
            data.ValidityRule(**conf)


class TestFlagChecks:
    # Each case must exit 1 before any work: --ckpt names a missing file,
    # which would be exit 2 had the flags been accepted.
    @pytest.mark.parametrize(
        "flags",
        [
            ["--rtol", "nan"],
            ["--atol", "-1e-5"],
            ["--count", "-1"],
            ["--steps", "0"],
            ["--max-steps", "0"],
            ["--init-step", "0"],
            ["--init-step", "-0.1"],
            ["--threads", "0"],
            ["--threads", "-3"],
        ],
        ids=["nan-rtol", "negative-atol", "negative-count", "zero-steps",
             "zero-max-steps", "zero-init-step", "negative-init-step", "zero-threads",
             "negative-threads"],
    )
    def test_bad_sample_flag_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "gen.geoms.jsonl"
        args = {"--count": "3", **dict(zip(flags[::2], flags[1::2]))}
        code = run("sample", "--ckpt", tmp_path / "missing.gflow.ckpt", "--out", out,
                   *[a for item in args.items() for a in item])
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_bad_reflow_pairs_is_usage_error(self, tmp_path, capsys, pairs):
        out = tmp_path / "m2.gflow.ckpt"
        code = run("reflow", "--ckpt", tmp_path / "missing.gflow.ckpt", "--pairs", pairs,
                   "--out", out)
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rounds", ["0", "-1"])
    def test_bad_reflow_rounds_is_usage_error(self, tmp_path, capsys, rounds):
        out = tmp_path / "m2.gflow.ckpt"
        code = run("reflow", "--ckpt", tmp_path / "missing.gflow.ckpt", "--rounds", rounds,
                   "--out", out)
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_bad_reflow_threads_is_usage_error(self, tmp_path, capsys, threads):
        out = tmp_path / "m2.gflow.ckpt"
        code = run("reflow", "--ckpt", tmp_path / "missing.gflow.ckpt", "--threads", threads,
                   "--out", out)
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_bad_gendata_count_is_usage_error(self, tmp_path, capsys, count):
        out = tmp_path / "ds.geoms.jsonl"
        code = run("gendata", "--spec", tmp_path / "missing.json", "--count", count,
                   "--out", out)
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["gendata", "--spec", "missing.json", "--count", "3", "--out", "out"],
         ["train", "--data", "missing.jsonl", "--out", "out"],
         ["reflow", "--ckpt", "missing.gflow.ckpt", "--out", "out"],
         ["sample", "--ckpt", "missing.gflow.ckpt", "--count", "3", "--out", "out"]],
        ids=["gendata", "train", "reflow", "sample"],
    )
    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys, argv):
        argv = [str(tmp_path / a) if "missing" in a or a == "out" else a for a in argv]
        assert run(*argv, "--seed", "-1") == 1
        assert "usage error: argument --seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lam", ["2", "nan", "-0.5"])
    def test_bad_eval_lambda_is_usage_error(self, tmp_path, capsys, lam):
        code = run("eval", "--pairs", tmp_path / "missing.pairs.bin", "--lambda", lam)
        assert code == 1
        captured = capsys.readouterr()
        assert "usage error" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "in_config, flag, expected",
        [(False, None, False), (True, None, True), (False, "on", True), (True, "off", False)],
    )
    def test_purify_flag_overrides_config_only_when_given(
        self, tmp_path, monkeypatch, in_config, flag, expected
    ):
        model = nn.VectorFieldModel(d=3, k=3, hidden=4, flow_layers=1,
                                    identity_latent=True, seed=0)
        model.meta = {"size_hist": {"3": 1}}
        ckpt = tmp_path / "m.gflow.ckpt"
        data.save_checkpoint(ckpt, model)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"purify": in_config}))
        seen = []

        def fake_reflow(model, conf, validity, threads=1):
            seen.append(conf.purify)
            raise RuntimeError("stop after the first round starts")

        monkeypatch.setattr(flow, "reflow", fake_reflow)
        argv = ["reflow", "--ckpt", ckpt, "--config", config, "--out", tmp_path / "o"]
        with pytest.raises(RuntimeError, match="stop"):
            run(*argv, *(["--purify", flag] if flag else []))
        assert seen == [expected]

    def test_zero_reflow_pairs_in_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"reflow_pairs": 0}')
        code = run("reflow", "--ckpt", tmp_path / "missing.gflow.ckpt", "--config", bad,
                   "--out", tmp_path / "m2.gflow.ckpt")
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_diverging_field_is_exit_2(self, tmp_path, capsys):
        model = nn.VectorFieldModel(d=3, k=3, hidden=12, flow_layers=2,
                                    identity_latent=True, seed=21)
        model.set_flat(model.get_flat() * 10.0)
        model.meta = {"size_hist": {"3": 3, "5": 2, "8": 1}}
        ckpt = tmp_path / "wild.gflow.ckpt"
        data.save_checkpoint(ckpt, model)
        out = tmp_path / "gen.geoms.jsonl"
        with np.errstate(all="ignore"):
            code = run("sample", "--ckpt", ckpt, "--count", 6, "--solver", "rk4",
                       "--steps", 10, "--out", out)
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_budget_is_exit_4(self, tmp_path, spec_file, config_file, capsys):
        ds = tmp_path / "ds.geoms.jsonl"
        ckpt = tmp_path / "m.gflow.ckpt"
        run("gendata", "--spec", spec_file, "--count", 20, "--out", ds)
        assert run("train", "--data", ds, "--config", config_file, "--out", ckpt) == 0
        out = tmp_path / "gen.geoms.jsonl"
        capsys.readouterr()
        code = run("sample", "--ckpt", ckpt, "--count", 3, "--solver", "adaptive",
                   "--max-steps", 1, "--out", out)
        assert code == 4
        assert re.search(r"^solver error: solver budget exceeded at t=.* after 1 attempts$",
                         capsys.readouterr().err, re.MULTILINE)
        assert not out.exists()


class TestShuffledBaseline:
    @staticmethod
    def pairs(sizes):
        return flow.CouplingSet([
            flow.CouplingPair(flow.sample_noise(n, 2, 2 * i), flow.sample_noise(n, 2, 2 * i + 1),
                              source="estimated")
            for i, n in enumerate(sizes)
        ])

    def test_sizes_with_one_pair_are_left_out(self):
        cset = self.pairs([5, 6, 6, 7])
        base = cli._shuffled_baseline(cset)
        assert len(base) == 2
        assert base[0].z0 is cset[1].z0 and base[0].z1 is cset[2].z1
        assert base[1].z0 is cset[2].z0 and base[1].z1 is cset[1].z1
        assert all(p.source == "random" for p in base)

    def test_no_size_with_two_pairs_is_empty(self):
        assert len(cli._shuffled_baseline(self.pairs([4, 5, 6]))) == 0

    def test_reflow_without_data_prints_no_baseline_for_one_pair(
        self, tmp_path, spec_file, config_file, capsys
    ):
        ds = tmp_path / "ds.geoms.jsonl"
        ckpt = tmp_path / "m.gflow.ckpt"
        run("gendata", "--spec", spec_file, "--count", 20, "--out", ds)
        assert run("train", "--data", ds, "--config", config_file, "--out", ckpt) == 0
        capsys.readouterr()
        assert run("reflow", "--ckpt", ckpt, "--pairs", 1, "--purify", "off",
                   "--config", config_file, "--out", tmp_path / "m2.gflow.ckpt") == 0
        assert re.search(r"^round 1: estimated-coupling cost [0-9.]+ vs random-coupling "
                         r"cost n/a \(1 pairs", capsys.readouterr().out, re.MULTILINE)


class TestGendataSpecChecks:
    @pytest.mark.parametrize(
        "spec",
        [
            "3",
            '["num_templates", 2]',
            '{"rule": {"min_dist": 0.1}}',
            '{"rule": 3}',
            '{"rule": {"max_radius": -1.0}}',
            '{"num_templates": 0}',
            '{bad',
            '{"feature_classes": 2.5}',
            '{"num_templates": 1, "atoms_per_template": [5.5]}',
            '{"seed": 1.5}',
            '{"num_templates": 2.0, "atoms_per_template": [4, 5]}',
            '{"jitter_sigma": NaN}',
            '{"seed": -1}',
            '{"rule": {"onehot_margin": true}}',
            '{"rule": []}',
            '{"rule": false}',
        ],
        ids=["bare-number", "array", "unknown-rule-key", "non-object-rule",
             "rule-range", "spec-range", "invalid-json", "float-classes",
             "float-template-size", "float-seed", "float-for-int",
             "nan-jitter", "negative-seed", "bool-rule-value", "empty-array-rule",
             "false-rule"],
    )
    def test_bad_spec_is_usage_error(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(spec)
        out = tmp_path / "ds.geoms.jsonl"
        assert run("gendata", "--spec", path, "--count", 3, "--out", out) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_spec_or_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff{"seed": 1}')
        out = tmp_path / "out"
        assert run("gendata", "--spec", bad, "--count", 3, "--out", out) == 1
        assert run("train", "--data", tmp_path / "missing.jsonl", "--config", bad,
                   "--out", out) == 1
        assert capsys.readouterr().err.count("usage error") == 2
        assert not out.exists()


class TestReadmeConfigTable:
    def test_table_lists_every_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", readme, flags=re.MULTILINE)
        table = {key: json.loads(default) for key, default in rows}
        assert table == cli.DEFAULT_CONFIG
        for key, default in table.items():
            assert type(default) is type(cli.DEFAULT_CONFIG[key]), key
