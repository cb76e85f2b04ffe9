"""Every declared field rule, tried at every entry point that reads it.

The cases are generated from the declarations: for each field of each
record, of a checkpoint's `arch`, `meta` and `meta.rule`, of the pairs
header, of the flat config, of the template spec and of each ruled flag,
one value of the wrong kind and, where the rule has a range, one value
outside it. Library records raise a ValueError naming the field; config
and flag values exit 1 before any data file is read, spec values before
any data is made; checkpoint and pairs values raise MalformedFileError
naming the file and the key.
"""

import dataclasses
import functools
import json
import math

import pytest

from geomflow import cli, costs, data, flow, nn, ode
from geomflow._rules import Rule, field_rules
from geomflow.geometry import sample_noise


def wrong_kind(rule: Rule):
    """A value of another JSON kind that would pass a range check: a whole
    float for an integer, a bool for a number, an integer for a bool."""
    if rule.each:
        return [float(rule.low + 1)]
    if rule.kind is int:
        return float(rule.low + 1)
    return {float: True, bool: 1, str: 3}.get(rule.kind, "x")


def out_of_range(rule: Rule):
    """A value of the rule's kind outside its range (non-finite for an
    unbounded number), or None where the kind has no range."""
    if rule.kind is float and rule.high is not None:
        return rule.high + 1
    if rule.kind is float:
        return math.nan if rule.low is None else rule.low - (0 if rule.open_low else 1)
    if rule.kind is int:
        return [rule.low - 1] if rule.each else rule.low - 1
    return None


def cases(rules: dict):
    """(name, value) for every field of `rules`: one wrong kind each, and
    one out-of-range value where the rule has a range."""
    out = []
    for name, rule in rules.items():
        out.append((name, wrong_kind(rule)))
        if out_of_range(rule) is not None:
            out.append((name, out_of_range(rule)))
    return out


def ids(case_list):
    return [f"{name}={value!r}" for name, value in case_list]


# Records a library caller builds, with the fields that have no default.
RECORDS = {
    flow.TrainConfig: {},
    ode.SolverConfig: {},
    data.ValidityRule: {},
    data.TemplateSpec: {},
    data.RunMetrics: {"phase": "sample", "seed": 0, "config_hash": ""},
    costs.CostReport: {"space": "latent", "total_cost": 1.0, "per_atom_cost": 0.2,
                       "coord_part": 0.5, "feature_part": 0.5, "num_pairs": 1},
}
# Output records' labels, which no rule constrains.
UNRULED = {data.RunMetrics: {"phase", "seed", "config_hash"}, costs.CostReport: {"space"}}
RECORD_CASES = [(cls, name, value) for cls in RECORDS for name, value in cases(field_rules(cls))]

# The flat config's keys, each with the rule of the field it sets.
CONFIG_RULES = {
    cli._KEYS.get(name, name): rule
    for cls in (flow.TrainConfig, ode.SolverConfig, data.ValidityRule)
    for name, rule in field_rules(cls).items()
    if not dataclasses.is_dataclass(rule.kind)
}
MODEL_ARGS = {"d": 3, "k": 2, "hidden": 4, "flow_layers": 1}


def test_every_config_key_and_record_field_is_ruled():
    assert set(CONFIG_RULES) == set(cli.DEFAULT_CONFIG)
    for cls in RECORDS:
        unruled = {f.name for f in dataclasses.fields(cls)} - set(field_rules(cls))
        assert unruled == UNRULED.get(cls, set()), cls
    assert set(nn.ARCH_RULES) == {"d", *nn.ARCH_DEFAULTS}


def test_defaults_obey_their_rules():
    for cls in (flow.TrainConfig, ode.SolverConfig, data.ValidityRule, data.TemplateSpec):
        record = cls()
        for name, rule in field_rules(cls).items():
            assert rule.admits(getattr(record, name)), (cls, name)


@pytest.mark.parametrize("cls, name, value", RECORD_CASES,
                         ids=[f"{c.__name__}.{n}={v!r}" for c, n, v in RECORD_CASES])
def test_library_record(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        cls(**{**RECORDS[cls], name: value})


@pytest.mark.parametrize("name, value", cases(nn.ARCH_RULES), ids=ids(cases(nn.ARCH_RULES)))
def test_model_architecture(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        nn.VectorFieldModel(**{**MODEL_ARGS, name: value})


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("key, value", cases(CONFIG_RULES), ids=ids(cases(CONFIG_RULES)))
def test_config_value(tmp_path, capsys, key, value):
    # --data names a missing file: exit 2 had the config been accepted.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({key: value}))
    out = tmp_path / "m.gflow.ckpt"
    code, err = run(capsys, "train", "--data", tmp_path / "missing.jsonl", "--config", bad,
                    "--out", out)
    assert code == 1
    assert f"usage error: bad config: {key} must be " in err
    assert not out.exists()


SPEC_CASES = (cases(field_rules(data.TemplateSpec))
              + [("rule", {name: value}) for name, value in cases(field_rules(data.ValidityRule))])


@pytest.mark.parametrize("key, value", SPEC_CASES, ids=ids(SPEC_CASES))
def test_spec_value(tmp_path, capsys, key, value):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({key: value}))
    out = tmp_path / "ds.geoms.jsonl"
    code, err = run(capsys, "gendata", "--spec", spec, "--count", 3, "--out", out)
    assert code == 1
    field = next(iter(value)) if key == "rule" else key
    assert f"usage error: bad template spec: {field} must be " in err
    assert not out.exists()


# Each command with its required arguments, every file missing.
COMMANDS = {
    "gendata": ["--spec", "missing.json", "--count", "3", "--out", "out"],
    "train": ["--data", "missing.jsonl", "--out", "out"],
    "reflow": ["--ckpt", "missing.gflow.ckpt", "--out", "out"],
    "sample": ["--ckpt", "missing.gflow.ckpt", "--count", "3", "--out", "out"],
    "eval": ["--pairs", "missing.pairs.bin"],
}


def ruled_flags():
    """(command, flag, rule) for each flag whose argparse type holds it to a rule."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    found = []
    for command, parser in sub.choices.items():
        for action in parser._actions:
            kind = action.type
            if isinstance(kind, functools.partial) and kind.func is cli._flag:
                found.append((command, action.option_strings[0], kind.args[0]))
    return found


FLAG_CASES = [(command, flag, text)
              for command, flag, rule in ruled_flags()
              for text in ("x" if rule.kind is float else "2.5", out_of_range(rule))
              if text is not None]


def test_the_ruled_flags():
    assert {(c, f) for c, f, _ in ruled_flags()} == {
        ("gendata", "--count"), ("gendata", "--seed"), ("train", "--seed"),
        ("reflow", "--rounds"), ("reflow", "--pairs"), ("reflow", "--seed"),
        ("reflow", "--threads"), ("sample", "--count"), ("sample", "--steps"),
        ("sample", "--rtol"), ("sample", "--atol"), ("sample", "--max-steps"),
        ("sample", "--init-step"), ("sample", "--seed"), ("sample", "--threads"),
        ("eval", "--lambda"),
    }


@pytest.mark.parametrize("command, flag, value", FLAG_CASES,
                         ids=[f"{c} {f} {v}" for c, f, v in FLAG_CASES])
def test_flag_value(tmp_path, capsys, command, flag, value):
    argv = [str(tmp_path / a) if "missing" in a or a == "out" else a
            for a in COMMANDS[command]]
    code, err = run(capsys, command, *argv, flag, value)
    assert code == 1
    assert f"usage error: argument {flag}: must be " in err
    assert not (tmp_path / "out").exists()


def checkpoint_with(tmp_path, edit):
    """A saved checkpoint whose JSON header `edit` has changed."""
    model = nn.VectorFieldModel(**MODEL_ARGS, seed=0)
    model.meta = {"size_hist": {"4": 2}, "train_size": 2, "sigma0": 0.01,
                  "rule": dataclasses.asdict(data.ValidityRule())}
    path = tmp_path / "m.gflow.ckpt"
    data.save_checkpoint(path, model)
    head, rest = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    edit(header["arch"])
    path.write_bytes(json.dumps(header).encode() + b"\n" + rest)
    return path


CKPT_CASES = ([("arch", name, value) for name, value in cases(nn.ARCH_RULES)]
              + [("meta", name, value) for name, value in cases(data._META_RULES)]
              + [("meta.rule", name, value)
                 for name, value in cases(field_rules(data.ValidityRule))])


@pytest.mark.parametrize("where, key, value", CKPT_CASES,
                         ids=[f"{w}.{k}={v!r}" for w, k, v in CKPT_CASES])
def test_checkpoint_value(tmp_path, where, key, value):
    def edit(arch):
        record = {"arch": arch, "meta": arch["meta"], "meta.rule": arch["meta"]["rule"]}
        record[where][key] = value

    path = checkpoint_with(tmp_path, edit)
    with pytest.raises(data.MalformedFileError, match=f"{key} must be ") as err:
        data.load_checkpoint(path)
    assert str(path) in str(err.value)


def test_checkpoint_loads_when_untouched(tmp_path):
    path = checkpoint_with(tmp_path, lambda arch: None)
    assert data.load_checkpoint(path).meta["rule"] == dataclasses.asdict(data.ValidityRule())


HEADER_CASES = cases({"count": Rule(int, 0), "k": Rule(int, 0)})


@pytest.mark.parametrize("key, value", HEADER_CASES, ids=ids(HEADER_CASES))
def test_pairs_header_value(tmp_path, key, value):
    path = tmp_path / "c.pairs.bin"
    data.save_pairs(path, flow.CouplingSet([flow.CouplingPair(sample_noise(4, 2, 0),
                                                              sample_noise(4, 2, 1))]))
    head, rest = path.read_bytes().split(b"\n", 1)
    header = {**json.loads(head), key: value}
    path.write_bytes(json.dumps(header).encode() + b"\n" + rest)
    with pytest.raises(data.MalformedFileError, match=f"{key} must be ") as err:
        data.load_pairs(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "rule, text",
    [(Rule(int, 1), "an integer >= 1"), (Rule(float, 0), "a finite number >= 0"),
     (Rule(float, 0, open_low=True), "a finite number > 0"),
     (Rule(float, 0, 1), "a finite number in [0, 1]"),
     (Rule(float, 0, 1, open_low=True), "a finite number in (0, 1]"),
     (Rule(int, 0, null=True), "an integer >= 0 or null"),
     (Rule(int, 2, each=True), "a list, each an integer >= 2"),
     (Rule(bool), "true or false"), (Rule(str), "a string"), (Rule(float), "a finite number")],
)
def test_rule_text(rule, text):
    assert str(rule) == text


def test_integer_too_large_for_a_float_is_not_a_finite_number():
    assert not Rule(float).admits(10 ** 400)
    assert Rule(int, 1).admits(10 ** 400)
