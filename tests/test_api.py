"""The names the package exports, and the public functions of the modules
that `benchmark/tracer.py` wraps: a public function added to one of those
modules would become a traced span and change the trace's span set."""

import importlib
import inspect

import geomflow

EXPORTED = {
    "AdamState", "BudgetExceededError", "CostMatrix", "CostReport", "CouplingPair",
    "CouplingSet", "DenseNet", "EquivariantLayer", "Geometry", "GradCheckReport",
    "LatentGeometry", "MalformedFileError", "OmtSolution", "Permutation", "PersistenceError",
    "Rotation", "SizeSampler", "SolverConfig", "TemplateSpec", "TrainConfig", "Translation",
    "TruncatedFileError", "ValidityRule", "VectorFieldModel", "VersionMismatchError",
    "adam_step", "align_pair", "apply_permutation", "apply_rigid", "backward",
    "brute_force_omt", "center_of_mass", "cost_matrix", "decode", "default_rule",
    "distribution_cost", "encode", "estimate_couplings", "fm_loss", "forward", "generate",
    "grad_check", "hungarian", "integrate", "interpolate", "is_valid", "kabsch",
    "load_checkpoint", "load_geometries", "load_pairs", "make_dataset", "molecule_cost",
    "optimal_molecule_cost", "project_zero_com", "random_couplings", "random_rotation",
    "reflow", "sample_noise", "sample_ode", "save_checkpoint", "save_geometries",
    "save_pairs", "snap_onehot", "solve_omt", "solve_omt_batch", "train",
}

# The public functions of each traced module, by the tracer's own test: a
# name without a leading underscore bound to a function defined there.
TRACED = {
    "cli": {"build_parser", "cmd_eval", "cmd_gendata", "cmd_reflow", "cmd_sample",
            "cmd_selftest", "cmd_train", "config_hash", "load_config", "main", "rule_from",
            "train_config_from"},
    "data": {"append_metrics", "default_rule", "is_valid", "load_checkpoint",
             "load_geometries", "load_pairs", "make_dataset", "read_metrics",
             "save_checkpoint", "save_geometries", "save_loss_curve", "save_pairs",
             "snap_onehot"},
    "flow": {"align_pair", "estimate_couplings", "fm_loss", "generate", "interpolate",
             "random_couplings", "reflow", "sample_ode", "size_histogram", "train",
             "train_autoencoder"},
    "nn": {"adam_step", "backward", "decode", "encode", "forward", "grad_check", "sigmoid",
           "silu", "silu_grad"},
    "ode": {"integrate"},
    "alignment": {"brute_force_omt", "cost_matrix", "hungarian", "kabsch", "solve_omt",
                  "solve_omt_batch"},
    "costs": {"distribution_cost", "molecule_cost", "optimal_molecule_cost"},
    "geometry": {"apply_permutation", "apply_rigid", "center_of_mass", "project_zero_com",
                 "random_rotation", "rotation_from_rng", "sample_noise"},
}


def test_exported_names():
    names = {name for name, value in vars(geomflow).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert names == EXPORTED


def test_traced_modules_public_functions():
    for layer, expected in TRACED.items():
        mod = importlib.import_module(f"geomflow.{layer}")
        public = {name for name, fn in vars(mod).items()
                  if not name.startswith("_") and inspect.isfunction(fn)
                  and fn.__module__ == mod.__name__}
        assert public == expected, layer
