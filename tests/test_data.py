import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomflow.costs import optimal_molecule_cost
from geomflow.data import (
    MalformedFileError,
    PersistenceError,
    TemplateSpec,
    TruncatedFileError,
    ValidityRule,
    VersionMismatchError,
    default_rule,
    is_valid,
    load_checkpoint,
    load_geometries,
    load_pairs,
    make_dataset,
    METRICS_FIELDS,
    RunMetrics,
    append_metrics,
    read_metrics,
    save_checkpoint,
    save_geometries,
    save_loss_curve,
    save_pairs,
    snap_onehot,
)
from geomflow.flow import CouplingPair, CouplingSet, sample_noise, train, TrainConfig
from geomflow.geometry import Geometry
from geomflow.nn import VectorFieldModel


def small_spec(**over):
    base = dict(
        num_templates=2, atoms_per_template=(4, 5), feature_classes=3,
        jitter_sigma=0.02, seed=3,
    )
    base.update(over)
    return TemplateSpec(**base)


class TestMakeDataset:
    def test_every_sample_valid(self):
        spec = small_spec()
        rule = default_rule(spec)
        geoms = make_dataset(spec, 200, rule)
        assert len(geoms) == 200
        assert all(is_valid(g, rule)[0] for g in geoms)

    def test_jitter_zero_samples_are_exact_rigid_copies(self):
        spec = small_spec(jitter_sigma=0.0)
        geoms = make_dataset(spec, 30)
        # regenerate the templates by replaying the generator seed
        templates = {g.tag for g in geoms}
        by_tag = {}
        for g in geoms:
            by_tag.setdefault(g.tag, []).append(g)
        for tag, group in by_tag.items():
            ref = group[0]
            for g in group[1:]:
                if g.n != ref.n:
                    continue
                assert optimal_molecule_cost(ref, g, exact=True) <= 1e-8

    def test_count_one(self):
        geoms = make_dataset(small_spec(), 1)
        assert len(geoms) == 1
        assert np.abs(geoms[0].coords.mean(axis=0)).max() <= 1e-12

    def test_deterministic(self):
        a = make_dataset(small_spec(), 20)
        b = make_dataset(small_spec(), 20)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.coords, gb.coords)
            assert np.array_equal(ga.features, gb.features)
            assert ga.tag == gb.tag

    def test_impossible_spec_rejected(self):
        spec = small_spec(jitter_sigma=5.0)
        with pytest.raises(ValueError, match="spec inconsistent with validity rule"):
            make_dataset(spec, 50)

    @pytest.mark.parametrize(
        "over, message",
        [({"jitter_sigma": 5.0}, "max_radius 4 is not above 6 jitter_sigma, 30"),
         ({"num_templates": 3, "atoms_per_template": (17, 23, 29), "jitter_sigma": 0.05},
          "no 29-point template in 1000 draws has separation 0.65 "
          "(min_pair_dist + 8 jitter_sigma) within radius 3.7 (max_radius - 6 jitter_sigma)"),
         ({"feature_jitter": 0.5}, "only 5 of 39 jittered copies pass it, under half")],
        ids=["radius", "template", "acceptance"],
    )
    def test_inconsistent_spec_names_the_failed_bound(self, over, message):
        spec = small_spec(**{"seed": 0, **over})
        with pytest.raises(ValueError) as err:
            make_dataset(spec, 50)
        assert str(err.value) == f"spec inconsistent with validity rule: {message}"

    def test_size_histogram_matches_template_frequencies(self):
        spec = small_spec(num_templates=2, atoms_per_template=(4, 6))
        geoms = make_dataset(spec, 1000)
        counts = {n: sum(g.n == n for g in geoms) for n in (4, 6)}
        # two equally likely templates; 3 sigma of a fair binomial
        sigma = np.sqrt(1000 * 0.25)
        assert abs(counts[4] - 500) <= 3 * sigma


class TestIsValid:
    def test_coincident_points(self):
        g = Geometry(2, np.zeros((2, 3)), np.eye(2))
        ok, reason = is_valid(g, ValidityRule())
        assert not ok and reason == "min_pair_dist"

    def test_generated_sample_passes(self):
        spec = small_spec()
        g = make_dataset(spec, 1)[0]
        ok, reason = is_valid(g, default_rule(spec))
        assert ok and reason == ""

    def test_uniform_feature_row_fails_margin(self):
        coords = np.array([[-1.0, 0, 0], [1.0, 0, 0]])
        g = Geometry(2, coords, np.full((2, 3), 0.5))
        ok, reason = is_valid(g, ValidityRule())
        assert not ok and reason == "onehot_margin"

    def test_blown_up_radius(self):
        coords = np.array([[-9.0, 0, 0], [9.0, 0, 0]])
        g = Geometry(2, coords, np.eye(2))
        ok, reason = is_valid(g, ValidityRule())
        assert not ok and reason == "max_radius"

    def test_clause_order_min_pair_first(self):
        g = Geometry(2, np.zeros((2, 3)), np.full((2, 2), 0.5))
        assert is_valid(g, ValidityRule())[1] == "min_pair_dist"


class TestSnapOnehot:
    def test_onehot_unchanged(self):
        g = Geometry(2, np.zeros((2, 3)) + [[0, 0, 0], [1, 1, 1]], np.eye(2))
        np.testing.assert_array_equal(snap_onehot(g).features, g.features)

    def test_argmax_row(self):
        g = Geometry(1, np.zeros((1, 3)), [[0.2, 0.9]])
        np.testing.assert_array_equal(snap_onehot(g).features, [[0.0, 1.0]])

    def test_idempotent_and_tie_break(self):
        g = Geometry(1, np.zeros((1, 3)), [[0.5, 0.5, 0.1]])
        once = snap_onehot(g)
        np.testing.assert_array_equal(once.features, [[1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(snap_onehot(once).features, once.features)


class TestGeometryPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        geoms = make_dataset(small_spec(), 25)
        path = tmp_path / "ds.geoms.jsonl"
        save_geometries(path, geoms)
        loaded = load_geometries(path)
        assert len(loaded) == len(geoms)
        for a, b in zip(geoms, loaded):
            assert np.array_equal(a.coords, b.coords)
            assert np.array_equal(a.features, b.features)
            assert a.tag == b.tag
        save_geometries(tmp_path / "again.geoms.jsonl", loaded)
        assert (tmp_path / "ds.geoms.jsonl").read_bytes() == (
            tmp_path / "again.geoms.jsonl"
        ).read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.geoms.jsonl"
        path.write_text("")
        with pytest.raises(MalformedFileError, match="empty dataset file"):
            load_geometries(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.geoms.jsonl"
        path.write_text('{"n": 1, "coords": [[0,0,0]]\n')
        with pytest.raises(MalformedFileError):
            load_geometries(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "short.geoms.jsonl"
        path.write_text('{"n": 1, "coords": [[0,0,0]]}\n')
        with pytest.raises(MalformedFileError):
            load_geometries(path)

    @pytest.mark.parametrize("n", ["1.0", "true"], ids=["float-n", "bool-n"])
    def test_non_integer_point_count_rejected(self, tmp_path, n):
        path = tmp_path / "bad.geoms.jsonl"
        path.write_text(f'{{"n": {n}, "coords": [[0,0,0]], "features": [[1,0]]}}\n')
        with pytest.raises(MalformedFileError, match="point count must be an integer"):
            load_geometries(path)


class TestCheckpointPersistence:
    def make_model(self):
        model = VectorFieldModel(d=3, k=2, hidden=8, flow_layers=2, seed=5)
        model.meta = {"size_hist": {"4": 7}, "train_size": 7, "sigma0": 0.01}
        return model

    def test_roundtrip_bit_exact(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.gflow.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.get_flat(), model.get_flat())
        assert loaded.meta == model.meta
        assert loaded.arch_dict() == model.arch_dict()
        save_checkpoint(tmp_path / "m2.gflow.ckpt", loaded)
        assert (tmp_path / "m.gflow.ckpt").read_bytes() == (
            tmp_path / "m2.gflow.ckpt"
        ).read_bytes()

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "m.gflow.ckpt"
        save_checkpoint(path, self.make_model())
        blob = path.read_bytes()
        head, rest = blob.split(b"\n", 1)
        rec = json.loads(head)
        rec["version"] = 999
        path.write_bytes(json.dumps(rec).encode() + b"\n" + rest)
        with pytest.raises(VersionMismatchError, match="999"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "m.gflow.ckpt"
        save_checkpoint(path, self.make_model())
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        expected = 8 * self.make_model().param_count
        with pytest.raises(TruncatedFileError, match=f"expected {expected} parameter "
                                                     f"bytes, found {expected - 16}$"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "m.gflow.ckpt"
        save_checkpoint(path, self.make_model())
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(MalformedFileError, match="trailing"):
            load_checkpoint(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "m.gflow.ckpt"
        path.write_bytes(b"not json\n" + b"\x00" * 64)
        with pytest.raises(MalformedFileError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "meta",
        [{"train_size": "x"}, {"train_size": 0}, {"train_size": 2.0}, {"train_size": True},
         {"sigma0": "y"}, {"sigma0": -0.5}, {"sigma0": float("nan")}, {"sigma0": False}],
        ids=["string-size", "zero-size", "float-size", "bool-size", "string-sigma0",
             "negative-sigma0", "nan-sigma0", "bool-sigma0"],
    )
    def test_bad_meta_number_names_file_and_key(self, tmp_path, meta):
        model = self.make_model()
        model.meta.update(meta)
        path = tmp_path / "m.gflow.ckpt"
        save_checkpoint(path, model)
        key = next(iter(meta))
        with pytest.raises(MalformedFileError, match=key) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)


    @pytest.mark.parametrize(
        "arch",
        [{"coord_scale": "x"}, {"coord_scale": float("nan")}, {"coord_scale": float("inf")},
         {"coord_scale": True}, {"identity_latent": 0}, {"identity_latent": "yes"},
         {"hidden": 8.0}, {"k": True}, {"flow_layers": 0}, {"decoder_layers": "1"}],
        ids=["string-coord-scale", "nan-coord-scale", "inf-coord-scale", "bool-coord-scale",
             "int-identity-latent", "string-identity-latent", "float-hidden", "bool-k",
             "zero-flow-layers", "string-decoder-layers"],
    )
    def test_bad_arch_field_names_file_and_key(self, tmp_path, arch):
        path = tmp_path / "m.gflow.ckpt"
        save_checkpoint(path, self.make_model())
        head, rest = path.read_bytes().split(b"\n", 1)
        rec = json.loads(head)
        rec["arch"].update(arch)
        path.write_bytes(json.dumps(rec).encode() + b"\n" + rest)
        key = next(iter(arch))
        with pytest.raises(MalformedFileError, match=key) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)


class TestPairsPersistence:
    def make_set(self):
        pairs = [
            CouplingPair(
                sample_noise(4, 2, 2 * i), sample_noise(4, 2, 2 * i + 1),
                aligned=i % 2 == 0, source="estimated" if i % 2 else "random",
                valid=i != 2,
            )
            for i in range(5)
        ]
        return CouplingSet(pairs)

    def test_roundtrip_bit_exact(self, tmp_path):
        cset = self.make_set()
        path = tmp_path / "c.pairs.bin"
        save_pairs(path, cset)
        loaded = load_pairs(path)
        assert len(loaded) == len(cset)
        for a, b in zip(cset, loaded):
            assert np.array_equal(a.z0.coords, b.z0.coords)
            assert np.array_equal(a.z1.features, b.z1.features)
            assert (a.aligned, a.source, a.valid) == (b.aligned, b.source, b.valid)
        save_pairs(tmp_path / "c2.pairs.bin", loaded)
        assert (tmp_path / "c.pairs.bin").read_bytes() == (
            tmp_path / "c2.pairs.bin"
        ).read_bytes()

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "c.pairs.bin"
        save_pairs(path, self.make_set())
        head, rest = path.read_bytes().split(b"\n", 1)
        rec = json.loads(head)
        rec["version"] = 7
        path.write_bytes(json.dumps(rec).encode() + b"\n" + rest)
        with pytest.raises(VersionMismatchError):
            load_pairs(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "c.pairs.bin"
        save_pairs(path, self.make_set())
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TruncatedFileError):
            load_pairs(path)

    def test_empty_set_roundtrip(self, tmp_path):
        path = tmp_path / "e.pairs.bin"
        save_pairs(path, CouplingSet([]))
        assert len(load_pairs(path)) == 0


class TestMalformedHeaders:
    @pytest.mark.parametrize(
        "header",
        [b"3", b"[1, 2]", b'{"arch": [1], "version": 1}', b'{"arch": 3, "version": 1}'],
        ids=["number", "array", "array-arch", "number-arch"],
    )
    def test_checkpoint(self, tmp_path, header):
        path = tmp_path / "m.gflow.ckpt"
        path.write_bytes(header + b"\n" + b"\x00" * 64)
        with pytest.raises(MalformedFileError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "fields",
        ['[1]', '"count": "2", "k": 2', '"count": 1.5, "k": 2', '"count": true, "k": 2',
         '"count": -1, "k": 2', '"count": 1, "k": "a"', '"count": 1, "k": -1',
         '"k": 2'],
        ids=["array", "string-count", "float-count", "bool-count", "negative-count",
             "string-k", "negative-k", "missing-count"],
    )
    def test_pairs(self, tmp_path, fields):
        header = fields if fields.startswith("[") else "{" + fields + ', "version": 1}'
        path = tmp_path / "c.pairs.bin"
        path.write_bytes(header.encode() + b"\n" + b"\x00" * 64)
        with pytest.raises(MalformedFileError):
            load_pairs(path)

    def test_non_finite_pair_entry(self, tmp_path):
        path = tmp_path / "c.pairs.bin"
        save_pairs(path, CouplingSet([CouplingPair(sample_noise(4, 2, 0),
                                                   sample_noise(4, 2, 1))]))
        blob = bytearray(path.read_bytes())
        start = blob.index(b"\n") + 1 + 4  # the first z0 coordinate
        blob[start : start + 8] = np.array([np.nan], "<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(MalformedFileError, match="finite"):
            load_pairs(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_checkpoint_parameter(self, tmp_path, value):
        path = tmp_path / "m.gflow.ckpt"
        save_checkpoint(path, VectorFieldModel(d=3, k=2, hidden=4, flow_layers=1, seed=0))
        blob = bytearray(path.read_bytes())
        start = blob.index(b"\n") + 1  # the first parameter
        blob[start : start + 8] = np.array([value], "<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(MalformedFileError, match="finite") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "meta",
        [{"rule": {"bogus": 1}}, {"rule": {"min_pair_dist": "x"}}, {"rule": 3},
         {"rule": {"min_pair_dist": 5.0}}, {"size_hist": [5]}, {"size_hist": {"5": -1}},
         {"size_hist": {"5": 0.5}}, {"size_hist": {"a": 1}}, {"size_hist": {}},
         {"size_hist": {"5_0": 1}}],
        ids=["unknown-rule-key", "string-rule-value", "number-rule", "rule-range",
             "list-hist", "negative-count", "float-count", "non-numeric-size", "empty-hist",
             "underscored-size"],
    )
    def test_malformed_meta_record(self, tmp_path, meta):
        model = VectorFieldModel(d=3, k=2, hidden=4, flow_layers=1, seed=0)
        model.meta = meta
        path = tmp_path / "m.gflow.ckpt"
        save_checkpoint(path, model)
        with pytest.raises(MalformedFileError, match="bad architecture record"):
            load_checkpoint(path)

    def test_well_formed_meta_records_load(self, tmp_path):
        model = VectorFieldModel(d=3, k=2, hidden=4, flow_layers=1, seed=0)
        model.meta = {"size_hist": {"4": 2, "6": 1}, "rule": {"max_radius": 3.0}}
        path = tmp_path / "m.gflow.ckpt"
        save_checkpoint(path, model)
        assert load_checkpoint(path).meta == model.meta

    def test_huge_point_count_is_truncation(self, tmp_path):
        path = tmp_path / "c.pairs.bin"
        save_pairs(path, CouplingSet([CouplingPair(sample_noise(4, 2, 0),
                                                   sample_noise(4, 2, 1))]))
        blob = bytearray(path.read_bytes())
        start = blob.index(b"\n") + 1
        blob[start : start + 4] = (0xFFFFFFF0).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(TruncatedFileError):
            load_pairs(path)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The bytes and loader of a small valid checkpoint and pairs file, and a
    scratch path to write edited copies to."""
    root = tmp_path_factory.mktemp("fuzz")
    model = VectorFieldModel(d=3, k=2, hidden=4, flow_layers=1, seed=5)
    model.meta = {"size_hist": {"4": 7}, "train_size": 7, "sigma0": 0.01}
    save_checkpoint(root / "m.gflow.ckpt", model)
    save_pairs(root / "c.pairs.bin", CouplingSet([
        CouplingPair(sample_noise(n, 2, n), sample_noise(n, 2, n + 1),
                     aligned=n == 3, source="estimated", valid=n != 4)
        for n in (2, 3, 4)
    ]))
    return root / "edited", {
        "ckpt": ((root / "m.gflow.ckpt").read_bytes(), load_checkpoint),
        "pairs": ((root / "c.pairs.bin").read_bytes(), load_pairs),
    }


class TestLoaderFuzz:
    @pytest.mark.parametrize("kind", ["ckpt", "pairs"])
    def test_every_proper_prefix_is_truncated_or_malformed(self, valid_files, kind):
        scratch, files = valid_files
        blob, load = files[kind]
        for end in range(len(blob)):
            scratch.write_bytes(blob[:end])
            with pytest.raises((TruncatedFileError, MalformedFileError)):
                load(scratch)

    @pytest.mark.parametrize("kind", ["ckpt", "pairs"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_byte_edit_loads_or_raises_persistence_error(self, valid_files, kind, data):
        scratch, files = valid_files
        blob, load = files[kind]
        header = blob.index(b"\n") + 1
        # Half the edits land in the JSON header, where the parsing is.
        pos = data.draw(st.one_of(st.integers(0, header - 1), st.integers(0, len(blob) - 1)))
        edited = bytearray(blob)
        edited[pos] = data.draw(st.integers(0, 255).filter(lambda v: v != blob[pos]))
        scratch.write_bytes(bytes(edited))
        try:
            load(scratch)
        except PersistenceError:
            pass


class TestAtomicWrites:
    """A save that raises part-way leaves the old file and no other."""

    @pytest.mark.parametrize("kind", ["ckpt", "pairs", "geoms", "loss"])
    def test_failed_save_keeps_old_bytes_and_leaves_no_file(self, tmp_path, kind):
        path = tmp_path / f"out.{kind}"
        path.write_bytes(b"old bytes\n")
        model = VectorFieldModel(d=3, k=2, hidden=8, flow_layers=1, seed=5)
        geoms = make_dataset(small_spec(), 3)
        pairs = CouplingSet([CouplingPair(sample_noise(4, 2, 0), sample_noise(4, 2, 1))])
        if kind == "ckpt":
            model.get_flat = _raise  # fails after the header line is written
            save = lambda: save_checkpoint(path, model)
        elif kind == "pairs":
            pairs.pairs.append(None)  # fails after the first record
            save = lambda: save_pairs(path, pairs)
        elif kind == "geoms":
            save = lambda: save_geometries(path, geoms + [None])
        else:
            save = lambda: save_loss_curve(path, [1.0, 0.5, "not a number"])
        with pytest.raises((RuntimeError, AttributeError, ValueError)):
            save()
        assert path.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_successful_save_replaces_and_leaves_no_file(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("old\n")
        save_loss_curve(path, [1.0, 0.5])
        assert path.read_text().splitlines() == ["step,loss", "0,1.0", "1,0.5"]
        assert [p.name for p in tmp_path.iterdir()] == ["loss.csv"]


def _raise(*args, **kwargs):
    raise RuntimeError("write failed part-way")


class TestMetrics:
    def test_append_and_read(self, tmp_path):
        path = tmp_path / "metrics.csv"
        append_metrics(path, {"phase": "sample", "seed": 1, "config_hash": "abc",
                              "mean_steps": 12.5})
        append_metrics(path, {"phase": "eval", "seed": 1, "config_hash": "abc",
                              "distribution_cost": 3.25})
        rows = read_metrics(path)
        assert rows[0]["phase"] == "sample"
        assert float(rows[0]["mean_steps"]) == 12.5
        assert rows[1]["distribution_cost"] == "3.25"
        assert rows[0]["distribution_cost"] == ""

    def test_header_is_run_metrics_field_order(self, tmp_path):
        assert METRICS_FIELDS == [
            "phase", "distribution_cost", "per_atom_cost", "mean_steps", "median_steps",
            "validity_rate", "wall_seconds", "seed", "config_hash"]
        path = tmp_path / "metrics.csv"
        append_metrics(path, RunMetrics(phase="sample", seed=2, config_hash="h",
                                        mean_steps=3.5).as_row())
        assert path.read_text().splitlines() == [
            ",".join(METRICS_FIELDS), "sample,,,3.5,,,,2,h"]

    def test_run_metrics_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            RunMetrics("sample", 1, "h")
        with pytest.raises(ValueError, match="validity_rate"):
            RunMetrics(phase="sample", seed=1, config_hash="h", validity_rate=1.5)

    def test_rejects_unknown_field(self, tmp_path):
        with pytest.raises(ValueError, match="unknown metrics fields"):
            append_metrics(tmp_path / "m.csv", {"phase": "x", "bogus": 1})


class TestTrainedAutoencoder:
    def test_reconstruction_improves_and_decodes_validly(self):
        spec = small_spec()
        ds = make_dataset(spec, 60)
        conf = TrainConfig(
            epochs=1, ae_epochs=0, batch_size=8, lr=3e-3, sigma0=0.0, seed=0,
            k=2, hidden=12, flow_layers=1, identity_latent=False,
        )
        model, _ = train(ds, conf)

        def recon_err(m):
            tot = 0.0
            for g in ds[:20]:
                x = g.coords - g.coords.mean(axis=0)
                zx, zh = m.encode_means(x, g.features)
                xr, logits = m.decode_arrays(zx, zh)
                tot += float(((xr - x) ** 2).mean())
            return tot / 20

        before = recon_err(model)
        from geomflow.flow import train_autoencoder

        rng = np.random.default_rng(0)
        conf2 = TrainConfig(
            epochs=1, ae_epochs=30, batch_size=8, lr=3e-3, sigma0=0.0, seed=0,
            k=2, hidden=12, flow_layers=1, identity_latent=False,
        )
        train_autoencoder(model, ds, conf2, rng)
        after = recon_err(model)
        assert after < before
