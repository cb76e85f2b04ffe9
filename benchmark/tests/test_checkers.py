"""Tests of the benchmark's own checkers, readers, writers and tracer.

    python3 -m pytest benchmark/tests -q
"""

import itertools

import numpy as np
import pytest

import inputs
import reference
from tracer import Tracer


# -- validity rule ------------------------------------------------------------


def onehot(labels, classes=4):
    out = np.zeros((len(labels), classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


RULE = inputs.Rule()


def test_validity_accepts_a_spread_onehot_geometry():
    x = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert reference.is_valid(x, onehot([0, 1, 2, 3]), RULE)


@pytest.mark.parametrize("bad", ["close", "far", "ambiguous"])
def test_validity_rejects_each_clause(bad):
    x = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    h = onehot([0, 1, 2, 3])
    if bad == "close":
        x[1] = [0.2, 0, 0]
    elif bad == "far":
        x[1] = [4.5, 0, 0]
    else:
        h[2] = [0.6, 0.3, 0.1, 0.0]
    assert not reference.is_valid(x, h, RULE)


def test_validity_ignores_the_margin_for_one_feature_column():
    x = np.array([[0.0, 0, 0], [1, 0, 0]])
    assert reference.is_valid(x, np.array([[0.5], [0.5]]), RULE)


def test_validity_agrees_with_the_package_on_random_geometries():
    from geomflow import data
    from geomflow.geometry import Geometry

    rng = np.random.default_rng(0)
    rule = data.ValidityRule(**RULE.to_config())
    verdicts = []
    for _ in range(300):
        n = int(rng.integers(2, 9))
        x = rng.standard_normal((n, 3)) * 1.5
        h = rng.random((n, 3)) * 2.0
        ours = reference.is_valid(x, h, RULE)
        assert ours == data.is_valid(Geometry(n, x, h), rule)[0]
        verdicts.append(ours)
    assert 0 < sum(verdicts) < len(verdicts)


# -- exhaustive alignment oracle ----------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 8])
def test_oracle_recovers_a_planted_rotation_and_permutation(n):
    rng = np.random.default_rng(n)
    x0, h0 = inputs.latent_noise(n, 2, rng)
    rot = inputs.rotation(rng)
    q = rng.permutation(n)
    x1 = (x0 @ rot.T)[q]
    h1 = h0[q]
    cost, perm, found = reference.exhaustive_alignment(x1, h1, x0, h0, 0.5)
    assert np.array_equal(perm, np.argsort(q))
    assert np.abs(found - rot.T).max() <= 1e-9
    assert cost <= 1e-20


@pytest.mark.parametrize("seed", range(6))
def test_oracle_is_the_minimum_over_permutations(seed):
    # n = 6 has 720 permutations, more than one chunk of the pruned search.
    rng = np.random.default_rng(seed)
    n = 6
    x0, h0 = inputs.latent_noise(n, 2, rng)
    x1, h1 = inputs.latent_noise(n, 2, rng)
    cost, _, _ = reference.exhaustive_alignment(x1, h1, x0, h0, 0.3)
    best = min(
        0.3 * ((x1[list(p)] @ reference.optimal_rotation(x1[list(p)], x0).T - x0) ** 2).sum()
        + 0.7 * ((h1[list(p)] - h0) ** 2).sum()
        for p in itertools.permutations(range(n))
    )
    assert abs(cost - best) <= 1e-10


def test_optimal_rotation_is_proper_and_beats_random_rotations():
    rng = np.random.default_rng(3)
    x, _ = inputs.latent_noise(6, 1, rng)
    y, _ = inputs.latent_noise(6, 1, rng)
    r = reference.optimal_rotation(x, y)
    assert abs(np.linalg.det(r) - 1.0) <= 1e-12
    assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-12
    ours = ((x @ r.T - y) ** 2).sum()
    for _ in range(500):
        q = inputs.rotation(rng)
        assert ours <= ((x @ q.T - y) ** 2).sum() + 1e-12


# -- readers and writers -------------------------------------------------------


def test_geoms_round_trip(tmp_path):
    geoms = inputs.dataset((5, 9), 2, 4, seed=1)
    path = tmp_path / "g.geoms.jsonl"
    inputs.write_geoms(path, geoms)
    back = inputs.read_geoms(path)
    assert len(back) == len(geoms)
    for (x, h, tag), (bx, bh, btag) in zip(geoms, back):
        assert np.array_equal(x, bx) and np.array_equal(h, bh) and tag == btag


def test_geoms_files_cross_read_with_the_package(tmp_path):
    from geomflow import data
    from geomflow.geometry import Geometry

    geoms = inputs.dataset((4, 6), 2, 3, seed=2)
    ours = tmp_path / "ours.geoms.jsonl"
    inputs.write_geoms(ours, geoms)
    loaded = data.load_geometries(ours)
    theirs = tmp_path / "theirs.geoms.jsonl"
    data.save_geometries(theirs, [Geometry(x.shape[0], x, h, t) for x, h, t in geoms])
    for g, (x, h, _), (tx, th, _) in zip(loaded, geoms, inputs.read_geoms(theirs)):
        assert np.array_equal(g.coords, x) and np.array_equal(g.features, h)
        assert np.array_equal(tx, x) and np.array_equal(th, h)


def test_pairs_round_trip_and_cross_read(tmp_path):
    from geomflow import data

    pairs = inputs.eval_pairs((5, 6, 7), 2, seed=3)
    path = tmp_path / "p.pairs.bin"
    inputs.write_pairs(path, pairs, 2)
    k, back = inputs.read_pairs(path)
    assert k == 2 and len(back) == 3
    for (x0, h0, x1, h1), p in zip(pairs, back):
        assert all(np.array_equal(a, b) for a, b in
                   ((x0, p.x0), (h0, p.h0), (x1, p.x1), (h1, p.h1)))
        assert (p.source, p.valid, p.aligned) == ("random", True, False)
    cset = data.load_pairs(path)
    resaved = tmp_path / "q.pairs.bin"
    data.save_pairs(resaved, cset)
    assert resaved.read_bytes() == path.read_bytes()


def test_pairs_reader_reads_package_flags(tmp_path):
    from dataclasses import replace

    from geomflow import data

    path = tmp_path / "p.pairs.bin"
    inputs.write_pairs(path, inputs.eval_pairs((4,), 2, seed=4), 2)
    cset = data.load_pairs(path)
    cset.pairs[0] = replace(cset.pairs[0], source="estimated", aligned=True, valid=False)
    data.save_pairs(path, cset)
    (p,) = inputs.read_pairs(path)[1]
    assert (p.source, p.valid, p.aligned) == ("estimated", False, True)


@pytest.mark.parametrize("cut", [0, 10, 40, -1])
def test_pairs_reader_rejects_truncation(tmp_path, cut):
    path = tmp_path / "p.pairs.bin"
    inputs.write_pairs(path, inputs.eval_pairs((5, 6), 2, seed=5), 2)
    blob = path.read_bytes()
    path.write_bytes(blob[:cut] if cut >= 0 else blob + b"\x00")
    with pytest.raises(inputs.FormatError):
        inputs.read_pairs(path)


def test_generated_datasets_pass_the_rule():
    for x, h, _ in inputs.dataset((5, 17, 29), 3, 4, seed=6):
        assert reference.is_valid(x, h, RULE)
        assert np.abs(x.mean(axis=0)).max() <= 1e-12


# -- fixed-step RK4 ----------------------------------------------------------


def test_rk4_is_exact_for_cubic_time_fields():
    y = reference.rk4(lambda t, y: np.array([4 * t**3, 1.0]), np.zeros(2), 3)
    assert np.abs(y - [1.0, 1.0]).max() <= 1e-14


def test_rk4_converges_at_fourth_order():
    y0 = np.array([1.0, -0.5])
    exact = y0 * np.exp(0.8)
    errs = [np.abs(reference.rk4(lambda t, y: 0.8 * y, y0, s) - exact).max()
            for s in (10, 20)]
    assert 14.0 < errs[0] / errs[1] < 17.0
    assert np.abs(reference.rk4(lambda t, y: 0.8 * y, y0, 200) - exact).max() <= 1e-10


# -- tracer -------------------------------------------------------------------


def test_tracer_spans_nest_and_uninstall_restores():
    from geomflow import alignment, flow
    from geomflow.geometry import LatentGeometry

    rng = np.random.default_rng(0)
    z0 = LatentGeometry(5, *inputs.latent_noise(5, 2, rng))
    z1 = LatentGeometry(5, *inputs.latent_noise(5, 2, rng))
    original = alignment.solve_omt
    tracer = Tracer()
    tracer.install()
    try:
        assert flow.solve_omt is alignment.solve_omt is not original
        flow.align_pair(flow.CouplingPair(z0, z1), 0.5, max_iters=3)
    finally:
        tracer.uninstall()
    assert flow.solve_omt is alignment.solve_omt is original
    names = [tracer.names[i] for i in tracer.name_ids]
    assert names[0] == "flow.align_pair"
    solve = names.index("alignment.solve_omt")
    assert tracer.parents[solve] == 0
    kabsch = names.index("alignment.kabsch")
    assert tracer.parents[kabsch] == solve
    assert all(tracer.starts[c] >= tracer.starts[p] and tracer.ends[c] <= tracer.ends[p]
               for c, p in enumerate(tracer.parents) if p >= 0)
    metrics = tracer.layer_metrics(items=1)
    assert metrics["alignment.solve_omt.calls"] == 1.0
    assert metrics["alignment.kabsch.calls"] == metrics["alignment.hungarian.calls"] >= 1
