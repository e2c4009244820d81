import csv
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import FUZZ, small_gmvae_config
from levelmix import corpus as cp
from levelmix import evaluation as ev
from levelmix.errors import EmptyComponent, MissingLabels, UsageError

# disentanglement looks train_probe up at each call; tests that replace it call this
TRAIN_PROBE = ev.train_probe


# ---------------------------------------------------------------------------
# clustering accuracy


def exhaustive_balanced_accuracy(confusion):
    """Oracle: try every injective map of min(k, n_types) types to
    components explicitly; the types left out score zero."""
    k, n_types = confusion.shape
    totals = confusion.sum(axis=0)
    m = min(k, n_types)
    best = 0.0
    for matched in itertools.combinations(range(n_types), m):
        for combo in itertools.permutations(range(k), m):
            acc = 0.0
            for type_idx, comp in zip(matched, combo):
                if totals[type_idx] > 0:
                    acc += confusion[comp, type_idx] / totals[type_idx]
            best = max(best, acc / n_types)
    return best


def test_perfect_permutation_is_one():
    labels = np.array([2] * 10 + [0] * 10 + [1] * 10)
    types = ["a"] * 10 + ["b"] * 10 + ["c"] * 10
    report = ev.clustering_accuracy(labels, types, 3)
    assert report.balanced_accuracy == 1.0
    assert report.assignment == {"a": 2, "b": 0, "c": 1}


def test_random_labels_near_chance():
    rng = np.random.default_rng(0)
    n = 10_000
    labels = rng.integers(0, 3, n)
    types = [("x", "y", "z")[i % 3] for i in range(n)]
    report = ev.clustering_accuracy(labels, types, 3)
    assert abs(report.balanced_accuracy - 1.0 / 3.0) < 0.03


def test_unbalanced_types_macro_average():
    # 90 of type a (all correct), 10 of type b (all wrong): macro = 0.5
    labels = np.array([0] * 90 + [0] * 10)
    types = ["a"] * 90 + ["b"] * 10
    report = ev.clustering_accuracy(labels, types, 2)
    assert report.balanced_accuracy == 0.5


def test_more_components_than_types():
    labels = np.array([0] * 5 + [3] * 5)
    types = ["a"] * 5 + ["b"] * 5
    report = ev.clustering_accuracy(labels, types, 4)
    assert report.balanced_accuracy == 1.0


def test_fewer_components_than_types_unmatched_score_zero():
    labels = np.array([0] * 4 + [1] * 4 + [0, 1] * 2)
    types = ["a"] * 4 + ["b"] * 4 + ["c"] * 4
    report = ev.clustering_accuracy(labels, types, 2)
    oracle = exhaustive_balanced_accuracy(report.confusion)
    assert abs(report.balanced_accuracy - oracle) < 1e-12


def test_oracle_may_leave_out_a_type_other_than_the_last():
    # the best map for k = 2 leaves type b, not the last type c, unmatched
    labels = np.array([0, 0, 0, 0, 0, 1, 0])
    types = ["a", "a", "a", "a", "a", "c", "b"]
    report = ev.clustering_accuracy(labels, types, 2)
    assert report.assignment == {"a": 0, "c": 1}
    assert exhaustive_balanced_accuracy(report.confusion) == report.balanced_accuracy == pytest.approx(2 / 3)


def test_missing_labels_rejected():
    with pytest.raises(MissingLabels):
        ev.clustering_accuracy(np.array([0, 1]), ["a", None], 2)
    with pytest.raises(MissingLabels):
        ev.clustering_accuracy(np.array([0, 5]), ["a", "b"], 2)


@settings(FUZZ, max_examples=150)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_hungarian_equals_exhaustive_small_k(seed):
    r = np.random.default_rng(seed)
    k = int(r.integers(2, 9))  # up to k = 8
    n_types = int(r.integers(2, 7))  # above k for k < 6
    n = int(r.integers(20, 120))
    labels = r.integers(0, k, n)
    type_names = [f"t{i}" for i in range(n_types)]
    types = [type_names[i] for i in r.integers(0, n_types, n)]
    report = ev.clustering_accuracy(labels, types, k)
    oracle = exhaustive_balanced_accuracy(report.confusion)
    assert abs(report.balanced_accuracy - oracle) < 1e-9


@settings(FUZZ)
@given(st.data())
def test_confusion_equals_a_per_chunk_count(data):
    # k may exceed the number of types, and some components get no chunk
    k = data.draw(st.integers(1, 6), label="k")
    types = data.draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=40), label="types")
    labels = data.draw(st.lists(st.integers(0, k - 1), min_size=len(types), max_size=len(types)), label="labels")
    if data.draw(st.booleans(), label="as array"):
        labels = np.array(labels)
    report = ev.clustering_accuracy(labels, types, k)
    names = sorted(set(types))
    expected = np.zeros((k, len(names)), dtype=np.int64)
    for label, level_type in zip(labels, types):
        expected[label, names.index(level_type)] += 1
    assert report.type_names == names
    assert report.confusion.dtype == np.int64 and np.array_equal(report.confusion, expected)


IMPORT_FOOTPRINT = """
import json, sys
import levelmix, levelmix.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps(scipy_modules()))
from levelmix.evaluation import clustering_accuracy
reports = [
    clustering_accuracy([0, 0, 1, 2, 1, 1], list("aabcba"), 3).to_dict(),
    clustering_accuracy([1, 1, 1, 1], list("abcc"), 3).to_dict(),
]
print(json.dumps("scipy.optimize" in scipy_modules()))
print(json.dumps(reports))
"""


def test_scipy_is_imported_only_by_clustering_accuracy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ev.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    at_import, loaded, reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert at_import == []
    assert loaded
    assert reports == [
        {
            "k": 3,
            "type_names": ["a", "b", "c"],
            "confusion": [[2, 0, 0], [1, 2, 0], [0, 0, 1]],
            "assignment": {"a": 0, "b": 1, "c": 2},
            "balanced_accuracy": 8 / 9,
        },
        # every chunk in one component (an untrained model): all assignments
        # tie, and the solver's choice is part of the report
        {
            "k": 3,
            "type_names": ["a", "b", "c"],
            "confusion": [[0, 0, 0], [1, 1, 2], [0, 0, 0]],
            "assignment": {"a": 0, "b": 1, "c": 2},
            "balanced_accuracy": 1 / 3,
        },
    ]


# ---------------------------------------------------------------------------
# disentanglement


def constant_chunk(tile_id):
    return cp.Chunk(tiles=np.full((16, 16), tile_id, dtype=np.int64))


def test_disjoint_generators_fully_disentangled(rng):
    vocab = cp.TileVocab(game="t", chars=("-", "A", "B", "C", "D", "E"))

    def gen(component, n, rng):
        return [constant_chunk(component + 1) for _ in range(n)]

    report = ev.disentanglement(gen, 5, vocab, rng, n_per_component=60, n_train=40)
    assert report.per_component_accuracy == [1.0] * 5
    assert (report.p70, report.p80, report.p90) == (1.0, 1.0, 1.0)


def test_identical_generators_at_chance(rng):
    vocab = cp.TileVocab(game="t", chars=("-", "A"))

    def gen(component, n, rng):
        # same distribution regardless of component: random tiles
        return [cp.Chunk(tiles=rng.integers(0, 2, size=(16, 16))) for _ in range(n)]

    k = 4
    report = ev.disentanglement(gen, k, vocab, rng, n_per_component=100, n_train=60)
    mean_acc = float(np.mean(report.per_component_accuracy))
    assert 1.0 / k - 0.1 <= mean_acc <= 1.0 / k + 0.1


def test_proportions_monotone(rng):
    vocab = cp.TileVocab(game="t", chars=("-", "A", "B", "C"))
    mix_rng = np.random.default_rng(1)

    def gen(component, n, rng):
        # partially overlapping components: noisy constant chunks
        out = []
        for _ in range(n):
            tiles = np.full((16, 16), (component % 3) + 1, dtype=np.int64)
            mask = rng.random((16, 16)) < 0.4
            tiles[mask] = rng.integers(0, 4, size=int(mask.sum()))
            out.append(cp.Chunk(tiles=tiles))
        return out

    report = ev.disentanglement(gen, 4, vocab, rng, n_per_component=80, n_train=50)
    assert report.p70 >= report.p80 >= report.p90


@pytest.mark.parametrize("n_per_component, n_train", [(10, 0), (10, -1), (10, 10), (10, 11), (0, 1)])
def test_probe_split_without_both_sides_is_usage_error(n_per_component, n_train):
    vocab = cp.TileVocab(game="t", chars=("-", "A"))
    calls = []

    def gen(component, n, rng):
        calls.append(component)
        return [constant_chunk(1) for _ in range(n)]

    with pytest.raises(UsageError, match="n_train"):
        ev.disentanglement(gen, 2, vocab, np.random.default_rng(0), n_per_component=n_per_component, n_train=n_train)
    assert calls == []


def test_a_wrong_chunk_count_is_a_generator_failure():
    vocab = cp.TileVocab(game="t", chars=("-",))

    def short(component, n, rng):
        return [constant_chunk(0) for _ in range(n - component)]

    with pytest.raises(ev.GeneratorFailure, match="component 1: expected 10 chunks, got 9"):
        ev.disentanglement(short, 2, vocab, np.random.default_rng(0), n_per_component=10, n_train=5)


def test_a_generator_error_propagates_as_it_is():
    vocab = cp.TileVocab(game="t", chars=("-",))

    def bad(component, n, rng):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="^boom$"):
        ev.disentanglement(bad, 2, vocab, np.random.default_rng(0), n_per_component=10, n_train=5)


def test_gmvae_disentanglement_on_trained_model(trained_gmvae, rng):
    import functools

    from levelmix import gmvae as gm

    model, _ = trained_gmvae
    report = ev.disentanglement(
        functools.partial(gm.generate, model), model.config.k, model.vocab, rng,
        n_per_component=60, n_train=40,
    )
    assert len(report.per_component_accuracy) == model.config.k
    # the toy model separates its three types cleanly
    assert report.p70 >= 2.0 / 3.0


def reference_disentanglement(generate_fn, k, vocab, rng, n_per_component, n_train):
    """The per-component accuracies and the probe that disentanglement gives,
    computed from float64 one-hot rows: one np.stack per component, float64
    training rows, and one validation forward per component."""
    flats = [
        np.stack([cp.one_hot_encode(c, vocab) for c in generate_fn(component, n_per_component, rng)]).astype(np.float64)
        for component in range(k)
    ]
    labels = [np.full(n_per_component, component, dtype=np.int64) for component in range(k)]
    net = TRAIN_PROBE(
        np.concatenate([f[:n_train] for f in flats]), np.concatenate([y[:n_train] for y in labels]),
        np.concatenate([f[n_train:] for f in flats]), np.concatenate([y[n_train:] for y in labels]),
        k, int(rng.integers(2**31)),
    )
    accuracies = [float(np.mean(np.argmax(net.forward(f[n_train:]), axis=1) == c)) for c, f in enumerate(flats)]
    return accuracies, net


@pytest.fixture(scope="module")
def trained_gmvae_f32(toy_setup):
    from levelmix import gmvae as gm

    data = toy_setup["data"]
    model = gm.build_model(small_gmvae_config(data.shape[1], dtype="float32", epochs=20), toy_setup["vocab"])
    gm.train(model, data, level_types=toy_setup["types"], sampler="balanced")
    return model, None


@pytest.mark.parametrize("fixture", ["trained_gmvae", "trained_gmvae_f32", "trained_vae_gmm"])
def test_disentanglement_equals_the_float64_rows_reference(request, monkeypatch, fixture):
    model, _ = request.getfixturevalue(fixture)
    probes = []

    def recording(train_x, *args):
        # the training rows are the one-byte block's
        assert train_x.dtype == np.uint8
        probes.append(TRAIN_PROBE(train_x, *args))
        return probes[-1]

    monkeypatch.setattr(ev, "train_probe", recording)
    report = ev.disentanglement(model.generate, model.k, model.vocab, np.random.default_rng(4),
                                n_per_component=200, n_train=120)
    accuracies, net = reference_disentanglement(model.generate, model.k, model.vocab, np.random.default_rng(4),
                                                n_per_component=200, n_train=120)
    accs = np.array(accuracies)
    assert report.to_dict() == {
        "k": model.k,
        "per_component_accuracy": accuracies,
        "p70": float(np.mean(accs >= 0.70)),
        "p80": float(np.mean(accs >= 0.80)),
        "p90": float(np.mean(accs >= 0.90)),
        "probe": report.probe,
    }
    assert probes[0].params.tobytes() == net.params.tobytes()


def test_probe_rows_are_one_byte_each_until_validation(trained_gmvae):
    # k = 3, 500/300, d = 1024: float64 rows of every chunk peaked at 42.5 MB,
    # the uint8 block with float64 validation rows at about 24 MB
    model, _ = trained_gmvae
    tracemalloc.start()
    try:
        ev.disentanglement(model.generate, model.k, model.vocab, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.config.d == 1024 and peak < 33e6


# ---------------------------------------------------------------------------
# tile densities


def chunk_from_rows(rows, vocab):
    ids = np.array([[vocab.id_of(c) for c in row] for row in rows])
    return cp.Chunk(tiles=ids)


def test_single_component_densities_all_one_or_zero():
    vocab = cp.TileVocab(game="t", chars=("-", "A", "B"))
    chunk = cp.Chunk(tiles=np.zeros((16, 16), dtype=np.int64))
    chunk.tiles[0, 0] = 1  # one A, no B
    matrix = ev.tile_densities([[chunk]], vocab)
    assert matrix.tile_chars == ["A", "B"]
    assert matrix.values.tolist() == [[1.0, 0.0]]


def test_ground_column_normalization():
    vocab = cp.TileVocab(game="t", chars=("-", "X"))
    ground = cp.Chunk(tiles=np.ones((16, 16), dtype=np.int64))
    empty = cp.Chunk(tiles=np.zeros((16, 16), dtype=np.int64))
    matrix = ev.tile_densities([[ground], [empty]], vocab)
    assert matrix.tile_chars == ["X"]
    assert matrix.values[:, 0].tolist() == [1.0, 0.0]


def test_densities_match_tally_oracle(toy_setup):
    # independent oracle: per-tile counting loop over raw characters
    vocab = toy_setup["vocab"]
    chunks = toy_setup["chunks"]
    groups = [chunks[0:40], chunks[40:90], chunks[90:150]]
    matrix = ev.tile_densities(groups, vocab)

    raw = np.zeros((3, vocab.size))
    for gi, group in enumerate(groups):
        for chunk in group:
            for line in cp.chunk_to_lines(chunk, vocab):
                for char in line:
                    raw[gi, vocab.id_of(char)] += 1.0
        raw[gi] /= len(group)
    for j, char in enumerate(matrix.tile_chars):
        col = raw[:, vocab.id_of(char)]
        peak = col.max()
        expected = col / peak if peak > 0 else col
        assert np.max(np.abs(matrix.values[:, j] - expected)) < 1e-12


def test_density_columns_peak_at_one(toy_setup):
    vocab = toy_setup["vocab"]
    chunks = toy_setup["chunks"]
    matrix = ev.tile_densities([chunks[:50], chunks[50:100], chunks[100:]], vocab)
    for j in range(matrix.values.shape[1]):
        peak = matrix.values[:, j].max()
        assert peak == 1.0 or peak == 0.0


def test_background_excluded(toy_setup):
    vocab = toy_setup["vocab"]
    matrix = ev.tile_densities([toy_setup["chunks"][:10]], vocab)
    assert vocab.background_char not in matrix.tile_chars
    assert len(matrix.tile_chars) == vocab.size - 1


def test_empty_component_rejected():
    vocab = cp.TileVocab(game="t", chars=("-", "A"))
    with pytest.raises(EmptyComponent):
        ev.tile_densities([[]], vocab)


def test_empty_component_gets_a_nan_row(toy_setup):
    # the per-tile maxima come from the components that have chunks
    vocab, chunks = toy_setup["vocab"], toy_setup["chunks"]
    full = ev.tile_densities([chunks[:40], chunks[40:80]], vocab)
    matrix = ev.tile_densities([chunks[:40], [], chunks[40:80]], vocab)
    assert matrix.k == 3 and np.isnan(matrix.values[1]).all()
    assert np.array_equal(matrix.values[[0, 2]], full.values)


def loop_densities(groups, vocab):
    """tile_densities tallied one tile at a time."""
    raw = np.zeros((len(groups), vocab.size))
    for i, chunks in enumerate(groups):
        for chunk in chunks:
            for tile in chunk.tiles.reshape(-1):
                raw[i, tile] += 1.0
        raw[i] /= max(len(chunks), 1)
    maxima = raw.max(axis=0)
    normalized = np.divide(raw, maxima, out=np.zeros_like(raw), where=maxima > 0)
    normalized[[not chunks for chunks in groups]] = np.nan
    return np.delete(normalized, vocab.background_id, axis=1)


@settings(FUZZ)
@given(st.data())
def test_densities_equal_a_per_tile_loop(data):
    t = data.draw(st.integers(1, 5), label="tiles")
    vocab = cp.TileVocab(game="t", chars=tuple("-ABCD"[:t]))
    sizes = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=5).filter(any), label="group sizes")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # each chunk draws from the first few tiles only, so some tiles are never set
    groups = [[cp.Chunk(tiles=rng.integers(0, rng.integers(1, t + 1), size=(16, 16))) for _ in range(n)] for n in sizes]
    matrix = ev.tile_densities(groups, vocab)
    assert matrix.k == len(sizes) and matrix.tile_chars == list(vocab.chars[1:])
    assert np.array_equal(matrix.values, loop_densities(groups, vocab), equal_nan=True)


def test_density_csv_roundtrip(toy_setup):
    vocab = toy_setup["vocab"]
    matrix = ev.tile_densities([toy_setup["chunks"][:20], toy_setup["chunks"][20:40]], vocab)
    text = matrix.to_csv()
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    assert header == ["component"] + matrix.tile_chars
    rows = list(reader)
    assert len(rows) == 2
    parsed = np.array([[float(v) for v in row[1:]] for row in rows])
    assert np.array_equal(parsed, matrix.values)


# ---------------------------------------------------------------------------
# latent export


def test_export_latents_row_and_column_counts():
    latents = np.random.default_rng(0).standard_normal((7, 64))
    lines = ev.export_latents([f"c{i}" for i in range(7)], ["t"] * 7, [0] * 7, latents).strip().split("\n")
    assert len(lines) == 8
    assert len(lines[0].split(",")) == 3 + 64


def test_export_latents_lossless_roundtrip():
    rng = np.random.default_rng(1)
    latents = rng.standard_normal((5, 8)) * 1e3
    reader = csv.reader(io.StringIO(ev.export_latents(list(range(5)), [None] * 5, [1, 0, 2, 1, 0], latents)))
    next(reader)
    for i, row in enumerate(reader):
        values = np.array([float(v) for v in row[3:]])
        assert np.max(np.abs(values - latents[i])) < 1e-12
        assert int(row[2]) in (0, 1, 2)
