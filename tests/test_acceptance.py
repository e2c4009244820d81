"""Acceptance suite: one test per criterion, each printing a PASS line when
its assertions hold (run with -s or -v to see them).

Criteria that need the real level corpus read its checkout location from the
VGLC_ROOT environment variable and are skipped when it is unset. The two
multi-hour reduced-replication criteria additionally require
LEVELMIX_RUN_FULL=1; see the README for the exact commands.
"""

import csv
import json
import os
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from levelmix import baseline as bl
from levelmix import charts
from levelmix import cli
from levelmix import corpus as cp
from levelmix import evaluation as ev
from levelmix import gmvae as gm
from levelmix import neuralnet as nn
from levelmix import playability as pl
from levelmix import toygame
from levelmix import vglc

from conftest import grad_arrays

VGLC_ROOT = os.environ.get("VGLC_ROOT")
RUN_FULL = os.environ.get("LEVELMIX_RUN_FULL") == "1"

needs_corpus = pytest.mark.skipif(
    not VGLC_ROOT, reason="set VGLC_ROOT to a level-corpus checkout to run"
)
needs_full_run = pytest.mark.skipif(
    not (VGLC_ROOT and RUN_FULL),
    reason="set VGLC_ROOT and LEVELMIX_RUN_FULL=1 for the multi-hour criteria",
)


def report(criterion, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}")


@pytest.fixture(scope="module")
def corpus_manifests(tmp_path_factory):
    root = tmp_path_factory.mktemp("vglc_manifests")
    paths = {}
    for game in ("smb", "ki", "mm"):
        paths[game] = str(root / f"{game}.json")
        with open(paths[game], "w") as f:
            json.dump(vglc.build_manifest(VGLC_ROOT, game), f, indent=2)
    return paths


@pytest.fixture(scope="module")
def smb_data(corpus_manifests):
    manifest = cp.load_manifest(corpus_manifests["smb"])
    _, vocab, chunks = cp.load_corpus(manifest, heuristic_types=True)
    data = cp.encode_chunks(chunks, vocab)
    types = [c.level_type for c in chunks]
    return manifest, vocab, chunks, data, types


# ---------------------------------------------------------------------------
# Criterion 1: ingestion fidelity on the real corpus


@needs_corpus
def test_criterion_1_ingestion_fidelity(corpus_manifests):
    start = time.time()
    deltas = []
    observed = {}
    for game, manifest_path in corpus_manifests.items():
        _, vocab, chunks = cp.load_corpus(cp.load_manifest(manifest_path))
        size, d, count = vocab.size, cp.CHUNK_SIZE**2 * vocab.size, len(chunks)
        observed[game] = (size, d, count)
        deltas.extend(vglc.check_against_reference(game, size, d, count))
    elapsed = time.time() - start
    assert not deltas, "corpus deltas: " + "; ".join(deltas)
    assert elapsed < 10.0, f"ingestion took {elapsed:.1f}s, budget 10s"
    report("C1 ingestion-fidelity", f"{observed}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: numerics suite


def test_criterion_2_numerics():
    start = time.time()
    rng = np.random.default_rng(0)

    # every analytic gradient vs central differences on randomized nets <= 32 wide
    worst = 0.0
    for seed in range(3):
        cfg = gm.GmvaeConfig(
            d=int(rng.integers(6, 20)), k=int(rng.integers(2, 5)),
            latent_dim=int(rng.integers(3, 8)), hidden_width=int(rng.integers(4, 32)),
            hidden_depth=2, batch_size=4, epochs=1, rng_seed=seed,
            label_balance_weight=float(rng.uniform(0.0, 2.0)),
        )
        model = gm.build_model(cfg)
        pert = np.random.default_rng(seed + 50)
        for net in (model.label_net, model.prior_mean_net, model.prior_var_net):
            for layer in net.layers:
                layer.weight += 0.2 * pert.standard_normal(layer.weight.shape)
        x = (rng.random((4, cfg.d)) > 0.5).astype(float)
        gnoise = nn.sample_gumbel((4, cfg.k), rng)
        eps = rng.standard_normal((4, cfg.latent_dim))
        tau = float(rng.uniform(0.4, 1.5))

        def total(_=None):
            r, k, b = gm.gmvae_loss(model, x, tau, False, gnoise, eps)
            return cfg.recon_weight * r + cfg.kl_weight * k + cfg.label_balance_weight * b

        gm.gmvae_loss_and_grads(model, x, tau, False, gnoise, eps)
        for net in model.networks().values():
            for arr, analytic in zip(net.param_arrays(), grad_arrays(net)):
                numeric = nn.finite_difference_gradient(total, arr, h=1e-5)
                worst = max(worst, nn.max_relative_error(analytic, numeric, floor=1e-6))
    assert worst < 1e-4, f"worst gradient relative error {worst:.2e}"

    # kl against a 10^6-sample Monte-Carlo estimate, within 1%
    mu_q = rng.standard_normal(8)
    var_q = rng.uniform(0.4, 1.5, 8)
    mu_p = rng.standard_normal(8)
    var_p = rng.uniform(0.4, 1.5, 8)
    z = mu_q + np.sqrt(var_q) * rng.standard_normal((1_000_000, 8))
    log_q = -0.5 * (np.log(2 * np.pi * var_q) + (z - mu_q) ** 2 / var_q).sum(axis=1)
    log_p = -0.5 * (np.log(2 * np.pi * var_p) + (z - mu_p) ** 2 / var_p).sum(axis=1)
    mc = float(np.mean(log_q - log_p))
    analytic = nn.kl_diag(mu_q, var_q, mu_p, var_p)
    assert abs(mc - analytic) / analytic < 0.01, f"MC {mc} vs analytic {analytic}"

    # argmax frequencies over 10^5 draws within 0.02 per class
    logits = np.array([0.8, -0.4, 0.1, 0.5, -1.0])
    expected = nn.softmax(logits)
    y, _ = nn.gumbel_softmax(np.tile(logits, (100_000, 1)), 0.7, nn.sample_gumbel((100_000, 5), rng))
    frequencies = np.bincount(np.argmax(y, axis=1), minlength=5) / 100_000
    assert np.all(np.abs(frequencies - expected) < 0.02)

    # EM log-likelihood non-decreasing on 100 random synthetic problems
    for seed in range(100):
        r = np.random.default_rng(seed)
        n = int(r.integers(30, 90))
        dim = int(r.integers(1, 4))
        k = int(r.integers(1, 4))
        points = r.standard_normal((n, dim)) * r.uniform(0.3, 3.0) + r.standard_normal(dim) * 2
        model = bl.gmm_fit(points, k, rng_seed=seed, restarts=1, max_iters=60)
        trace = model.log_likelihood_trace
        assert all(
            b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:])
        ), f"seed {seed} not monotone"

    # PCA retains >= 95% variance by construction
    data = rng.standard_normal((300, 40)) * np.linspace(3, 0.1, 40)
    projection = bl.pca_fit(data)
    assert projection.explained_variance.sum() / projection.total_variance >= 0.95

    elapsed = time.time() - start
    assert elapsed < 300.0, f"numerics suite took {elapsed:.0f}s, budget 5 min"
    report("C2 numerics-suite", f"worst grad err {worst:.1e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 3: reduced replication of the clustering comparison


def compare_medians(manifest, out, flags):
    """The (gmvae, vae-gmm) median balanced accuracies of `levelmix compare`
    at k = 3 with the balanced sampler, the paper's comparison."""
    argv = ["compare", "--manifest", str(manifest), "--out", str(out), "--k", "3", "--sampler", "balanced"]
    assert cli.run(argv + flags) == 0
    with open(out) as f:
        report = json.load(f)["report"]
    return report["median_gmvae"], report["median_vae_gmm"]


def test_criterion_3_toy_scale_analog(tmp_path):
    # In-sandbox analog on the synthetic corpus: the same property at toy
    # scale (3 seeds, both families). The corpus-scale criterion runs below.
    manifest = toygame.write_corpus(tmp_path / "corpus", levels_per_type=3, cols=48, seed=1)
    median_mix, median_base = compare_medians(
        manifest, tmp_path / "experiment1.json",
        ["--seeds", "3,4,5", "--epochs", "100", "--latent-dim", "16", "--hidden-width", "64"],
    )
    assert median_mix >= 0.75, f"mixture median {median_mix:.3f} below 0.75"
    assert median_mix >= median_base - 1e-9, (
        f"mixture {median_mix:.3f} below baseline {median_base:.3f}"
    )
    report("C3 reduced-replication (toy-scale analog)",
           f"mixture {median_mix:.3f} vs baseline {median_base:.3f}")


@needs_full_run
def test_criterion_3_smb_reduced_replication(corpus_manifests, tmp_path):
    median_mix, median_base = compare_medians(
        corpus_manifests["smb"], tmp_path / "experiment1.json",
        ["--seeds", "0,1,2", "--epochs", "2000", "--latent-dim", "64", "--hidden-width", "512"],
    )
    assert median_mix > median_base, (
        f"mixture median {median_mix:.3f} not above baseline {median_base:.3f}"
    )
    assert median_mix >= 0.75, f"mixture median {median_mix:.3f} below 0.75"
    report("C3 reduced-replication (corpus)",
           f"mixture {median_mix:.3f} vs baseline {median_base:.3f}")


# ---------------------------------------------------------------------------
# Criterion 4: disentanglement harness validity


def test_criterion_4_synthetic_generators():
    vocab = cp.TileVocab(game="t", chars=("-", "A", "B", "C", "D", "E"))

    def disjoint(component, n, rng):
        return [cp.Chunk(tiles=np.full((16, 16), component + 1, dtype=np.int64)) for _ in range(n)]

    rng = np.random.default_rng(0)
    k = 5
    full = ev.disentanglement(disjoint, k, vocab, rng, n_per_component=500, n_train=300)
    assert full.per_component_accuracy == [1.0] * k
    assert (full.p70, full.p80, full.p90) == (1.0, 1.0, 1.0)

    def identical(component, n, rng):
        return [cp.Chunk(tiles=rng.integers(0, vocab.size, size=(16, 16))) for _ in range(n)]

    flat = ev.disentanglement(identical, k, vocab, np.random.default_rng(1),
                              n_per_component=500, n_train=300)
    mean_acc = float(np.mean(flat.per_component_accuracy))
    assert 1.0 / k - 0.1 <= mean_acc <= 1.0 / k + 0.1, f"chance-level check: {mean_acc:.3f}"
    report("C4 disentanglement-harness (synthetic)",
           f"disjoint p70..p90 all 1.0; identical mean accuracy {mean_acc:.3f}")


@needs_full_run
def test_criterion_4_smb_reduced_sweep(corpus_manifests, tmp_path):
    # the README's reduced grid, at the CLI's defaults (uniform sampler, 500
    # chunks per component, 300 of them to train the probe)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--k-list", "2,4,10", "--epochs", "2000", "--seed", "0", "--manifest", corpus_manifests["smb"]]
    assert cli.run(argv + ["--out", str(out)]) == 0
    with open(out, newline="") as f:
        by_key = {(row["family"], int(row["k"])): float(row["p80"]) for row in csv.DictReader(f)}
    mix_p80 = by_key[("gmvae", 10)]
    base_p80 = by_key[("vae-gmm", 10)]
    assert mix_p80 >= base_p80, f"k=10 p80: mixture {mix_p80} < baseline {base_p80}"
    report("C4 disentanglement-sweep (corpus)", f"k=10 p80 {mix_p80:.2f} vs {base_p80:.2f}")


# ---------------------------------------------------------------------------
# Criterion 5: playability checker


def test_criterion_5_checker_validity():
    rules = pl.PlayabilityRules(
        game="t", solidity={"-": "passable", "X": "solid"}, axis="horizontal"
    )
    vocab = cp.TileVocab(game="t", chars=("-", "X"))
    flat = np.zeros((16, 16), np.int64)
    flat[14:] = 1
    walled = flat.copy()
    walled[:14, 8] = 1
    assert pl.flood_crossable(np.stack([flat, walled]), rules, vocab).tolist() == [True, False]

    # brute-force flood equivalence on exhaustively seeded 8x8 toy grids
    vertical = pl.PlayabilityRules(
        game="t", solidity={"-": "passable", "X": "solid"}, axis="vertical"
    )
    grids = []
    for seed in range(500):
        r = np.random.default_rng(seed)
        density = float(r.uniform(0.05, 0.7))
        grids.append(r.random((8, 8)) < density)
    checked = 0
    for rule_set in (rules, vertical):
        answers = pl.flood_crossable(np.array(grids, np.int64), rule_set, vocab)
        for seed, (cells, answer) in enumerate(zip(grids, answers)):
            rows = ["".join("X" if cells[i, j] else "-" for j in range(8)) for i in range(8)]
            assert answer == pl.bfs_crossable(rows, rule_set), (
                f"disagreement on seed {seed} axis {rule_set.axis}"
            )
            checked += 1
    report("C5 playability-checker", f"flat/wall cases plus {checked} BFS-equivalence grids")


@needs_full_run
def test_criterion_5_smb_model_playability(smb_data):
    import functools

    manifest, vocab, chunks, data, types = smb_data
    config = gm.GmvaeConfig(d=data.shape[1], k=3, epochs=2000, rng_seed=0)
    model = gm.build_model(config, vocab)
    gm.train(model, data, level_types=types, sampler="balanced")
    rules = pl.rules_from_manifest(manifest)
    result = pl.playability_suite(
        functools.partial(gm.generate, model), 3, rules, vocab,
        np.random.default_rng(0), total_budget=10000,
    )
    assert result.fraction >= 0.90, f"playable fraction {result.fraction:.3f} below 0.90"
    report("C5 playability (corpus model)", f"fraction {result.fraction:.3f}")


# ---------------------------------------------------------------------------
# Criterion 6: determinism


def test_criterion_6_determinism(tmp_path):
    manifest = toygame.write_corpus(tmp_path / "corpus", levels_per_type=2, cols=32, seed=2)
    out_dir = tmp_path / "run"
    out, history = out_dir / "model.ckpt", out_dir / "history.csv"
    args = [
        "train", "--manifest", str(manifest), "--k", "3",
        "--epochs", "12", "--hidden-width", "32", "--latent-dim", "8",
        "--seed", "11", "--sampler", "balanced", "--out-dir", str(out_dir),
    ]
    assert cli.run(args) == 0
    first_model = out.read_bytes()
    first_history = history.read_bytes()
    out.unlink()
    history.unlink()
    assert cli.run(args) == 0
    assert out.read_bytes() == first_model, "checkpoints differ between identical runs"
    assert history.read_bytes() == first_history, "histories differ between identical runs"
    report("C6 determinism", f"{len(first_model)} checkpoint bytes identical")


# ---------------------------------------------------------------------------
# Criterion 7: density and chart pipeline


def test_criterion_7_density_chart_pipeline(toy_setup, trained_gmvae):
    model, _ = trained_gmvae
    vocab = toy_setup["vocab"]
    rng = np.random.default_rng(5)
    groups = [gm.generate(model, i, 40, rng) for i in range(model.config.k)]
    matrix = ev.tile_densities(groups, vocab)

    # independent tally oracle: count characters by hand
    raw = np.zeros((len(groups), vocab.size))
    for gi, group in enumerate(groups):
        for chunk in group:
            for line in cp.chunk_to_lines(chunk, vocab):
                for char in line:
                    raw[gi, vocab.id_of(char)] += 1.0
        raw[gi] /= len(group)
    for j, char in enumerate(matrix.tile_chars):
        column = raw[:, vocab.id_of(char)]
        peak = column.max()
        expected = column / peak if peak > 0 else column
        assert np.max(np.abs(matrix.values[:, j] - expected)) < 1e-12

    # per-tile maxima exactly 1 (or all-zero column), background excluded
    for j in range(matrix.values.shape[1]):
        peak = matrix.values[:, j].max()
        assert peak in (0.0, 1.0)
    assert vocab.background_char not in matrix.tile_chars

    documents = charts.emit_radial_charts(matrix)
    assert len(documents) == model.config.k
    for doc in documents:
        ET.fromstring(doc)  # XML well-formedness
    report("C7 density-chart-pipeline",
           f"{matrix.values.shape} matrix, {len(documents)} SVGs")
