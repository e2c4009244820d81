import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import FUZZ, grad_arrays
from levelmix import baseline as bl
from levelmix import checkpoints as ckpt
from levelmix import gmvae as gm
from levelmix import neuralnet as nn
from levelmix.errors import (
    ComponentOutOfRange,
    DegenerateData,
    DimensionMismatch,
    InvalidConfig,
    NumericError,
)


# ---------------------------------------------------------------------------
# VAE


def small_vae_config(d, **overrides):
    base = dict(d=d, latent_dim=16, hidden_width=64, hidden_depth=3, batch_size=64, epochs=60, rng_seed=3)
    base.update(overrides)
    return bl.VaeConfig(**base)


def test_vae_mirrors_gmvae_encoder_decoder_shapes():
    # baseline must isolate the prior: identical encoder/decoder dimensions
    from levelmix import gmvae as gm

    d = 1792
    vae = bl.VaeModel(bl.VaeConfig(d=d))
    mix = gm.build_model(gm.GmvaeConfig(d=d, k=7))
    assert [l.weight.shape for l in vae.decoder.layers] == [
        l.weight.shape for l in mix.decoder.layers
    ]
    assert [l.weight.shape for l in vae.enc_mean_head.layers] == [
        l.weight.shape for l in mix.enc_mean_head.layers
    ]
    assert [l.weight.shape for l in vae.enc_var_head.layers] == [
        l.weight.shape for l in mix.enc_var_head.layers
    ]
    # trunk differs only by the k label inputs
    assert vae.encoder_trunk.layers[0].weight.shape[1] + 7 == mix.encoder_trunk.layers[0].weight.shape[1]


def test_vae_of_a_d_other_than_the_vocabs_is_invalid_config(toy_setup):
    vocab = toy_setup["vocab"]
    with pytest.raises(InvalidConfig, match=f"config d=17 does not match 256 \\* vocab size {vocab.size}"):
        bl.VaeModel(bl.VaeConfig(d=17), vocab)
    assert bl.VaeModel(bl.VaeConfig(d=256 * vocab.size, hidden_width=8), vocab).vocab is vocab


def test_fit_vae_gmm_of_a_vocab_that_does_not_fit_d_is_refused_before_training(toy_setup, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained an epoch before refusing")

    monkeypatch.setattr(gm.TrainingRun, "train_epoch", no_training)
    data, vocab = toy_setup["data"], toy_setup["vocab"]
    three_tiles = dataclasses.replace(vocab, chars=vocab.chars[:3])
    with pytest.raises(InvalidConfig, match=f"config d={data.shape[1]} does not match 256 \\* vocab size 3"):
        bl.fit_vae_gmm(data, small_vae_config(data.shape[1]), 3, vocab=three_tiles)


def test_vae_kl_zero_for_standard_normal_q():
    kl = nn.kl_diag(np.zeros(64), np.ones(64), np.zeros(64), np.ones(64))
    assert kl == 0.0


def test_vae_gradients_match_finite_differences(rng):
    cfg = bl.VaeConfig(d=10, latent_dim=4, hidden_width=6, hidden_depth=2, batch_size=4, rng_seed=2)
    model = bl.VaeModel(cfg)
    x = (rng.random((4, 10)) > 0.5).astype(float)
    eps = rng.standard_normal((4, 4))

    def total(_=None):
        r, k = bl.vae_loss(model, x, eps)
        return cfg.recon_weight * r + cfg.kl_weight * k

    bl.vae_loss_and_grads(model, x, eps)
    for net in model.networks().values():
        for arr, analytic in zip(net.param_arrays(), grad_arrays(net)):
            numeric = nn.finite_difference_gradient(total, arr, h=1e-5)
            assert nn.max_relative_error(analytic, numeric, floor=1e-6) < 1e-4


def test_vae_single_batch_overfit(toy_setup):
    data = toy_setup["data"][:64]
    cfg = small_vae_config(data.shape[1], epochs=2000, batch_size=64)
    model, history = bl.train_vae(data, cfg)
    model.vocab = toy_setup["vocab"]
    latents = bl.vae_encode(model, data)
    # the trained decoder writes only the support's columns: each cell's
    # prediction is its argmax over them, as generated chunks take it
    chunks = gm.decode_generated(model, latents, 0)
    pred = np.stack([c.tiles.reshape(-1) for c in chunks])
    t = toy_setup["vocab"].size
    truth = np.argmax(data.reshape(64, 256, t), axis=2)
    assert float(np.mean(pred == truth)) >= 0.99


def test_a_vae_gmm_keeps_one_vocab_its_vaes(trained_vae_gmm, toy_setup):
    # save_vae_gmm writes model.vocab and generate decodes with vae.vocab: one value
    model, _ = trained_vae_gmm
    assert model.vocab is model.vae.vocab is toy_setup["vocab"]
    with pytest.raises(AttributeError):
        model.vocab = None
    assert "vocab" not in {f.name for f in dataclasses.fields(model)}


def test_vae_encode_of_float32_data_makes_no_float64_copy():
    config = bl.VaeConfig(d=1024, latent_dim=4, hidden_width=8, hidden_depth=1, dtype="float32")
    model = bl.VaeModel(config)
    data = (np.random.default_rng(0).random((256, 1024)) < 0.1).astype(np.float32)
    tracemalloc.start()
    try:
        latents = bl.vae_encode(model, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert latents.dtype == np.float32
    assert peak < data.size * 8, f"peak {peak} bytes for {data.nbytes} bytes of float32 input"


def test_vae_loss_decreases(trained_vae_gmm):
    _, history = trained_vae_gmm
    assert float(np.mean(history.total_loss[-10:])) < float(np.mean(history.total_loss[:10]))


# ---------------------------------------------------------------------------
# PCA


def test_pca_exact_low_rank():
    rng = np.random.default_rng(0)
    basis = np.linalg.qr(rng.standard_normal((64, 2)))[0].T  # (2, 64) orthonormal
    coords = rng.standard_normal((200, 2)) * (3.0, 1.5)
    data = coords @ basis + rng.standard_normal(64) * 0.0 + 5.0
    projection = bl.pca_fit(data)
    assert projection.m == 2
    reconstructed = bl.pca_inverse(projection, bl.pca_project(projection, data))
    assert np.max(np.abs(reconstructed - data)) < 1e-9


def test_pca_threshold_by_construction():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((500, 64))
    projection = bl.pca_fit(data)
    kept = projection.explained_variance.sum()
    assert kept / projection.total_variance >= 0.95
    # removing the last axis must drop below the target (minimality)
    if projection.m > 1:
        assert (kept - projection.explained_variance[-1]) / projection.total_variance < 0.95


def test_pca_axes_orthonormal_and_variances_sorted():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((300, 32)) * np.linspace(5, 0.1, 32)
    projection = bl.pca_fit(data)
    gram = projection.axes @ projection.axes.T
    assert np.max(np.abs(gram - np.eye(projection.m))) < 1e-10
    ev = projection.explained_variance
    assert np.all(np.diff(ev) <= 1e-12)


def test_pca_projection_variance_matches_eigenvalues():
    # independent oracle: eigenvalues of the covariance matrix
    rng = np.random.default_rng(3)
    data = rng.standard_normal((400, 16)) @ rng.standard_normal((16, 16))
    projection = bl.pca_fit(data)
    eigenvalues = np.sort(np.linalg.eigvalsh(np.cov(data.T)))[::-1]
    projected = bl.pca_project(projection, data)
    variances = projected.var(axis=0, ddof=1)
    assert np.max(np.abs(variances - eigenvalues[: projection.m])) < 1e-8


def test_pca_degenerate_data():
    with pytest.raises(DegenerateData):
        bl.pca_fit(np.zeros((10, 8)))
    with pytest.raises(DegenerateData):
        bl.pca_fit(np.ones((1, 8)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_pca_of_non_finite_data_is_numeric_error(value):
    # numpy's SVD would raise LinAlgError, which the CLI maps to no exit code
    data = np.random.default_rng(4).standard_normal((20, 6))
    data[3, 2] = value
    with pytest.raises(NumericError, match="NaN or infinite"):
        bl.pca_fit(data)


def test_pca_deterministic():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((100, 8))
    p1 = bl.pca_fit(data)
    p2 = bl.pca_fit(data.copy())
    assert np.array_equal(p1.axes, p2.axes)


# ---------------------------------------------------------------------------
# GMM


def two_blobs(n=300, seed=0, separation=8.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n // 2, 2)) + (0.0, 0.0)
    b = rng.standard_normal((n - n // 2, 2)) + (separation, separation)
    labels = np.array([0] * (n // 2) + [1] * (n - n // 2))
    return np.concatenate([a, b]), labels


def test_gmm_recovers_separated_means():
    points, _ = two_blobs(seed=5)
    model = bl.gmm_fit(points, 2, rng_seed=1)
    means = model.means[np.argsort(model.means[:, 0])]
    assert np.all(np.abs(means[0] - 0.0) < 0.25)
    assert np.all(np.abs(means[1] - 8.0) < 0.25)
    # tighter: each recovered mean within 0.1 of its sample counterpart
    sample0 = points[:150].mean(axis=0)
    sample1 = points[150:].mean(axis=0)
    assert np.all(np.abs(means[0] - sample0) < 0.1)
    assert np.all(np.abs(means[1] - sample1) < 0.1)


def test_gmm_log_likelihood_monotone():
    rng = np.random.default_rng(7)
    points = rng.standard_normal((120, 3))
    model = bl.gmm_fit(points, 3, rng_seed=0, restarts=3)
    trace = model.log_likelihood_trace
    assert len(trace) >= 1
    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


@settings(FUZZ, max_examples=25)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_gmm_log_likelihood_monotone_property(seed):
    r = np.random.default_rng(seed)
    n = int(r.integers(30, 80))
    d = int(r.integers(1, 4))
    k = int(r.integers(1, 4))
    points = r.standard_normal((n, d)) * r.uniform(0.5, 3.0) + r.standard_normal(d)
    model = bl.gmm_fit(points, k, rng_seed=seed % 1000, restarts=1, max_iters=60)
    trace = model.log_likelihood_trace
    assert all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))


def test_gmm_k1_closed_form():
    rng = np.random.default_rng(9)
    points = rng.standard_normal((200, 3)) * (1.0, 2.0, 0.5) + (1.0, -2.0, 0.0)
    model = bl.gmm_fit(points, 1, rng_seed=0, restarts=1)
    assert np.allclose(model.means[0], points.mean(axis=0), atol=1e-8)
    centered = points - points.mean(axis=0)
    biased_cov = centered.T @ centered / len(points)
    assert np.allclose(model.covariances[0], biased_cov + 1e-6 * np.eye(3), atol=1e-6)
    assert model.weights[0] == 1.0


def test_gmm_predict_mean_point_and_responsibilities():
    points, _ = two_blobs(seed=11)
    model = bl.gmm_fit(points, 2, rng_seed=3)
    resp = np.exp(bl.gmm_log_responsibilities(model, points))
    assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)
    pred_at_means = bl.gmm_predict(model, model.means)
    assert pred_at_means[0] != pred_at_means[1]
    assert list(pred_at_means) == [0, 1]


def test_gmm_predict_blob_accuracy_hungarian():
    # >= 99% accuracy after optimally matching components to blob labels
    points, truth = two_blobs(n=400, seed=13)
    model = bl.gmm_fit(points, 2, rng_seed=5)
    pred = bl.gmm_predict(model, points)
    best = 0.0
    for perm in itertools.permutations(range(2)):
        mapped = np.array([perm[p] for p in pred])
        best = max(best, float(np.mean(mapped == truth)))
    assert best >= 0.99


def test_gmm_needs_enough_points():
    with pytest.raises(DegenerateData):
        bl.gmm_fit(np.zeros((2, 2)), 3)


@pytest.mark.parametrize("k", [0, -1])
def test_gmm_needs_a_component(k):
    with pytest.raises(InvalidConfig, match=f"got {k}"):
        bl.gmm_fit(np.random.default_rng(0).standard_normal((10, 2)), k)


@pytest.mark.parametrize("k", [0, -1])
def test_vae_gmm_rejects_k_before_training(monkeypatch, k):
    def train_vae(*args, **kwargs):
        raise AssertionError("the VAE was trained")

    monkeypatch.setattr(bl, "train_vae", train_vae)
    data = np.zeros((4, 12), dtype=np.uint8)
    config = small_vae_config(12)
    with pytest.raises(InvalidConfig, match=f"got {k}"):
        bl.fit_vae_gmm(data, config, k)


def test_gmm_dimension_mismatch():
    points, _ = two_blobs()
    model = bl.gmm_fit(points, 2, rng_seed=1)
    with pytest.raises(DimensionMismatch):
        bl.gmm_predict(model, np.zeros((5, 3)))


def test_gmm_sample_component_bounds():
    points, _ = two_blobs()
    model = bl.gmm_fit(points, 2, rng_seed=1)
    with pytest.raises(ComponentOutOfRange):
        bl.gmm_sample(model, 2, 5, np.random.default_rng(0))
    draws = bl.gmm_sample(model, 0, 2000, np.random.default_rng(0))
    assert np.all(np.abs(draws.mean(axis=0) - model.means[0]) < 0.2)


def test_gmm_restart_determinism():
    points, _ = two_blobs(seed=17)
    m1 = bl.gmm_fit(points, 2, rng_seed=4)
    m2 = bl.gmm_fit(points, 2, rng_seed=4)
    assert np.array_equal(m1.means, m2.means)
    assert m1.log_likelihood_trace == m2.log_likelihood_trace


def test_gmm_fit_discards_non_monotone_restart(monkeypatch):
    # fixed points, from no training: a cluster about as tight as EM_RIDGE
    # beside two broad ones. The ridge makes each M step inexact, and on
    # restart 5 the mean log-likelihood falls by 1.3e-6, about 1000 times
    # the guard's rounding allowance; the other nine restarts converge
    r = np.random.default_rng(3)
    points = np.concatenate([r.normal(0.0, 1e-3, (10, 1)), r.normal(3.0, 1.0, (20, 1)), r.normal(-3.0, 1.0, (20, 1))])
    with pytest.raises(NumericError, match="decreased"):
        bl._em_run(points, 3, np.random.default_rng(5), 200)
    model = bl.gmm_fit(points, 3, rng_seed=0)
    assert model.k == 3
    assert np.isfinite(model.log_likelihood_trace[-1])
    # without the ridge the same restart rises throughout
    monkeypatch.setattr(bl, "EM_RIDGE", 0.0)
    trace = bl._em_run(points, 3, np.random.default_rng(5), 200).log_likelihood_trace
    assert np.all(np.diff(trace) >= 0)


# ---------------------------------------------------------------------------
# combined pipeline


def test_vae_gmm_pipeline_end_to_end(trained_vae_gmm, toy_setup):
    model, _ = trained_vae_gmm
    labels = model.predict(toy_setup["data"])
    assert labels.shape == (len(toy_setup["data"]),)
    assert np.all((labels >= 0) & (labels < 3))
    chunks = model.generate(1, 4, np.random.default_rng(2))
    assert len(chunks) == 4
    assert all(c.tiles.shape == (16, 16) for c in chunks)


def test_vae_gmm_checkpoint_roundtrip(trained_vae_gmm, toy_setup, tmp_path):
    model, history = trained_vae_gmm
    path = tmp_path / "baseline.json"
    ckpt.save_vae_gmm(path, model, history)
    kind, loaded, loaded_history = ckpt.load_any(path)
    assert kind == "vae-gmm"
    assert np.array_equal(loaded.gmm.means, model.gmm.means)
    assert np.array_equal(loaded.pca.axes, model.pca.axes)
    assert loaded.pca.m == model.pca.m
    pred_a = model.predict(toy_setup["data"][:40])
    pred_b = loaded.predict(toy_setup["data"][:40])
    assert np.array_equal(pred_a, pred_b)
