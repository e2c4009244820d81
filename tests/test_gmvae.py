import math
import tracemalloc

import numpy as np
import pytest

from levelmix import baseline as bl
from levelmix import checkpoints as ckpt
from levelmix import gmvae as gm
from levelmix import neuralnet as nn
from levelmix.errors import (
    ComponentOutOfRange,
    DimensionMismatch,
    InvalidConfig,
    MissingLabels,
    NonFiniteLoss,
)

from conftest import small_gmvae_config


def reference_config(d, k):
    return gm.GmvaeConfig(d=d, k=k)


def layer_shapes(net):
    return [(layer.out_dim, layer.in_dim, layer.activation) for layer in net.layers]


def test_shape_audit_reference_dimensions():
    # every network dimension of the reference architecture at d=3072, k=10
    d, k = 3072, 10
    model = gm.build_model(reference_config(d, k))
    assert layer_shapes(model.label_net) == [
        (512, 3072, "relu"),
        (512, 512, "relu"),
        (512, 512, "relu"),
        (10, 512, "linear"),
    ]
    assert layer_shapes(model.prior_mean_net) == [(64, 10, "linear")]
    assert layer_shapes(model.prior_var_net) == [(64, 10, "softplus")]
    assert layer_shapes(model.encoder_trunk) == [
        (512, 3082, "relu"),
        (512, 512, "relu"),
        (512, 512, "relu"),
    ]
    assert layer_shapes(model.enc_mean_head) == [(64, 512, "linear")]
    assert layer_shapes(model.enc_var_head) == [(64, 512, "softplus")]
    assert layer_shapes(model.decoder) == [
        (512, 64, "relu"),
        (512, 512, "relu"),
        (512, 512, "relu"),
        (3072, 512, "sigmoid"),
    ]


def test_input_dimension_per_game():
    # d = 256 * T for the three corpus sizes
    assert reference_config(256 * 12, 3).d == 3072
    assert reference_config(256 * 7, 3).d == 1792
    assert reference_config(256 * 17, 3).d == 4352


def test_build_rejects_bad_config():
    with pytest.raises(InvalidConfig):
        gm.GmvaeConfig(d=100, k=1).validate()
    with pytest.raises(InvalidConfig):
        gm.GmvaeConfig(d=0, k=3).validate()
    with pytest.raises(InvalidConfig):
        gm.GmvaeConfig(d=100, k=3, tau_min=2.0, tau_start=1.0).validate()


def test_build_rejects_vocab_mismatch(toy_setup):
    with pytest.raises(InvalidConfig):
        gm.build_model(small_gmvae_config(17), toy_setup["vocab"])


def test_same_seed_identical_parameters():
    cfg = small_gmvae_config(128, rng_seed=5)
    m1 = gm.build_model(cfg)
    m2 = gm.build_model(small_gmvae_config(128, rng_seed=5))
    for n1, n2 in zip(m1.networks().values(), m2.networks().values()):
        for p1, p2 in zip(n1.param_arrays(), n2.param_arrays()):
            assert np.array_equal(p1, p2)


def test_different_seed_differs():
    m1 = gm.build_model(small_gmvae_config(128, rng_seed=5))
    m2 = gm.build_model(small_gmvae_config(128, rng_seed=6))
    same = all(
        np.array_equal(p1, p2)
        for n1, n2 in zip(m1.networks().values(), m2.networks().values())
        for p1, p2 in zip(n1.param_arrays(), n2.param_arrays())
    )
    assert not same


def test_assign_label_simplex_and_hard(rng):
    model = gm.build_model(small_gmvae_config(64))
    x = rng.random(64)
    y = gm.assign_label(model, x, tau=1.0, rng=rng)
    assert y.shape == (3,)
    assert math.isclose(float(y.sum()), 1.0, rel_tol=1e-9)
    y_hard = gm.assign_label(model, x, tau=1.0, rng=rng, hard=True)
    assert sorted(y_hard.tolist()) == [0.0, 0.0, 1.0]


def test_assign_label_dimension_mismatch(rng):
    model = gm.build_model(small_gmvae_config(64))
    with pytest.raises(DimensionMismatch):
        gm.assign_label(model, np.zeros(65), tau=1.0, rng=rng)


def test_temperature_schedule_reaches_floor_then_hard():
    cfg = small_gmvae_config(64, epochs=100, tau_start=1.0, tau_min=0.5)
    tau0, hard0 = gm.temperature_schedule(cfg, 0)
    assert math.isclose(tau0, 1.0) and not hard0
    tau_half, hard_half = gm.temperature_schedule(cfg, 50)
    assert math.isclose(tau_half, 0.5, rel_tol=1e-9) and hard_half
    tau_end, hard_end = gm.temperature_schedule(cfg, 99)
    assert tau_end == 0.5 and hard_end
    # explicit decay wins over the derived one
    cfg2 = small_gmvae_config(64, epochs=100, tau_decay=1.0)
    assert gm.temperature_schedule(cfg2, 99)[0] == 1.0


def test_training_step_losses_finite_nonnegative(toy_setup, rng):
    data = toy_setup["data"]
    model = gm.build_model(small_gmvae_config(data.shape[1]), toy_setup["vocab"])
    opts = gm.make_optimizers(model)
    losses = gm.training_step(model, data[:32], tau=1.0, optimizers=opts, rng=rng)
    assert losses.recon >= 0.0 and math.isfinite(losses.recon)
    assert losses.kl >= 0.0 and math.isfinite(losses.kl)
    assert math.isfinite(losses.label_balance)


def test_training_step_rejects_oversized_batch(toy_setup, rng):
    data = toy_setup["data"]
    model = gm.build_model(small_gmvae_config(data.shape[1], batch_size=16))
    opts = gm.make_optimizers(model)
    with pytest.raises(DimensionMismatch):
        gm.training_step(model, data[:32], 1.0, opts, rng)


def test_loss_weights_appear_in_total(toy_setup):
    # history total must equal the configured weighted sum of the terms
    data = toy_setup["data"][:64]
    cfg = small_gmvae_config(
        data.shape[1], epochs=3, kl_weight=2.0, recon_weight=1.0, label_balance_weight=2.0
    )
    model = gm.build_model(cfg, toy_setup["vocab"])
    history = gm.train(model, data)
    for i in range(len(history)):
        expected = (
            1.0 * history.recon_loss[i]
            + 2.0 * history.kl_loss[i]
            + 2.0 * history.label_balance_loss[i]
        )
        assert math.isclose(history.total_loss[i], expected, rel_tol=1e-12)


def test_gradients_match_finite_differences_full_model(rng):
    # the whole five-network objective against central differences
    cfg = gm.GmvaeConfig(
        d=12, k=3, latent_dim=5, hidden_width=8, hidden_depth=2,
        batch_size=4, epochs=1, rng_seed=7, label_balance_weight=1.5,
    )
    model = gm.build_model(cfg)
    pert = np.random.default_rng(5)
    for net in (model.label_net, model.prior_mean_net, model.prior_var_net):
        for layer in net.layers:
            layer.weight += 0.2 * pert.standard_normal(layer.weight.shape)
    x = (rng.random((4, 12)) > 0.5).astype(float)
    gumbel_noise = nn.sample_gumbel((4, 3), rng)
    eps = rng.standard_normal((4, 5))
    tau = 0.8

    def total(_=None):
        r, k, b = gm.gmvae_loss(model, x, tau, False, gumbel_noise, eps)
        return cfg.recon_weight * r + cfg.kl_weight * k + cfg.label_balance_weight * b

    _, _, _, grads = gm.gmvae_loss_and_grads(model, x, tau, False, gumbel_noise, eps)
    for name, net in model.networks().items():
        for li, layer in enumerate(net.layers):
            for arr, analytic in ((layer.weight, grads[name][li][0]), (layer.bias, grads[name][li][1])):
                numeric = nn.finite_difference_gradient(total, arr, h=1e-5)
                assert nn.max_relative_error(analytic, numeric, floor=1e-6) < 1e-4, (
                    f"{name} layer {li}"
                )


def test_single_batch_overfit(toy_setup):
    # 2000 steps on one batch of 64 chunks: per-tile reconstruction >= 99%
    vocab = toy_setup["vocab"]
    data = toy_setup["data"][:64]
    cfg = small_gmvae_config(data.shape[1], epochs=2000, batch_size=64)
    model = gm.build_model(cfg, vocab)
    opts = gm.make_optimizers(model)
    rng = np.random.default_rng(0)
    for step in range(2000):
        tau, hard = gm.temperature_schedule(cfg, step)
        gm.training_step(model, data, tau, opts, rng, hard=hard)
    z, _ = model.encode(data)
    x_hat = model.decoder.forward(z)
    t = vocab.size
    pred = np.argmax(x_hat.reshape(64, 256, t), axis=2)
    truth = np.argmax(data.reshape(64, 256, t), axis=2)
    accuracy = float(np.mean(pred == truth))
    assert accuracy >= 0.99


def test_train_epochs_zero_is_noop(toy_setup):
    data = toy_setup["data"][:16]
    cfg = small_gmvae_config(data.shape[1], epochs=0)
    model = gm.build_model(cfg, toy_setup["vocab"])
    before = [p.copy() for net in model.networks().values() for p in net.param_arrays()]
    history = gm.train(model, data)
    assert len(history) == 0
    after = [p for net in model.networks().values() for p in net.param_arrays()]
    assert all(np.array_equal(a, b) for a, b in zip(after, before))


def _train_gmvae(data, vocab, **kwargs):
    return gm.train(gm.build_model(small_gmvae_config(data.shape[1], epochs=1), vocab), data, **kwargs)


def _train_vae(data, vocab, **kwargs):
    return bl.train_vae(data, bl.VaeConfig(d=data.shape[1], hidden_width=16, latent_dim=4, epochs=1), **kwargs)


@pytest.mark.parametrize("train", [_train_gmvae, _train_vae])
@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"sampler": "stratified"}, InvalidConfig),
        ({"sampler": "balanced"}, MissingLabels),  # no level_types
    ],
)
def test_train_rejects_unknown_or_unlabeled_sampler(toy_setup, train, kwargs, error):
    with pytest.raises(error):
        train(toy_setup["data"][:16], toy_setup["vocab"], **kwargs)


@pytest.mark.parametrize("train", [_train_gmvae, _train_vae])
def test_non_finite_loss_names_epoch_and_step(toy_setup, train):
    data = toy_setup["data"][:16].copy()
    data[5, 7] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLoss, match=r"^epoch 1 step 1: non-finite loss"):
        train(data, toy_setup["vocab"])


def _traced_peak(step, model, batch):
    """tracemalloc peak, in bytes, of one step after a warm-up step."""
    optimizers = gm.make_optimizers(model)
    rng = np.random.default_rng(0)
    step(model, batch, 1.0, optimizers, rng)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        step(model, batch, 1.0, optimizers, rng)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_step_allocates_far_less_than_parameters():
    # gradients and Adam's scratch are preallocated, so a step allocates only
    # batch-sized activations, not parameter-sized temporaries
    d = 600
    batch = (np.random.default_rng(1).random((16, d)) < 0.1).astype(np.float64)
    gmvae = gm.build_model(gm.GmvaeConfig(d=d, k=3, hidden_width=256, latent_dim=8, batch_size=16))
    vae = bl.VaeModel(bl.VaeConfig(d=d, hidden_width=256, latent_dim=8, batch_size=16))
    for step, model in ((gm.training_step, gmvae), (bl.vae_training_step, vae)):
        param_bytes = sum(p.nbytes for net in model.networks().values() for p in net.param_arrays())
        ratio = _traced_peak(step, model, batch) / param_bytes
        assert ratio < 0.5, f"{step.__name__}: peak {ratio:.2f}x the parameter bytes"


def test_train_loss_decreases(trained_gmvae):
    _, history = trained_gmvae
    start = float(np.mean(history.total_loss[:10]))
    end = float(np.mean(history.total_loss[-10:]))
    assert end < start


def test_deterministic_replay(toy_setup):
    data = toy_setup["data"][:80]
    cfg = small_gmvae_config(data.shape[1], epochs=4, rng_seed=9)
    h1 = gm.train(gm.build_model(cfg, toy_setup["vocab"]), data)
    h2 = gm.train(gm.build_model(small_gmvae_config(data.shape[1], epochs=4, rng_seed=9), toy_setup["vocab"]), data)
    assert h1.total_loss == h2.total_loss
    assert h1.recon_loss == h2.recon_loss


def test_component_params_shapes_and_positive_variances(trained_gmvae):
    model, _ = trained_gmvae
    params = gm.component_params(model)
    assert params.k == model.config.k
    for component in params.components:
        assert component.means.shape == (model.config.latent_dim,)
        assert component.variances.shape == (model.config.latent_dim,)
        assert np.all(component.variances > 0.0)


def test_component_params_k10():
    model = gm.build_model(gm.GmvaeConfig(d=64, k=10, latent_dim=64, hidden_width=8, hidden_depth=1))
    params = gm.component_params(model)
    assert params.k == 10
    assert all(c.means.shape == (64,) for c in params.components)


def test_prior_mean_linearity(trained_gmvae):
    # affine prior-mean net: midpoint label gives midpoint of component means
    model, _ = trained_gmvae
    k = model.config.k
    e0 = np.zeros(k); e0[0] = 1.0
    e1 = np.zeros(k); e1[1] = 1.0
    mid = 0.5 * (e0 + e1)
    m0 = model.prior_mean_net.forward(e0)
    m1 = model.prior_mean_net.forward(e1)
    m_mid = model.prior_mean_net.forward(mid)
    assert np.allclose(m_mid, 0.5 * (m0 + m1), atol=1e-12)


def test_generate_shapes_and_determinism(trained_gmvae):
    model, _ = trained_gmvae
    chunks = gm.generate(model, 0, 6, np.random.default_rng(3))
    assert len(chunks) == 6
    assert all(c.tiles.shape == (16, 16) for c in chunks)
    assert all(np.all((c.tiles >= 0) & (c.tiles < model.vocab.size)) for c in chunks)
    again = gm.generate(model, 0, 6, np.random.default_rng(3))
    for a, b in zip(chunks, again):
        assert np.array_equal(a.tiles, b.tiles)


def test_generate_valid_chunks_every_component_and_seed(trained_gmvae):
    model, _ = trained_gmvae
    t = model.vocab.size
    for component in range(model.config.k):
        for seed in (0, 1, 99):
            for chunk in gm.generate(model, component, 2, np.random.default_rng(seed)):
                assert chunk.tiles.shape == (16, 16)
                assert np.all((chunk.tiles >= 0) & (chunk.tiles < t))


def test_generate_component_out_of_range(trained_gmvae):
    model, _ = trained_gmvae
    with pytest.raises(ComponentOutOfRange):
        gm.generate(model, 99, 1, np.random.default_rng(0))
    with pytest.raises(ComponentOutOfRange):
        gm.generate(model, 0, 0, np.random.default_rng(0))


def test_generate_degenerate_component_identical_chunks(toy_setup):
    # hand-set near-zero variance: all samples collapse to the mean chunk
    model = gm.build_model(small_gmvae_config(toy_setup["data"].shape[1]), toy_setup["vocab"])
    dim = model.config.latent_dim
    model.prior_mean_net.layers[0].bias[...] = np.linspace(-1.0, 1.0, dim)
    model.prior_var_net.layers[0].weight[...] = 0.0
    model.prior_var_net.layers[0].bias[...] = -700.0  # softplus underflows to ~1e-304
    chunks = gm.generate(model, 1, 5, np.random.default_rng(1))
    for other in chunks[1:]:
        assert np.array_equal(chunks[0].tiles, other.tiles)


def test_model_encode_outputs(trained_gmvae, toy_setup):
    model, _ = trained_gmvae
    data = toy_setup["data"]
    latents, labels = model.encode(data)
    assert latents.shape == (len(data), model.config.latent_dim)
    assert labels.shape == (len(data),)
    assert np.all((labels >= 0) & (labels < model.config.k))
    assert len(set(labels.tolist())) >= 3
    assert np.array_equal(labels, model.predict(data))
    # deterministic: same output twice
    latents2, labels2 = model.encode(data)
    assert np.array_equal(latents, latents2)
    assert np.array_equal(labels, labels2)


def test_checkpoint_roundtrip_bit_exact(trained_gmvae, tmp_path):
    model, history = trained_gmvae
    path = tmp_path / "model.json"
    ckpt.save_gmvae(path, model, history)
    kind, loaded, loaded_history = ckpt.load_any(path)
    assert kind == "gmvae"
    for n1, n2 in zip(model.networks().values(), loaded.networks().values()):
        for p1, p2 in zip(n1.param_arrays(), n2.param_arrays()):
            assert np.array_equal(p1, p2)
    assert loaded_history.total_loss == history.total_loss
    assert loaded.vocab == model.vocab
    assert vars(loaded.config) == vars(model.config)
    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "model2.json"
    ckpt.save_gmvae(path2, loaded, loaded_history)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_float32_roundtrip(toy_setup, tmp_path):
    cfg = small_gmvae_config(toy_setup["data"].shape[1], dtype="float32", epochs=1)
    model = gm.build_model(cfg, toy_setup["vocab"])
    gm.train(model, toy_setup["data"][:64])
    path = tmp_path / "m32.json"
    ckpt.save_gmvae(path, model)
    kind, loaded, _ = ckpt.load_any(path)
    assert kind == "gmvae"
    for n1, n2 in zip(model.networks().values(), loaded.networks().values()):
        for p1, p2 in zip(n1.param_arrays(), n2.param_arrays()):
            assert p1.dtype == np.float32 and p2.dtype == np.float32
            assert np.array_equal(p1, p2)


def test_trained_model_clusters_toy_types(trained_gmvae, toy_setup):
    from levelmix import evaluation as ev

    model, _ = trained_gmvae
    labels = gm.hard_labels(model, toy_setup["data"])
    report = ev.clustering_accuracy(labels, toy_setup["types"], model.config.k)
    assert report.balanced_accuracy >= 0.75


def test_hard_label_stability_after_training(trained_gmvae, toy_setup):
    # at low temperature, repeated noisy draws agree with the argmax almost always
    model, _ = trained_gmvae
    x = toy_setup["data"][:50]
    rng = np.random.default_rng(0)
    hard = gm.hard_labels(model, x)
    agree = 0
    draws = 40
    for _ in range(draws):
        y = gm.assign_label(model, x, tau=0.01, rng=rng)
        agree += np.sum(np.argmax(y, axis=1) == hard)
    assert agree / (draws * len(x)) >= 0.95
