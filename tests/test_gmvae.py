import dataclasses
import itertools
import math
import shutil
import tracemalloc

import numpy as np
import pytest

from levelmix import baseline as bl
from levelmix import checkpoints as ckpt
from levelmix import cli
from levelmix import evaluation as ev
from levelmix import gmvae as gm
from levelmix import neuralnet as nn
from levelmix import toygame
from levelmix.corpus import BalancedSampler
from levelmix.errors import (
    ComponentOutOfRange,
    DimensionMismatch,
    InvalidConfig,
    MissingLabels,
    NonFiniteLoss,
)

from conftest import grad_arrays, small_gmvae_config


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
    # numpy seeds no generator with a negative value
    with pytest.raises(InvalidConfig, match="rng_seed must be >= 0, got -1"):
        gm.VaeConfig(d=100, rng_seed=-1).validate()


@pytest.mark.parametrize(
    "field, value",
    [(name, value) for name in ("d", "latent_dim", "hidden_width", "hidden_depth", "batch_size", "epochs", "rng_seed", "k")
     for value in (4.0, True, "4", None)]
    + [(name, value) for name in ("learning_rate", "kl_weight", "recon_weight", "label_balance_weight",
                                  "tau_start", "tau_min", "tau_decay")
       for value in (True, False, "0.5", [0.5])],
)
def test_config_fields_keep_their_declared_types(field, value):
    with pytest.raises(InvalidConfig, match=f"^{field} must be an? (integer|number), got "):
        gm.GmvaeConfig(**{"d": 256, "k": 3, field: value}).validate()


@pytest.mark.parametrize("field", ["d", "latent_dim", "hidden_width", "hidden_depth", "batch_size", "k"])
def test_size_fields_are_bounded_so_no_array_passes_numpys_limit(field):
    # validate only: a model this size would not fit in memory
    gm.GmvaeConfig(**{"d": 256, "k": 3, field: gm.MAX_SIZE}).validate()
    with pytest.raises(InvalidConfig, match=f"^{field} must be <= {gm.MAX_SIZE}, got {gm.MAX_SIZE + 1}$"):
        gm.GmvaeConfig(**{"d": 256, "k": 3, field: gm.MAX_SIZE + 1}).validate()
    # the largest array, a net's flat parameters, sums under four products of
    # three sizes (hidden_depth * hidden_width**2 and the like) in 8-byte floats
    assert 8 * 4 * gm.MAX_SIZE**3 < np.iinfo(np.intp).max


def test_float_fields_take_ints_and_huge_ints_are_not_an_overflow():
    config = gm.GmvaeConfig(d=256, k=3, kl_weight=2, tau_decay=1, label_balance_weight=10**400).validate()
    assert (config.kl_weight, config.tau_decay) == (2, 1)


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


def test_float32_label_balance_at_full_collapse_matches_float64():
    # every row sits on component 0; the other two means underflow to 0
    logits = np.tile([200.0, 0.0, 0.0], (5, 1))
    b64, *_ = gm._label_balance(logits, 3)
    b32, _, p_bar, _ = gm._label_balance(logits.astype(np.float32), 3)
    assert p_bar.dtype == np.float32 and p_bar[1] == 0.0
    assert abs(b64 - math.log(3.0)) < 1e-12
    assert abs(b32 - b64) < 1e-6


def test_float32_step_of_a_collapsed_label_net_is_finite(toy_setup, rng):
    # the softmax of the other components underflows to 0 in float32; the
    # balance term must stay log k and the step finite, not raise NonFiniteLoss
    data = toy_setup["data"]
    model = gm.build_model(small_gmvae_config(data.shape[1], dtype="float32"), toy_setup["vocab"])
    model.label_net.layers[-1].bias[...] = [200.0, 0.0, 0.0]
    opts = gm.make_optimizers(model)
    losses = gm.training_step(model, data[:32], tau=1.0, optimizers=opts, rng=rng)
    assert abs(losses.label_balance - math.log(3.0)) < 1e-6
    assert all(np.all(np.isfinite(net.params)) for net in model.networks().values())


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

    gm.gmvae_loss_and_grads(model, x, tau, False, gumbel_noise, eps)
    for name, net in model.networks().items():
        for i, (arr, analytic) in enumerate(zip(net.param_arrays(), grad_arrays(net))):
            numeric = nn.finite_difference_gradient(total, arr, h=1e-5)
            assert nn.max_relative_error(analytic, numeric, floor=1e-6) < 1e-4, (
                f"{name} layer {i // 2}"
            )


def _narrowed_pair(family, dtype, support, seed=7):
    """A small model of the family narrowed to support, in float64 with its
    label and prior nets perturbed off their zero start, and the same model
    in dtype (the float64 one itself for float64)."""
    fields = dict(d=12, latent_dim=5, hidden_width=8, hidden_depth=2, batch_size=4, epochs=1, rng_seed=seed)
    if family == "gmvae":
        model = gm.build_model(gm.GmvaeConfig(**fields, k=3, label_balance_weight=1.5))
        pert = np.random.default_rng(5)
        for net in (model.label_net, model.prior_mean_net, model.prior_var_net):
            for layer in net.layers:
                layer.weight += 0.2 * pert.standard_normal(layer.weight.shape)
    else:
        model = bl.VaeModel(bl.VaeConfig(**fields))
    model.narrow(support)
    if dtype == "float64":
        return model, model
    copy = type(model)(dataclasses.replace(model.config, dtype=dtype))
    copy.narrow(support)
    for name, net in copy.networks().items():
        net.params[...] = model.networks()[name].params
    return model, copy


@pytest.mark.parametrize("dtype", gm.DTYPES)
@pytest.mark.parametrize("family", ["gmvae", "vae"])
def test_narrowed_model_gradients_match_finite_differences(rng, family, dtype):
    # the BCE over the support's columns, against central differences of the
    # float64 model at the full model's bound. A float32 gradient, computed
    # in float32, is held to float32's resolution: within 1e-5 of the
    # differences, relative to the array's largest entry
    x = (rng.random((4, 12)) > 0.5).astype(float)
    x[:, [2, 5, 9]] = 0.0
    support = np.flatnonzero(x.any(axis=0))
    model64, model = _narrowed_pair(family, dtype, support)
    assert model.decoder.layers[-1].out_dim == len(support) < 12
    eps, cfg = rng.standard_normal((4, 5)), model64.config
    if family == "gmvae":
        gumbel_noise, tau = nn.sample_gumbel((4, 3), rng), 0.8

        def total(_=None):
            r, k, b = gm.gmvae_loss(model64, x, tau, False, gumbel_noise, eps)
            return cfg.recon_weight * r + cfg.kl_weight * k + cfg.label_balance_weight * b

        for m in {model64, model}:
            gm.gmvae_loss_and_grads(m, x.astype(m.config.dtype), tau, False, gumbel_noise, eps)
    else:

        def total(_=None):
            r, k = bl.vae_loss(model64, x, eps)
            return cfg.recon_weight * r + cfg.kl_weight * k

        for m in {model64, model}:
            bl.vae_loss_and_grads(m, x.astype(m.config.dtype), eps)
    for name, net in model64.networks().items():
        arrays = zip(net.param_arrays(), grad_arrays(net), grad_arrays(model.networks()[name]))
        for i, (arr, analytic, analytic_dtype) in enumerate(arrays):
            numeric = nn.finite_difference_gradient(total, arr, h=1e-5)
            assert nn.max_relative_error(analytic, numeric, floor=1e-6) < 1e-4, f"{name} layer {i // 2}"
            assert analytic_dtype.dtype == np.dtype(dtype)
            if dtype == "float32":
                assert _relative_gap(analytic_dtype, numeric) < 1e-5, f"{name} layer {i // 2}"


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
    # a run of no epochs only narrows the model to the columns its data sets
    data = toy_setup["data"][:16]
    cfg = small_gmvae_config(data.shape[1], epochs=0)
    model, reference = (gm.build_model(cfg, toy_setup["vocab"]) for _ in range(2))
    history = gm.train(model, data)
    assert len(history) == 0
    assert np.array_equal(model.support, np.flatnonzero(data.any(axis=0)))
    reference.narrow(model.support)
    for name, net in reference.networks().items():
        assert model.networks()[name].params.tobytes() == net.params.tobytes(), name


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
    # a float corpus, as a uint8 one cannot hold a NaN
    data = toy_setup["data"][:16].astype(np.float64)
    data[5, 7] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLoss, match=r"^epoch 1 step 1: non-finite loss"):
        train(data, toy_setup["vocab"])


def _peak(fn, *args):
    """tracemalloc peak, in bytes, of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _traced_peak(model, batch):
    """tracemalloc peak, in bytes, of one training_step after a warm-up step."""
    optimizers = gm.make_optimizers(model)
    rng = np.random.default_rng(0)
    gm.training_step(model, batch, 1.0, optimizers, rng)
    return _peak(gm.training_step, model, batch, 1.0, optimizers, rng)


def test_training_step_allocates_far_less_than_parameters():
    # gradients and Adam's scratch are preallocated, so a step allocates only
    # batch-sized activations, not parameter-sized temporaries
    d = 600
    batch = (np.random.default_rng(1).random((16, d)) < 0.1).astype(np.float64)
    gmvae = gm.build_model(gm.GmvaeConfig(d=d, k=3, hidden_width=256, latent_dim=8, batch_size=16))
    vae = bl.VaeModel(bl.VaeConfig(d=d, hidden_width=256, latent_dim=8, batch_size=16))
    for model in (gmvae, vae):
        param_bytes = sum(p.nbytes for net in model.networks().values() for p in net.param_arrays())
        ratio = _traced_peak(model, batch) / param_bytes
        assert ratio < 0.5, f"{type(model).__name__}: peak {ratio:.2f}x the parameter bytes"


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("family", ["gmvae", "vae"])
def test_fit_holds_no_float_copy_of_the_corpus(toy_setup, family, dtype):
    # the toy corpus tiled until a float copy of it dwarfs the model and
    # its Adam state; fit casts one batch of rows at a time
    data = np.tile(toy_setup["data"], (20, 1))
    model = _toy_model(family, data.shape[1], toy_setup["vocab"], epochs=1, dtype=dtype)
    copy_bytes = data.size * np.dtype(dtype).itemsize
    param_bytes = sum(net.params.nbytes for net in model.networks().values())
    assert copy_bytes > 10 * param_bytes
    peak = _peak(gm.fit, model, data)
    assert peak < copy_bytes / 2, f"peak {peak / copy_bytes:.2f}x a {dtype} copy of the corpus"


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_encode_writes_the_trunk_input_once(toy_setup, dtype):
    data = np.tile(toy_setup["data"], (10, 1))
    model = _toy_model("gmvae", data.shape[1], toy_setup["vocab"], dtype=dtype)
    # a label head that tells the chunks apart, in place of the zero one
    head = model.label_net.layers[-1].weight
    head[...] = np.random.default_rng(0).standard_normal(head.shape)
    # the rows in the model's dtype, concatenated with their labels' one-hots
    rows = data.astype(dtype)
    labels = np.argmax(model.label_net.forward(rows), axis=1)
    assert len(set(labels)) > 1
    enc_in = np.concatenate([rows, np.eye(model.k, dtype=dtype)[labels]], axis=1)
    expected = model.enc_mean_head.forward(model.encoder_trunk.forward(enc_in))
    for corpus in (rows, data.astype(np.float64)):
        latents, got = model.encode(corpus)
        assert np.array_equal(got, labels)
        assert latents.dtype == expected.dtype and latents.tobytes() == expected.tobytes()
    # the uint8 trunk input is read over its set columns only, a GEMM over
    # fewer terms
    latents, got = model.encode(data)
    assert np.array_equal(got, labels)
    assert latents.dtype == expected.dtype and _relative_gap(latents, expected) < CORPUS_TOLERANCE[dtype]
    peak = _peak(model.encode, data)
    assert peak < 1.5 * enc_in.nbytes, f"peak {peak / enc_in.nbytes:.2f}x the trunk input"


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


def test_prior_mean_linearity(trained_gmvae):
    # affine prior-mean net: midpoint label gives midpoint of component means
    model, _ = trained_gmvae
    k = model.config.k
    e0, e1 = np.eye(k)[[0]], np.eye(k)[[1]]
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


def test_encode_gathers_the_corpus_once(trained_gmvae, toy_setup, monkeypatch):
    model, _ = trained_gmvae
    data = toy_setup["data"]
    labels = gm.hard_labels(model, data)
    calls = []
    gather = gm.GmvaeModel.gather

    def counting_gather(self, x, tail=0):
        calls.append(tail)
        return gather(self, x, tail)

    monkeypatch.setattr(gm.GmvaeModel, "gather", counting_gather)
    _, got = model.encode(data)
    # one gather, with the one-hots' tail; the label net reads a view of it
    assert calls == [model.k] and np.array_equal(got, labels)


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
        logits = model.label_net.forward(model.gather(x))
        y, _ = nn.gumbel_softmax(logits, 0.01, nn.sample_gumbel(logits.shape, rng))
        agree += np.sum(np.argmax(y, axis=1) == hard)
    assert agree / (draws * len(x)) >= 0.95


@pytest.mark.parametrize("family", ["gmvae", "vae-gmm"])
def test_float32_training_tracks_float64(family, request, toy_setup):
    # float32 trains in float32, so its parameters differ from float64's:
    # the tolerance is the loss curve within 1e-2 relative at every epoch
    # and an equal clustering accuracy
    data, types = toy_setup["data"], toy_setup["types"]
    if family == "gmvae":
        model64, history64 = request.getfixturevalue("trained_gmvae")
        model32 = gm.build_model(dataclasses.replace(model64.config, dtype="float32"), toy_setup["vocab"])
        history32 = gm.train(model32, data, level_types=types, sampler="balanced")
        nets = model32.networks()
    else:
        model64, history64 = request.getfixturevalue("trained_vae_gmm")
        model32, history32 = bl.fit_vae_gmm(
            data, dataclasses.replace(model64.vae.config, dtype="float32"), 3, gmm_seed=3,
            vocab=toy_setup["vocab"], level_types=types, sampler="balanced",
        )
        nets = model32.vae.networks()
    assert all(net.params.dtype == np.float32 for net in nets.values())
    loss64, loss32 = np.array(history64.total_loss), np.array(history32.total_loss)
    assert len(loss32) == len(loss64) == 100
    assert np.max(np.abs(loss32 - loss64) / np.abs(loss64)) < 1e-2

    def accuracy(model):
        return ev.clustering_accuracy(model.predict(data), types, model.k).balanced_accuracy

    assert accuracy(model32) == accuracy(model64)


# -- the support: the input columns the model reads ---------------------------


def _toy_model(family, d, vocab, **overrides):
    if family == "gmvae":
        return gm.build_model(small_gmvae_config(d, **overrides), vocab)
    fields = dict(d=d, latent_dim=16, hidden_width=64, hidden_depth=3, batch_size=64, epochs=100, rng_seed=3)
    return bl.VaeModel(bl.VaeConfig(**{**fields, **overrides}))


def _full_network_fit(model, data, level_types, sampler):
    """fit's loop written out over the full networks, with the same
    permutations, balanced draws and noise, and no narrowing: per-epoch
    total losses."""
    cfg = model.config
    data = np.asarray(data, dtype=cfg.dtype)
    n = len(data)
    rng = np.random.default_rng(cfg.rng_seed + 1)
    optimizers = gm.make_optimizers(model)
    balanced = BalancedSampler(level_types, cfg.rng_seed + 2) if sampler == "balanced" else None
    weights = np.array([cfg.recon_weight, cfg.kl_weight, getattr(cfg, "label_balance_weight", 0.0)])
    totals = []
    for epoch in range(cfg.epochs):
        tau, hard = model.schedule(epoch)
        order = balanced.draw(n) if balanced is not None else rng.permutation(n)
        sums = np.zeros(3)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            sums += len(idx) * np.array(gm.training_step(model, data[idx], tau, optimizers, rng, hard=hard))
        totals.append(float(weights @ (sums / n)))
    return np.array(totals)


# fit's narrowed input nets sum their first layers' products over fewer
# terms, so results differ from the full networks' by rounding. Tolerances:
# per-epoch total loss (relative) and each network's parameters (relative L2
# norm), for a run of the given length. Measured over rng seeds 0-3 x both samplers x both
# families: float64 at 30 epochs, at most 4e-16 and 1.1e-14, with equal
# accuracy (1.0 at seed 3); float32 at 10 epochs (seeds 0-5), 4.4e-4 and 3.7e-2.
# float32 training amplifies rounding differences as it goes on, as any
# change in the order of its sums does, so float32 is checked over a short
# run. The clusterings are compared through q(y|x) on every chunk, within
# LABEL_TOLERANCE (measured: float64 at most 3.4e-14; float32 5.7e-3, and
# below 1.5e-3 in the other 11 runs), and in float64 by balanced accuracy
# too. float32 accuracies are not compared: at 10 epochs q(y|x) is within
# 0.011 of uniform on every chunk, so a label turns on gaps below the runs'
# own spread, and two of the 12 float32 GMVAE runs end apart (seed 0,
# uniform: 0.370 against 0.337; seed 3, balanced: 0.660 against 0.333). At
# seed 3, balanced, the runs' label-logit gradients agree to 2e-9 over the
# first four steps; at the fifth one ReLU unit's pre-activation is 7.6e-8 in
# the full networks and not positive in fit's, so its gradient passes in one
# run only, the logit gradients part by 3.4e-5, and Adam carries the gap on.
# With the decoder writing all d columns, both float32 runs put every chunk
# in one component at seed 3, and seed 5, uniform, ended at 0.653 against
# 0.646.
COPY_TOLERANCE = {"float64": (30, 1e-12, 1e-10), "float32": (10, 1e-2, 1e-1)}
LABEL_TOLERANCE = {"float64": 1e-10, "float32": 1e-2}


@pytest.mark.parametrize("family", ["gmvae", "vae"])
def test_fit_rejects_data_of_another_width_before_touching_the_model(toy_setup, family):
    data = toy_setup["data"]
    d = data.shape[1]
    model = _toy_model(family, d, toy_setup["vocab"], epochs=1)
    nets = model.networks()
    params = {name: net.params.copy() for name, net in nets.items()}
    # one tile more in the vocabulary: 256 more columns, one of them set
    wide = np.zeros((len(data), d + 256), dtype=data.dtype)
    wide[:, :d] = data
    wide[0, d + 5] = 1
    for bad in (wide, data[:, :-256], data[0]):
        with pytest.raises(DimensionMismatch, match=f"must be \\(n, {d}\\)"):
            gm.fit(model, bad)
    assert np.array_equal(model.support, np.arange(d)) and model.networks() == nets
    for name, net in nets.items():
        assert net.params.tobytes() == params[name].tobytes(), name


@pytest.mark.parametrize("sampler", ["uniform", "balanced"])
@pytest.mark.parametrize("count", [10, 298])  # for the toy's 297 chunks
@pytest.mark.parametrize("family", ["gmvae", "vae"])
def test_fit_rejects_level_types_of_another_length_before_touching_the_model(toy_setup, family, count, sampler):
    data, types = toy_setup["data"], toy_setup["types"]
    d = data.shape[1]
    model = _toy_model(family, d, toy_setup["vocab"], epochs=1)
    nets = model.networks()
    params = {name: net.params.copy() for name, net in nets.items()}
    with pytest.raises(MissingLabels, match=f"^{count} level_types for {len(data)} rows"):
        gm.fit(model, data, level_types=(types + types)[:count], sampler=sampler)
    assert np.array_equal(model.support, np.arange(d)) and model.networks() == nets
    for name, net in nets.items():
        assert net.params.tobytes() == params[name].tobytes(), name


@pytest.mark.parametrize("sampler", ["uniform", "balanced"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("family", ["gmvae", "vae"])
def test_fit_on_set_columns_tracks_the_full_networks(toy_setup, monkeypatch, family, dtype, sampler):
    data, types, vocab = toy_setup["data"], toy_setup["types"], toy_setup["vocab"]
    d = data.shape[1]
    unset = np.flatnonzero(~data.any(axis=0))
    assert 0 < len(unset) < d
    # soft labels for the first half of the epochs, then hard
    epochs, loss_tol, param_tol = COPY_TOLERANCE[dtype]
    fitted, reference = (_toy_model(family, d, vocab, epochs=epochs, dtype=dtype) for _ in range(2))
    initial = {name: reference.networks()[name].layers[0].weight.copy() for name in reference.INPUT_NETS}
    history = gm.fit(fitted, data, level_types=types, sampler=sampler)
    support = fitted.support
    assert np.array_equal(support, np.setdiff1d(np.arange(d), unset))
    # the hand loop's decoder is narrowed as fit narrows it, and its BCE reads
    # the support's columns of the batch, as fit's does, so the two runs
    # differ only in the input nets
    reference.decoder = reference.decoder.keep(outputs=support)
    bce = nn.bce_loss
    with monkeypatch.context() as patch:
        patch.setattr(nn, "bce_loss", lambda output, target, with_grad=False: bce(output, target[:, support], with_grad))
        totals = _full_network_fit(reference, data, types, sampler)

    assert np.array_equal(reference.support, np.arange(d))
    # the full networks never change the weights of the unset columns
    for name in reference.INPUT_NETS:
        assert np.array_equal(reference.networks()[name].layers[0].weight[:, unset], initial[name][:, unset])
    assert np.max(np.abs(np.array(history.total_loss) - totals) / np.abs(totals)) < loss_tol
    # the full input nets over the support (and the trunk's label columns)
    for name, net in reference.networks().items():
        if name in reference.INPUT_NETS:
            net = net.keep(inputs=np.concatenate([support, np.arange(d, net.layers[0].in_dim)]))
        diff = fitted.networks()[name].params.astype(np.float64) - net.params
        assert np.linalg.norm(diff) / np.linalg.norm(net.params.astype(np.float64)) < param_tol, name
    if family == "gmvae":
        q = [nn.softmax(gm.label_logits(m, data).astype(np.float64)) for m in (fitted, reference)]
        assert np.max(np.abs(q[0] - q[1])) < LABEL_TOLERANCE[dtype]
    if family == "gmvae" and dtype == "float64":
        accuracy = [ev.clustering_accuracy(m.predict(data), types, m.k).balanced_accuracy for m in (fitted, reference)]
        assert accuracy[0] == accuracy[1]


@pytest.mark.parametrize("sampler", ["uniform", "balanced"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("family", ["gmvae", "vae"])
def test_fit_on_the_uint8_corpus_equals_fit_on_a_float_copy(toy_setup, family, dtype, sampler):
    # 0 and 1 are exact in every dtype, so the corpus dtype changes no batch
    data, types, vocab = toy_setup["data"], toy_setup["types"], toy_setup["vocab"]
    assert data.dtype == np.uint8
    runs = []
    for corpus in (data, data.astype(np.float64), data.astype(np.float32)):
        # 4 epochs: soft labels for two, then hard
        model = _toy_model(family, data.shape[1], vocab, epochs=4, dtype=dtype)
        history = gm.fit(model, corpus, level_types=types, sampler=sampler)
        runs.append((history, {name: net.params.tobytes() for name, net in model.networks().items()}))
    for history, params in runs[1:]:
        assert history == runs[0][0]
        assert params == runs[0][1]


@pytest.mark.parametrize("dtype", gm.DTYPES)
@pytest.mark.parametrize("family", ["gmvae", "vae"])
def test_loss_and_grads_writes_every_gradient(toy_setup, family, dtype):
    # training_step steps every net from its grads buffer: one backward must
    # overwrite all of each buffer
    data = toy_setup["data"]
    model = _toy_model(family, data.shape[1], toy_setup["vocab"], dtype=dtype)
    for net in model.networks().values():
        net.grads[...] = np.nan
    x = np.asarray(data[: model.config.batch_size], dtype=dtype)
    model.loss_and_grads(x, 0.7, False, np.random.default_rng(0))
    for name, net in model.networks().items():
        assert np.all(np.isfinite(net.grads)), name


@pytest.mark.parametrize("family", ["gmvae", "vae"])
def test_non_finite_loss_leaves_the_full_networks_with_the_trained_values(toy_setup, family):
    data, vocab = toy_setup["data"], toy_setup["vocab"]
    model = _toy_model(family, data.shape[1], vocab, epochs=3)
    initial = {name: net.params.copy() for name, net in model.networks().items()}
    seen = {}
    loss_and_grads, calls = model.loss_and_grads, itertools.count(1)

    def failing_at_step_7(x, tau, hard, rng):
        # 297 chunks make 5 steps an epoch: this is epoch 2, step 2
        if next(calls) == 7:
            seen.update({name: (net, net.params.copy()) for name, net in model.networks().items()})
            return math.nan, 0.0, 0.0
        return loss_and_grads(x, tau, hard, rng)

    model.loss_and_grads = failing_at_step_7
    with pytest.raises(NonFiniteLoss, match=r"^epoch 2 step 2: "):
        gm.fit(model, data)
    # the model holds the values of the last good step, in the nets it trained
    assert set(seen) == set(initial)
    for name, net in model.networks().items():
        trained_net, trained = seen[name]
        assert net is trained_net and np.array_equal(net.params, trained)
        if name not in model.INPUT_NETS:
            assert not np.array_equal(net.params, initial[name])


@pytest.mark.parametrize("family", ["gmvae", "vae"])
def test_an_error_between_epochs_leaves_the_networks_it_saw(toy_setup, family):
    data, vocab = toy_setup["data"], toy_setup["vocab"]
    model = _toy_model(family, data.shape[1], vocab, epochs=3)
    run = gm.TrainingRun(model, data)
    seen = []

    with pytest.raises(KeyboardInterrupt):
        while run.epoch < model.config.epochs:
            run.train_epoch()
            seen.append({name: (net, net.params.copy()) for name, net in model.networks().items()})
            if run.epoch == 2:
                raise KeyboardInterrupt
    assert len(seen) == 2
    for name, net in model.networks().items():
        # the caller sees the model's own nets between epochs
        assert seen[0][name][0] is net and seen[1][name][0] is net
        assert np.array_equal(net.params, seen[1][name][1])
        assert not np.array_equal(seen[0][name][1], seen[1][name][1])


def test_checkpoint_every_saves_the_full_networks_of_that_epoch(toy_setup, tmp_path, monkeypatch):
    data = toy_setup["data"]
    d, k = data.shape[1], 3
    # the toy corpus of toy_setup
    manifest = str(toygame.write_corpus(tmp_path / "corpus", levels_per_type=3, cols=48, seed=1))
    saves = []
    save_gmvae = ckpt.save_gmvae

    def save(path, m, history=None, run_info=None):
        save_gmvae(path, m, history, run_info=run_info)
        saves.append((run_info is None, m, dict(m.networks())))
        if run_info is None:  # a periodic save, which the final one overwrites
            shutil.copyfile(path, tmp_path / "every.ckpt")

    monkeypatch.setattr(ckpt, "save_gmvae", save)
    # with tau_decay set, tau does not depend on the run length, so a 2-epoch
    # run is the first two epochs of a 3-epoch run
    argv = ["train", "--manifest", manifest, "--k", str(k), "--seed", "3", "--tau-decay", "0.7"]
    argv += ["--hidden-width", "64", "--latent-dim", "16"]
    assert cli.run(argv + ["--epochs", "3", "--checkpoint-every", "2", "--out", str(tmp_path / "three.ckpt")]) == 0
    model = saves[-1][1]
    assert [nets for periodic, _, nets in saves if periodic] == [model.networks()]
    _, saved, history = ckpt.load_any(tmp_path / "every.ckpt")
    assert len(history) == 2
    s = len(model.support)
    assert s < d and np.array_equal(saved.support, model.support)
    assert saved.label_net.layers[0].weight.shape[1] == s
    assert saved.encoder_trunk.layers[0].weight.shape[1] == s + k
    assert cli.run(argv + ["--epochs", "2", "--out", str(tmp_path / "two.ckpt")]) == 0
    _, two, _ = ckpt.load_any(tmp_path / "two.ckpt")
    for name, net in two.networks().items():
        assert np.array_equal(saved.networks()[name].params, net.params), name


# ---------------------------------------------------------------------------
# eval passes: corpus forwards over the set columns of the uint8 matrix, and
# generated tiles from the decoder's pre-sigmoid output

# a forward over the uint8 corpus reads only its set columns, so its GEMM
# sums fewer terms than over a float copy's whole rows: the largest gap,
# relative to the largest value
CORPUS_TOLERANCE = {"float64": 1e-12, "float32": 1e-5}


def _relative_gap(got, expected):
    return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))


def _as_dtype(model, dtype):
    """A copy of a model of either family with its parameters cast to dtype."""
    if isinstance(model, bl.VaeGmmModel):
        return dataclasses.replace(model, vae=_as_dtype(model.vae, dtype))
    config = dataclasses.replace(model.config, dtype=dtype)
    copy = type(model)(config, model.vocab)
    copy.narrow(model.support)
    for name, net in copy.networks().items():
        net.params[...] = model.networks()[name].params
    return copy


def _decoder(model):
    return model.vae.decoder if isinstance(model, bl.VaeGmmModel) else model.decoder


def _generated_with_latents(model, monkeypatch, n=200):
    """[(chunks, latents)] per component: model.generate's chunks and the
    latents its decoder read."""
    decoder, latents, out = _decoder(model), [], []
    forward_cached = nn.DenseNet.forward_cached

    def recording(net, x, *args, **kwargs):
        if net is decoder:
            latents.append(x)
        return forward_cached(net, x, *args, **kwargs)

    monkeypatch.setattr(nn.DenseNet, "forward_cached", recording)
    for component in range(model.k):
        chunks = model.generate(component, n, np.random.default_rng(component))
        (z,) = latents
        latents.clear()
        out.append((np.stack([c.tiles.reshape(-1) for c in chunks]), z))
    monkeypatch.setattr(nn.DenseNet, "forward_cached", forward_cached)
    return out


def _over_the_support(model, columns, fill):
    """(n, 256, t) of a narrowed decoder's (n, s) outputs, with fill at the
    (cell, tile) pairs outside the support."""
    full = np.full((len(columns), 256 * model.vocab.size), fill, dtype=columns.dtype)
    full[:, model.support] = columns
    return full.reshape(len(columns), 256, model.vocab.size)


@pytest.mark.parametrize("dtype", gm.DTYPES)
@pytest.mark.parametrize("family", ["trained_gmvae", "trained_vae_gmm"])
def test_generated_chunks_are_the_argmax_of_the_sigmoid_outputs(request, monkeypatch, family, dtype):
    # over each cell's support columns: the trained decoder writes only those
    model = _as_dtype(request.getfixturevalue(family)[0], dtype)
    assert _decoder(model).layers[-1].out_dim == len(model.support) < model.vocab.size * 256
    for tiles, z in _generated_with_latents(model, monkeypatch):
        # a sigmoid output is >= 0, so a pair outside the support never wins
        expected = np.argmax(_over_the_support(model, _decoder(model).forward(z), -1.0), axis=2)
        assert np.array_equal(tiles, expected)


@pytest.mark.parametrize("family", ["trained_gmvae", "trained_vae_gmm"])
def test_a_narrowed_model_generates_no_pair_outside_its_support(request, monkeypatch, family):
    model = _as_dtype(request.getfixturevalue(family)[0], "float64")
    t = model.vocab.size
    # every logit far below 0, so a pair outside the support would win any
    # argmax that read it as 0
    _decoder(model).layers[-1].bias[...] -= 1000.0
    for tiles, z in _generated_with_latents(model, monkeypatch):
        pairs = np.arange(256) * t + tiles
        assert np.isin(pairs, model.support).all()
        logits, _ = _decoder(model).forward_cached(z, keep_cache=False, pre_activation=True)
        assert np.array_equal(tiles, np.argmax(_over_the_support(model, logits, -np.inf), axis=2))
        assert not np.array_equal(tiles, np.argmax(_over_the_support(model, logits, 0.0), axis=2))


@pytest.mark.parametrize("family", ["trained_gmvae", "trained_vae_gmm"])
def test_an_as_built_model_generates_the_argmax_of_its_full_width_logits(request, toy_setup, monkeypatch, family):
    trained = request.getfixturevalue(family)[0]
    vocab, d = toy_setup["vocab"], toy_setup["data"].shape[1]
    if family == "trained_gmvae":
        model = gm.build_model(trained.config, vocab)
    else:
        model = dataclasses.replace(trained, vae=bl.VaeModel(trained.vae.config, vocab))
    assert len(model.support) == d == _decoder(model).layers[-1].out_dim
    for tiles, z in _generated_with_latents(model, monkeypatch):
        logits, _ = _decoder(model).forward_cached(z, keep_cache=False, pre_activation=True)
        assert tiles.tobytes() == np.argmax(logits.reshape(len(z), 256, vocab.size), axis=2).tobytes()


@pytest.mark.parametrize("dtype", gm.DTYPES)
def test_a_cell_whose_sigmoid_outputs_tie_takes_the_larger_pre_activation(toy_setup, dtype):
    vocab = toy_setup["vocab"]
    model = _toy_model("gmvae", toy_setup["data"].shape[1], vocab, dtype=dtype)
    last = model.decoder.layers[-1]
    last.weight[...] = 0.0
    last.bias[...] = -5.0
    # cell 0: tile 0 at 40 and tile 1 at 41, whose sigmoids are both 1.0
    last.bias[:2] = 40.0, 41.0
    outputs = model.decoder.forward(np.zeros((1, model.config.latent_dim)))
    assert outputs[0, 0] == outputs[0, 1] == 1.0
    (chunk,) = model.generate(0, 1, np.random.default_rng(0))
    assert chunk.tiles[0, 0] == 1
    assert np.all(chunk.tiles.reshape(-1)[1:] == 0)


@pytest.mark.parametrize("dtype", gm.DTYPES)
@pytest.mark.parametrize("family", ["trained_gmvae", "trained_vae_gmm"])
def test_the_uint8_corpus_answers_as_its_float64_copy(request, toy_setup, family, dtype):
    model = _as_dtype(request.getfixturevalue(family)[0], dtype)
    data = toy_setup["data"]
    assert data.dtype == np.uint8
    copy = data.astype(np.float64)
    tolerance = CORPUS_TOLERANCE[dtype]
    assert np.array_equal(model.predict(data), model.predict(copy))
    (latents, labels), (copy_latents, copy_labels) = model.encode(data), model.encode(copy)
    assert np.array_equal(labels, copy_labels)
    assert latents.dtype == np.dtype(dtype) and _relative_gap(latents, copy_latents) < tolerance
    if family == "trained_gmvae":
        assert np.array_equal(gm.hard_labels(model, data), gm.hard_labels(model, copy))
        logits = model.label_net.forward(model.gather(data))
        assert _relative_gap(logits, model.label_net.forward(model.gather(copy))) < tolerance
    else:
        assert _relative_gap(bl.vae_encode(model.vae, data), bl.vae_encode(model.vae, copy)) < tolerance


@pytest.mark.parametrize("dtype", gm.DTYPES)
def test_hard_labels_makes_no_float_copy_of_the_corpus(trained_gmvae, toy_setup, dtype):
    # the toy corpus tiled until a float copy of it dwarfs the model. The
    # trained model is narrowed to the columns the rows set, 59% of them,
    # and its gather casts only those, so the pass holds their float copy,
    # the uint8 np.take it is written from and the hidden layers' outputs,
    # well below a full float copy
    model = _as_dtype(trained_gmvae[0], dtype)
    data = np.tile(toy_setup["data"], (10, 1))
    copy_bytes = data.size * np.dtype(dtype).itemsize
    set_share = float(data.any(axis=0).mean())
    peak = _peak(gm.hard_labels, model, data)
    assert peak < (set_share + 0.2) * copy_bytes, f"peak {peak / copy_bytes:.2f}x a {dtype} copy of the corpus"
