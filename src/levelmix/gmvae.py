"""The mixture-prior VAE: label-assigning, prior-assigning, encoder and
decoder networks, the two-term loss, the training loop and per-component
generation.

Network layout (default widths, all configurable):
  label net    d -> 512 -> 512 -> 512 (relu) -> k logits, Gumbel-Softmax sample
  prior means  k -> 64 linear
  prior vars   k -> 64 softplus
  encoder      (d + k) -> 512 -> 512 -> 512 (relu) -> {64 linear, 64 softplus}
  decoder      64 -> 512 -> 512 -> 512 (relu) -> d sigmoid

Loss per item: recon_weight * BCE(decoder(z), x) + kl_weight * KL(q(z|x,y) || p(z|y))
with y the sampled label, z the reparameterized latent.

A third, batch-level term keeps the mixture from collapsing onto a single
component: label_balance_weight * KL(mean_batch softmax(logits) || uniform).
Without it the label net saturates toward one component within the first few
hundred Adam steps and never recovers (the straight-through gradient dies
once the softmax saturates). Set label_balance_weight to 0 for the bare
two-term objective. The prior nets and the label head start at zero weights
so no component is preferred before the data says so.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import neuralnet as nn
from .corpus import BalancedSampler, CHUNK_SIZE, decode
from .errors import (
    ComponentOutOfRange,
    DimensionMismatch,
    InvalidConfig,
    MissingLabels,
    NonFiniteLoss,
)
from .neuralnet import DenseNet, AdamState


DTYPES = ("float64", "float32")


@dataclass
class VaeConfig:
    """The fields of the encoder/decoder and its training run, which both
    model families share."""

    d: int
    latent_dim: int = 64
    hidden_width: int = 512
    hidden_depth: int = 3
    batch_size: int = 64
    epochs: int = 10000
    learning_rate: float = 0.001
    kl_weight: float = 2.0
    recon_weight: float = 1.0
    rng_seed: int = 0
    dtype: str = "float64"

    def validate(self):
        if self.d < 1:
            raise InvalidConfig(f"d must be positive, got {self.d}")
        if min(self.latent_dim, self.hidden_width, self.hidden_depth, self.batch_size) < 1:
            raise InvalidConfig("latent_dim, hidden_width, hidden_depth, batch_size must be >= 1")
        if self.epochs < 0 or self.learning_rate <= 0:
            raise InvalidConfig("epochs must be >= 0 and learning_rate > 0")
        if self.dtype not in DTYPES:
            raise InvalidConfig(f"dtype must be float64 or float32, got {self.dtype}")
        return self


@dataclass
class GmvaeConfig(VaeConfig):
    k: int = field(kw_only=True)
    label_balance_weight: float = 2.0
    tau_start: float = 1.0
    tau_min: float = 0.5
    tau_decay: Optional[float] = None  # None: reach tau_min halfway through training

    def validate(self):
        if self.k < 2:
            raise InvalidConfig(f"k must be >= 2, got {self.k}")
        if self.tau_start <= 0 or self.tau_min <= 0:
            raise InvalidConfig("temperatures must be > 0")
        if self.label_balance_weight < 0:
            raise InvalidConfig("label_balance_weight must be >= 0")
        if self.tau_min > self.tau_start:
            raise InvalidConfig("tau_min must not exceed tau_start")
        if self.tau_decay is not None and not 0 < self.tau_decay <= 1:
            raise InvalidConfig("tau_decay must be in (0, 1]")
        return super().validate()


def temperature_schedule(config, epoch):
    """(tau, hard) for a given epoch.

    tau decays exponentially from tau_start and is floored at tau_min; the
    default decay reaches the floor halfway through training, after which
    sampling switches to hard straight-through one-hot labels.
    """
    half = max(1, config.epochs // 2)
    if config.tau_decay is not None:
        decay = config.tau_decay
    elif config.tau_min == config.tau_start:
        decay = 1.0
    else:
        decay = (config.tau_min / config.tau_start) ** (1.0 / half)
    tau = max(config.tau_min, config.tau_start * decay**epoch)
    hard = tau <= config.tau_min * (1.0 + 1e-12)
    return tau, hard


@dataclass
class TrainingHistory:
    recon_loss: list = field(default_factory=list)  # per-epoch means
    kl_loss: list = field(default_factory=list)
    label_balance_loss: list = field(default_factory=list)
    total_loss: list = field(default_factory=list)
    temperature: list = field(default_factory=list)

    def record(self, recon, kl, total, tau, label_balance):
        self.recon_loss.append(float(recon))
        self.kl_loss.append(float(kl))
        self.label_balance_loss.append(float(label_balance))
        self.total_loss.append(float(total))
        self.temperature.append(float(tau))

    def __len__(self):
        return len(self.total_loss)


class EncoderDecoder:
    """The encoder trunk, its mean and variance heads and the decoder, which
    both model families share. Subclasses give their networks' shapes in
    architecture()."""

    # the networks that read the raw input x as their first config.d input
    # columns; fit trains copies of them that read only the columns the
    # data sets
    INPUT_NETS = ("encoder_trunk",)

    def _encoder_decoder_architecture(self, in_dim):
        cfg = self.config
        w, depth, ld = cfg.hidden_width, cfg.hidden_depth, cfg.latent_dim
        return {
            "encoder_trunk": ([in_dim] + [w] * depth, ["relu"] * depth),
            "enc_mean_head": ([w, ld], ["linear"]),
            "enc_var_head": ([w, ld], ["softplus"]),
            "decoder": ([ld] + [w] * depth + [cfg.d], ["relu"] * depth + ["sigmoid"]),
        }

    def _build_networks(self):
        """Every network, each drawing its initial weights in turn from one
        generator seeded with config.rng_seed."""
        rng = np.random.default_rng(self.config.rng_seed)
        for name, (sizes, activations) in self.architecture().items():
            setattr(self, name, DenseNet(sizes, activations, rng, self.config.dtype))

    def networks(self):
        """{name: net} in architecture order, which is also the optimizer
        and checkpoint order."""
        return {name: getattr(self, name) for name in self.architecture()}

    def encode_decode(self, enc_in, eps_noise, keep_caches=True):
        """Trunk, mean and variance heads, reparameterized latent and decoder:
        (mu_q, var_q, x_hat, caches)."""
        h, trunk_cache = self.encoder_trunk.forward_cached(enc_in, keep_cache=keep_caches)
        mu_q, mean_cache = self.enc_mean_head.forward_cached(h, keep_cache=keep_caches)
        var_q, var_cache = self.enc_var_head.forward_cached(h, keep_cache=keep_caches)
        z, _ = nn.reparam_sample(mu_q, var_q, None, eps=eps_noise)
        x_hat, dec_cache = self.decoder.forward_cached(z, keep_cache=keep_caches)
        return mu_q, var_q, x_hat, (trunk_cache, mean_cache, var_cache, dec_cache)

    def recon_kl_backward(self, x, eps_noise, mu_q, var_q, x_hat, mu_p, var_p, caches, input_tail=0):
        """Mean per-item BCE and KL(q || p), and the gradient of the weighted
        batch-mean objective back through the decoder, the reparameterized
        sample, both heads and the trunk, written into each of those nets'
        `grads`: (recon, kl, d_enc_in, d_mu_p, d_var_p), the last two already
        weighted for the prior. d_enc_in is the gradient of the trunk input's
        last input_tail columns, None with input_tail=0."""
        trunk_cache, mean_cache, var_cache, dec_cache = caches
        recon_vec, d_xhat = nn.bce_loss(x_hat, x, with_grad=True)
        kl_vec, (d_mu_q, d_var_q, d_mu_p, d_var_p) = nn.kl_diag(
            mu_q, var_q, mu_p, var_p, with_grad=True
        )
        # scale per-item gradients for the weighted batch-mean objective
        rw = self.config.recon_weight / x.shape[0]
        kw = self.config.kl_weight / x.shape[0]

        d_z = self.decoder.backward(dec_cache, rw * d_xhat)
        d_mu_q_total = kw * d_mu_q + d_z
        d_var_q_total = kw * d_var_q + d_z * nn.reparam_grad_var(var_q, eps_noise)
        d_h_mean = self.enc_mean_head.backward(mean_cache, d_mu_q_total)
        d_h_var = self.enc_var_head.backward(var_cache, d_var_q_total)
        d_enc_in = self.encoder_trunk.backward(trunk_cache, d_h_mean + d_h_var, input_tail)
        recon, kl = float(np.mean(recon_vec)), float(np.mean(kl_vec))
        return recon, kl, d_enc_in, kw * d_mu_p, kw * d_var_p


class GmvaeModel(EncoderDecoder):
    """The mixture-prior model. Like baseline.VaeGmmModel it offers k,
    generate(component, n, rng), predict(data) and encode(data), so the CLI
    and the experiment drivers treat both families alike."""

    INPUT_NETS = ("label_net", "encoder_trunk")

    def __init__(self, config, vocab=None):
        config.validate()
        if vocab is not None and config.d != CHUNK_SIZE * CHUNK_SIZE * vocab.size:
            raise InvalidConfig(
                f"d={config.d} does not match 256 * vocab size ({vocab.size})"
            )
        self.config = config
        self.vocab = vocab
        self._build_networks()
        # symmetric start: all components identical and all labels equally
        # likely, so early assignment is driven by the data, not by init noise
        self.label_net.layers[-1].weight[...] = 0.0
        self.prior_mean_net.layers[0].weight[...] = 0.0
        self.prior_var_net.layers[0].weight[...] = 0.0

    def architecture(self):
        """{network name: (layer sizes, activations)} from the config, in
        the order the networks draw their initial weights."""
        cfg = self.config
        w, depth, ld, k = cfg.hidden_width, cfg.hidden_depth, cfg.latent_dim, cfg.k
        return {
            "label_net": ([cfg.d] + [w] * depth + [k], ["relu"] * depth + ["linear"]),
            "prior_mean_net": ([k, ld], ["linear"]),
            "prior_var_net": ([k, ld], ["softplus"]),
            **self._encoder_decoder_architecture(cfg.d + k),
        }

    @property
    def k(self):
        return self.config.k

    def schedule(self, epoch):
        """(tau, hard) for the epoch, from temperature_schedule."""
        return temperature_schedule(self.config, epoch)

    def loss_and_grads(self, x, tau, hard, rng):
        """gmvae_loss_and_grads with Gumbel noise, then latent noise, drawn
        from rng: (recon, kl, balance)."""
        gumbel_noise = nn.sample_gumbel((x.shape[0], self.k), rng)
        eps_noise = rng.standard_normal((x.shape[0], self.config.latent_dim))
        return gmvae_loss_and_grads(self, x, tau, hard, gumbel_noise, eps_noise)

    def generate(self, component, n, rng):
        return generate(self, component, n, rng)

    def predict(self, data):
        """Hard component per row."""
        return hard_labels(self, data)

    def encode(self, data):
        """(latent means, hard labels) per row; the encoder sees each row's
        hard label as a one-hot. The rows are written once into the trunk's
        input, beside that one-hot: in their own dtype if it is an integer
        one (the uint8 corpus), so the trunk reads only the set columns,
        and in the model's dtype otherwise."""
        data = np.asarray(data)
        labels = hard_labels(self, data)
        n, d = len(labels), self.config.d
        dtype = data.dtype if data.dtype.kind in "biu" else self.config.dtype
        enc_in = np.zeros((n, d + self.k), dtype=dtype)
        enc_in[:, :d] = data
        enc_in[np.arange(n), d + labels] = 1.0
        h = self.encoder_trunk.forward(enc_in)
        return self.enc_mean_head.forward(h), labels


def build_model(config, vocab=None):
    """Construct all networks; deterministic given config.rng_seed."""
    return GmvaeModel(config, vocab)


def _forward_pass(model, x, tau, hard, gumbel_noise, eps_noise, keep_caches):
    """Shared forward for loss evaluation and backprop."""
    logits, label_cache = model.label_net.forward_cached(x, keep_cache=keep_caches)
    y, soft_y = nn.gumbel_softmax(logits, tau, gumbel_noise, hard=hard)
    mu_p, pmean_cache = model.prior_mean_net.forward_cached(y, keep_cache=keep_caches)
    var_p, pvar_cache = model.prior_var_net.forward_cached(y, keep_cache=keep_caches)
    mu_q, var_q, x_hat, enc_caches = model.encode_decode(
        np.concatenate([x, y], axis=1), eps_noise, keep_caches
    )
    caches = {
        "label": label_cache,
        "prior_mean": pmean_cache,
        "prior_var": pvar_cache,
        "encoder_decoder": enc_caches,
    }
    tensors = {
        "logits": logits,
        "y": y,
        "soft_y": soft_y,
        "mu_q": mu_q,
        "var_q": var_q,
        "mu_p": mu_p,
        "var_p": var_p,
        "x_hat": x_hat,
    }
    return tensors, caches


def _label_balance(logits, k):
    """KL(batch-mean label distribution || uniform) over the noiseless
    softmax; zero when labels spread evenly, log k at full collapse."""
    p = nn.softmax(logits, axis=-1)
    p_bar = p.mean(axis=0)
    log_ratio = np.log(np.maximum(p_bar * k, nn.positive_floor(p_bar.dtype)))
    return float(np.sum(p_bar * log_ratio)), p, p_bar


def gmvae_loss(model, x, tau, hard, gumbel_noise, eps_noise):
    """Mean per-item (recon, kl, label_balance) for a batch with frozen noise."""
    t, _ = _forward_pass(model, x, tau, hard, gumbel_noise, eps_noise, keep_caches=False)
    recon = nn.bce_loss(t["x_hat"], x)
    kl = nn.kl_diag(t["mu_q"], t["var_q"], t["mu_p"], t["var_p"])
    balance, _, _ = _label_balance(t["logits"], model.config.k)
    return float(np.mean(recon)), float(np.mean(kl)), balance


def gmvae_loss_and_grads(model, x, tau, hard, gumbel_noise, eps_noise):
    """Backprop the weighted mean loss into the `grads` of all seven
    networks, where their AdamStates read it.

    Returns (recon, kl, balance). Gradients flow through the decoder,
    the reparameterized sample, both prior nets and (straight-through when
    hard) the Gumbel-Softmax back into the label net; the balance term adds a
    second, noiseless path into the label net.
    """
    cfg = model.config
    batch = x.shape[0]
    t, caches = _forward_pass(model, x, tau, hard, gumbel_noise, eps_noise, keep_caches=True)
    # the trunk's input gradient is needed only for its k label columns
    recon, kl, d_y_enc, d_mu_p, d_var_p = model.recon_kl_backward(
        x, eps_noise, t["mu_q"], t["var_q"], t["x_hat"], t["mu_p"], t["var_p"],
        caches["encoder_decoder"], input_tail=cfg.k,
    )
    d_y_mean = model.prior_mean_net.backward(caches["prior_mean"], d_mu_p)
    d_y_var = model.prior_var_net.backward(caches["prior_var"], d_var_p)

    d_y = d_y_enc + d_y_mean + d_y_var
    d_logits = nn.gumbel_softmax_backward(t["soft_y"], tau, d_y)

    balance, p, p_bar = _label_balance(t["logits"], cfg.k)
    if cfg.label_balance_weight > 0:
        # d(balance)/d(p_bar) = log(k p_bar) + 1, pushed through each row's
        # softmax jacobian; every row contributes 1/batch to the mean
        g = np.log(np.maximum(p_bar * cfg.k, nn.positive_floor(p_bar.dtype))) + 1.0
        d_logits = d_logits + (cfg.label_balance_weight / batch) * (
            p * (g - (p @ g)[:, None])
        )
    model.label_net.backward(caches["label"], d_logits, input_tail=0)
    return recon, kl, balance


def make_optimizers(model):
    """One Adam state per network, shared hyperparameters."""
    lr = model.config.learning_rate
    return {name: AdamState(net, learning_rate=lr) for name, net in model.networks().items()}


StepLosses = namedtuple("StepLosses", ["recon", "kl", "label_balance"])


def training_step(model, batch, tau, optimizers, rng, hard=False):
    """One gradient step of either model family on a batch of flat vectors,
    from the gradients model.loss_and_grads writes into each net's `grads`.

    Returns StepLosses(recon, kl, label_balance); recon and kl are the two
    weighted objective terms, label_balance the anti-collapse regularizer.
    """
    cfg = model.config
    x = np.asarray(batch, dtype=cfg.dtype)
    if x.ndim != 2 or x.shape[1] != cfg.d:
        raise DimensionMismatch(f"batch must be (n, {cfg.d}), got {x.shape}")
    if x.shape[0] > cfg.batch_size:
        raise DimensionMismatch(
            f"batch of {x.shape[0]} exceeds configured batch_size {cfg.batch_size}"
        )
    recon, kl, balance = model.loss_and_grads(x, tau, hard, rng)
    if not (math.isfinite(recon) and math.isfinite(kl) and math.isfinite(balance)):
        raise NonFiniteLoss(f"non-finite loss: recon={recon} kl={kl} balance={balance} tau={tau}")
    nets = model.networks()
    for name, opt in optimizers.items():
        opt.step(nets[name])
    return StepLosses(recon, kl, balance)


SAMPLERS = ("uniform", "balanced")


def fit(model, data, level_types=None, sampler="uniform", log_every=None, on_epoch=None):
    """The training loop both model families share: config.epochs epochs of
    ceil(n / batch_size) training_steps at model.schedule(epoch)'s (tau, hard).

    data: (n, d) one-hot matrix in any dtype, uint8 as encode_chunks gives
    it. fit holds no copy of it: training_step casts each batch of rows to
    config.dtype, and 0 and 1 are exact in every dtype, so the dtype of
    data changes no result. sampler: "uniform" shuffles each epoch;
    "balanced" draws indices weighted by 1 / level-type count (requires
    level_types). on_epoch(epoch, history), if given, runs after each epoch
    is recorded. A NonFiniteLoss from a step is raised again naming the
    1-based epoch and step within it.

    The networks that read the raw input (model.INPUT_NETS) train as copies
    that read only the input columns data sets (DenseNet.input_subset): a
    column that is zero in every row gives its weights a zero gradient and
    so a zero Adam update, and the copies skip that work. While fit runs,
    model.networks() gives the copies, except inside on_epoch; their values
    are written back into the full networks before each on_epoch and at
    every exit, and the weights of the unset columns keep their values.
    Returns the TrainingHistory; the model is updated in place.
    """
    cfg = model.config
    if log_every is not None and log_every < 1:
        raise InvalidConfig(f"log_every must be >= 1, got {log_every}")
    if sampler not in SAMPLERS:
        raise InvalidConfig(f"sampler must be one of {SAMPLERS}, got {sampler!r}")
    if sampler == "balanced" and level_types is None:
        raise MissingLabels("the balanced sampler needs level_types")
    data = np.asarray(data)
    n = data.shape[0]
    if n == 0:
        raise DimensionMismatch("no training data")
    rng = np.random.default_rng(cfg.rng_seed + 1)  # distinct from init stream
    history = TrainingHistory()
    batches_per_epoch = math.ceil(n / cfg.batch_size)
    balanced = BalancedSampler(level_types, cfg.rng_seed + 2) if sampler == "balanced" else None
    # the plain VAE has no balance term; its StepLosses carry label_balance 0.0
    balance_weight = getattr(cfg, "label_balance_weight", 0.0)
    full = {name: getattr(model, name) for name in model.INPUT_NETS}
    set_columns = np.flatnonzero(data.any(axis=0))
    # a trunk's label columns, past d, are always read
    read = {name: np.concatenate([set_columns, np.arange(cfg.d, net.in_dim)]) for name, net in full.items()}

    def use_copies():
        for name, net in full.items():
            setattr(model, name, net.input_subset(read[name]))

    def restore_full():
        for name, net in full.items():
            copy = getattr(model, name)
            if copy is not net:
                net.write_back(copy)
                setattr(model, name, net)

    try:
        use_copies()
        optimizers = make_optimizers(model)
        for epoch in range(cfg.epochs):
            tau, hard = model.schedule(epoch)
            order = balanced.draw(n) if balanced is not None else rng.permutation(n)
            recon_sum = kl_sum = balance_sum = 0.0
            count = 0
            for b in range(batches_per_epoch):
                idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                try:
                    losses = training_step(model, data[idx], tau, optimizers, rng, hard=hard)
                except NonFiniteLoss as exc:
                    raise NonFiniteLoss(f"epoch {epoch + 1} step {b + 1}: {exc}") from exc
                recon_sum += losses.recon * len(idx)
                kl_sum += losses.kl * len(idx)
                balance_sum += losses.label_balance * len(idx)
                count += len(idx)
            mean_recon = recon_sum / count
            mean_kl = kl_sum / count
            mean_balance = balance_sum / count
            total = (
                cfg.recon_weight * mean_recon
                + cfg.kl_weight * mean_kl
                + balance_weight * mean_balance
            )
            history.record(mean_recon, mean_kl, total, tau, label_balance=mean_balance)
            if log_every is not None and (epoch + 1) % log_every == 0:
                print(
                    f"epoch {epoch + 1}/{cfg.epochs} recon={mean_recon:.4f} "
                    f"kl={mean_kl:.4f} total={total:.4f} tau={tau:.3f}"
                )
            if on_epoch is not None:
                restore_full()
                on_epoch(epoch, history)
                use_copies()
    finally:
        restore_full()
    return history


def train(model, data, level_types=None, sampler="uniform", checkpoint_path=None, checkpoint_every=None, log_every=None):
    """fit() the mixture model.

    With checkpoint_path and checkpoint_every, the model is saved to
    checkpoint_path every checkpoint_every epochs; saving the final model is
    left to the caller. The model should be treated as immutable afterwards.
    """
    if checkpoint_every is not None and checkpoint_every < 1:
        raise InvalidConfig(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    on_epoch = None
    if checkpoint_path and checkpoint_every:
        from .checkpoints import save_gmvae

        def on_epoch(epoch, history):
            if (epoch + 1) % checkpoint_every == 0:
                save_gmvae(checkpoint_path, model, history)

    return fit(model, data, level_types=level_types, sampler=sampler, log_every=log_every, on_epoch=on_epoch)


def generate(model, component, n, rng):
    """Sample n latents from one mixture component and decode them to
    chunks through decode_generated: each cell's tile is the argmax of the
    decoder's pre-sigmoid output, which the sigmoid would not change
    except where it rounds two tiles to the same float."""
    cfg = model.config
    if not 0 <= component < cfg.k:
        raise ComponentOutOfRange(f"component {component} out of range [0, {cfg.k})")
    if n < 1:
        raise ComponentOutOfRange(f"n must be >= 1, got {n}")
    one_hot = np.zeros((1, cfg.k), dtype=np.float64)
    one_hot[0, component] = 1.0
    mu = model.prior_mean_net.forward(one_hot)[0]
    var = model.prior_var_net.forward(one_hot)[0]
    eps = rng.standard_normal((n, cfg.latent_dim))
    z = mu + np.sqrt(var) * eps
    return decode_generated(model.decoder, z, model.vocab, component)


def decode_generated(decoder, latents, vocab, component):
    """The chunks the decoder makes of latents (n, latent_dim), which both
    model families label gen-c<component> at offsets (0, i).

    Each cell's tile is the argmax of the decoder's last pre-activation,
    which is the argmax of its sigmoid output, as the sigmoid is
    increasing; the sigmoid is never computed. Where the sigmoid would
    round two tiles' outputs to the same float (1.0 above a pre-activation
    of about 37 in float64 and 17 in float32), the larger pre-activation
    wins, not the lower tile id; equal pre-activations break toward the
    lowest tile id."""
    logits, _ = decoder.forward_cached(latents, keep_cache=False, pre_activation=True)
    return [
        decode(logits[i], vocab, level_id=f"gen-c{component}", offset=(0, i))
        for i in range(len(logits))
    ]


def hard_labels(model, data):
    """Deterministic component labels: argmax of the label-net logits
    (the zero-temperature, no-noise limit). Over the uint8 corpus the
    label net reads only the columns the rows set (DenseNet.forward_cached),
    so no float copy of the corpus is made."""
    logits = model.label_net.forward(data)
    return np.argmax(logits, axis=1)
