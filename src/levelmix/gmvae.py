"""The mixture-prior VAE: label-assigning, prior-assigning, encoder and
decoder networks, the two-term loss, the training loop and per-component
generation.

Network layout (default widths, all configurable), with s = len(support):
  label net    s -> 512 -> 512 -> 512 (relu) -> k logits, Gumbel-Softmax sample
  prior means  k -> 64 linear
  prior vars   k -> 64 softplus
  encoder      (s + k) -> 512 -> 512 -> 512 (relu) -> {64 linear, 64 softplus}
  decoder      64 -> 512 -> 512 -> 512 (relu) -> s sigmoid

The support is the sorted list of one-hot columns the model reads and
writes: all d as built, and after fit the ones its training data sets. The
label net and the encoder read only the support's columns of x, and the
decoder outputs only those columns.

Loss per item: recon_weight * BCE(decoder(z), x_s) + kl_weight * KL(q(z|x,y) || p(z|y))
with x_s the support's columns of x, y the sampled label, z the
reparameterized latent. A column no training chunk sets has a BCE target of
0 throughout, so fit drops its term with its decoder output.

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


# the largest value of a config field or a CLI count that sizes an array:
# a product of three such values, in 8-byte floats, stays under numpy's
# 2**63-byte limit, so an oversized request fails, at worst, with a MemoryError
MAX_SIZE = 2**19


def _check_int(config, name, low, high=None):
    """An InvalidConfig naming the field unless its value is an int (not a
    bool) in [low, high]."""
    value = getattr(config, name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidConfig(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise InvalidConfig(f"{name} must be <= {high}, got {value}")


def _check_float(config, name, positive=False):
    """An InvalidConfig naming the field unless its value is a number (not
    a bool), finite and > 0 (positive) or >= 0: no run trains with NaN, inf
    or a negative weight."""
    value = getattr(config, name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidConfig(f"{name} must be a number, got {value!r}")
    # compared, not math.isfinite: that raises OverflowError on an int past float range
    if not (-math.inf < value < math.inf and (value > 0 if positive else value >= 0)):
        raise InvalidConfig(f"{name} must be finite and {'> 0' if positive else '>= 0'}, got {value}")


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
        for name in ("d", "latent_dim", "hidden_width", "hidden_depth", "batch_size"):
            _check_int(self, name, 1, MAX_SIZE)
        _check_int(self, "epochs", 0)
        _check_int(self, "rng_seed", 0)
        _check_float(self, "learning_rate", positive=True)
        _check_float(self, "kl_weight")
        _check_float(self, "recon_weight")
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
        _check_int(self, "k", 2, MAX_SIZE)
        _check_float(self, "tau_start", positive=True)
        _check_float(self, "tau_min", positive=True)
        _check_float(self, "label_balance_weight")
        if self.tau_min > self.tau_start:
            raise InvalidConfig("tau_min must not exceed tau_start")
        if self.tau_decay is not None:
            _check_float(self, "tau_decay", positive=True)
            if self.tau_decay > 1:
                raise InvalidConfig(f"tau_decay must be in (0, 1], got {self.tau_decay}")
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


def check_d(config, vocab):
    """An InvalidConfig unless vocab is None or config.d is 256 * its size:
    a d of another vocab would size decode_generated's (n, d) arrays."""
    if vocab is not None and config.d != CHUNK_SIZE * CHUNK_SIZE * vocab.size:
        raise InvalidConfig(f"config d={config.d} does not match 256 * vocab size {vocab.size} = {256 * vocab.size}")


class EncoderDecoder:
    """The encoder trunk, its mean and variance heads and the decoder, which
    both model families share. Subclasses give their networks' shapes in
    architecture()."""

    # the networks that read the support's columns of x as their first
    # len(support) input columns
    INPUT_NETS = ("encoder_trunk",)

    def __init__(self, config, vocab=None):
        """Every network over the full support, each drawing its initial
        weights in architecture order from one generator seeded with
        config.rng_seed."""
        self.config = config.validate()
        check_d(config, vocab)
        self.vocab = vocab
        self.support = np.arange(config.d)
        rng = np.random.default_rng(config.rng_seed)
        for name, (sizes, activations) in self.architecture().items():
            setattr(self, name, DenseNet(sizes, activations, rng, config.dtype))

    def _encoder_decoder_architecture(self, in_dim):
        cfg = self.config
        w, depth, ld = cfg.hidden_width, cfg.hidden_depth, cfg.latent_dim
        return {
            "encoder_trunk": ([in_dim] + [w] * depth, ["relu"] * depth),
            "enc_mean_head": ([w, ld], ["linear"]),
            "enc_var_head": ([w, ld], ["softplus"]),
            "decoder": ([ld] + [w] * depth + [len(self.support)], ["relu"] * depth + ["sigmoid"]),
        }

    def gather(self, x, tail=0):
        """The support's columns of x (..., d) in the model's dtype, then
        `tail` zero columns; a set column outside the support is dropped.
        With the full support an integer x keeps its dtype, and with no
        tail x itself is returned, so the input nets read only the set
        columns of an integer corpus (DenseNet.forward_cached), not a float
        copy of all d."""
        x = np.asarray(x)
        if x.shape[-1] != self.config.d:
            raise DimensionMismatch(f"input has {x.shape[-1]} features, the model expects {self.config.d}")
        s, full = len(self.support), len(self.support) == self.config.d
        if full and not tail:
            return x
        out = np.zeros(x.shape[:-1] + (s + tail,), x.dtype if full and x.dtype.kind in "biu" else self.config.dtype)
        # np.take's copy is freed once written, so only out stays
        out[..., :s] = x if full else np.take(x, self.support, axis=-1)
        return out

    def narrow(self, support):
        """Make the input nets read, and the decoder write, only the given
        columns, a sorted subset of the support: the input nets' first
        layers and the decoder's last layer keep those columns' parameters."""
        keep = np.searchsorted(self.support, support)
        for name in self.INPUT_NETS:
            net = getattr(self, name)
            # a trunk's label columns, past the support, are always read
            tail = np.arange(len(self.support), net.layers[0].in_dim)
            setattr(self, name, net.keep(inputs=np.concatenate([keep, tail])))
        self.decoder = self.decoder.keep(outputs=keep)
        self.support = np.asarray(support, dtype=np.intp)

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

    def recon_kl_backward(self, x_s, eps_noise, mu_q, var_q, x_hat, mu_p, var_p, caches, input_tail=0):
        """Mean per-item BCE against x_s, the support's columns of the batch
        (gather), and KL(q || p), and the gradient of the weighted
        batch-mean objective back through the decoder, the reparameterized
        sample, both heads and the trunk, written into each of those nets'
        `grads`: (recon, kl, d_enc_in, d_mu_p, d_var_p), the last two already
        weighted for the prior. d_enc_in is the gradient of the trunk input's
        last input_tail columns, None with input_tail=0."""
        trunk_cache, mean_cache, var_cache, dec_cache = caches
        recon_vec, d_xhat = nn.bce_loss(x_hat, x_s, with_grad=True)
        kl_vec, (d_mu_q, d_var_q, d_mu_p, d_var_p) = nn.kl_diag(
            mu_q, var_q, mu_p, var_p, with_grad=True
        )
        # scale per-item gradients for the weighted batch-mean objective
        rw = self.config.recon_weight / x_s.shape[0]
        kw = self.config.kl_weight / x_s.shape[0]

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
    generate(component, n, rng), predict(data) and encode(data), so every
    CLI command treats both families alike."""

    INPUT_NETS = ("label_net", "encoder_trunk")

    def __init__(self, config, vocab=None):
        super().__init__(config, vocab)
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
            "label_net": ([len(self.support)] + [w] * depth + [k], ["relu"] * depth + ["linear"]),
            "prior_mean_net": ([k, ld], ["linear"]),
            "prior_var_net": ([k, ld], ["softplus"]),
            **self._encoder_decoder_architecture(len(self.support) + k),
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
        hard label as a one-hot. The rows are gathered once into the
        trunk's input, and the label net reads its support columns, a view,
        before the one-hots are written beside them (see hard_labels)."""
        enc_in = self.gather(data, tail=self.k)
        s = len(self.support)
        labels = np.argmax(self.label_net.forward(enc_in[:, :s]), axis=1)
        enc_in[np.arange(len(labels)), s + labels] = 1
        h = self.encoder_trunk.forward(enc_in)
        return self.enc_mean_head.forward(h), labels


def build_model(config, vocab=None):
    """Construct all networks; deterministic given config.rng_seed."""
    return GmvaeModel(config, vocab)


def _forward_pass(model, x, tau, hard, gumbel_noise, eps_noise, keep_caches):
    """Shared forward for loss evaluation and backprop."""
    x_s = model.gather(x)
    logits, label_cache = model.label_net.forward_cached(x_s, keep_cache=keep_caches)
    y, soft_y = nn.gumbel_softmax(logits, tau, gumbel_noise, hard=hard)
    mu_p, pmean_cache = model.prior_mean_net.forward_cached(y, keep_cache=keep_caches)
    var_p, pvar_cache = model.prior_var_net.forward_cached(y, keep_cache=keep_caches)
    mu_q, var_q, x_hat, enc_caches = model.encode_decode(
        np.concatenate([x_s, y], axis=1), eps_noise, keep_caches
    )
    caches = {
        "label": label_cache,
        "prior_mean": pmean_cache,
        "prior_var": pvar_cache,
        "encoder_decoder": enc_caches,
    }
    tensors = {
        "x_s": x_s,
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
    softmax; zero when labels spread evenly, log k at full collapse.
    Returns (balance, p, p_bar, log_ratio), log_ratio being the floored
    log(k p_bar) that the balance gradient reuses."""
    p = nn.softmax(logits, axis=-1)
    p_bar = p.mean(axis=0)
    log_ratio = np.log(np.maximum(p_bar * k, nn.positive_floor(p_bar.dtype)))
    return float(np.sum(p_bar * log_ratio)), p, p_bar, log_ratio


def gmvae_loss(model, x, tau, hard, gumbel_noise, eps_noise):
    """Mean per-item (recon, kl, label_balance) for a batch with frozen noise."""
    t, _ = _forward_pass(model, x, tau, hard, gumbel_noise, eps_noise, keep_caches=False)
    recon = nn.bce_loss(t["x_hat"], t["x_s"])
    kl = nn.kl_diag(t["mu_q"], t["var_q"], t["mu_p"], t["var_p"])
    balance, *_ = _label_balance(t["logits"], model.config.k)
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
        t["x_s"], eps_noise, t["mu_q"], t["var_q"], t["x_hat"], t["mu_p"], t["var_p"],
        caches["encoder_decoder"], input_tail=cfg.k,
    )
    d_y_mean = model.prior_mean_net.backward(caches["prior_mean"], d_mu_p)
    d_y_var = model.prior_var_net.backward(caches["prior_var"], d_var_p)

    d_y = d_y_enc + d_y_mean + d_y_var
    d_logits = nn.gumbel_softmax_backward(t["soft_y"], tau, d_y)

    balance, p, _, log_ratio = _label_balance(t["logits"], cfg.k)
    if cfg.label_balance_weight > 0:
        # d(balance)/d(p_bar) = log(k p_bar) + 1, pushed through each row's
        # softmax jacobian; every row contributes 1/batch to the mean
        g = log_ratio + 1.0
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
    The batch keeps its dtype: the model casts only the columns it reads.

    Returns StepLosses(recon, kl, label_balance); recon and kl are the two
    weighted objective terms, label_balance the anti-collapse regularizer.
    """
    cfg = model.config
    x = np.asarray(batch)
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


class TrainingRun:
    """One fit's state, which its caller drives an epoch at a time with
    train_epoch(): the model, its optimizers (make_optimizers), the RNG
    that shuffles and draws each step's noise (seed config.rng_seed + 1),
    the BalancedSampler of sampler="balanced" (seed + 2, else None), the
    next epoch (0-based) and the TrainingHistory so far.

    data: (n, d) one-hot matrix in any dtype, uint8 as encode_chunks gives
    it. The run holds no copy of it: each step's gather casts the batch's
    support columns to config.dtype, and 0 and 1 are exact in every dtype,
    so the dtype of data changes no result. sampler: "uniform" shuffles each
    epoch; "balanced" draws indices weighted by 1 / level-type count and
    needs level_types, which if given must hold one type per row.

    Starting a run narrows the model (model.narrow) to the support columns
    data sets. A column that is zero in every row would give its input
    weights a zero gradient and so a zero Adam update, so the input nets
    drop it; its BCE target is 0 in every batch, so the decoder drops its
    output and the BCE its term. Data of the wrong shape or with the wrong
    number of level types is rejected before the model is touched.
    """

    def __init__(self, model, data, level_types=None, sampler="uniform"):
        cfg = model.config
        if sampler not in SAMPLERS:
            raise InvalidConfig(f"sampler must be one of {SAMPLERS}, got {sampler!r}")
        if sampler == "balanced" and level_types is None:
            raise MissingLabels("the balanced sampler needs level_types")
        data = np.asarray(data)
        if data.ndim != 2 or data.shape[1] != cfg.d:
            raise DimensionMismatch(f"data must be (n, {cfg.d}), got {data.shape}")
        if data.shape[0] == 0:
            raise DimensionMismatch("no training data")
        if level_types is not None and len(level_types) != data.shape[0]:
            raise MissingLabels(f"{len(level_types)} level_types for {data.shape[0]} rows of data")
        self.model, self.data = model, data
        self.rng = np.random.default_rng(cfg.rng_seed + 1)  # distinct from init stream
        self.balanced = BalancedSampler(level_types, cfg.rng_seed + 2) if sampler == "balanced" else None
        model.narrow(model.support[data.any(axis=0)[model.support]])
        self.optimizers = make_optimizers(model)
        self.history = TrainingHistory()
        self.epoch = 0

    def train_epoch(self):
        """ceil(n / batch_size) training_steps at model.schedule(epoch)'s
        (tau, hard); returns the epoch's (recon, kl, total, tau), as recorded
        in the history with its balance term. A NonFiniteLoss from a step is
        raised again naming the 1-based epoch and step within it."""
        cfg, n = self.model.config, len(self.data)
        tau, hard = self.model.schedule(self.epoch)
        order = self.balanced.draw(n) if self.balanced is not None else self.rng.permutation(n)
        recon_sum = kl_sum = balance_sum = 0.0
        for b in range(math.ceil(n / cfg.batch_size)):
            idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            try:
                losses = training_step(self.model, self.data[idx], tau, self.optimizers, self.rng, hard=hard)
            except NonFiniteLoss as exc:
                raise NonFiniteLoss(f"epoch {self.epoch + 1} step {b + 1}: {exc}") from exc
            recon_sum += losses.recon * len(idx)
            kl_sum += losses.kl * len(idx)
            balance_sum += losses.label_balance * len(idx)
        mean_recon, mean_kl, mean_balance = recon_sum / n, kl_sum / n, balance_sum / n
        # the plain VAE has no balance term; its StepLosses carry label_balance 0.0
        total = (
            cfg.recon_weight * mean_recon
            + cfg.kl_weight * mean_kl
            + getattr(cfg, "label_balance_weight", 0.0) * mean_balance
        )
        self.history.record(mean_recon, mean_kl, total, tau, label_balance=mean_balance)
        self.epoch += 1
        return mean_recon, mean_kl, total, tau


def fit(model, data, level_types=None, sampler="uniform"):
    """The training loop both model families share, and the mixture
    model's as train: a TrainingRun trained for config.epochs epochs.
    Returns its TrainingHistory; the model is updated in place and should
    be treated as immutable afterwards."""
    run = TrainingRun(model, data, level_types, sampler)
    for _ in range(model.config.epochs):
        run.train_epoch()
    return run.history


# the name perfbench/ clocks the mixture model's fit by; train_vae calls fit itself
train = fit


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
    return decode_generated(model, z, component)


def decode_generated(model, latents, component):
    """The chunks, in model.vocab's tiles, that the decoder of model (either
    family's encoder/decoder) makes of latents (n, latent_dim), which both
    model families label gen-c<component> at offsets (0, i).

    Each cell's tile is the argmax of the decoder's last pre-activation,
    which is the argmax of its sigmoid output, as the sigmoid is
    increasing; the sigmoid is never computed. Where the sigmoid would
    round two tiles' outputs to the same float (1.0 above a pre-activation
    of about 37 in float64 and 17 in float32), the larger pre-activation
    wins, not the lower tile id; equal pre-activations break toward the
    lowest tile id. A narrowed decoder writes only the support's columns,
    so each cell's argmax runs over its support columns, and a (cell, tile)
    pair no training chunk set is never generated; every cell has one, as
    every chunk sets one tile per cell, and loading refuses a support
    without a column of some cell, where every argmax would be tile 0."""
    logits, _ = model.decoder.forward_cached(latents, keep_cache=False, pre_activation=True)
    if len(model.support) < model.config.d:
        full = np.full((len(logits), model.config.d), -np.inf, dtype=logits.dtype)
        full[:, model.support] = logits
        logits = full
    return [
        decode(logits[i], model.vocab, level_id=f"gen-c{component}", offset=(0, i))
        for i in range(len(logits))
    ]


def label_logits(model, data):
    """The label net's logits per row. Over the uint8 corpus the label net
    reads only the support's columns (gather), and as built only the ones
    the rows set, so no float copy of all d columns is made."""
    return model.label_net.forward(model.gather(data))


def hard_labels(model, data):
    """Deterministic component labels: argmax of the label-net logits
    (the zero-temperature, no-noise limit)."""
    return np.argmax(label_logits(model, data), axis=1)
