"""The comparison pipeline: a standard unimodal-prior VAE, PCA keeping 95%
variance, and a full-covariance Gaussian mixture fit by EM with k-means++
restarts. Clustering a VAE latent space post-hoc is the naive alternative to
learning the mixture during training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import neuralnet as nn
from .errors import (
    ComponentOutOfRange,
    DegenerateData,
    DimensionMismatch,
    InvalidConfig,
    NumericError,
    SingularCovariance,
)
from .gmvae import EncoderDecoder, VaeConfig, check_d, decode_generated, fit


class VaeModel(EncoderDecoder):
    """Encoder/decoder identical to the mixture model minus label machinery,
    so comparisons isolate the prior."""

    def architecture(self):
        """{network name: (layer sizes, activations)} from the config, in
        the order the networks draw their initial weights."""
        return self._encoder_decoder_architecture(len(self.support))

    def schedule(self, epoch):
        """The plain VAE has no temperature: (0.0, False) every epoch."""
        return 0.0, False

    def loss_and_grads(self, x, tau, hard, rng):
        """Draw the latent noise from rng and backprop the batch: (recon, kl,
        0.0); there is no balance term, and tau and hard are unused."""
        eps = rng.standard_normal((x.shape[0], self.config.latent_dim))
        recon, kl = vae_loss_and_grads(self, x, eps)
        return recon, kl, 0.0


def vae_loss(model, x, eps_noise):
    """Mean per-item (recon, kl) against the standard-normal prior; the BCE
    reads the support's columns of x, as the decoder writes only those."""
    x_s = model.gather(x)
    mu, var, x_hat, _ = model.encode_decode(x_s, eps_noise, keep_caches=False)
    recon = nn.bce_loss(x_hat, x_s)
    kl = nn.kl_diag(mu, var, np.zeros_like(mu), np.ones_like(var))
    return float(np.mean(recon)), float(np.mean(kl))


def vae_loss_and_grads(model, x, eps_noise):
    """Mean per-item (recon, kl), with the gradients backpropagated into the
    four nets' `grads`."""
    x_s = model.gather(x)
    mu, var, x_hat, caches = model.encode_decode(x_s, eps_noise)
    recon, kl, _, _, _ = model.recon_kl_backward(
        x_s, eps_noise, mu, var, x_hat, np.zeros_like(mu), np.ones_like(var), caches
    )
    return recon, kl


def train_vae(data, config, level_types=None, sampler="uniform"):
    """fit() a new VaeModel of config, with nothing run between its epochs; returns (model, history)."""
    model = VaeModel(config)
    history = fit(model, data, level_types=level_types, sampler=sampler)
    return model, history


def vae_encode(model, data):
    """Deterministic latent means (no sampling), in the model's dtype. Over
    the uint8 corpus the trunk reads only the support's columns (gather),
    and as built only the ones the rows set, so no float copy of all d
    columns is made."""
    h = model.encoder_trunk.forward(model.gather(data))
    return model.enc_mean_head.forward(h)


# ---------------------------------------------------------------------------
# PCA


@dataclass
class PcaProjection:
    mean: np.ndarray  # (dim,)
    axes: np.ndarray  # (m, dim), orthonormal rows
    explained_variance: np.ndarray  # per retained axis, non-increasing
    total_variance: float
    m: int


def pca_fit(data):
    """Center, factorize, keep the smallest axis count reaching 95% of the
    variance. SVD of the centered data is used; axis signs are fixed so
    the largest-magnitude loading is positive, keeping fits deterministic."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise DegenerateData("need at least 2 vectors")
    if not np.isfinite(data).all():
        raise NumericError("PCA input has NaN or infinite values")
    mean = data.mean(axis=0)
    centered = data - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    variances = s * s / (data.shape[0] - 1)
    total = float(variances.sum())
    if total <= 0.0:
        raise DegenerateData("data has zero variance")
    cumulative = np.cumsum(variances) / total
    m = int(np.searchsorted(cumulative, 0.95 - 1e-12) + 1)
    m = min(m, len(variances))
    axes = vt[:m].copy()
    for i in range(m):
        j = int(np.argmax(np.abs(axes[i])))
        if axes[i, j] < 0:
            axes[i] = -axes[i]
    return PcaProjection(
        mean=mean,
        axes=axes,
        explained_variance=variances[:m].copy(),
        total_variance=total,
        m=m,
    )


def pca_project(projection, data):
    data = np.asarray(data, dtype=np.float64)
    if data.shape[-1] != projection.mean.shape[0]:
        raise DimensionMismatch(
            f"expected dim {projection.mean.shape[0]}, got {data.shape[-1]}"
        )
    return (data - projection.mean) @ projection.axes.T


def pca_inverse(projection, projected):
    """Back-project m-dimensional points into the original space."""
    projected = np.asarray(projected, dtype=np.float64)
    return projected @ projection.axes + projection.mean


# ---------------------------------------------------------------------------
# Gaussian mixture via EM


@dataclass
class GmmModel:
    weights: np.ndarray  # (k,), sums to 1
    means: np.ndarray  # (k, m)
    covariances: np.ndarray  # (k, m, m), SPD after EM_RIDGE
    log_likelihood_trace: list = field(default_factory=list)  # mean LL per iteration

    @property
    def k(self):
        return self.weights.shape[0]


def _log_gaussian(points, mean, cov):
    """Log density of N(mean, cov) at each point, via Cholesky."""
    m = points.shape[1]
    chol = np.linalg.cholesky(cov)
    diff = points - mean
    y = np.linalg.solve(chol, diff.T)
    maha = np.sum(y * y, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (m * np.log(2.0 * np.pi) + logdet + maha)


def _e_step(points, weights, means, covariances):
    """(log_prob, log_norm): per point and component, log weight plus log
    density, and its log-sum-exp over components."""
    log_prob = np.empty((points.shape[0], len(weights)))
    for j in range(len(weights)):
        try:
            log_prob[:, j] = np.log(weights[j]) + _log_gaussian(points, means[j], covariances[j])
        except np.linalg.LinAlgError:
            raise SingularCovariance(f"component {j} covariance is not positive definite") from None
    log_max = log_prob.max(axis=1, keepdims=True)
    log_norm = log_max + np.log(np.exp(log_prob - log_max).sum(axis=1, keepdims=True))
    return log_prob, log_norm


def _kmeans_pp_means(points, k, rng):
    """k-means++ seeding: first mean uniform, then proportional to squared
    distance from the nearest chosen mean."""
    n = points.shape[0]
    means = np.empty((k, points.shape[1]), dtype=np.float64)
    means[0] = points[rng.integers(n)]
    d2 = np.sum((points - means[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            means[i] = points[rng.integers(n)]
            continue
        means[i] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - means[i]) ** 2, axis=1))
    return means


# EM stops once an iteration gains less than EM_TOL in mean log-likelihood;
# EM_RIDGE is added to every covariance's diagonal
EM_TOL, EM_RIDGE = 1e-4, 1e-6


def _em_run(points, k, rng, max_iters):
    n, m = points.shape
    means = _kmeans_pp_means(points, k, rng)
    if n >= 2:
        shared = np.cov(points.T).reshape(m, m) + EM_RIDGE * np.eye(m)
    else:
        shared = EM_RIDGE * np.eye(m)
    covariances = np.repeat(shared[None], k, axis=0)
    weights = np.full(k, 1.0 / k)
    trace = []
    prev = -np.inf
    for _ in range(max_iters):
        log_prob, log_norm = _e_step(points, weights, means, covariances)
        resp = np.exp(log_prob - log_norm)
        ll = float(log_norm.mean())
        trace.append(ll)
        if ll < prev - 1e-9 * max(1.0, abs(prev)):
            raise NumericError(f"EM log-likelihood decreased: {prev} -> {ll}")
        improved = ll - prev
        prev = ll
        # M step
        nk = resp.sum(axis=0) + 1e-12
        weights = resp.sum(axis=0) / resp.sum()  # exact simplex
        means = (resp.T @ points) / nk[:, None]
        for j in range(k):
            diff = points - means[j]
            covariances[j] = (resp[:, j, None] * diff).T @ diff / nk[j] + EM_RIDGE * np.eye(m)
        if improved < EM_TOL:
            break
    return GmmModel(weights=weights, means=means, covariances=covariances, log_likelihood_trace=trace)


def check_gmm_k(k, n):
    """Refuse a mixture of more components than its n points; the CLI asks
    once the corpus is read, before a VAE trains."""
    if n < k:
        raise DegenerateData(f"need at least k={k} points, got {n}")


def gmm_fit(points, k, rng_seed=0, max_iters=200, restarts=10):
    """EM with k-means++ restarts; the best final mean log-likelihood wins,
    ties broken by lowest restart index. A restart that hits a singular
    covariance or a decreasing log-likelihood is discarded. restarts and
    max_iters stay settable so that tests can keep fits small."""
    if k < 1:
        raise InvalidConfig(f"a mixture needs k >= 1 components, got {k}")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    check_gmm_k(k, points.shape[0])
    best = None
    best_ll = -np.inf
    failures = []
    for r in range(restarts):
        rng = np.random.default_rng(rng_seed + r)
        try:
            model = _em_run(points, k, rng, max_iters)
        except NumericError as exc:
            failures.append(str(exc))
            continue
        ll = model.log_likelihood_trace[-1]
        if ll > best_ll:
            best, best_ll = model, ll
    if best is None:
        raise NumericError(f"all {restarts} EM restarts failed: {failures[:3]}")
    return best


def gmm_log_responsibilities(model, points):
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if points.shape[1] != model.means.shape[1]:
        raise DimensionMismatch(
            f"points have dim {points.shape[1]}, model expects {model.means.shape[1]}"
        )
    log_prob, log_norm = _e_step(points, model.weights, model.means, model.covariances)
    return log_prob - log_norm


def gmm_predict(model, points):
    """Hard component index per point (argmax posterior responsibility)."""
    return np.argmax(gmm_log_responsibilities(model, points), axis=1)


def gmm_sample(model, component, n, rng):
    if not 0 <= component < model.k:
        raise ComponentOutOfRange(f"component {component} out of range [0, {model.k})")
    if n < 1:
        raise ComponentOutOfRange(f"n must be >= 1, got {n}")
    try:
        chol = np.linalg.cholesky(model.covariances[component])
    except np.linalg.LinAlgError:
        raise SingularCovariance(f"component {component} covariance is not positive definite") from None
    eps = rng.standard_normal((n, model.means.shape[1]))
    return model.means[component] + eps @ chol.T


# ---------------------------------------------------------------------------
# The combined pipeline


@dataclass
class VaeGmmModel:
    """VAE + PCA + GMM stages glued together for clustering and generation.
    Like gmvae.GmvaeModel it offers k, generate, predict and encode."""

    vae: VaeModel
    pca: PcaProjection
    gmm: GmmModel

    @property
    def k(self):
        return self.gmm.k

    @property
    def support(self):
        return self.vae.support

    @property
    def vocab(self):
        return self.vae.vocab

    def generate(self, component, n, rng):
        """Sample a GMM component, back-project through PCA, decode through
        gmvae.decode_generated as the mixture model does."""
        latents = pca_inverse(self.pca, gmm_sample(self.gmm, component, n, rng))
        return decode_generated(self.vae, latents, component)

    def predict(self, data):
        """Hard cluster per flat input vector."""
        return self.encode(data)[1]

    def encode(self, data):
        """(VAE latent means, hard clusters) per row."""
        latents = vae_encode(self.vae, data)
        return latents, gmm_predict(self.gmm, pca_project(self.pca, latents))


def fit_vae_gmm(data, vae_config, k, gmm_seed=0, vocab=None, level_types=None, sampler="uniform"):
    """Train a VAE of vae_config (train_vae), give it vocab, then fit_pca_gmm on it:
    (VaeGmmModel, the VAE's history). A k below 1, and a vocab whose 256 * size is not
    vae_config.d (gmvae.check_d), are rejected before training."""
    if k < 1:
        raise InvalidConfig(f"a mixture needs k >= 1 components, got {k}")
    check_d(vae_config, vocab)
    vae, history = train_vae(data, vae_config, level_types=level_types, sampler=sampler)
    vae.vocab = vocab
    return fit_pca_gmm(vae, data, k, gmm_seed=gmm_seed), history


def fit_pca_gmm(vae, data, k, gmm_seed=0):
    """The VaeGmmModel of a trained vae: PCA (95% variance) of its latent means of data, then a
    k-component mixture fit on the projection (gmm_fit, seeded with gmm_seed)."""
    latents = vae_encode(vae, data)
    projection = pca_fit(latents)
    gmm = gmm_fit(pca_project(projection, latents), k, rng_seed=gmm_seed)
    return VaeGmmModel(vae=vae, pca=projection, gmm=gmm)
