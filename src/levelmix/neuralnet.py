"""Dense-network numerics: affine layers with manual reverse-mode gradients,
Adam, Bernoulli cross-entropy, diagonal-Gaussian utilities, Gumbel-Softmax
sampling and finite-difference gradient checking.

Everything operates on numpy arrays whose last axis is the feature axis, so
the same code handles single vectors (dim,) and batches (batch, dim).
float64 is the default; float32 can be selected per network for speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    LengthMismatch,
    NoCache,
    NonPositiveTemperature,
    NonPositiveVariance,
    ShapeMismatch,
)

ACTIVATIONS = ("relu", "softplus", "sigmoid", "linear")

# sigmoid outputs (and BCE inputs) are clamped away from {0, 1} so log() is safe
CLAMP_EPS = 1e-7
# keeps -log(-log(u)) finite when drawing Gumbel noise
GUMBEL_EPS = 1e-12


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softplus(z):
    # floored at the dtype's smallest normal number: in float32 logaddexp(0, z)
    # is exactly 0 below z = -104, and a variance head must stay positive
    out = np.logaddexp(0.0, z)
    return np.maximum(out, np.finfo(out.dtype).tiny)


def softmax(z, axis=-1):
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def apply_activation(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "softplus":
        return _softplus(z)
    if name == "sigmoid":
        return _sigmoid(z)
    if name == "linear":
        return z
    raise ValueError(f"unknown activation {name!r}")


def activation_grad(name, z, a):
    """d(activation)/dz given pre-activation z and output a."""
    if name == "relu":
        return (z > 0.0).astype(z.dtype)
    if name == "softplus":
        return _sigmoid(z)
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "linear":
        return np.ones_like(z)
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    @property
    def in_dim(self):
        return self.weight.shape[1]

    @property
    def out_dim(self):
        return self.weight.shape[0]


class DenseNet:
    """Fully-connected feed-forward net with per-layer activations.

    Weight init follows fan-in He-style uniform for relu layers and Xavier
    uniform for the rest; biases start at zero.

    All parameters live in one contiguous buffer, `params`, and all
    gradients in a same-shaped buffer, `grads`; each layer's weight and
    bias are views into `params`, layer by layer, weight before bias.
    """

    def __init__(self, sizes, activations, rng, dtype="float64"):
        self._allocate(sizes, activations, dtype)
        for layer in self.layers:
            fan_in, fan_out = layer.in_dim, layer.out_dim
            if layer.activation == "relu":
                bound = np.sqrt(6.0 / fan_in)
            else:
                bound = np.sqrt(6.0 / (fan_in + fan_out))
            layer.weight[...] = rng.uniform(-bound, bound, size=(fan_out, fan_in))

    @classmethod
    def zeros(cls, sizes, activations, dtype="float64"):
        """A net with every parameter zero, for callers that write the
        parameters in place (the checkpoint loader decodes into the views)."""
        net = cls.__new__(cls)
        net._allocate(sizes, activations, dtype)
        return net

    def _allocate(self, sizes, activations, dtype):
        if len(sizes) < 2 or len(activations) != len(sizes) - 1:
            raise ShapeMismatch(
                f"need len(sizes) >= 2 and one activation per layer, "
                f"got sizes={sizes} activations={activations}"
            )
        for act in activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        self.dtype = np.dtype(dtype)
        total = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
        self.params = np.zeros(total, dtype=self.dtype)
        # zero pages are only touched by the first backward
        self.grads = np.zeros(total, dtype=self.dtype)
        self.layers = []
        self._grad_views = []
        offset = 0
        for fan_in, fan_out, act in zip(sizes[:-1], sizes[1:], activations):
            w_end = offset + fan_out * fan_in
            b_end = w_end + fan_out
            self.layers.append(
                Layer(self.params[offset:w_end].reshape(fan_out, fan_in), self.params[w_end:b_end], act)
            )
            self._grad_views.append((self.grads[offset:w_end].reshape(fan_out, fan_in), self.grads[w_end:b_end]))
            offset = b_end

    @property
    def in_dim(self):
        return self.layers[0].in_dim

    @property
    def out_dim(self):
        return self.layers[-1].out_dim

    def forward(self, x):
        out, _ = self.forward_cached(x, keep_cache=False)
        return out

    def forward_cached(self, x, keep_cache=True):
        x = np.asarray(x, dtype=self.dtype)
        if x.shape[-1] != self.in_dim:
            raise DimensionMismatch(
                f"input has {x.shape[-1]} features, net expects {self.in_dim}"
            )
        cache = [] if keep_cache else None
        a = x
        for layer in self.layers:
            z = a @ layer.weight.T + layer.bias
            a_next = apply_activation(layer.activation, z)
            if keep_cache:
                cache.append((a, z, a_next))
            a = a_next
        return a, cache

    def backward(self, cache, grad_out, input_grad=True):
        """Gradients of a scalar loss given d(loss)/d(output).

        Returns ([(dW, db) per layer], d(loss)/d(input)). The (dW, db) are
        views of this net's gradient buffer: they stay valid until this
        net's next backward, which overwrites them. With input_grad=False
        the first layer's input gradient is not computed and None is
        returned in its place.
        """
        if cache is None or len(cache) != len(self.layers):
            raise NoCache("forward cache missing or stale")
        g = np.asarray(grad_out, dtype=self.dtype)
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            dw, db = self._grad_views[i]
            a_in, z, a_out = cache[i]
            gz = g * activation_grad(layer.activation, z, a_out)
            if gz.ndim == 1:
                np.outer(gz, a_in, out=dw)
                db[...] = gz
            else:
                np.matmul(gz.T, a_in, out=dw)
                gz.sum(axis=0, out=db)
            g = gz @ layer.weight if i or input_grad else None
        return list(self._grad_views), g

    def param_arrays(self):
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out


# Adam updates this many elements at a time, so one block of p, g, m, v and
# the scratch (1.8 MB in float64) stays in a core's L2 cache. On a 2-vCPU
# Xeon with 2 MB of L2 per core, a 2.1M-parameter float64 update took
# 18-19 ms with 16k-64k blocks, 23-26 ms with 4k and 21-25 ms with 128k.
ADAM_BLOCK = 1 << 15


class AdamState:
    """Bias-corrected Adam over a DenseNet's parameters, updated in place
    over the net's flat parameter and gradient buffers."""

    def __init__(self, net, learning_rate=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)
        block = min(net.params.size, ADAM_BLOCK)
        self._scaled_grad = np.empty(block, dtype=net.dtype)
        self._denom = np.empty(block, dtype=net.dtype)
        # lr_t below is an np.float64, so the step itself is float64 in every
        # dtype, as in the per-array expression
        self._update = np.empty(block, dtype=np.float64)

    def step(self, net, grads):
        """One update in place. `grads` is the list returned by backward(),
        or any list of (dW, db) arrays of the parameters' shapes."""
        flat_grads = [g for dw, db in grads for g in (dw, db)]
        own_grads = [g for dw, db in net._grad_views for g in (dw, db)]
        if len(flat_grads) != len(own_grads):
            raise ShapeMismatch("gradient list does not match parameter list")
        if net.params.shape != self.m.shape:
            raise ShapeMismatch(f"optimizer holds {self.m.size} parameters, net has {net.params.size}")
        for g, own in zip(flat_grads, own_grads):
            if g.shape != own.shape:
                raise ShapeMismatch(f"param {own.shape} vs grad {g.shape}")
        for g, own in zip(flat_grads, own_grads):
            if g is not own:
                own[...] = g
        self.step_count += 1
        t = self.step_count
        lr_t = self.learning_rate * np.sqrt(1.0 - self.beta2**t) / (1.0 - self.beta1**t)
        # the per-array update m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
        # p -= lr_t m / (sqrt(v) + eps), op for op and dtype for dtype, so
        # results are bit-identical to it
        b1, b2, c1, c2, eps = self.beta1, self.beta2, 1.0 - self.beta1, 1.0 - self.beta2, self.epsilon
        p, g, m, v = net.params, net.grads, self.m, self.v
        block = self._update.size
        for start in range(0, p.size, block):
            end = min(start + block, p.size)
            n = end - start
            gb, mb, vb = g[start:end], m[start:end], v[start:end]
            s, d, u = self._scaled_grad[:n], self._denom[:n], self._update[:n]
            mb *= b1
            np.multiply(gb, c1, out=s)
            mb += s
            vb *= b2
            np.multiply(gb, c2, out=s)
            s *= gb
            vb += s
            np.multiply(mb, lr_t, out=u)
            np.sqrt(vb, out=d)
            d += eps
            u /= d
            p[start:end] -= u


@dataclass
class DiagGaussian:
    """Diagonal Gaussian given by per-dimension means and variances."""

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        self.variances = np.asarray(self.variances, dtype=float)
        if self.means.shape != self.variances.shape:
            raise ShapeMismatch("means and variances differ in shape")
        if np.any(self.variances <= 0.0):
            raise NonPositiveVariance("variances must be strictly positive")


def bce_loss(output, target, with_grad=False):
    """Summed Bernoulli cross-entropy over the last axis.

    Outputs are clamped to [1e-7, 1 - 1e-7] before the logs; the gradient is
    zero where the clamp is active (exact derivative of the clamped loss).
    """
    output = np.asarray(output, dtype=float)
    target = np.asarray(target, dtype=float)
    if output.shape != target.shape:
        raise LengthMismatch(f"output {output.shape} vs target {target.shape}")
    clamped = np.clip(output, CLAMP_EPS, 1.0 - CLAMP_EPS)
    loss = -np.sum(target * np.log(clamped) + (1.0 - target) * np.log(1.0 - clamped), axis=-1)
    if not with_grad:
        return loss
    inside = (output > CLAMP_EPS) & (output < 1.0 - CLAMP_EPS)
    grad = np.where(inside, (clamped - target) / (clamped * (1.0 - clamped)), 0.0)
    return loss, grad


def kl_diag(mu_q, var_q, mu_p, var_p, with_grad=False):
    """KL(q || p) between diagonal Gaussians, summed over the last axis.

    Per dimension: ln(sigma_p/sigma_q) + (var_q + (mu_q - mu_p)^2) / (2 var_p) - 1/2.
    With `with_grad` also returns (d/dmu_q, d/dvar_q, d/dmu_p, d/dvar_p).
    """
    mu_q = np.asarray(mu_q, dtype=float)
    var_q = np.asarray(var_q, dtype=float)
    mu_p = np.asarray(mu_p, dtype=float)
    var_p = np.asarray(var_p, dtype=float)
    if np.any(var_q <= 0.0) or np.any(var_p <= 0.0):
        raise NonPositiveVariance("variances must be strictly positive")
    diff = mu_q - mu_p
    kl = np.sum(
        0.5 * np.log(var_p / var_q) + (var_q + diff * diff) / (2.0 * var_p) - 0.5,
        axis=-1,
    )
    if not with_grad:
        return kl
    d_mu_q = diff / var_p
    d_var_q = -0.5 / var_q + 0.5 / var_p
    d_mu_p = -diff / var_p
    d_var_p = 0.5 / var_p - (var_q + diff * diff) / (2.0 * var_p * var_p)
    return kl, (d_mu_q, d_var_q, d_mu_p, d_var_p)


def reparam_sample(mu, var, rng, eps=None):
    """z = mu + sqrt(var) * eps with eps ~ N(0, I).

    Returns (z, eps); gradients are dz/dmu = 1 and dz/dvar = eps / (2 sqrt(var)).
    """
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    if np.any(var < 0.0):
        raise NonPositiveVariance("variances must be non-negative")
    if eps is None:
        eps = rng.standard_normal(mu.shape)
    return mu + np.sqrt(var) * eps, eps


def reparam_grad_var(var, eps):
    """dz/dvar for the reparameterized sample (zero-variance limit handled)."""
    sd = np.sqrt(np.asarray(var, dtype=float))
    return np.where(sd > 0.0, eps / np.maximum(2.0 * sd, 1e-300), 0.0)


def sample_gumbel(shape, rng):
    u = np.clip(rng.random(shape), GUMBEL_EPS, 1.0 - GUMBEL_EPS)
    return -np.log(-np.log(u))


def gumbel_softmax(logits, temperature, rng, hard=False, noise=None):
    """Sample from the Gumbel-Softmax relaxation of Categorical(softmax(logits)).

    Soft mode returns y = softmax((logits + g) / tau). Hard mode returns the
    one-hot argmax of y; callers keep gradients flowing through the soft y
    (straight through), see gumbel_softmax_backward.
    Returns (sample, soft_y, noise).
    """
    if temperature <= 0.0:
        raise NonPositiveTemperature(f"temperature must be > 0, got {temperature}")
    logits = np.asarray(logits, dtype=float)
    if noise is None:
        noise = sample_gumbel(logits.shape, rng)
    y = softmax((logits + noise) / temperature, axis=-1)
    if not hard:
        return y, y, noise
    idx = np.argmax(y, axis=-1)
    one_hot = np.zeros_like(y)
    np.put_along_axis(one_hot, np.expand_dims(idx, -1), 1.0, axis=-1)
    return one_hot, y, noise


def gumbel_softmax_backward(soft_y, temperature, grad_out):
    """d(loss)/d(logits) through the soft sample (also the straight-through path).

    Softmax Jacobian applied to grad_out, scaled by 1/tau.
    """
    dot = np.sum(grad_out * soft_y, axis=-1, keepdims=True)
    return soft_y * (grad_out - dot) / temperature


def finite_difference_gradient(f, x, h=1e-5):
    """Central-difference gradient of scalar f at x (same shape as x)."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric, floor=1e-8):
    """max |a - n| / max(|a|, |n|, floor) over all entries."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))
