"""Dense-network numerics: affine layers with manual reverse-mode gradients,
Adam, Bernoulli cross-entropy, diagonal-Gaussian utilities, Gumbel-Softmax
sampling and finite-difference gradient checking.

A network reads a 2-D batch (batch, dim), one example per row, and its
parameter gradients are sums over the batch's rows. float64 is the
default; float32 can be selected per network for speed. The loss terms,
the Gumbel-Softmax and Adam compute in the dtype of their floating inputs
(or parameters), so a float32 network trains in float32.
"""

from __future__ import annotations

import functools
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


def _activate(name, z, out):
    """Write the activation of z into out and return out; out may be z
    itself. The one body of each activation: the forward pass runs it in
    place and apply_activation below runs it into a new buffer, with the
    same ufuncs in the same order and dtype, so both give the same bytes."""
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    if name == "softplus":
        # floored at the dtype's smallest normal number: in float32
        # logaddexp(0, z) is exactly 0 below z = -104, and a variance head
        # must stay positive
        np.logaddexp(0.0, z, out=out)
        return np.maximum(out, np.finfo(out.dtype).tiny, out=out)
    if name == "sigmoid":
        # e = exp(-|z|) never overflows (min(z, -z) is -|z| that keeps a
        # NaN's sign), and max(e, z >= 0) is 1 where z >= 0 and e below, so
        # this is 1 / (1 + exp(-z)) and exp(z) / (1 + exp(z)) bit for bit,
        # with no boolean gathers
        positive = z >= 0
        e = np.negative(z)
        np.minimum(z, e, out=e)
        np.exp(e, out=e)
        np.maximum(e, positive, out=out)
        e += 1.0
        return np.divide(out, e, out=out)
    if name == "linear":
        if out is not z:
            out[...] = z
        return out
    raise ValueError(f"unknown activation {name!r}")


def softmax(z, axis=-1):
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _floating(x):
    """x as an array of its own floating dtype; any other input as float64."""
    x = np.asarray(x)
    return x if np.issubdtype(x.dtype, np.floating) else x.astype(np.float64)


def positive_floor(dtype):
    """A tiny positive floor for logs and divisors: 1e-300, or the dtype's
    smallest normal number where 1e-300 rounds to zero (float32)."""
    return max(1e-300, float(np.finfo(dtype).tiny))


def apply_activation(name, z):
    """The activation of z in a new array of z's floating dtype."""
    z = _floating(z)
    return _activate(name, z, np.empty_like(z))


def activation_grad(name, z, a):
    """d(activation)/dz given output a; only softplus reads the
    pre-activation z (the others take None). relu's mask comes from the
    output: a = max(z, 0) is > 0 exactly where z is, NaN and -0.0 included."""
    if name == "relu":
        return (a > 0.0).astype(a.dtype)
    if name == "softplus":
        return apply_activation("sigmoid", z)
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "linear":
        return np.ones_like(a)
    raise ValueError(f"unknown activation {name!r}")


def param_count(sizes):
    """The parameters of a DenseNet of the given layer sizes: each layer's
    (out, in) weight and its out biases."""
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


def _layer_views(buffer, shapes):
    """One (weight, bias) pair of views of the flat buffer per (out, in)
    weight shape: layer by layer, the row-major weight, then its out biases."""
    views, offset = [], 0
    for fan_out, fan_in in shapes:
        w_end = offset + fan_out * fan_in
        b_end = w_end + fan_out
        views.append((buffer[offset:w_end].reshape(fan_out, fan_in), buffer[w_end:b_end]))
        offset = b_end
    return views


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
    `grads` is made on first use (the first backward, Adam step or read),
    so a net that only evaluates holds its parameters alone.

    An inference forward over integer input (the uint8 one-hot corpus)
    reads only the columns its rows set, so no pass over the corpus makes
    an (n, d) float copy of it.
    """

    def __init__(self, sizes, activations, rng, dtype="float64"):
        """With rng None every parameter stays zero, for callers that write
        the parameters in place (the checkpoint loader reads into params)."""
        if len(sizes) < 2 or len(activations) != len(sizes) - 1:
            raise ShapeMismatch(
                f"need len(sizes) >= 2 and one activation per layer, "
                f"got sizes={sizes} activations={activations}"
            )
        for act in activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        self.dtype = np.dtype(dtype)
        self.params = np.zeros(param_count(sizes), dtype=self.dtype)
        views = _layer_views(self.params, zip(sizes[1:], sizes[:-1]))
        self.layers = [Layer(weight, bias, act) for (weight, bias), act in zip(views, activations)]
        if rng is None:
            return
        for layer in self.layers:
            fan_in, fan_out = layer.in_dim, layer.out_dim
            if layer.activation == "relu":
                bound = np.sqrt(6.0 / fan_in)
            else:
                bound = np.sqrt(6.0 / (fan_in + fan_out))
            layer.weight[...] = rng.uniform(-bound, bound, size=(fan_out, fan_in))

    @functools.cached_property
    def grads(self):
        """The gradient buffer, laid out as params, made on first use. Made
        with the net, it would cost an evaluating process its pages: once a
        freed model's memory is reused, calloc zeroes, and so makes
        resident, a buffer no forward reads. np.zeros takes zeroed pages,
        which a backward touches first."""
        return np.zeros(self.params.size, dtype=self.dtype)

    @functools.cached_property
    def _grad_views(self):
        """Each layer's (weight, bias) gradient views into grads."""
        return _layer_views(self.grads, [layer.weight.shape for layer in self.layers])

    def keep(self, inputs=None, outputs=None):
        """A new net that reads only the given columns of this net's input
        and writes only the given columns of its output (all of them where
        None): its first layer holds the kept inputs' weights, its last
        layer the kept outputs' weights and biases, and its other
        parameters are copies of this net's."""
        inputs = np.arange(self.layers[0].in_dim) if inputs is None else inputs
        outputs = np.arange(self.layers[-1].out_dim) if outputs is None else outputs
        last = len(self.layers) - 1
        sizes = [len(inputs)] + [layer.out_dim for layer in self.layers[:-1]] + [len(outputs)]
        net = DenseNet(sizes, [layer.activation for layer in self.layers], None, self.dtype)
        for i, (old, new) in enumerate(zip(self.layers, net.layers)):
            rows = outputs if i == last else slice(None)
            new.weight[...] = old.weight[rows][:, inputs if i == 0 else slice(None)]
            new.bias[...] = old.bias[rows]
        return net

    def forward(self, x):
        out, _ = self.forward_cached(x, keep_cache=False)
        return out

    def forward_cached(self, x, keep_cache=True, pre_activation=False):
        """(output, cache). The cache holds one (input, z, output) per layer
        for backward, with the pre-activation z kept only by softplus
        layers (None elsewhere); with keep_cache=False it is None. Each
        layer's bias and activation run in place on its whole GEMM output.

        For integer input without a cache (the uint8 one-hot corpus), the
        first layer reads only the columns some row sets: only those are
        cast to the net's dtype, and they are multiplied by the matching
        first-layer weight columns; an unset column adds 0 to every sum.
        The one GEMM sums fewer terms than over the whole row, so its
        output can differ from a float copy's in the last bits. Any other
        input is cast whole (a one-hot batch's 0 and 1 exactly).

        With pre_activation=True the last layer stops at z = a @ W.T + b,
        without its activation, and no cache is kept: an increasing
        activation such as the sigmoid keeps each row's argmax, so a caller
        that needs only the argmax skips it."""
        if keep_cache and pre_activation:
            raise ValueError("a forward that stops before the last activation keeps no cache")
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.layers[0].in_dim:
            raise DimensionMismatch(
                f"input has shape {x.shape}, net expects (n, {self.layers[0].in_dim})"
            )
        columns, w0 = None, self.layers[0].weight
        if not keep_cache and x.dtype.kind in "biu":
            columns = np.flatnonzero(x.any(axis=0))
            w0 = w0[:, columns]
        # the gathered integer columns are freed once cast
        a = np.asarray(x if columns is None else np.take(x, columns, axis=1), dtype=self.dtype)
        cache = [] if keep_cache else None
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            # a @ W.T + b and the activation, computed in the buffer the
            # matmul returns; a softplus layer that trains writes its output
            # beside z, as its gradient is sigmoid(z)
            z = a @ (w0 if i == 0 else layer.weight).T
            z += layer.bias
            activation = "linear" if pre_activation and i == last else layer.activation
            keep_z = keep_cache and activation == "softplus"
            a_next = _activate(activation, z, np.empty_like(z) if keep_z else z)
            if keep_cache:
                cache.append((a, z if keep_z else None, a_next))
            a = a_next
        return a, cache

    def backward(self, cache, grad_out, input_tail=None):
        """Write the parameter gradients of a scalar loss, given
        d(loss)/d(output), into this net's gradient buffer `grads`, and
        return d(loss)/d(input). With input_tail=n only the last n columns
        of the input gradient are computed, and with input_tail=0 none, with
        None returned.
        """
        if cache is None or len(cache) != len(self.layers):
            raise NoCache("forward cache missing or stale")
        g = np.asarray(grad_out, dtype=self.dtype)
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            dw, db = self._grad_views[i]
            a_in, z, a_out = cache[i]
            gz = g * activation_grad(layer.activation, z, a_out)
            np.matmul(gz.T, a_in, out=dw)
            gz.sum(axis=0, out=db)
            if i or input_tail is None:
                g = gz @ layer.weight
            else:
                g = gz @ layer.weight[:, -input_tail:] if input_tail else None
        return g

    def param_arrays(self):
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out


# Adam updates this many elements at a time, so one block of p, g, m, v and
# the two scratch blocks (1.5 MB in float64) stays in a core's L2 cache. On
# a 2-vCPU Xeon with 2 MB of L2 per core, a 2.1M-parameter float64 update
# took 18-19 ms with 16k-64k blocks, 23-26 ms with 4k and 21-25 ms with 128k.
ADAM_BLOCK = 1 << 15
# every this many steps Adam zeroes each v that one more gradient-free step
# than that could carry below the smallest normal, and each m whose update
# lr_t m it could: a subnormal moment stays (0.9 or 0.999 times a few ulps
# rounds back) and slows every step, and a subnormal update each step it is in
ADAM_FLUSH_EVERY = 64
# Adam's moment decay rates and the floor added to the root of the second
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


class AdamState:
    """Bias-corrected Adam over a DenseNet's parameters: each step reads
    the net's gradient buffer `grads` and updates its parameter buffer
    `params` in place; every ADAM_FLUSH_EVERY steps it zeroes near-subnormal moments."""

    def __init__(self, net, learning_rate=0.001):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)
        block = min(net.params.size, ADAM_BLOCK)
        # the scaled gradient, then, once v holds it, sqrt(v) + eps
        self._scratch = np.empty(block, dtype=net.dtype)
        self._update = np.empty(block, dtype=net.dtype)

    def step(self, net):
        """One update in place, from the gradients the net's last backward
        wrote into net.grads."""
        if net.params.shape != self.m.shape:
            raise ShapeMismatch(f"optimizer holds {self.m.size} parameters, net has {net.params.size}")
        self.step_count += 1
        t = self.step_count
        # a scalar of the net's dtype, so a float32 update runs in float32
        lr_t = net.dtype.type(self.learning_rate * np.sqrt(1.0 - ADAM_BETA2**t) / (1.0 - ADAM_BETA1**t))
        # the per-array update m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
        # p -= lr_t m / (sqrt(v) + eps), op for op and dtype for dtype, so
        # results are bit-identical to it, flushes aside
        b1, b2, c1, c2, eps = ADAM_BETA1, ADAM_BETA2, 1.0 - ADAM_BETA1, 1.0 - ADAM_BETA2, ADAM_EPSILON
        p, g, m, v = net.params, net.grads, self.m, self.v
        tiny, flush = np.finfo(net.dtype).tiny, (t - 1) % ADAM_FLUSH_EVERY == 0
        # lr sqrt(1 - b2) is at most lr_t at every step, so an m above its
        # floor keeps lr_t m normal until the next flush
        m_floor = tiny / (min(1.0, self.learning_rate * c2**0.5) * b1 ** (ADAM_FLUSH_EVERY + 1))
        block = self._update.size
        for start in range(0, p.size, block):
            end = min(start + block, p.size)
            n = end - start
            gb, mb, vb = g[start:end], m[start:end], v[start:end]
            s, u = self._scratch[:n], self._update[:n]
            if flush:
                # times 1.0 where a moment reaches its floor, else times 0.0
                mb *= np.greater_equal(np.abs(mb, out=s), m_floor, out=s)
                vb *= np.greater_equal(vb, tiny / b2 ** (ADAM_FLUSH_EVERY + 1), out=s)
            mb *= b1
            np.multiply(gb, c1, out=s)
            mb += s
            vb *= b2
            np.multiply(gb, c2, out=s)
            s *= gb
            vb += s
            np.multiply(mb, lr_t, out=u)
            np.sqrt(vb, out=s)
            s += eps
            u /= s
            p[start:end] -= u


def bce_loss(output, target, with_grad=False):
    """Summed Bernoulli cross-entropy over the last axis.

    Outputs are clamped to [1e-7, 1 - 1e-7] before the logs; the gradient is
    zero where the clamp is active (exact derivative of the clamped loss).
    Computed in the output's floating dtype.
    """
    output = _floating(output)
    target = np.asarray(target, dtype=output.dtype)
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
    Computed in mu_q's floating dtype.
    """
    mu_q = _floating(mu_q)
    var_q = np.asarray(var_q, dtype=mu_q.dtype)
    mu_p = np.asarray(mu_p, dtype=mu_q.dtype)
    var_p = np.asarray(var_p, dtype=mu_q.dtype)
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
    Computed in mu's floating dtype, to which var and eps are cast; eps is
    drawn in float64 when not given, so both dtypes read the same stream.
    """
    mu = _floating(mu)
    var = np.asarray(var, dtype=mu.dtype)
    if np.any(var < 0.0):
        raise NonPositiveVariance("variances must be non-negative")
    if eps is None:
        eps = rng.standard_normal(mu.shape)
    eps = np.asarray(eps, dtype=mu.dtype)
    return mu + np.sqrt(var) * eps, eps


def reparam_grad_var(var, eps):
    """dz/dvar for the reparameterized sample (zero-variance limit handled),
    in var's floating dtype."""
    sd = np.sqrt(_floating(var))
    eps = np.asarray(eps, dtype=sd.dtype)
    return np.where(sd > 0.0, eps / np.maximum(2.0 * sd, positive_floor(sd.dtype)), 0.0)


def sample_gumbel(shape, rng):
    """float64 Gumbel noise; clipped in float64, where 1 - GUMBEL_EPS < 1."""
    u = np.clip(rng.random(shape), GUMBEL_EPS, 1.0 - GUMBEL_EPS)
    return -np.log(-np.log(u))


def gumbel_softmax(logits, temperature, noise, hard=False):
    """Sample from the Gumbel-Softmax relaxation of Categorical(softmax(logits)),
    given Gumbel noise of the logits' shape (see sample_gumbel).

    Soft mode returns y = softmax((logits + noise) / tau). Hard mode returns
    the one-hot argmax of y; callers keep gradients flowing through the soft
    y (straight through), see gumbel_softmax_backward.
    Computed in the logits' floating dtype, to which the noise is cast.
    Returns (sample, soft_y).
    """
    if temperature <= 0.0:
        raise NonPositiveTemperature(f"temperature must be > 0, got {temperature}")
    logits = _floating(logits)
    noise = np.asarray(noise, dtype=logits.dtype)
    y = softmax((logits + noise) / temperature, axis=-1)
    if not hard:
        return y, y
    idx = np.argmax(y, axis=-1)
    one_hot = np.zeros_like(y)
    np.put_along_axis(one_hot, np.expand_dims(idx, -1), 1.0, axis=-1)
    return one_hot, y


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
