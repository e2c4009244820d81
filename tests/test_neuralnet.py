import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levelmix import neuralnet as nn
from levelmix.errors import (
    DimensionMismatch,
    LengthMismatch,
    NoCache,
    NonPositiveTemperature,
    NonPositiveVariance,
    ShapeMismatch,
)


def make_net(sizes, activations, seed=0):
    return nn.DenseNet(sizes, activations, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# forward


def test_identity_linear_layer():
    net = make_net([3, 3], ["linear"])
    net.layers[0].weight[...] = np.eye(3)
    net.layers[0].bias[...] = 0.0
    x = np.array([1.5, -2.0, 0.25])
    assert np.allclose(net.forward(x), x)


def test_activation_values():
    assert np.allclose(nn.apply_activation("relu", np.array([-1.0, 2.0])), [0.0, 2.0])
    assert math.isclose(nn.apply_activation("softplus", np.array([0.0]))[0], math.log(2.0))
    assert math.isclose(nn.apply_activation("sigmoid", np.array([0.0]))[0], 0.5)


def test_forward_matches_hand_matrix_products():
    # independent oracle: explicit matrix algebra on the same parameters
    net = make_net([4, 5, 3], ["relu", "sigmoid"], seed=9)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((7, 4))
    w0, b0 = net.layers[0].weight, net.layers[0].bias
    w1, b1 = net.layers[1].weight, net.layers[1].bias
    h = np.maximum(x @ w0.T + b0, 0.0)
    expected = 1.0 / (1.0 + np.exp(-(h @ w1.T + b1)))
    assert np.allclose(net.forward(x), expected, atol=1e-12)


def test_forward_dimension_mismatch():
    net = make_net([4, 2], ["linear"])
    with pytest.raises(DimensionMismatch):
        net.forward(np.zeros(5))


def test_softplus_large_inputs_stable():
    out = nn.apply_activation("softplus", np.array([-800.0, 800.0]))
    assert out[0] == np.finfo(np.float64).tiny and math.isclose(out[1], 800.0)
    sig = nn.apply_activation("sigmoid", np.array([-800.0, 800.0]))
    assert 0.0 <= sig[0] and sig[1] <= 1.0


def test_float32_variance_head_stays_positive_far_below_softplus_underflow():
    # in float32, logaddexp(0, z) is exactly 0 below z = -104
    head = nn.DenseNet([4, 3], ["softplus"], np.random.default_rng(0), "float32")
    head.layers[0].weight[...] = 0.0
    head.layers[0].bias[...] = -120.0
    var = head.forward(np.ones((2, 4), dtype=np.float32))
    assert var.dtype == np.float32 and np.all(var > 0.0)
    kl = nn.kl_diag(np.zeros_like(var), var, np.zeros_like(var), np.ones_like(var))
    assert np.all(np.isfinite(kl))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_softplus_floor_leaves_normal_range_bit_identical(dtype):
    z = np.linspace(-80.0, 80.0, 200_001, dtype=dtype)
    assert np.array_equal(nn._softplus(z), np.logaddexp(0.0, z))


# ---------------------------------------------------------------------------
# backward


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_backward_without_input_grad_gives_identical_parameter_gradients(dtype):
    net = nn.DenseNet([6, 5, 4, 3], ["relu", "softplus", "linear"], np.random.default_rng(5), dtype)
    rng = np.random.default_rng(6)
    _, cache = net.forward_cached(rng.standard_normal((7, 6)))
    upstream = rng.standard_normal((7, 3))
    grads, grad_in = net.backward(cache, upstream)
    expected = [(dw.copy(), db.copy()) for dw, db in grads]
    assert grad_in.shape == (7, 6)
    grads, grad_in = net.backward(cache, upstream, input_grad=False)
    assert grad_in is None
    for (dw, db), (ew, eb) in zip(grads, expected):
        assert np.array_equal(dw, ew) and np.array_equal(db, eb)


def test_linear_weight_gradient_is_outer_product():
    net = make_net([3, 2], ["linear"], seed=4)
    x = np.array([1.0, -2.0, 0.5])
    upstream = np.array([0.3, -0.7])
    _, cache = net.forward_cached(x)
    grads, _ = net.backward(cache, upstream)
    assert np.allclose(grads[0][0], np.outer(upstream, x))
    assert np.allclose(grads[0][1], upstream)


def test_zero_upstream_zero_gradients():
    net = make_net([3, 4, 2], ["relu", "sigmoid"], seed=2)
    _, cache = net.forward_cached(np.ones(3))
    grads, gin = net.backward(cache, np.zeros(2))
    assert all(np.all(dw == 0) and np.all(db == 0) for dw, db in grads)
    assert np.all(gin == 0)


def test_backward_requires_cache():
    net = make_net([2, 2], ["linear"])
    with pytest.raises(NoCache):
        net.backward(None, np.zeros(2))


@pytest.mark.parametrize("activations", [["relu", "linear"], ["softplus", "sigmoid"], ["relu", "softplus", "linear"]])
def test_backward_matches_finite_differences(activations):
    sizes = [5] + [8] * (len(activations) - 1) + [4]
    net = make_net(sizes, activations, seed=11)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(5)
    target = rng.standard_normal(4)

    def loss(_=None):
        return float(np.sum((net.forward(x) - target) ** 2))

    out, cache = net.forward_cached(x)
    grads, grad_in = net.backward(cache, 2.0 * (out - target))
    for li, layer in enumerate(net.layers):
        for arr, analytic in ((layer.weight, grads[li][0]), (layer.bias, grads[li][1])):
            numeric = nn.finite_difference_gradient(loss, arr, h=1e-5)
            assert nn.max_relative_error(analytic, numeric, floor=1e-6) < 1e-4

    def loss_x(xv):
        return float(np.sum((net.forward(xv) - target) ** 2))

    numeric_in = nn.finite_difference_gradient(loss_x, x.copy(), h=1e-5)
    assert nn.max_relative_error(grad_in, numeric_in, floor=1e-6) < 1e-4


# ---------------------------------------------------------------------------
# adam


def test_adam_first_step_is_signed_lr():
    net = make_net([2, 2], ["linear"], seed=0)
    before = net.layers[0].weight.copy()
    opt = nn.AdamState(net, learning_rate=0.01)
    g = np.array([[0.5, -3.0], [0.0, 1e-4]])
    opt.step(net, [(g, np.zeros(2))])
    delta = net.layers[0].weight - before
    # bias-corrected first step is -lr * g / (|g| + eps'), i.e. ~ -lr * sign(g)
    expected = -0.01 * np.sign(g)
    nonzero = g != 0
    assert np.allclose(delta[nonzero], expected[nonzero], rtol=5e-3, atol=0.0)
    assert delta[1, 0] == 0.0


def test_adam_zero_gradient_no_change():
    net = make_net([3, 3], ["linear"], seed=1)
    before = [p.copy() for p in net.param_arrays()]
    opt = nn.AdamState(net)
    opt.step(net, [(np.zeros((3, 3)), np.zeros(3))])
    for a, b in zip(net.param_arrays(), before):
        assert np.array_equal(a, b)


def test_adam_quadratic_convergence_matches_scalar_recurrence():
    # independent oracle: run the textbook scalar recurrence by hand
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    w_ref, m, v = 1.0, 0.0, 0.0
    for t in range(1, 201):
        g = 2.0 * w_ref
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        w_ref -= lr * mhat / (math.sqrt(vhat) + eps)
    assert abs(w_ref) < 0.05

    net = make_net([1, 1], ["linear"], seed=0)
    net.layers[0].weight[...] = 1.0
    net.layers[0].bias[...] = 0.0
    opt = nn.AdamState(net, learning_rate=lr)
    for _ in range(200):
        w = net.layers[0].weight[0, 0]
        opt.step(net, [(np.array([[2.0 * w]]), np.zeros(1))])
    # mathematically identical recurrences up to float noise, but the oracle
    # uses its own arithmetic path
    assert abs(net.layers[0].weight[0, 0] - w_ref) < 1e-8
    assert abs(net.layers[0].weight[0, 0]) < 0.05


def test_adam_shape_mismatch():
    net = make_net([2, 2], ["linear"])
    opt = nn.AdamState(net)
    with pytest.raises(ShapeMismatch):
        opt.step(net, [(np.zeros((3, 3)), np.zeros(2))])


def test_adam_rejects_another_nets_parameters():
    opt = nn.AdamState(make_net([2, 2], ["linear"]))
    other = make_net([3, 3], ["linear"])
    with pytest.raises(ShapeMismatch, match="optimizer holds 6 parameters, net has 12"):
        opt.step(other, [(np.zeros((3, 3)), np.zeros(3))])


def per_array_adam(params, grads, m, v, t, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """The textbook update, one expression per parameter array."""
    lr_t = lr * np.sqrt(1.0 - b2**t) / (1.0 - b1**t)
    for p, g, mp, vp in zip(params, grads, m, v):
        mp *= b1
        mp += (1.0 - b1) * g
        vp *= b2
        vp += (1.0 - b2) * g * g
        p -= lr_t * mp / (np.sqrt(vp) + eps)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("source", ["backward", "hand-built"])
def test_blocked_adam_bit_identical_to_per_array_update(dtype, source):
    # 3 blocks, the last one partial
    net = nn.DenseNet([300, 256, 50], ["relu", "sigmoid"], np.random.default_rng(5), dtype)
    assert 2 * nn.ADAM_BLOCK < net.params.size < 3 * nn.ADAM_BLOCK
    ref_params = [p.copy() for p in net.param_arrays()]
    ref_m = [np.zeros_like(p) for p in ref_params]
    ref_v = [np.zeros_like(p) for p in ref_params]
    opt = nn.AdamState(net)
    rng = np.random.default_rng(6)
    for t in range(1, 4):
        if source == "backward":
            out, cache = net.forward_cached(rng.standard_normal((8, 300)))
            grads, _ = net.backward(cache, rng.standard_normal(out.shape))
            for dw, db in grads:
                assert np.shares_memory(dw, net.grads) and np.shares_memory(db, net.grads)
        else:
            grads = [
                (rng.standard_normal(layer.weight.shape).astype(dtype), rng.standard_normal(layer.bias.shape).astype(dtype))
                for layer in net.layers
            ]
        flat = [g.copy() for pair in grads for g in pair]
        opt.step(net, grads)
        per_array_adam(ref_params, flat, ref_m, ref_v, t)
        for p, ref in zip(net.param_arrays(), ref_params):
            assert p.dtype == np.dtype(dtype) and np.array_equal(p, ref)
    assert np.array_equal(opt.m, np.concatenate([a.ravel() for a in ref_m]))
    assert np.array_equal(opt.v, np.concatenate([a.ravel() for a in ref_v]))


def test_parameters_and_gradients_are_views_of_flat_buffers():
    net = make_net([4, 5, 3], ["relu", "linear"], seed=2)
    assert net.params.flags.owndata and net.grads.flags.owndata
    assert sum(p.size for p in net.param_arrays()) == net.params.size == net.grads.size
    for p in net.param_arrays():
        assert np.shares_memory(p, net.params)
    _, cache = net.forward_cached(np.ones((2, 4)))
    grads, _ = net.backward(cache, np.ones((2, 3)))
    assert np.array_equal(np.concatenate([g.ravel() for pair in grads for g in pair]), net.grads)


# ---------------------------------------------------------------------------
# bce


def test_bce_perfect_prediction_near_zero():
    t = np.array([1.0, 0.0, 1.0])
    o = np.array([1.0 - 1e-7, 1e-7, 1.0 - 1e-7])
    assert nn.bce_loss(o, t) < 1e-5


def test_bce_uniform_half_is_d_ln2():
    d = 37
    t = (np.arange(d) % 2).astype(float)
    o = np.full(d, 0.5)
    assert math.isclose(nn.bce_loss(o, t), d * math.log(2.0), rel_tol=1e-12)


def test_bce_matches_scalar_loop_oracle():
    rng = np.random.default_rng(8)
    o = rng.uniform(0.01, 0.99, size=50)
    t = rng.uniform(0.0, 1.0, size=50)
    expected = 0.0
    for oi, ti in zip(o, t):
        expected += -(ti * math.log(oi) + (1.0 - ti) * math.log(1.0 - oi))
    loss, grad = nn.bce_loss(o, t, with_grad=True)
    assert math.isclose(loss, expected, rel_tol=1e-12)

    def f(ov):
        return float(nn.bce_loss(ov, t))

    numeric = nn.finite_difference_gradient(f, o.copy(), h=1e-6)
    assert nn.max_relative_error(grad, numeric, floor=1e-6) < 1e-4


def test_bce_length_mismatch():
    with pytest.raises(LengthMismatch):
        nn.bce_loss(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# kl_diag


def test_kl_zero_when_equal():
    mu = np.linspace(-1, 1, 64)
    var = np.linspace(0.5, 2.0, 64)
    assert math.isclose(nn.kl_diag(mu, var, mu, var), 0.0, abs_tol=1e-12)


def test_kl_unit_shift_half_per_dimension():
    d = 64
    kl = nn.kl_diag(np.ones(d), np.ones(d), np.zeros(d), np.ones(d))
    assert math.isclose(kl, 0.5 * d, rel_tol=1e-12)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        mu_q = rng.standard_normal(16)
        mu_p = rng.standard_normal(16)
        var_q = rng.uniform(0.1, 3.0, 16)
        var_p = rng.uniform(0.1, 3.0, 16)
        assert nn.kl_diag(mu_q, var_q, mu_p, var_p) >= 0.0


def test_kl_monte_carlo_oracle():
    # independent oracle: E_q[log q - log p] over 10^6 samples
    rng = np.random.default_rng(42)
    mu_q = rng.standard_normal(8)
    var_q = rng.uniform(0.4, 1.5, 8)
    mu_p = rng.standard_normal(8)
    var_p = rng.uniform(0.4, 1.5, 8)
    n = 1_000_000
    z = mu_q + np.sqrt(var_q) * rng.standard_normal((n, 8))
    log_q = -0.5 * (np.log(2 * np.pi * var_q) + (z - mu_q) ** 2 / var_q).sum(axis=1)
    log_p = -0.5 * (np.log(2 * np.pi * var_p) + (z - mu_p) ** 2 / var_p).sum(axis=1)
    estimate = float(np.mean(log_q - log_p))
    analytic = nn.kl_diag(mu_q, var_q, mu_p, var_p)
    assert abs(estimate - analytic) / analytic < 0.01


def test_kl_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    mu_q = rng.standard_normal(6)
    var_q = rng.uniform(0.3, 2.0, 6)
    mu_p = rng.standard_normal(6)
    var_p = rng.uniform(0.3, 2.0, 6)
    _, grads = nn.kl_diag(mu_q, var_q, mu_p, var_p, with_grad=True)
    arrays = [mu_q, var_q, mu_p, var_p]
    for i, arr in enumerate(arrays):
        def f(_=None, idx=i):
            return float(nn.kl_diag(arrays[0], arrays[1], arrays[2], arrays[3]))

        numeric = nn.finite_difference_gradient(f, arr, h=1e-6)
        assert nn.max_relative_error(grads[i], numeric, floor=1e-6) < 1e-4


def test_kl_rejects_nonpositive_variance():
    with pytest.raises(NonPositiveVariance):
        nn.kl_diag(np.zeros(2), np.array([1.0, 0.0]), np.zeros(2), np.ones(2))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_kl_nonnegative_property(seed):
    r = np.random.default_rng(seed)
    d = int(r.integers(1, 32))
    kl = nn.kl_diag(
        r.standard_normal(d) * 3,
        r.uniform(0.01, 10.0, d),
        r.standard_normal(d) * 3,
        r.uniform(0.01, 10.0, d),
    )
    assert kl >= -1e-10


# ---------------------------------------------------------------------------
# reparameterization


def test_reparam_zero_variance_returns_mean():
    mu = np.array([1.0, -2.0, 3.0])
    z, _ = nn.reparam_sample(mu, np.zeros(3), np.random.default_rng(0))
    assert np.array_equal(z, mu)


def test_reparam_moments_monte_carlo():
    rng = np.random.default_rng(3)
    mu = np.array([0.5, -1.0])
    var = np.array([2.0, 0.3])
    n = 100_000
    z, _ = nn.reparam_sample(np.tile(mu, (n, 1)), np.tile(var, (n, 1)), rng)
    se_mean = np.sqrt(var / n)
    assert np.all(np.abs(z.mean(axis=0) - mu) < 3 * se_mean)
    sample_var = z.var(axis=0)
    se_var = var * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(sample_var - var) < 3 * se_var)


def test_reparam_seeded_reproducible():
    mu, var = np.ones(4), np.full(4, 0.5)
    z1, _ = nn.reparam_sample(mu, var, np.random.default_rng(77))
    z2, _ = nn.reparam_sample(mu, var, np.random.default_rng(77))
    assert np.array_equal(z1, z2)


# ---------------------------------------------------------------------------
# gumbel softmax


def test_gumbel_on_simplex():
    rng = np.random.default_rng(1)
    for tau in (0.1, 0.5, 1.0, 5.0):
        y, _, _ = nn.gumbel_softmax(rng.standard_normal(7), tau, rng)
        assert np.all(y >= 0.0)
        assert math.isclose(y.sum(), 1.0, rel_tol=1e-9)


def test_gumbel_low_temperature_concentrates():
    rng = np.random.default_rng(2)
    y, _, _ = nn.gumbel_softmax(np.array([0.3, -0.1, 0.2]), 0.01, rng)
    assert y.max() > 0.99


def test_gumbel_hard_one_hot_matches_soft_argmax():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((20, 5))
    hard, soft, _ = nn.gumbel_softmax(logits, 0.7, rng, hard=True)
    assert np.all(hard.sum(axis=1) == 1.0)
    assert np.all((hard == 0) | (hard == 1))
    assert np.array_equal(np.argmax(hard, axis=1), np.argmax(soft, axis=1))


def test_gumbel_argmax_frequencies_match_softmax():
    # Gumbel-max property: argmax frequencies follow softmax(logits)
    logits = np.array([0.5, -0.5, 1.0, 0.0])
    expected = nn.softmax(logits)
    rng = np.random.default_rng(4)
    n = 100_000
    y, _, _ = nn.gumbel_softmax(np.tile(logits, (n, 1)), 0.8, rng)
    counts = np.bincount(np.argmax(y, axis=1), minlength=4) / n
    assert np.all(np.abs(counts - expected) < 0.02)


def test_gumbel_rejects_nonpositive_temperature():
    with pytest.raises(NonPositiveTemperature):
        nn.gumbel_softmax(np.zeros(3), 0.0, np.random.default_rng(0))


def test_gumbel_soft_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal(5)
    noise = nn.sample_gumbel(5, rng)
    weights = rng.standard_normal(5)
    tau = 0.9

    def f(lv):
        y, _, _ = nn.gumbel_softmax(lv, tau, None, hard=False, noise=noise)
        return float(np.sum(weights * y))

    y, soft, _ = nn.gumbel_softmax(logits, tau, None, hard=False, noise=noise)
    analytic = nn.gumbel_softmax_backward(soft, tau, weights)
    numeric = nn.finite_difference_gradient(f, logits.copy(), h=1e-6)
    assert nn.max_relative_error(analytic, numeric, floor=1e-6) < 1e-4


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_gumbel_simplex_property(seed):
    r = np.random.default_rng(seed)
    k = int(r.integers(2, 12))
    tau = float(r.uniform(0.05, 4.0))
    y, _, _ = nn.gumbel_softmax(r.standard_normal(k) * 5, tau, r, hard=bool(r.integers(2)))
    assert np.all(y >= 0.0)
    assert abs(float(y.sum()) - 1.0) < 1e-9
