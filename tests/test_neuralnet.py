import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import FUZZ, grad_arrays
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
    x = np.array([[1.5, -2.0, 0.25]])
    assert np.allclose(net.forward(x), x)


@pytest.mark.parametrize("dtype", [np.float64, np.uint8])
def test_forward_refuses_anything_but_a_2d_batch(dtype):
    net = make_net([3, 2], ["linear"])
    for x in (np.ones(3, dtype=dtype), np.ones((1, 1, 3), dtype=dtype)):
        with pytest.raises(DimensionMismatch, match=r"expects \(n, 3\)"):
            net.forward(x)


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


def special_values(dtype):
    """±0, ±inf, ±NaN, subnormals, ±max and the edges of exp's range."""
    info = np.finfo(dtype)
    return np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0, 88.0, -88.0, 710.0, -710.0,
                     info.tiny, -info.tiny, info.smallest_subnormal, -info.smallest_subnormal,
                     info.max, -info.max, info.eps, -info.eps], dtype=dtype)


def in_place(name, z):
    """The activation's one body run in place on a copy of z."""
    out = z.copy()
    assert nn._activate(name, out, out) is out
    return out


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_softplus_floor_leaves_normal_range_bit_identical(dtype):
    z = np.linspace(-80.0, 80.0, 200_001, dtype=dtype)
    assert np.array_equal(nn.apply_activation("softplus", z), np.logaddexp(0.0, z))
    assert in_place("softplus", z).tobytes() == np.logaddexp(0.0, z).tobytes()
    z = special_values(dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        out, ref = in_place("softplus", z), np.maximum(np.logaddexp(0.0, z), np.finfo(dtype).tiny)
        assert out.tobytes() == ref.tobytes() == nn.apply_activation("softplus", z).tobytes()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_relu_mask_from_the_output_equals_the_mask_from_z(dtype):
    z = np.concatenate([special_values(dtype), np.random.default_rng(0).standard_normal(1000).astype(dtype)])
    a = in_place("relu", z)
    assert a.tobytes() == np.maximum(z, 0.0).tobytes()
    assert nn.activation_grad("relu", None, a).tobytes() == (z > 0.0).astype(dtype).tobytes()


def masked_sigmoid(z):
    """The two-branch sigmoid written with boolean gathers."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_sigmoid_bytes_equal_masked_expression(dtype):
    z = np.concatenate([
        special_values(dtype),
        np.random.default_rng(0).standard_normal(100_059).astype(dtype) * 20,
        np.linspace(-120.0, 120.0, 10_001, dtype=dtype),
    ]).reshape(-1, 64)
    with np.errstate(over="ignore", invalid="ignore"):
        out, inplace, ref = nn.apply_activation("sigmoid", z), in_place("sigmoid", z), masked_sigmoid(z)
    assert out.dtype == inplace.dtype == np.dtype(dtype)
    assert out.tobytes() == inplace.tobytes() == ref.tobytes()


# every activation stack the models build, and one of all four
STACKS = [
    ["relu", "relu", "linear"],
    ["relu", "relu", "sigmoid"],
    ["relu", "relu"],
    ["linear"],
    ["softplus"],
    ["sigmoid", "softplus", "relu", "linear"],
]


def reference_forward(net, x):
    """The textbook forward, a @ W.T + b then the activation out of place:
    (output, [(layer input, z, layer output)])."""
    layers, a = [], x
    for layer in net.layers:
        z = a @ layer.weight.T + layer.bias
        out = {
            "relu": lambda: np.maximum(z, 0.0),
            "softplus": lambda: np.maximum(np.logaddexp(0.0, z), np.finfo(z.dtype).tiny),
            "sigmoid": lambda: masked_sigmoid(z),
            "linear": lambda: z,
        }[layer.activation]()
        layers.append((a, z, out))
        a = out
    return a, layers


def reference_backward(net, layers, g):
    """The textbook backward over reference_forward's layers:
    ([dW, db per parameter array], input gradient)."""
    grads = []
    for layer, (a_in, z, a_out) in reversed(list(zip(net.layers, layers))):
        slope = {
            "relu": lambda: (z > 0.0).astype(z.dtype),
            "softplus": lambda: masked_sigmoid(z),
            "sigmoid": lambda: a_out * (1.0 - a_out),
            "linear": lambda: np.ones_like(z),
        }[layer.activation]()
        gz = g * slope
        grads[:0] = [gz.T @ a_in, gz.sum(axis=0)]
        g = gz @ layer.weight
    return grads, g


@pytest.mark.parametrize("rows", [1, 33], ids=["one-row", "33-rows"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("activations", STACKS, ids="-".join)
def test_in_place_forward_is_the_textbook_forward_byte_for_byte(rows, dtype, activations):
    # one row and a batch of 33: each layer adds its bias to, and runs its
    # activation over, the whole GEMM output either way
    sizes = [24] + [40] * (len(activations) - 1) + [17]
    net = nn.DenseNet(sizes, activations, np.random.default_rng(7), dtype)
    rng = np.random.default_rng(8)
    for layer in net.layers:
        layer.bias[...] = rng.standard_normal(layer.bias.shape) * 3
    x = (rng.standard_normal((rows, 24)) * 6).astype(dtype)
    x_bytes, params = x.tobytes(), net.params.copy()
    ref_out, ref_layers = reference_forward(net, x)
    g = rng.standard_normal(ref_out.shape).astype(dtype)
    ref_grads, ref_in = reference_backward(net, ref_layers, g)
    for out in (net.forward(x), net.forward_cached(x, keep_cache=False)[0]):
        assert out.dtype == np.dtype(dtype) and out.tobytes() == ref_out.tobytes()
        assert not np.shares_memory(out, x) and not np.shares_memory(out, net.params)
    # the forward that stops before the last activation, then that activation
    pre, no_cache = net.forward_cached(x, keep_cache=False, pre_activation=True)
    assert no_cache is None and nn.apply_activation(activations[-1], pre).tobytes() == ref_out.tobytes()
    out, cache = net.forward_cached(x)
    assert out.tobytes() == ref_out.tobytes() and cache[0][0] is x
    assert not np.shares_memory(out, x) and not np.shares_memory(out, net.params)
    grad_in = net.backward(cache, g)
    assert [a.tobytes() for a in grad_arrays(net)] == [a.tobytes() for a in ref_grads]
    assert grad_in.tobytes() == ref_in.tobytes()
    assert x.tobytes() == x_bytes and np.array_equal(net.params, params)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_integer_input_reads_only_its_set_columns(dtype):
    # one-hot rows over 8 cells of 5 tiles that never use tiles 3 and 4
    rng = np.random.default_rng(5)
    net = nn.DenseNet([40, 16, 3], ["relu", "linear"], rng, dtype)
    x = np.zeros((30, 40), dtype=np.uint8)
    x.reshape(30, 8, 5)[np.arange(30)[:, None], np.arange(8), rng.integers(3, size=(30, 8))] = 1
    assert not x.any(axis=0).all()
    as_float = net.forward(x.astype(dtype))
    out = net.forward(x)
    assert out.dtype == np.dtype(dtype)
    assert np.max(np.abs(out - as_float)) <= {"float64": 1e-12, "float32": 1e-5}[dtype] * np.max(np.abs(as_float))
    # unset columns are not read: a NaN weight there changes nothing
    net.layers[0].weight[:, ~x.any(axis=0)] = np.nan
    assert np.array_equal(net.forward(x), out)
    # a training forward keeps the whole cast input for backward
    _, cache = net.forward_cached(x)
    assert cache[0][0].shape == (30, 40) and cache[0][0].dtype == np.dtype(dtype)
    with pytest.raises(ValueError):
        net.forward_cached(x, keep_cache=True, pre_activation=True)


def test_decoder_shaped_forward_peaks_below_one_and_a_half_outputs():
    # the float64 decoder of a 64-latent, 512-wide net on 500 rows, in the
    # forward that generation runs: the textbook forward holds up to four
    # output-sized arrays at once (4.17 outputs), the in-place one that
    # stops before the sigmoid holds the output and the last hidden layer
    # (1.17 outputs)
    net = make_net([64, 512, 512, 512, 3072], ["relu"] * 3 + ["sigmoid"])
    x = np.random.default_rng(1).standard_normal((500, 64))
    tracemalloc.start()
    try:
        out, _ = net.forward_cached(x, keep_cache=False, pre_activation=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * out.nbytes, peak / out.nbytes


# ---------------------------------------------------------------------------
# backward


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_backward_without_input_grad_gives_identical_parameter_gradients(dtype):
    net = nn.DenseNet([6, 5, 4, 3], ["relu", "softplus", "linear"], np.random.default_rng(5), dtype)
    rng = np.random.default_rng(6)
    _, cache = net.forward_cached(rng.standard_normal((7, 6)))
    upstream = rng.standard_normal((7, 3))
    grad_in = net.backward(cache, upstream)
    expected = net.grads.copy()
    assert grad_in.shape == (7, 6)
    full_in = grad_in.copy()
    net.grads[...] = np.nan
    assert net.backward(cache, upstream, input_tail=0) is None
    assert np.array_equal(net.grads, expected)
    # the last two columns only: a shorter product, the same values up to
    # the order of its sums
    net.grads[...] = np.nan
    grad_in = net.backward(cache, upstream, input_tail=2)
    np.testing.assert_allclose(grad_in, full_in[:, -2:], rtol=1e-5 if dtype == "float32" else 1e-12)
    assert np.array_equal(net.grads, expected)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_keep_inputs_reads_only_the_given_columns(dtype):
    net = nn.DenseNet([10, 6, 4], ["relu", "softplus"], np.random.default_rng(7), dtype)
    initial = net.params.copy()
    columns = np.array([1, 4, 5, 8, 9])
    narrow = net.keep(inputs=columns)
    assert [layer.weight.shape for layer in narrow.layers] == [(6, 5), (4, 6)]
    assert narrow.params.dtype == net.params.dtype and not np.shares_memory(narrow.params, net.params)
    assert narrow.layers[0].weight.tobytes() == net.layers[0].weight[:, columns].tobytes()
    assert narrow.params[30:].tobytes() == net.params[60:].tobytes()
    assert np.array_equal(net.params, initial)
    # on input whose other columns are zero it answers as the whole net
    rng = np.random.default_rng(8)
    x = np.zeros((7, 10), dtype=dtype)
    x[:, columns] = rng.standard_normal((7, 5))
    np.testing.assert_allclose(narrow.forward(x[:, columns]), net.forward(x), rtol=1e-5 if dtype == "float32" else 1e-12)
    with pytest.raises(DimensionMismatch):
        narrow.forward(x)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_keep_outputs_writes_only_the_given_columns(dtype):
    net = nn.DenseNet([5, 6, 10], ["relu", "sigmoid"], np.random.default_rng(7), dtype)
    net.layers[-1].bias[...] = np.arange(10)
    initial = net.params.copy()
    outputs = np.array([0, 2, 3, 7])
    narrow = net.keep(outputs=outputs)
    assert [layer.weight.shape for layer in narrow.layers] == [(6, 5), (4, 6)]
    assert narrow.params.dtype == net.params.dtype and not np.shares_memory(narrow.params, net.params)
    assert narrow.params[:36].tobytes() == net.params[:36].tobytes()
    assert narrow.layers[-1].weight.tobytes() == net.layers[-1].weight[outputs].tobytes()
    assert narrow.layers[-1].bias.tobytes() == net.layers[-1].bias[outputs].tobytes()
    assert np.array_equal(net.params, initial)
    # the same rows give the same products, so the kept columns are equal
    x = np.random.default_rng(8).standard_normal((7, 5)).astype(dtype)
    np.testing.assert_allclose(narrow.forward(x), net.forward(x)[:, outputs], rtol=1e-5 if dtype == "float32" else 1e-12)


def test_keep_narrows_both_ends_of_a_one_layer_net():
    net = make_net([4, 3], ["linear"], seed=5)
    narrow = net.keep(inputs=[0, 3], outputs=[2])
    assert narrow.layers[0].weight.tolist() == net.layers[0].weight[[2]][:, [0, 3]].tolist()
    assert narrow.layers[0].bias.tolist() == net.layers[0].bias[[2]].tolist()


def test_linear_weight_gradient_is_outer_product():
    net = make_net([3, 2], ["linear"], seed=4)
    x = np.array([[1.0, -2.0, 0.5]])
    upstream = np.array([[0.3, -0.7]])
    _, cache = net.forward_cached(x)
    net.backward(cache, upstream)
    dw, db = grad_arrays(net)
    assert np.allclose(dw, np.outer(upstream, x))
    assert np.allclose(db, upstream[0])


def test_zero_upstream_zero_gradients():
    net = make_net([3, 4, 2], ["relu", "sigmoid"], seed=2)
    _, cache = net.forward_cached(np.ones((1, 3)))
    net.grads[...] = np.nan
    gin = net.backward(cache, np.zeros((1, 2)))
    assert np.all(net.grads == 0)
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
    x = rng.standard_normal((1, 5))
    target = rng.standard_normal((1, 4))

    def loss(_=None):
        return float(np.sum((net.forward(x) - target) ** 2))

    out, cache = net.forward_cached(x)
    grad_in = net.backward(cache, 2.0 * (out - target))
    for arr, analytic in zip(net.param_arrays(), grad_arrays(net)):
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
    grad_arrays(net)[0][...] = g
    opt.step(net)
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
    opt.step(net)
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
        net.grads[...] = [2.0 * net.layers[0].weight[0, 0], 0.0]
        opt.step(net)
    # mathematically identical recurrences up to float noise, but the oracle
    # uses its own arithmetic path
    assert abs(net.layers[0].weight[0, 0] - w_ref) < 1e-8
    assert abs(net.layers[0].weight[0, 0]) < 0.05


def test_adam_shape_mismatch():
    # an optimizer built for the full net cannot step a net that keeps
    # fewer of its inputs
    net = make_net([4, 3, 2], ["relu", "linear"])
    opt = nn.AdamState(net)
    narrow = net.keep(inputs=[1, 3])
    with pytest.raises(ShapeMismatch, match="optimizer holds 23 parameters, net has 17"):
        opt.step(narrow)


def test_adam_rejects_another_nets_parameters():
    opt = nn.AdamState(make_net([2, 2], ["linear"]))
    other = make_net([3, 3], ["linear"])
    with pytest.raises(ShapeMismatch, match="optimizer holds 6 parameters, net has 12"):
        opt.step(other)


def per_array_adam(params, grads, m, v, t, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """The textbook update, one expression per parameter array, with the
    step size a scalar of the parameters' dtype."""
    lr_t = params[0].dtype.type(lr * np.sqrt(1.0 - b2**t) / (1.0 - b1**t))
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
            net.backward(cache, rng.standard_normal(out.shape))
        else:
            for g in grad_arrays(net):
                g[...] = rng.standard_normal(g.shape).astype(dtype)
        flat = [g.copy() for g in grad_arrays(net)]
        opt.step(net)
        per_array_adam(ref_params, flat, ref_m, ref_v, t)
        for p, ref in zip(net.param_arrays(), ref_params):
            assert p.dtype == np.dtype(dtype) and np.array_equal(p, ref)
    assert np.array_equal(opt.m, np.concatenate([a.ravel() for a in ref_m]))
    assert np.array_equal(opt.v, np.concatenate([a.ravel() for a in ref_v]))


def subnormal_count(a):
    return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)))


@pytest.mark.parametrize("dtype, idle_steps", [("float64", 7000), ("float32", 800)])
def test_adam_moments_of_a_stopped_gradient_leave_no_subnormal(dtype, idle_steps):
    # one step at a gradient of 1e-4, then none: m decays by 0.9 a step and
    # is subnormal from about step 6,640 (float64) or 700 (float32), where
    # 0.9 times a few ulps rounds back to itself, so unflushed it stays
    net = nn.DenseNet([6, 5, 3], ["relu", "linear"], np.random.default_rng(2), dtype)
    ref_params = [p.copy() for p in net.param_arrays()]
    ref_m = [np.zeros_like(p) for p in ref_params]
    ref_v = [np.zeros_like(p) for p in ref_params]
    opt = nn.AdamState(net)
    for t in range(1, idle_steps + 2):
        net.grads[...] = 1e-4 if t == 1 else 0.0
        flat = [g.copy() for g in grad_arrays(net)]
        opt.step(net)
        per_array_adam(ref_params, flat, ref_m, ref_v, t)
    assert subnormal_count(np.concatenate([a.ravel() for a in ref_m])) > 0
    assert subnormal_count(opt.m) == subnormal_count(opt.v) == 0
    # a zeroed moment's update lies below half an ulp of its parameter
    for p, ref in zip(net.param_arrays(), ref_params):
        assert np.array_equal(p, ref)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_adam_moments_near_the_smallest_normal_never_go_subnormal(dtype):
    # with no gradient, moments from just above tiny to past the flush
    # floors decay 0.9 (m) and 0.999 (v) a step; each is zeroed or stays
    # normal, across three flushes and the steps between them. Half of
    # them lie within 3e-5 above tiny / beta^ADAM_FLUSH_EVERY, where the
    # rounding of the decays would carry some below tiny.
    net = nn.DenseNet([30, 20], ["linear"], np.random.default_rng(3), dtype)
    opt = nn.AdamState(net)
    tiny, half = np.finfo(dtype).tiny, net.params.size // 2
    ramp = tiny * np.geomspace(1.0 + 1e-6, 2.0 / nn.ADAM_BETA1 ** (nn.ADAM_FLUSH_EVERY + 1), half)
    band = 1.0 + np.arange(half) * 1e-7
    for moment, beta, sign in ((opt.m, nn.ADAM_BETA1, -1.0), (opt.v, nn.ADAM_BETA2, 1.0)):
        moment[:half] = ramp * sign
        moment[half:] = tiny / beta**nn.ADAM_FLUSH_EVERY * band
    net.grads[...] = 0.0
    for _ in range(3 * nn.ADAM_FLUSH_EVERY + 1):
        opt.step(net)
        assert subnormal_count(opt.m) == subnormal_count(opt.v) == 0
    assert np.count_nonzero(opt.v) > 0


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_adam_updates_of_moments_above_their_floor_never_go_subnormal(dtype):
    # with no gradient, first moments from just above tiny / beta1^65 to
    # 1e16 times it decay 0.9 a step, and the step size lr_t is 1.5e-4 to
    # 3.2e-4 over the first steps: each update lr_t m stays normal, or its m
    # is zeroed, across three flushes and the steps between them
    net = nn.DenseNet([30, 20], ["linear"], np.random.default_rng(3), dtype)
    opt = nn.AdamState(net)
    floor = np.finfo(dtype).tiny / nn.ADAM_BETA1 ** (nn.ADAM_FLUSH_EVERY + 1)
    opt.m[...] = floor * np.geomspace(1.01, 1e16, opt.m.size)
    opt.v[...] = 1e-12
    net.grads[...] = 0.0
    for t in range(1, 3 * nn.ADAM_FLUSH_EVERY + 2):
        opt.step(net)
        lr_t = net.dtype.type(opt.learning_rate * np.sqrt(1.0 - nn.ADAM_BETA2**t) / (1.0 - nn.ADAM_BETA1**t))
        assert subnormal_count(opt.m * lr_t) == 0, t
    assert np.count_nonzero(opt.m) > 0


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_adam_scratch_is_in_the_net_dtype(dtype):
    opt = nn.AdamState(nn.DenseNet([3, 2], ["linear"], np.random.default_rng(0), dtype))
    assert opt._update.dtype == opt._scratch.dtype == opt.m.dtype == np.dtype(dtype)


def test_parameters_and_gradients_are_views_of_flat_buffers():
    net = make_net([4, 5, 3], ["relu", "linear"], seed=2)
    assert net.params.flags.owndata and net.grads.flags.owndata
    assert sum(p.size for p in net.param_arrays()) == net.params.size == net.grads.size
    for p in net.param_arrays():
        assert np.shares_memory(p, net.params)
    _, cache = net.forward_cached(np.ones((2, 4)))
    net.grads[...] = np.nan
    net.backward(cache, np.ones((2, 3)))
    assert np.all(np.isfinite(net.grads))


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


@settings(FUZZ, max_examples=100)
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
        logits = rng.standard_normal(7)
        y, _ = nn.gumbel_softmax(logits, tau, nn.sample_gumbel(logits.shape, rng))
        assert np.all(y >= 0.0)
        assert math.isclose(y.sum(), 1.0, rel_tol=1e-9)


def test_gumbel_low_temperature_concentrates():
    rng = np.random.default_rng(2)
    y, _ = nn.gumbel_softmax(np.array([0.3, -0.1, 0.2]), 0.01, nn.sample_gumbel(3, rng))
    assert y.max() > 0.99


def test_gumbel_hard_one_hot_matches_soft_argmax():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((20, 5))
    hard, soft = nn.gumbel_softmax(logits, 0.7, nn.sample_gumbel(logits.shape, rng), hard=True)
    assert np.all(hard.sum(axis=1) == 1.0)
    assert np.all((hard == 0) | (hard == 1))
    assert np.array_equal(np.argmax(hard, axis=1), np.argmax(soft, axis=1))


def test_gumbel_argmax_frequencies_match_softmax():
    # Gumbel-max property: argmax frequencies follow softmax(logits)
    logits = np.array([0.5, -0.5, 1.0, 0.0])
    expected = nn.softmax(logits)
    rng = np.random.default_rng(4)
    n = 100_000
    y, _ = nn.gumbel_softmax(np.tile(logits, (n, 1)), 0.8, nn.sample_gumbel((n, 4), rng))
    counts = np.bincount(np.argmax(y, axis=1), minlength=4) / n
    assert np.all(np.abs(counts - expected) < 0.02)


def test_gumbel_rejects_nonpositive_temperature():
    with pytest.raises(NonPositiveTemperature):
        nn.gumbel_softmax(np.zeros(3), 0.0, nn.sample_gumbel(3, np.random.default_rng(0)))


def test_gumbel_soft_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal(5)
    noise = nn.sample_gumbel(5, rng)
    weights = rng.standard_normal(5)
    tau = 0.9

    def f(lv):
        y, _ = nn.gumbel_softmax(lv, tau, noise)
        return float(np.sum(weights * y))

    y, soft = nn.gumbel_softmax(logits, tau, noise)
    analytic = nn.gumbel_softmax_backward(soft, tau, weights)
    numeric = nn.finite_difference_gradient(f, logits.copy(), h=1e-6)
    assert nn.max_relative_error(analytic, numeric, floor=1e-6) < 1e-4


@settings(FUZZ, max_examples=100)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_gumbel_simplex_property(seed):
    r = np.random.default_rng(seed)
    k = int(r.integers(2, 12))
    tau = float(r.uniform(0.05, 4.0))
    logits, hard = r.standard_normal(k) * 5, bool(r.integers(2))
    y, _ = nn.gumbel_softmax(logits, tau, nn.sample_gumbel(k, r), hard=hard)
    assert np.all(y >= 0.0)
    assert abs(float(y.sum()) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# dtype: the loss terms compute in the dtype of their floating inputs


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_loss_terms_keep_the_input_dtype(dtype):
    rng = np.random.default_rng(3)
    out = rng.uniform(0.0, 1.0, (4, 6)).astype(dtype)
    mu, var = rng.standard_normal((4, 5)).astype(dtype), rng.uniform(0.1, 2.0, (4, 5)).astype(dtype)
    target = (rng.random((4, 6)) < 0.5).astype(np.float64)
    eps = rng.standard_normal((4, 5))
    loss, grad = nn.bce_loss(out, target, with_grad=True)
    kl, kl_grads = nn.kl_diag(mu, var, np.zeros(5), np.ones(5), with_grad=True)
    logits = rng.standard_normal((4, 3)).astype(dtype)
    y, soft = nn.gumbel_softmax(logits, 0.7, nn.sample_gumbel(logits.shape, rng), hard=True)
    z, z_eps = nn.reparam_sample(mu, var, None, eps=eps)
    drawn, drawn_eps = nn.reparam_sample(mu, var, np.random.default_rng(0))
    for a in (loss, grad, kl, *kl_grads, nn.reparam_grad_var(var, eps), y, soft, z, z_eps, drawn, drawn_eps):
        assert a.dtype == np.dtype(dtype)
    # the float64 noise cast, as the training step's latent sample takes it
    assert np.array_equal(z, mu + np.sqrt(var) * eps.astype(dtype))
    assert np.array_equal(drawn_eps, np.random.default_rng(0).standard_normal(mu.shape).astype(dtype))


def test_loss_terms_compute_non_float_inputs_in_float64():
    ones = np.ones(3, dtype=np.int64)
    assert nn.bce_loss([0, 1, 1], ones).dtype == np.float64
    assert nn.kl_diag(np.zeros(3, dtype=np.int64), ones, ones, ones).dtype == np.float64
    assert nn.reparam_grad_var(ones, ones).dtype == np.float64
    assert nn.reparam_sample(np.zeros(3, dtype=np.int64), ones, None, eps=ones)[0].dtype == np.float64
    y, _ = nn.gumbel_softmax([0, 1, 2], 1.0, nn.sample_gumbel(3, np.random.default_rng(0)))
    assert y.dtype == np.float64


def test_float32_gumbel_noise_is_the_float64_draw_cast():
    # the draw (and so the RNG stream) is the float64 one in either dtype,
    # and a float32 sample adds it cast to float32
    logits = np.zeros((50, 4), dtype=np.float32)
    rng = np.random.default_rng(9)
    noise = nn.sample_gumbel(logits.shape, rng)
    assert rng.random() == np.random.default_rng(9).random(201)[-1]
    assert noise.dtype == np.float64 and np.all(np.isfinite(noise))
    y, _ = nn.gumbel_softmax(logits, 1.0, noise)
    assert y.dtype == np.float32 and np.array_equal(y, nn.softmax(noise.astype(np.float32)))


def test_positive_floor_is_normal_in_float32_and_1e_300_in_float64():
    assert nn.positive_floor(np.float64) == 1e-300
    assert nn.positive_floor(np.float32) == np.finfo(np.float32).tiny
    assert np.float32(nn.positive_floor(np.float32)) > 0.0
