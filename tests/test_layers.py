import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from idsaug.errors import ConfigError, InputDataError
from idsaug.nncore import BatchNorm, Dense, LayerNorm, LeakyReLU, ReLU, Sigmoid, Softmax
from idsaug.nncore.layers import LAYER_KINDS

from _gradcheck import layer_gradcheck


def test_dense_identity_passthrough():
    layer = Dense(2, 2, np.random.default_rng(0))
    layer.weights = np.eye(2)
    layer.bias = np.zeros(2)
    out, _ = layer.forward(np.array([[1.0, 2.0]]), train=False)
    assert np.array_equal(out, [[1.0, 2.0]])


def test_dense_init_bounds():
    layer = Dense(30, 20, np.random.default_rng(1))
    limit = np.sqrt(6.0 / 50)
    assert np.all(np.abs(layer.weights) <= limit)
    assert np.array_equal(layer.bias, np.zeros(20))


def test_softmax_uniform_logits():
    layer = Softmax(3)
    out, _ = layer.forward(np.zeros((1, 3)), train=False)
    assert np.allclose(out, 1.0 / 3.0)


def test_softmax_rows_sum_to_one():
    layer = Softmax(5)
    x = np.random.default_rng(2).standard_normal((40, 5)) * 30
    out, _ = layer.forward(x, train=False)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9
    assert out.min() > 0.0 and out.max() <= 1.0


def test_leakyrelu_definition():
    layer = LeakyReLU(2, slope=0.01)
    out, _ = layer.forward(np.array([[-1.0, 2.0]]), train=False)
    assert np.allclose(out, [[-0.01, 2.0]])


def test_relu_zeroes_negatives():
    layer = ReLU(3)
    out, _ = layer.forward(np.array([[-5.0, 0.0, 3.0]]), train=False)
    assert np.array_equal(out, [[0.0, 0.0, 3.0]])


def test_sigmoid_range_and_extremes():
    layer = Sigmoid(2)
    out, _ = layer.forward(np.array([[-800.0, 800.0]]), train=False)
    assert np.isfinite(out).all()
    # strictly inside (0, 1) even under exponential underflow
    assert 0.0 < out[0, 0] < 1e-12
    assert 1.0 - 1e-12 < out[0, 1] < 1.0


def test_batchnorm_standardizes_before_affine():
    rng = np.random.default_rng(3)
    # feature scales well above epsilon so the unit-variance check is tight
    x = rng.standard_normal((256, 6)) * rng.uniform(20, 60, size=6) + rng.uniform(-5, 5, size=6)
    layer = BatchNorm(6)
    out, _ = layer.forward(x, train=True)
    assert np.abs(out.mean(axis=0)).max() < 1e-6
    assert np.abs(out.var(axis=0) - 1.0).max() < 1e-6


def test_batchnorm_eval_uses_running_stats_only():
    rng = np.random.default_rng(4)
    layer = BatchNorm(4)
    for _ in range(20):
        layer.forward(rng.standard_normal((32, 4)) * 3 + 1, train=True)
    probe = rng.standard_normal((5, 4))
    out1, _ = layer.forward(probe, train=False)
    out2, _ = layer.forward(probe.copy(), train=False)
    assert np.array_equal(out1, out2)
    # a different batch must not change eval outputs
    layer_stats = (layer.running_mean.copy(), layer.running_var.copy())
    out3, _ = layer.forward(rng.standard_normal((50, 4)), train=False)
    assert np.array_equal(layer.running_mean, layer_stats[0])
    assert np.array_equal(layer.running_var, layer_stats[1])


def test_batchnorm_running_var_nonnegative():
    rng = np.random.default_rng(5)
    layer = BatchNorm(3)
    for _ in range(50):
        layer.forward(rng.standard_normal((16, 3)) * 0.01, train=True)
    assert np.all(layer.running_var >= 0.0)


def test_batchnorm_rejects_singleton_batches_in_train_mode():
    layer = BatchNorm(3)
    with pytest.raises(InputDataError):
        layer.forward(np.ones((1, 3)), train=True)


def test_layernorm_is_mode_independent():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((8, 5))
    layer = LayerNorm(5)
    out_train, _ = layer.forward(x, train=True)
    out_eval, _ = layer.forward(x, train=False)
    assert np.array_equal(out_train, out_eval)


def test_leakyrelu_rejects_negative_slope():
    # max(x, slope * x) is the leaky ReLU only for a slope in [0, 1]
    for slope in (-0.1, 1.5, float("nan")):
        with pytest.raises(ConfigError):
            LeakyReLU(3, slope=slope)
    for slope in (0.0, 1.0):
        assert LeakyReLU(3, slope=slope).slope == slope


# pairs of same-shape finite float64 batches (input, upstream gradient) whose
# elements include +-0.0 and subnormals
finite_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308]))
finite_pairs = st.tuples(st.integers(1, 8), st.integers(1, 12)).flatmap(
    lambda shape: st.tuples(*[arrays(np.float64, shape, elements=finite_values)
                              for _ in range(2)]))


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(finite_pairs)
def test_relu_matches_the_where_form_byte_for_byte(pair):
    x, g = pair
    layer = ReLU(x.shape[1])
    held = x.copy()
    out, cache = layer.forward(x, train=True)
    grad, _ = layer.backward(g, cache, train=True)
    assert _same_bytes(out, np.where(x > 0.0, x, 0.0))
    assert _same_bytes(grad, g * (x > 0.0))
    assert _same_bytes(x, held)


@settings(max_examples=80, deadline=None)
@given(finite_pairs, st.sampled_from([0.0, 0.01, 0.5, 1.0]))
def test_leakyrelu_matches_the_where_form_byte_for_byte(pair, slope):
    x, g = pair
    layer = LeakyReLU(x.shape[1], slope=slope)
    held = x.copy()
    out, cache = layer.forward(x, train=True)
    grad, _ = layer.backward(g, cache, train=True)
    assert _same_bytes(out, np.where(x > 0.0, x, slope * x))
    assert _same_bytes(grad, g * np.where(x > 0.0, 1.0, slope))
    assert _same_bytes(x, held)


def _random_input(kind, rng, rows, dim):
    x = rng.standard_normal((rows, dim)) * 1.5
    if kind in ("leakyrelu", "relu"):
        # keep points away from the kink so central differences stay valid
        x = np.where(np.abs(x) < 1e-3, x + np.sign(x + 0.5) * 2e-3, x)
    if kind == "batchnorm":
        x = x * rng.uniform(2.0, 6.0, size=dim)
    return x


@pytest.mark.parametrize("kind,factory", [
    ("dense", lambda rng, d: Dense(d, d + 2, rng)),
    ("batchnorm", lambda rng, d: BatchNorm(d)),
    ("layernorm", lambda rng, d: LayerNorm(d)),
    ("leakyrelu", lambda rng, d: LeakyReLU(d, slope=0.01)),
    ("relu", lambda rng, d: ReLU(d)),
    ("sigmoid", lambda rng, d: Sigmoid(d)),
    ("softmax", lambda rng, d: Softmax(d)),
])
def test_layer_gradients_match_finite_differences(kind, factory):
    rng = np.random.default_rng(hash(kind) % (2**32))
    for trial in range(5):
        dim = int(rng.integers(2, 7))
        rows = int(rng.integers(3, 8))
        layer = factory(rng, dim)
        x = _random_input(kind, rng, rows, dim)
        assert layer_gradcheck(layer, x, rng, train=True) < 1e-4


def test_batchnorm_eval_mode_gradients():
    rng = np.random.default_rng(7)
    layer = BatchNorm(4)
    for _ in range(5):
        layer.forward(rng.standard_normal((16, 4)), train=True)
    x = rng.standard_normal((6, 4))
    assert layer_gradcheck(layer, x, rng, train=False) < 1e-4


def _in_dtype(layer, dtype):
    """The layer with every array it holds cast to ``dtype``, as a network
    whose parameters are in ``dtype`` has them."""
    for name, value in list(vars(layer).items()):
        if isinstance(value, np.ndarray):
            setattr(layer, name, value.astype(dtype))
    return layer


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(LAYER_KINDS)), st.sampled_from([np.float32, np.float64]),
       st.integers(2, 9), st.integers(1, 7), st.sampled_from([1e-3, 1.0, 1e3]),
       st.integers(0, 2**31))
def test_every_layer_computes_in_its_input_dtype(kind, dtype, rows, dim, scale, seed):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        layer = Dense(dim, dim + 1, rng)
    else:
        layer = LAYER_KINDS[kind](dim)
    # new layers hold float64 arrays
    assert all(p.dtype == np.float64 for p in layer.params())
    layer = _in_dtype(layer, dtype)
    x = (rng.standard_normal((rows, dim)) * scale).astype(dtype)
    for train in (True, False):
        out, cache = layer.forward(x, train)
        assert out.dtype == dtype
        g = rng.standard_normal(out.shape).astype(dtype)
        grad_in, param_grads = layer.backward(g, cache, train)
        assert grad_in.dtype == dtype
        assert [p.dtype for p in param_grads] == [dtype] * len(layer.params())
    # running statistics too keep the layer's dtype
    assert all(value.dtype == dtype for value in vars(layer).values()
               if isinstance(value, np.ndarray))
    if kind == "sigmoid":
        big = np.finfo(dtype).max
        extreme = np.array([[-big, -200.0, 200.0, big]], dtype=dtype)
        out, _ = Sigmoid(4).forward(extreme, train=False)
        assert out.dtype == dtype
        assert np.all(out > 0.0) and np.all(out < 1.0)


def _reference(kind, layer, x, g, train):
    """The layer's forward output, input gradient and parameter gradients in
    their textbook NumPy form: whole-array expressions and NumPy reductions."""
    if kind == "dense":
        return x @ layer.weights + layer.bias, g @ layer.weights.T, [x.T @ g, g.sum(axis=0)]
    if kind in ("batchnorm", "layernorm"):
        axis = 0 if kind == "batchnorm" else 1
        if kind == "batchnorm" and not train:
            mean, var = layer.running_mean, layer.running_var
        else:
            mean, var = x.mean(axis=axis, keepdims=True), x.var(axis=axis, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + layer.epsilon)
        x_hat = (x - mean) * inv_std
        grad_hat = g * layer.scale
        n = x.shape[axis]
        if kind == "batchnorm" and not train:
            grad_in = grad_hat * inv_std
        else:
            grad_in = (inv_std / n) * (n * grad_hat - grad_hat.sum(axis=axis, keepdims=True)
                                       - x_hat * (grad_hat * x_hat).sum(axis=axis, keepdims=True))
        return (layer.scale * x_hat + layer.shift, grad_in,
                [(g * x_hat).sum(axis=0), g.sum(axis=0)])
    if kind == "leakyrelu":
        return (np.where(x > 0.0, x, layer.slope * x),
                g * np.where(x > 0.0, 1.0, layer.slope), [])
    if kind == "relu":
        return np.where(x > 0.0, x, 0.0), g * (x > 0.0), []
    if kind == "sigmoid":
        y = 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))
        return y, g * y * (1.0 - y), []
    e = np.exp(x - x.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)
    return y, y * (g - (g * y).sum(axis=1, keepdims=True)), []


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(LAYER_KINDS)), st.sampled_from([np.float32, np.float64]),
       st.integers(2, 9), st.integers(1, 7), st.booleans(), st.integers(0, 2**31))
def test_every_layer_matches_its_textbook_form(kind, dtype, rows, dim, train, seed):
    # the layers sum through BLAS and reuse buffers, so they may differ from
    # the textbook form in the last bits: the tolerance is set by the dtype
    rng = np.random.default_rng(seed)
    if kind == "dense":
        layer = Dense(dim, dim + 1, rng)
    else:
        layer = LAYER_KINDS[kind](dim)
    for name in ("scale", "shift", "running_mean"):
        if hasattr(layer, name):
            setattr(layer, name, rng.uniform(-2.0, 2.0, dim))
    if hasattr(layer, "running_var"):
        layer.running_var = rng.uniform(0.5, 2.0, dim)
    layer = _in_dtype(layer, dtype)
    x = (rng.standard_normal((rows, dim)) * 3.0).astype(dtype)
    out, cache = layer.forward(x, train)
    g = rng.standard_normal(out.shape).astype(dtype)
    grad_in, param_grads = layer.backward(g, cache, train)
    wide = _in_dtype(layer, np.float64)
    expected = _reference(kind, wide, x.astype(np.float64), g.astype(np.float64), train)
    tol = dict(rtol=1e-4, atol=1e-4) if dtype == np.float32 else dict(rtol=1e-9, atol=1e-9)
    for ours, theirs in zip([out, grad_in, *param_grads],
                            [expected[0], expected[1], *expected[2]]):
        np.testing.assert_allclose(ours, theirs, **tol)
