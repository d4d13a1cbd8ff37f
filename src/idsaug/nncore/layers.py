"""Dense feed-forward layers with explicit forward and backward passes.

Every layer maps a (batch, in_dim) float array to (batch, out_dim) and
returns a cache that its own ``backward`` consumes. ``backward`` returns the
gradient with respect to the input plus one gradient per entry of
``params()``, in the same order; with ``input_grad=False`` a layer may return
None for the input gradient and skip computing it, and with
``param_grad=False`` it returns None for the parameter gradients and leaves
``grads`` untouched. Layers compute in the dtype of their input, which must
be the dtype of their parameters: no float64 constant widens a float32
batch, and every output and gradient comes back in the input's dtype. New
parameters are float64. ``param_names`` names a layer's parameter attributes
and ``stat_names`` its other arrays; a ``Network`` rebinds the parameters to
views of its flat vector and casts the others to its dtype. From then on a
parameter is written in place: rebinding it would cut it off from the
vector that ``Adam`` updates and a checkpoint saves, so it raises
``StateError``.

Buffers. ``forward(x, train, ws)`` writes its output and every intermediate
into arrays it keeps in ``ws``, a dict of named buffers, and its cache holds
``ws`` so that ``backward`` writes its gradients into the same dict. A buffer
is made the first time a name is asked for and reused on every later call
with the same ``ws``, so the caller must pass one ``ws`` per batch shape and
dtype, and must not pass it to another forward while a cache that holds it
is still to be backpropagated: ``Network`` gives each live tape its own.
With no ``ws`` a call gets a fresh dict, so its outputs are new arrays.
``backward(..., grads)`` writes the parameter gradients into the given
arrays (views into a network's flat gradient) instead of new ones.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, InputDataError, ShapeError, StateError


def _buffer(ws: dict, name: str, shape, dtype) -> np.ndarray:
    buf = ws.get(name)
    if buf is None:
        buf = ws[name] = np.empty(shape, dtype)
    return buf


def _ones(ws: dict, n: int, dtype) -> np.ndarray:
    ones = ws.get(("ones", n))
    if ones is None:
        ones = ws[("ones", n)] = np.ones(n, dtype)
    return ones


# Sums over the rows or the columns of a small matrix run as a BLAS
# matrix-vector product with a ones vector: numpy's own reduction along either
# axis of a (batch, width) array costs several times more at these sizes.
def _column_sums(a: np.ndarray, out: np.ndarray, ws: dict):
    np.matmul(_ones(ws, a.shape[0], a.dtype), a, out=out)


def _row_sums(a: np.ndarray, out: np.ndarray, ws: dict):
    """Row sums of ``a`` into ``out`` of shape (rows, 1)."""
    np.matmul(a, _ones(ws, a.shape[1], a.dtype), out=out[:, 0])


class Layer:
    kind = "layer"
    # the attributes holding the trained parameters, in ``params()`` order,
    # and the other arrays a layer keeps (batchnorm's running statistics)
    param_names: tuple[str, ...] = ()
    stat_names: tuple[str, ...] = ()
    # set by the Network whose flat vector the parameters are views of; from
    # then on they are written in place, and rebinding one is refused
    _owned = False

    def __init__(self, in_dim: int, out_dim: int):
        if in_dim < 1 or out_dim < 1:
            raise ConfigError(f"{self.kind}: dims must be positive, got {in_dim}x{out_dim}")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)

    def __setattr__(self, name: str, value):
        if self._owned and name in self.param_names:
            raise StateError(f"{self.kind}.{name} is a view of its network's parameters: "
                             f"write into it ({name}[...] = ...) instead of rebinding it")
        object.__setattr__(self, name, value)

    def params(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.param_names]

    def forward(self, x: np.ndarray, train: bool, ws: dict | None = None):
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray, cache, train: bool, input_grad: bool = True,
                 grads: list[np.ndarray] | None = None, param_grad: bool = True):
        raise NotImplementedError

    def _param_grads(self, grads, dtype) -> list[np.ndarray]:
        if grads is None:
            grads = [np.empty(p.shape, dtype) for p in self.params()]
        return grads


class Activation(Layer):
    """Base for elementwise/rowwise layers where in_dim == out_dim."""

    def __init__(self, dim: int):
        super().__init__(dim, dim)


class Dense(Layer):
    kind = "dense"
    param_names = ("weights", "bias")

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None):
        super().__init__(in_dim, out_dim)
        if rng is None:
            rng = np.random.default_rng()
        limit = math.sqrt(6.0 / (in_dim + out_dim))
        self.weights = rng.uniform(-limit, limit, size=(in_dim, out_dim))
        self.bias = np.zeros(out_dim)

    def forward(self, x, train, ws=None):
        ws = {} if ws is None else ws
        out = _buffer(ws, "out", (x.shape[0], self.out_dim), x.dtype)
        np.matmul(x, self.weights, out=out)
        out += self.bias
        return out, (x, ws)

    def backward(self, grad_out, cache, train, input_grad=True, grads=None, param_grad=True):
        x, ws = cache
        if param_grad:
            grad_w, grad_b = grads = self._param_grads(grads, grad_out.dtype)
            np.matmul(x.T, grad_out, out=grad_w)
            _column_sums(grad_out, grad_b, ws)
        else:
            grads = None
        if not input_grad:
            return None, grads
        grad_in = _buffer(ws, "grad_in", x.shape, grad_out.dtype)
        np.matmul(grad_out, self.weights.T, out=grad_in)
        return grad_in, grads


class BatchNorm(Activation):
    """Per-feature normalization over the batch with running statistics."""

    kind = "batchnorm"
    param_names = ("scale", "shift")
    stat_names = ("running_mean", "running_var")

    def __init__(self, dim: int, epsilon: float = 1e-5, momentum: float = 0.1):
        super().__init__(dim)
        if epsilon <= 0.0:
            raise ConfigError("batchnorm epsilon must be positive")
        if not 0.0 < momentum <= 1.0:
            raise ConfigError("batchnorm momentum must be in (0, 1]")
        self.epsilon = float(epsilon)
        self.momentum = float(momentum)
        self.scale = np.ones(dim)
        self.shift = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def forward(self, x, train, ws=None):
        ws = {} if ws is None else ws
        n, d = x.shape
        x_hat = _buffer(ws, "x_hat", x.shape, x.dtype)
        inv_std = _buffer(ws, "inv_std", d, x.dtype)
        if train:
            if n < 2:
                raise InputDataError("batchnorm needs a batch of at least 2 rows in train mode")
            mean = _buffer(ws, "mean", d, x.dtype)
            var = _buffer(ws, "var", d, x.dtype)
            _column_sums(x, mean, ws)
            mean /= n
            np.subtract(x, mean, out=x_hat)
            out = _buffer(ws, "out", x.shape, x.dtype)
            np.multiply(x_hat, x_hat, out=out)
            _column_sums(out, var, ws)
            var /= n
            np.add(var, self.epsilon, out=inv_std)
            np.sqrt(inv_std, out=inv_std)
            np.divide(1.0, inv_std, out=inv_std)
            x_hat *= inv_std
            m = self.momentum
            running_mean, running_var = self.running_mean, self.running_var
            running_mean *= 1.0 - m
            np.multiply(mean, m, out=mean)
            running_mean += mean
            # running variance tracks the unbiased estimate
            running_var *= 1.0 - m
            np.multiply(var, m, out=var)
            var *= n / (n - 1.0)
            running_var += var
        else:
            np.add(self.running_var, self.epsilon, out=inv_std)
            np.sqrt(inv_std, out=inv_std)
            np.divide(1.0, inv_std, out=inv_std)
            np.subtract(x, self.running_mean, out=x_hat)
            x_hat *= inv_std
            out = _buffer(ws, "out", x.shape, x.dtype)
        np.multiply(x_hat, self.scale, out=out)
        out += self.shift
        return out, (x_hat, inv_std, ws)

    def backward(self, grad_out, cache, train, input_grad=True, grads=None, param_grad=True):
        x_hat, inv_std, ws = cache
        n, d = x_hat.shape
        if param_grad:
            grad_scale, grad_shift = grads = self._param_grads(grads, grad_out.dtype)
        else:
            # the input gradient still needs both column sums
            grads = None
            grad_scale, grad_shift = (_buffer(ws, name, d, x_hat.dtype)
                                      for name in ("grad_scale", "grad_shift"))
        tmp = _buffer(ws, "tmp", x_hat.shape, x_hat.dtype)
        np.multiply(grad_out, x_hat, out=tmp)
        _column_sums(tmp, grad_scale, ws)
        _column_sums(grad_out, grad_shift, ws)
        if not input_grad:
            return None, grads
        # with k = scale * inv_std, the input gradient is k * grad_out, less
        # in train mode the batch terms (k / n) * (grad_shift + x_hat * grad_scale)
        k = _buffer(ws, "k", d, x_hat.dtype)
        np.multiply(self.scale, inv_std, out=k)
        grad_in = _buffer(ws, "grad_in", x_hat.shape, x_hat.dtype)
        np.multiply(grad_out, k, out=grad_in)
        if train:
            k /= n
            term = _buffer(ws, "term", d, x_hat.dtype)
            np.multiply(k, grad_shift, out=term)
            grad_in -= term
            np.multiply(k, grad_scale, out=term)
            np.multiply(x_hat, term, out=tmp)
            grad_in -= tmp
        return grad_in, grads


class LayerNorm(Activation):
    """Per-row normalization over features; identical in train and eval."""

    kind = "layernorm"
    param_names = ("scale", "shift")

    def __init__(self, dim: int, epsilon: float = 1e-5):
        super().__init__(dim)
        if epsilon <= 0.0:
            raise ConfigError("layernorm epsilon must be positive")
        self.epsilon = float(epsilon)
        self.scale = np.ones(dim)
        self.shift = np.zeros(dim)

    def forward(self, x, train, ws=None):
        ws = {} if ws is None else ws
        n, d = x.shape
        x_hat = _buffer(ws, "x_hat", x.shape, x.dtype)
        out = _buffer(ws, "out", x.shape, x.dtype)
        inv_std = _buffer(ws, "inv_std", (n, 1), x.dtype)
        _row_sums(x, inv_std, ws)
        inv_std /= d
        np.subtract(x, inv_std, out=x_hat)
        np.multiply(x_hat, x_hat, out=out)
        _row_sums(out, inv_std, ws)
        inv_std /= d
        inv_std += self.epsilon
        np.sqrt(inv_std, out=inv_std)
        np.divide(1.0, inv_std, out=inv_std)
        x_hat *= inv_std
        np.multiply(x_hat, self.scale, out=out)
        out += self.shift
        return out, (x_hat, inv_std, ws)

    def backward(self, grad_out, cache, train, input_grad=True, grads=None, param_grad=True):
        x_hat, inv_std, ws = cache
        n, d = x_hat.shape
        tmp = _buffer(ws, "tmp", x_hat.shape, x_hat.dtype)
        if param_grad:
            grad_scale, grad_shift = grads = self._param_grads(grads, grad_out.dtype)
            np.multiply(grad_out, x_hat, out=tmp)
            _column_sums(tmp, grad_scale, ws)
            _column_sums(grad_out, grad_shift, ws)
        else:
            grads = None
        if not input_grad:
            return None, grads
        # (inv_std / d) * (d * grad_hat - rowsum(grad_hat) - x_hat * rowsum(grad_hat * x_hat))
        grad_hat = _buffer(ws, "grad_hat", x_hat.shape, x_hat.dtype)
        grad_in = _buffer(ws, "grad_in", x_hat.shape, x_hat.dtype)
        dot = _buffer(ws, "dot", (n, 1), x_hat.dtype)
        total = _buffer(ws, "total", (n, 1), x_hat.dtype)
        np.multiply(grad_out, self.scale, out=grad_hat)
        np.multiply(grad_hat, x_hat, out=tmp)
        _row_sums(tmp, dot, ws)
        _row_sums(grad_hat, total, ws)
        np.multiply(grad_hat, d, out=grad_in)
        grad_in -= total
        np.multiply(x_hat, dot, out=tmp)
        grad_in -= tmp
        np.divide(inv_std, d, out=total)
        grad_in *= total
        return grad_in, grads


class LeakyReLU(Activation):
    """``max(x, slope * x)``, which is the leaky ReLU for a slope in [0, 1]."""

    kind = "leakyrelu"

    def __init__(self, dim: int, slope: float = 0.01):
        super().__init__(dim)
        if not 0.0 <= slope <= 1.0:
            raise ConfigError(f"leakyrelu slope must lie in [0, 1], got {slope}")
        self.slope = float(slope)

    def forward(self, x, train, ws=None):
        ws = {} if ws is None else ws
        y = _buffer(ws, "out", x.shape, x.dtype)
        np.multiply(x, self.slope, out=y)
        np.maximum(x, y, out=y)
        return y, (y, ws)

    def backward(self, grad_out, cache, train, input_grad=True, grads=None, param_grad=True):
        # y > 0 exactly where x > 0; the factor is 1.0 there and the slope elsewhere
        y, ws = cache
        mask = _buffer(ws, "mask", y.shape, bool)
        grad_in = _buffer(ws, "grad_in", y.shape, y.dtype)
        np.greater(y, 0.0, out=mask)
        np.maximum(mask, self.slope, out=grad_in, dtype=y.dtype)
        grad_in *= grad_out
        return grad_in, []


class ReLU(Activation):
    kind = "relu"

    def forward(self, x, train, ws=None):
        ws = {} if ws is None else ws
        y = _buffer(ws, "out", x.shape, x.dtype)
        np.maximum(x, 0.0, out=y)
        return y, (y, ws)

    def backward(self, grad_out, cache, train, input_grad=True, grads=None, param_grad=True):
        # y > 0 exactly where x > 0
        y, ws = cache
        mask = _buffer(ws, "mask", y.shape, bool)
        grad_in = _buffer(ws, "grad_in", y.shape, y.dtype)
        np.greater(y, 0.0, out=mask)
        np.multiply(grad_out, mask, out=grad_in)
        return grad_in, []


class Sigmoid(Activation):
    kind = "sigmoid"

    def forward(self, x, train, ws=None):
        # 1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|), so
        # exp never overflows; outputs stay in the open interval (0, 1) even when
        # the exponential underflows
        ws = {} if ws is None else ws
        y = _buffer(ws, "out", x.shape, x.dtype)
        e = _buffer(ws, "exp", x.shape, x.dtype)
        mask = _buffer(ws, "mask", x.shape, bool)
        np.abs(x, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.add(e, 1.0, out=y)
        np.greater_equal(x, 0.0, out=mask)
        np.copyto(e, 1.0, where=mask)
        np.divide(e, y, out=y)
        # the bounds are the floats next to 0 and 1 in the input's own dtype:
        # float64 ones round to exactly 0.0 and 1.0 in float32
        info = np.finfo(y.dtype)
        np.clip(y, info.smallest_subnormal, 1.0 - info.epsneg, out=y)
        return y, (y, ws)

    def backward(self, grad_out, cache, train, input_grad=True, grads=None, param_grad=True):
        y, ws = cache
        grad_in = _buffer(ws, "grad_in", y.shape, y.dtype)
        np.multiply(grad_out, y, out=grad_in)
        np.subtract(1.0, y, out=ws["exp"])
        grad_in *= ws["exp"]
        return grad_in, []


class Softmax(Activation):
    kind = "softmax"

    def forward(self, x, train, ws=None):
        ws = {} if ws is None else ws
        y = _buffer(ws, "out", x.shape, x.dtype)
        row = _buffer(ws, "row", (x.shape[0], 1), x.dtype)
        # the row maxima as the column maxima of a transposed copy, which
        # numpy reduces several times faster than the rows of x
        xt = _buffer(ws, "transposed", x.shape[::-1], x.dtype)
        np.copyto(xt, x.T)
        np.maximum.reduce(xt, 0, None, row[:, 0])
        np.subtract(x, row, out=y)
        np.exp(y, out=y)
        _row_sums(y, row, ws)
        y /= row
        return y, (y, ws)

    def backward(self, grad_out, cache, train, input_grad=True, grads=None, param_grad=True):
        y, ws = cache
        grad_in = _buffer(ws, "grad_in", y.shape, y.dtype)
        row = ws["row"]
        np.multiply(grad_out, y, out=grad_in)
        _row_sums(grad_in, row, ws)
        np.subtract(grad_out, row, out=grad_in)
        grad_in *= y
        return grad_in, []


LAYER_KINDS = {
    cls.kind: cls for cls in (Dense, BatchNorm, LayerNorm, LeakyReLU, ReLU, Sigmoid, Softmax)
}


def check_batch(x, in_dim: int, context: str, dtype) -> np.ndarray:
    """Validate a batch: 2-d, right width, finite. Returns a view or copy in
    ``dtype``."""
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 2:
        raise ShapeError(f"{context}: expected a 2-d batch, got shape {x.shape}")
    if x.shape[1] != in_dim:
        raise ShapeError(f"{context}: expected {in_dim} columns, got {x.shape[1]}")
    if x.size and not np.isfinite(x).all():
        raise InputDataError(f"{context}: input contains NaN or Inf")
    return x
