"""Dense feed-forward layers with explicit forward and backward passes.

Every layer maps a (batch, in_dim) float64 array to (batch, out_dim) and
returns a cache that its own ``backward`` consumes. ``backward`` returns the
gradient with respect to the input plus one gradient per entry of
``params()``, in the same order. All math is float64 throughout.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, InputDataError, ShapeError


class Layer:
    kind = "layer"

    def __init__(self, in_dim: int, out_dim: int):
        if in_dim < 1 or out_dim < 1:
            raise ConfigError(f"{self.kind}: dims must be positive, got {in_dim}x{out_dim}")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)

    def params(self) -> list[np.ndarray]:
        return []

    def forward(self, x: np.ndarray, train: bool):
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray, cache, train: bool):
        raise NotImplementedError


class Activation(Layer):
    """Base for elementwise/rowwise layers where in_dim == out_dim."""

    def __init__(self, dim: int):
        super().__init__(dim, dim)


class Dense(Layer):
    kind = "dense"

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None):
        super().__init__(in_dim, out_dim)
        if rng is None:
            rng = np.random.default_rng()
        limit = math.sqrt(6.0 / (in_dim + out_dim))
        self.weights = rng.uniform(-limit, limit, size=(in_dim, out_dim))
        self.bias = np.zeros(out_dim)

    def params(self):
        return [self.weights, self.bias]

    def forward(self, x, train):
        out = x @ self.weights
        out += self.bias
        return out, (x,)

    def backward(self, grad_out, cache, train):
        (x,) = cache
        grad_w = x.T @ grad_out
        grad_b = grad_out.sum(axis=0)
        return grad_out @ self.weights.T, [grad_w, grad_b]


class BatchNorm(Activation):
    """Per-feature normalization over the batch with running statistics."""

    kind = "batchnorm"

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

    def params(self):
        return [self.scale, self.shift]

    def forward(self, x, train):
        if train:
            n = x.shape[0]
            if n < 2:
                raise InputDataError("batchnorm needs a batch of at least 2 rows in train mode")
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            inv_std = 1.0 / np.sqrt(var + self.epsilon)
            x_hat = (x - mean) * inv_std
            m = self.momentum
            self.running_mean = (1.0 - m) * self.running_mean + m * mean
            # running variance tracks the unbiased estimate
            self.running_var = (1.0 - m) * self.running_var + m * var * (n / (n - 1.0))
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.epsilon)
            x_hat = (x - self.running_mean) * inv_std
        return self.scale * x_hat + self.shift, (x_hat, inv_std)

    def backward(self, grad_out, cache, train):
        x_hat, inv_std = cache
        grad_scale = (grad_out * x_hat).sum(axis=0)
        grad_shift = grad_out.sum(axis=0)
        grad_hat = grad_out * self.scale
        if train:
            n = x_hat.shape[0]
            grad_in = (inv_std / n) * (
                n * grad_hat - grad_hat.sum(axis=0) - x_hat * (grad_hat * x_hat).sum(axis=0)
            )
        else:
            grad_in = grad_hat * inv_std
        return grad_in, [grad_scale, grad_shift]


class LayerNorm(Activation):
    """Per-row normalization over features; identical in train and eval."""

    kind = "layernorm"

    def __init__(self, dim: int, epsilon: float = 1e-5):
        super().__init__(dim)
        if epsilon <= 0.0:
            raise ConfigError("layernorm epsilon must be positive")
        self.epsilon = float(epsilon)
        self.scale = np.ones(dim)
        self.shift = np.zeros(dim)

    def params(self):
        return [self.scale, self.shift]

    def forward(self, x, train):
        mean = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        x_hat = (x - mean) * inv_std
        return self.scale * x_hat + self.shift, (x_hat, inv_std)

    def backward(self, grad_out, cache, train):
        x_hat, inv_std = cache
        d = self.out_dim
        grad_scale = (grad_out * x_hat).sum(axis=0)
        grad_shift = grad_out.sum(axis=0)
        grad_hat = grad_out * self.scale
        grad_in = (inv_std / d) * (
            d * grad_hat
            - grad_hat.sum(axis=1, keepdims=True)
            - x_hat * (grad_hat * x_hat).sum(axis=1, keepdims=True)
        )
        return grad_in, [grad_scale, grad_shift]


class LeakyReLU(Activation):
    """``max(x, slope * x)``, which is the leaky ReLU for a slope in [0, 1]."""

    kind = "leakyrelu"

    def __init__(self, dim: int, slope: float = 0.01):
        super().__init__(dim)
        if not 0.0 <= slope <= 1.0:
            raise ConfigError(f"leakyrelu slope must lie in [0, 1], got {slope}")
        self.slope = float(slope)

    def forward(self, x, train):
        y = self.slope * x
        np.maximum(x, y, out=y)
        return y, (y,)

    def backward(self, grad_out, cache, train):
        # y > 0 exactly where x > 0; the factor is 1.0 there and the slope elsewhere
        (y,) = cache
        factor = np.maximum(y > 0.0, self.slope)
        factor *= grad_out
        return factor, []


class ReLU(Activation):
    kind = "relu"

    def forward(self, x, train):
        y = np.maximum(x, 0.0)
        return y, (y,)

    def backward(self, grad_out, cache, train):
        # y > 0 exactly where x > 0
        (y,) = cache
        return grad_out * (y > 0.0), []


class Sigmoid(Activation):
    kind = "sigmoid"

    _LOW = np.nextafter(0.0, 1.0)
    _HIGH = np.nextafter(1.0, 0.0)

    def forward(self, x, train):
        # split by sign so exp never overflows; outputs stay strictly inside
        # (0, 1) even when the exponential underflows
        y = np.empty_like(x)
        pos = x >= 0.0
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)
        np.clip(y, self._LOW, self._HIGH, out=y)
        return y, (y,)

    def backward(self, grad_out, cache, train):
        (y,) = cache
        return grad_out * y * (1.0 - y), []


class Softmax(Activation):
    kind = "softmax"

    def forward(self, x, train):
        shifted = x - x.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=1, keepdims=True)
        return y, (y,)

    def backward(self, grad_out, cache, train):
        (y,) = cache
        inner = (grad_out * y).sum(axis=1, keepdims=True)
        return y * (grad_out - inner), []


LAYER_KINDS = {
    cls.kind: cls for cls in (Dense, BatchNorm, LayerNorm, LeakyReLU, ReLU, Sigmoid, Softmax)
}


def check_batch(x, in_dim: int, context: str) -> np.ndarray:
    """Validate a batch: 2-d, right width, finite. Returns float64 view/copy."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"{context}: expected a 2-d batch, got shape {x.shape}")
    if x.shape[1] != in_dim:
        raise ShapeError(f"{context}: expected {in_dim} columns, got {x.shape[1]}")
    if x.size and not np.isfinite(x).all():
        raise InputDataError(f"{context}: input contains NaN or Inf")
    return x
