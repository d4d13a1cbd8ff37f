"""Sequential network container with tape-based backpropagation.

``forward`` runs the layer stack; in train mode it records a tape of
per-layer caches that ``backward`` consumes. ``take_tape`` hands the tape to
the caller instead, which lets shared-parameter models run several forward
passes before backpropagating each one.

A network computes in the dtype of its parameters: ``forward`` casts its
input to that dtype and ``backward`` its upstream gradient.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ShapeError, StateError
from .layers import Layer, check_batch

# rows per eval-mode block: large enough to keep BLAS efficient, small enough
# that a block's activations stay a few MB for any batch size
EVAL_BLOCK = 4096


class Network:
    def __init__(self, layers: list[Layer], mode: str = "train"):
        if not layers:
            raise ConfigError("network needs at least one layer")
        for first, second in zip(layers, layers[1:]):
            if first.out_dim != second.in_dim:
                raise ShapeError(
                    f"layer dims do not chain: {first.kind}({first.out_dim}) then "
                    f"{second.kind}({second.in_dim})"
                )
        if mode not in ("train", "eval"):
            raise ConfigError(f"unknown mode {mode!r}")
        self.layers = list(layers)
        self.mode = mode
        self._tape = None

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def train(self) -> "Network":
        self.mode = "train"
        return self

    def eval(self) -> "Network":
        self.mode = "eval"
        self._tape = None
        return self

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    @property
    def dtype(self) -> np.dtype:
        """The compute dtype: that of the first parameter, float64 if none."""
        for layer in self.layers:
            for p in layer.params():
                return p.dtype
        return np.dtype(np.float64)

    def forward(self, x) -> np.ndarray:
        """Run the stack. Train mode stores a tape; eval mode mutates nothing.

        Eval mode runs the layers over consecutive slices of ``EVAL_BLOCK``
        rows, writes each into one preallocated output and drops every
        layer's cache, so its peak memory is a block's activations plus the
        output. Blocking is valid because every eval-mode layer is row-wise:
        Dense, BatchNorm on its running statistics, LayerNorm, the
        activations and Softmax each map a row on its own. A block size can
        still change BLAS's summation order, so results may differ from one
        pass in the last bits. Train mode cannot block: BatchNorm normalizes
        over the whole batch.
        """
        x = check_batch(x, self.in_dim, "forward", self.dtype)
        if self.mode == "train":
            caches = []
            for layer in self.layers:
                x, cache = layer.forward(x, True)
                caches.append(cache)
            self._tape = caches
            return x
        out = np.empty((x.shape[0], self.out_dim), dtype=x.dtype)
        for start in range(0, x.shape[0], EVAL_BLOCK):
            block = x[start:start + EVAL_BLOCK]
            for layer in self.layers:
                block, _ = layer.forward(block, False)
            out[start:start + EVAL_BLOCK] = block
        return out

    def take_tape(self):
        """Detach and return the tape from the last train-mode forward."""
        tape = self._tape
        self._tape = None
        if tape is None:
            raise StateError("no forward tape available; run a train-mode forward first")
        return tape

    def backward(self, grad_out, tape=None, input_grad=True):
        """Backpropagate ``grad_out`` through the last forward pass.

        Returns (grad_wrt_input, param_grads) with param_grads aligned with
        ``parameters()``. With no explicit tape, consumes the stored one.
        With ``input_grad=False`` the first layer skips its input gradient
        and the returned one is None.
        """
        if tape is None:
            tape = self._tape
            self._tape = None
            if tape is None:
                raise StateError("backward called without a cached forward pass")
        grad_out = np.asarray(grad_out, dtype=self.dtype)
        if grad_out.ndim != 2 or grad_out.shape[1] != self.out_dim:
            raise ShapeError(
                f"upstream gradient shape {grad_out.shape} does not match output width "
                f"{self.out_dim}"
            )
        train = self.mode == "train"
        per_layer: list[list[np.ndarray]] = []
        grad = grad_out
        for i in range(len(self.layers) - 1, -1, -1):
            grad, param_grads = self.layers[i].backward(grad, tape[i], train,
                                                        input_grad=input_grad or i > 0)
            per_layer.append(param_grads)
        per_layer.reverse()
        flat = [g for grads in per_layer for g in grads]
        return (grad if input_grad else None), flat


def add_grads(a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
    if len(a) != len(b):
        raise ShapeError("gradient lists have different lengths")
    return [x + y for x, y in zip(a, b)]
