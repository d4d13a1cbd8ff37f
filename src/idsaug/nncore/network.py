"""Sequential network container with tape-based backpropagation.

A network has two passes. ``forward`` is the training pass: it returns its
output together with a tape of per-layer caches, and ``backward`` takes that
tape explicitly, so shared-parameter models run several training passes
before backpropagating each one. ``infer`` is inference: it checks its
input, runs batchnorm on its running statistics and keeps nothing. Every
tape comes from a training pass, so its backward is always the training
pass's gradient.

Parameters. The constructor copies every layer's parameters, in
``parameters()`` order, into one flat vector ``params`` and rebinds each
layer's parameter attributes to views of it, so a layer computes with the
network's own storage and an update of ``params`` is an update of every
layer. From then on the layer refuses to have a parameter attribute
rebound (``StateError``), since a rebound array would be cut off from
``params``; only this constructor rebinds them, even for layers another
network held. The dtype of that vector is given at construction, or is
that of the layers' first parameter when none is given, and never changes;
the layers' other arrays (batchnorm's running statistics) are cast to it. A
network computes in that dtype: both passes cast their input to it and
``backward`` its upstream gradient.

Buffers. A training pass writes every layer's output and cache into a
workspace: one buffer dict per layer (see ``layers``), made for one batch
shape and dtype. The workspace belongs to the pass's tape until ``backward``
consumes that tape, and then returns to the network's pool of free
workspaces for that shape, so two live tapes never share memory and a train
step allocates only the arrays it hands back: ``forward``'s output and
``backward``'s input gradient are copies the caller owns. A tape that is
never backpropagated takes its workspace with it. ``infer`` uses no
workspace.

Gradients. ``backward`` writes the parameter gradients into ``grad``, a
flat vector laid out as ``params`` (each layer writes straight into its
slice), and returns per-parameter views of it. With ``accumulate=True`` it
adds to what ``grad`` holds instead, which sums the gradients of several
passes through shared parameters. ``Adam.step(net.params, net.grad)`` takes
both vectors whole, with no gather and no scatter.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ShapeError, StateError
from .layers import Layer, check_batch

# rows per inference block: large enough to keep BLAS efficient, small enough
# that a block's activations stay a few MB for any batch size
EVAL_BLOCK = 4096


class Tape:
    """One training pass: its layer caches and the workspace they live in."""

    __slots__ = ("rows", "workspace", "caches")

    def __init__(self, rows: int, workspace: list[dict], caches: list):
        self.rows = rows
        self.workspace = workspace
        self.caches = caches


class Network:
    def __init__(self, layers: list[Layer], dtype=None):
        if not layers:
            raise ConfigError("network needs at least one layer")
        for first, second in zip(layers, layers[1:]):
            if first.out_dim != second.in_dim:
                raise ShapeError(
                    f"layer dims do not chain: {first.kind}({first.out_dim}) then "
                    f"{second.kind}({second.in_dim})"
                )
        self.layers = list(layers)
        # free workspaces by batch rows
        self._pool: dict[int, list[list[dict]]] = {}
        params = self.parameters()
        if dtype is None:
            dtype = params[0].dtype if params else np.float64
        self.dtype = np.dtype(dtype)
        size = sum(p.size for p in params)
        self.params = np.empty(size, self.dtype)
        for layer, views in zip(self.layers, self._views(self.params)):
            for name, view in zip(layer.param_names, views):
                view[...] = getattr(layer, name)
                object.__setattr__(layer, name, view)  # past the guard of an owned layer
            for name in layer.stat_names:
                setattr(layer, name, getattr(layer, name).astype(self.dtype))
            layer._owned = True
        # the flat parameter gradient and its per-layer lists of views; a
        # second one to accumulate through is made by the first backward
        # that accumulates
        self.grad = np.zeros(size, self.dtype)
        self._layer_grads = self._views(self.grad)
        self.grads = [g for views in self._layer_grads for g in views]
        self._extra: np.ndarray | None = None
        self._extra_grads: list[list[np.ndarray]] = []

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x) -> tuple[np.ndarray, Tape]:
        """The training pass: returns the output and the tape ``backward`` takes.

        ``x`` is cast to the network's dtype, not checked: a training loop
        checks its whole input once. Batchnorm normalizes over the whole
        batch and updates its running statistics.
        """
        x = np.asarray(x, dtype=self.dtype)
        free = self._pool.get(x.shape[0])
        workspace = free.pop() if free else [{} for _ in self.layers]
        caches = []
        for layer, ws in zip(self.layers, workspace):
            x, cache = layer.forward(x, ws)
            caches.append(cache)
        return x.copy(), Tape(x.shape[0], workspace, caches)

    def infer(self, x) -> np.ndarray:
        """Inference: checks ``x`` (shape and finiteness) and mutates nothing.

        Runs the layers over consecutive slices of ``EVAL_BLOCK`` rows,
        writes each into one preallocated output and keeps no cache, so its
        peak memory is a block's activations plus the output. Blocking is
        valid because every layer's inference maps a row on its own: Dense,
        BatchNorm on its running statistics, LayerNorm and the activations.
        A block size can still change BLAS's summation order, so results may
        differ from one pass in the last bits. A training pass cannot block:
        BatchNorm normalizes over the whole batch.
        """
        x = check_batch(x, self.in_dim, "infer", self.dtype)
        out = np.empty((x.shape[0], self.out_dim), dtype=x.dtype)
        for start in range(0, x.shape[0], EVAL_BLOCK):
            block = x[start:start + EVAL_BLOCK]
            for layer in self.layers:
                block = layer.infer(block)
            out[start:start + EVAL_BLOCK] = block
        return out

    def _views(self, flat: np.ndarray) -> list[list[np.ndarray]]:
        """Per-layer views of a vector laid out as ``params``."""
        views, pos = [], 0
        for layer in self.layers:
            views.append([])
            for p in layer.params():
                views[-1].append(flat[pos:pos + p.size].reshape(p.shape))
                pos += p.size
        return views

    def backward(self, grad_out, tape: Tape, input_grad: bool = True,
                 param_grad: bool = True, accumulate: bool = False):
        """Backpropagate ``grad_out`` through the training pass of ``tape``.

        Returns (grad_wrt_input, param_grads): param_grads are views of
        ``grad``, aligned with ``parameters()``, valid until the next
        backward. A tape can be backpropagated once; its workspace then
        returns to the pool. With ``input_grad=False`` the first layer skips
        its input gradient and the returned one is None. With
        ``param_grad=False`` no layer computes its parameter gradients,
        ``grad`` is left as it was and the returned param_grads are None: a
        pass that needs only the input gradient, like a generator step
        through a frozen discriminator. With ``accumulate=True`` the
        parameter gradients are added to ``grad``.
        """
        if tape.caches is None:
            raise StateError("this tape was already backpropagated")
        grad_out = np.asarray(grad_out, dtype=self.dtype)
        if grad_out.shape != (tape.rows, self.out_dim):
            raise ShapeError(
                f"upstream gradient shape {grad_out.shape} does not match the forward "
                f"pass's {(tape.rows, self.out_dim)}"
            )
        layer_grads = [None] * len(self.layers)
        if param_grad:
            if accumulate and self._extra is None:
                self._extra = np.empty_like(self.grad)
                self._extra_grads = self._views(self._extra)
            layer_grads = self._extra_grads if accumulate else self._layer_grads
        grad = grad_out
        for i in reversed(range(len(self.layers))):
            grad = self.layers[i].backward(grad, tape.caches[i], input_grad or i > 0,
                                           layer_grads[i])
        if accumulate and param_grad:
            self.grad += self._extra
        tape.caches = None
        self._pool.setdefault(tape.rows, []).append(tape.workspace)
        return (grad.copy() if input_grad else None), (self.grads if param_grad else None)
