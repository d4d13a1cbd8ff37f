"""Sequential network container with tape-based backpropagation.

``forward`` runs the layer stack; in train mode it records a tape of
per-layer caches that ``backward`` consumes. ``take_tape`` hands the tape to
the caller instead, which lets shared-parameter models run several forward
passes before backpropagating each one.

A network computes in the dtype of its parameters: ``forward`` casts its
input to that dtype and ``backward`` its upstream gradient.

Buffers. A train-mode forward writes every layer's output and cache into a
workspace: one buffer dict per layer (see ``layers``), made for one batch
shape and dtype. The workspace belongs to the forward's tape until
``backward`` consumes that tape, and then returns to the network's pool of
free workspaces for that shape, so two live tapes never share memory and a
train step allocates only the arrays it hands back: ``forward``'s output and
``backward``'s input gradient are copies the caller owns. A stored tape that
is replaced by the next forward without a backward returns its workspace too.
``eval()`` drops the pool, and an eval-mode forward keeps nothing.

Gradients. ``backward`` writes the parameter gradients into ``grad``, one
flat vector in the parameters' dtype and in ``parameters()`` order (each
layer writes straight into its slice), and returns per-parameter views of
it. With ``accumulate=True`` it adds to what ``grad`` holds instead, which
sums the gradients of several passes through shared parameters.
``Adam.step(params, net.grad)`` takes that vector whole, with no gather.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ShapeError, StateError
from .layers import Layer, check_batch

# rows per eval-mode block: large enough to keep BLAS efficient, small enough
# that a block's activations stay a few MB for any batch size
EVAL_BLOCK = 4096


class Tape:
    """One train-mode forward: its layer caches and the workspace they live in."""

    __slots__ = ("key", "workspace", "caches")

    def __init__(self, key, workspace: list[dict], caches: list):
        self.key = key
        self.workspace = workspace
        self.caches = caches


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
        self._tape: Tape | None = None
        # free workspaces by (rows, dtype)
        self._pool: dict[tuple, list[list[dict]]] = {}
        # the flat parameter gradient, a second one to accumulate through, and
        # each one's per-layer lists of views; made by the first backward
        self.grad: np.ndarray | None = None
        self.grads: list[np.ndarray] = []
        self._layer_grads: list[list[np.ndarray]] = []
        self._extra: np.ndarray | None = None
        self._extra_grads: list[list[np.ndarray]] = []

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
        self._pool = {}
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

    def forward(self, x, check: bool = True) -> np.ndarray:
        """Run the stack. Train mode stores a tape; eval mode mutates nothing.

        ``check=False`` skips ``check_batch`` (shape and finiteness) and only
        casts ``x``: for a training loop that checked its whole input once.

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
        dtype = self.dtype
        if check:
            x = check_batch(x, self.in_dim, "forward", dtype)
        else:
            x = np.asarray(x, dtype=dtype)
        if self.mode == "train":
            if self._tape is not None:
                self._release(self._tape)
            key = (x.shape[0], dtype)
            free = self._pool.get(key)
            workspace = free.pop() if free else [{} for _ in self.layers]
            caches = []
            for layer, ws in zip(self.layers, workspace):
                x, cache = layer.forward(x, True, ws)
                caches.append(cache)
            self._tape = Tape(key, workspace, caches)
            return x.copy()
        out = np.empty((x.shape[0], self.out_dim), dtype=x.dtype)
        for start in range(0, x.shape[0], EVAL_BLOCK):
            block = x[start:start + EVAL_BLOCK]
            for layer in self.layers:
                block, _ = layer.forward(block, False)
            out[start:start + EVAL_BLOCK] = block
        return out

    def take_tape(self) -> Tape:
        """Detach and return the tape from the last train-mode forward."""
        tape = self._tape
        self._tape = None
        if tape is None:
            raise StateError("no forward tape available; run a train-mode forward first")
        return tape

    def _release(self, tape: Tape):
        """Return a tape's workspace to the pool; the tape is spent."""
        tape.caches = None
        self._pool.setdefault(tape.key, []).append(tape.workspace)

    def _grad_views(self, flat: np.ndarray) -> list[list[np.ndarray]]:
        views, pos = [], 0
        for layer in self.layers:
            views.append([])
            for p in layer.params():
                views[-1].append(flat[pos:pos + p.size].reshape(p.shape))
                pos += p.size
        return views

    def backward(self, grad_out, tape: Tape | None = None, input_grad: bool = True,
                 accumulate: bool = False, skip_last: bool = False):
        """Backpropagate ``grad_out`` through the last forward pass.

        Returns (grad_wrt_input, param_grads): param_grads are views of
        ``grad``, aligned with ``parameters()``, valid until the next
        backward. With no explicit tape, consumes the stored one; a tape can
        be backpropagated once. With ``input_grad=False`` the first layer
        skips its input gradient and the returned one is None. With
        ``accumulate=True`` the parameter gradients are added to ``grad``.
        With ``skip_last=True``, ``grad_out`` is the gradient of the last
        layer's input and that layer, which must hold no parameters, is
        skipped: a softmax output trained with ``cross_entropy_loss(...,
        wrt="logits")``.
        """
        if tape is None:
            tape = self._tape
            self._tape = None
            if tape is None:
                raise StateError("backward called without a cached forward pass")
        if tape.caches is None:
            raise StateError("this tape was already backpropagated")
        top = len(self.layers) - 1 - skip_last
        if skip_last and self.layers[-1].params():
            raise ConfigError("skip_last needs a last layer without parameters")
        dtype = self.dtype
        grad_out = np.asarray(grad_out, dtype=dtype)
        if grad_out.shape != (tape.key[0], self.layers[top].out_dim):
            raise ShapeError(
                f"upstream gradient shape {grad_out.shape} does not match the forward "
                f"pass's {(tape.key[0], self.layers[top].out_dim)}"
            )
        if self.grad is None or self.grad.dtype != dtype:
            self.grad = np.zeros(sum(p.size for p in self.parameters()), dtype)
            self._layer_grads = self._grad_views(self.grad)
            self.grads = [g for views in self._layer_grads for g in views]
            self._extra = None
        if accumulate and self._extra is None:
            self._extra = np.empty_like(self.grad)
            self._extra_grads = self._grad_views(self._extra)
        layer_grads = self._extra_grads if accumulate else self._layer_grads
        train = self.mode == "train"
        grad = grad_out
        for i in range(top, -1, -1):
            grad, _ = self.layers[i].backward(grad, tape.caches[i], train,
                                              input_grad or i > 0, layer_grads[i])
        if accumulate:
            self.grad += self._extra
        self._release(tape)
        return (grad.copy() if input_grad else None), self.grads
