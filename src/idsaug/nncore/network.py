"""Sequential network container with tape-based backpropagation.

``forward`` runs the layer stack; in train mode it records a tape of
per-layer caches that ``backward`` consumes. ``take_tape`` hands the tape to
the caller instead, which lets shared-parameter models run several forward
passes before backpropagating each one.

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
network computes in that dtype: ``forward`` casts its input to it and
``backward`` its upstream gradient.

Buffers. A train-mode forward writes every layer's output and cache into a
workspace: one buffer dict per layer (see ``layers``), made for one batch
shape and dtype. The workspace belongs to the forward's tape until
``backward`` consumes that tape, and then returns to the network's pool of
free workspaces for that shape, so two live tapes never share memory and a
train step allocates only the arrays it hands back: ``forward``'s output and
``backward``'s input gradient are copies the caller owns. A stored tape that
is replaced by the next forward without a backward returns its workspace too.
``eval()`` drops the pool, and an eval-mode forward keeps nothing.

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

# rows per eval-mode block: large enough to keep BLAS efficient, small enough
# that a block's activations stay a few MB for any batch size
EVAL_BLOCK = 4096


class Tape:
    """One train-mode forward: its layer caches and the workspace they live in."""

    __slots__ = ("rows", "workspace", "caches")

    def __init__(self, rows: int, workspace: list[dict], caches: list):
        self.rows = rows
        self.workspace = workspace
        self.caches = caches


class Network:
    def __init__(self, layers: list[Layer], mode: str = "train", dtype=None):
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
        # free workspaces by batch rows
        self._pool: dict[tuple, list[list[dict]]] = {}
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

    def forward(self, x, check: bool = True) -> np.ndarray:
        """Run the stack. Train mode stores a tape; eval mode mutates nothing.

        ``check=False`` skips ``check_batch`` (shape and finiteness) and only
        casts ``x``: for a training loop that checked its whole input once.

        Eval mode runs the layers over consecutive slices of ``EVAL_BLOCK``
        rows, writes each into one preallocated output and drops every
        layer's cache, so its peak memory is a block's activations plus the
        output. Blocking is valid because every eval-mode layer is row-wise:
        Dense, BatchNorm on its running statistics, LayerNorm and the
        activations each map a row on its own. A block size can still change
        BLAS's summation order, so results may differ from one pass in the
        last bits. Train mode cannot block: BatchNorm normalizes over the
        whole batch.
        """
        if check:
            x = check_batch(x, self.in_dim, "forward", self.dtype)
        else:
            x = np.asarray(x, dtype=self.dtype)
        if self.mode == "train":
            if self._tape is not None:
                self._release(self._tape)
            free = self._pool.get(x.shape[0])
            workspace = free.pop() if free else [{} for _ in self.layers]
            caches = []
            for layer, ws in zip(self.layers, workspace):
                x, cache = layer.forward(x, True, ws)
                caches.append(cache)
            self._tape = Tape(x.shape[0], workspace, caches)
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
        self._pool.setdefault(tape.rows, []).append(tape.workspace)

    def _views(self, flat: np.ndarray) -> list[list[np.ndarray]]:
        """Per-layer views of a vector laid out as ``params``."""
        views, pos = [], 0
        for layer in self.layers:
            views.append([])
            for p in layer.params():
                views[-1].append(flat[pos:pos + p.size].reshape(p.shape))
                pos += p.size
        return views

    def backward(self, grad_out, tape: Tape | None = None, input_grad: bool = True,
                 param_grad: bool = True, accumulate: bool = False):
        """Backpropagate ``grad_out`` through the last forward pass.

        Returns (grad_wrt_input, param_grads): param_grads are views of
        ``grad``, aligned with ``parameters()``, valid until the next
        backward. With no explicit tape, consumes the stored one; a tape can
        be backpropagated once. With ``input_grad=False`` the first layer
        skips its input gradient and the returned one is None. With
        ``param_grad=False`` no layer computes its parameter gradients,
        ``grad`` is left as it was and the returned param_grads are None: a
        pass that needs only the input gradient, like a generator step
        through a frozen discriminator. With ``accumulate=True`` the
        parameter gradients are added to ``grad``.
        """
        if tape is None:
            tape = self._tape
            self._tape = None
            if tape is None:
                raise StateError("backward called without a cached forward pass")
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
        train = self.mode == "train"
        grad = grad_out
        for i in reversed(range(len(self.layers))):
            grad, _ = self.layers[i].backward(grad, tape.caches[i], train, input_grad or i > 0,
                                              layer_grads[i], param_grad)
        if accumulate and param_grad:
            self.grad += self._extra
        self._release(tape)
        return (grad.copy() if input_grad else None), (self.grads if param_grad else None)
