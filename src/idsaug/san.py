"""Siamese autoencoder: twin shared-parameter encoders/decoders.

Both twins are the same physical encoder and decoder, so one optimizer
update moves both. Training combines the two reconstruction errors with a
contrastive term on the encoder outputs; the trained encoder supplies the
16-dim conditional codes the generator consumes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataio import _check_unit_range
from .errors import ConfigError, DataError, TrainingDivergedError
from .nncore import (
    Adam,
    BatchNorm,
    Dense,
    LeakyReLU,
    Network,
    contrastive_loss,
    reconstruction_loss,
)
from .nncore.checkpoint import read_record, write_record
from .seeding import as_generator

SAN_MAGIC = b"IDSAUG-SAN-2\n"


@dataclass
class SanConfig:
    code_dim: int = 16
    hidden_dims: tuple[int, ...] = (64, 32)
    epochs: int = 50
    batch_size: int = 64
    pairs_per_epoch: int = 512
    dissimilar_fraction: float = 0.5
    margin: float = 1.0
    alpha: float = 1.0
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.code_dim < 1:
            raise ConfigError("code_dim must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be at least 2 (batchnorm needs it)")
        if self.pairs_per_epoch < 2:
            raise ConfigError("pairs_per_epoch must be at least 2")
        if not 0.0 <= self.dissimilar_fraction <= 1.0:
            raise ConfigError("dissimilar_fraction must lie in [0, 1]")
        if not (math.isfinite(self.margin) and self.margin > 0.0):
            raise ConfigError(f"margin must be finite and positive, got {self.margin}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ConfigError(f"alpha must be finite and at least 0, got {self.alpha}")
        if not self.lr > 0.0:
            raise ConfigError(f"SAN learning rate must be positive, got {self.lr}")


@dataclass
class PairBatch:
    x1: np.ndarray
    x2: np.ndarray
    y: np.ndarray
    idx1: np.ndarray = field(default=None)
    idx2: np.ndarray = field(default=None)


class SanModel:
    """Shared encoder/decoder pair plus the contrastive margin and weight."""

    def __init__(self, encoder: Network, decoder: Network, margin: float = 1.0,
                 alpha: float = 1.0):
        if encoder.out_dim != decoder.in_dim:
            raise ConfigError("encoder output width must match decoder input width")
        self.encoder = encoder
        self.decoder = decoder
        self.margin = float(margin)
        self.alpha = float(alpha)

    @property
    def input_dim(self) -> int:
        return self.encoder.in_dim

    @property
    def code_dim(self) -> int:
        return self.encoder.out_dim


def build_san(input_dim: int, config: SanConfig, rng: np.random.Generator) -> SanModel:
    """Encoder input->hidden->code and a mirrored decoder, weights drawn from
    ``rng``.

    Every dense layer except the decoder's output gets batchnorm plus
    leaky ReLU.
    """
    enc_layers = []
    prev = input_dim
    for width in list(config.hidden_dims) + [config.code_dim]:
        enc_layers += [Dense(prev, width, rng), BatchNorm(width), LeakyReLU(width)]
        prev = width
    dec_layers = []
    for width in reversed(config.hidden_dims):
        dec_layers += [Dense(prev, width, rng), BatchNorm(width), LeakyReLU(width)]
        prev = width
    dec_layers.append(Dense(prev, input_dim, rng))
    return SanModel(Network(enc_layers), Network(dec_layers),
                    margin=config.margin, alpha=config.alpha)


def sample_pairs(features, labels, pair_count: int, dissimilar_fraction: float,
                 rng) -> PairBatch:
    """Draw index pairs, a fixed fraction from different classes.

    A similar pair takes a uniform class among those with at least two rows,
    then a uniform row ``i`` of it and a uniform row ``j`` among the others
    (``j`` uniform in [0, n-1), shifted past ``i``). A dissimilar pair takes
    a uniform class ``ca``, a uniform class ``cb`` among the others, then a
    uniform row of each. Each kind is drawn in a few vectorised calls, and a
    final permutation mixes the kinds.

    The two rows of a pair are always distinct. With a single class (or no
    class holding two samples) the impossible kind degrades with a warning.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.shape[0] < 2:
        raise DataError("need at least 2 samples to form pairs")
    if pair_count < 1:
        raise ConfigError("pair_count must be positive")
    rng = as_generator(rng)

    # each class's row indices, ascending, as one slice of ``members``
    _, inverse, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    members = np.argsort(inverse, kind="stable")
    starts = np.cumsum(sizes) - sizes
    sim_classes = np.flatnonzero(sizes >= 2)

    n_dissimilar = int(np.floor(pair_count * dissimilar_fraction + 0.5))
    if sizes.size < 2 and n_dissimilar > 0:
        warnings.warn("only one class present; all pairs will be similar")
        n_dissimilar = 0
    n_similar = pair_count - n_dissimilar
    if not sim_classes.size and n_similar > 0:
        warnings.warn("no class has two samples; all pairs will be dissimilar")
        n_dissimilar = pair_count
        n_similar = 0

    c = sim_classes[rng.integers(sim_classes.size, size=n_similar)]
    i = rng.integers(sizes[c])
    j = rng.integers(sizes[c] - 1)
    j += j >= i
    ca = rng.integers(sizes.size, size=n_dissimilar)
    cb = rng.integers(sizes.size - 1, size=n_dissimilar)
    cb += cb >= ca
    a = rng.integers(sizes[ca])
    b = rng.integers(sizes[cb])
    idx1 = members[np.concatenate([starts[c] + i, starts[ca] + a])]
    idx2 = members[np.concatenate([starts[c] + j, starts[cb] + b])]
    y = np.repeat([0.0, 1.0], [n_similar, n_dissimilar])
    order = rng.permutation(pair_count)
    idx1, idx2, y = idx1[order], idx2[order], y[order]
    return PairBatch(features[idx1], features[idx2], y, idx1, idx2)


def _loss_and_grads(model: SanModel, batch: PairBatch):
    """Combined loss plus parameter gradients for both shared networks.

    Each network's gradients over both twins are summed in its ``grad``; the
    returned per-parameter lists are views of it."""
    enc, dec = model.encoder, model.decoder
    e1, tape_e1 = enc.forward(batch.x1)
    r1, tape_d1 = dec.forward(e1)
    e2, tape_e2 = enc.forward(batch.x2)
    r2, tape_d2 = dec.forward(e2)

    loss_r1, grad_r1 = reconstruction_loss(batch.x1, r1)
    loss_r2, grad_r2 = reconstruction_loss(batch.x2, r2)
    loss_c, grad_e1c, grad_e2c = contrastive_loss(e1, e2, batch.y, model.margin)
    loss = loss_r1 + loss_r2 + model.alpha * loss_c

    grad_e1_dec, _ = dec.backward(grad_r1, tape_d1)
    grad_e2_dec, _ = dec.backward(grad_r2, tape_d2, accumulate=True)
    grad_e1_dec += model.alpha * grad_e1c
    grad_e2_dec += model.alpha * grad_e2c
    enc.backward(grad_e1_dec, tape_e1, input_grad=False)
    _, enc_grads = enc.backward(grad_e2_dec, tape_e2, input_grad=False, accumulate=True)
    return loss, enc_grads, dec.grads


def san_loss(model: SanModel, batch: PairBatch) -> float:
    """Reconstruction of both twins plus the weighted contrastive term, over
    training passes: the loss whose gradients ``_loss_and_grads`` takes."""
    enc, dec = model.encoder, model.decoder
    e1, _ = enc.forward(batch.x1)
    r1, _ = dec.forward(e1)
    e2, _ = enc.forward(batch.x2)
    r2, _ = dec.forward(e2)
    loss_r1, _ = reconstruction_loss(batch.x1, r1)
    loss_r2, _ = reconstruction_loss(batch.x2, r2)
    loss_c, _, _ = contrastive_loss(e1, e2, batch.y, model.margin)
    return loss_r1 + loss_r2 + model.alpha * loss_c


def train_san(features, labels, config: SanConfig) -> tuple[SanModel, list[float]]:
    """Train the shared twins; returns the model plus the per-epoch mean loss
    history."""
    features = np.asarray(features, dtype=np.float64)
    _check_unit_range(features, "train_san")
    seq = np.random.SeedSequence(config.seed)
    rng_init, rng_pairs = (np.random.default_rng(s) for s in seq.spawn(2))
    model = build_san(features.shape[1], config, rng_init)
    if config.epochs == 0:
        return model, []

    enc, dec = model.encoder, model.decoder
    opt_enc = Adam(enc.params, lr=config.lr)
    opt_dec = Adam(dec.params, lr=config.lr)
    history = []
    for epoch in range(config.epochs):
        pairs = sample_pairs(features, labels, config.pairs_per_epoch,
                             config.dissimilar_fraction, rng_pairs)
        losses = []
        for start in range(0, config.pairs_per_epoch, config.batch_size):
            stop = min(start + config.batch_size, config.pairs_per_epoch)
            if stop - start < 2:
                continue
            sub = PairBatch(pairs.x1[start:stop], pairs.x2[start:stop], pairs.y[start:stop])
            loss, _, _ = _loss_and_grads(model, sub)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"siamese autoencoder loss became non-finite at epoch {epoch + 1}",
                    epoch=epoch + 1,
                )
            opt_enc.step(enc.params, enc.grad)
            opt_dec.step(dec.params, dec.grad)
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return model, history


def encode(model: SanModel, data) -> np.ndarray:
    """Deterministic codes for a batch: the encoder's inference pass."""
    return model.encoder.infer(data)


def save_san(path, model: SanModel):
    write_record(path, SAN_MAGIC, {"margin": model.margin, "alpha": model.alpha},
                 networks=[model.encoder, model.decoder])


def load_san(path) -> SanModel:
    meta, (encoder, decoder), _ = read_record(path, SAN_MAGIC, n_networks=2)
    return SanModel(encoder, decoder, margin=meta["margin"], alpha=meta["alpha"])
