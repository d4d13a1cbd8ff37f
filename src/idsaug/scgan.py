"""Conditional GAN over flow features, conditioned on autoencoder codes.

Each training step updates the discriminator on real and generated rows,
then the generator against the frozen, freshly updated discriminator.
Generated rows pass a discriminator-score filter before entering the
augmented dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import _check_unit_range
from .errors import (
    ConfigError,
    DataError,
    InputDataError,
    StateError,
    TrainingDivergedError,
    YieldError,
)
from .nncore import (
    Adam,
    BatchNorm,
    Dense,
    LayerNorm,
    LeakyReLU,
    Network,
    Sigmoid,
    adversarial_losses,
    discriminator_score_grads,
    generator_score_grad,
)
from .nncore.checkpoint import read_record, write_record
from .san import SanModel, encode
from .seeding import as_generator

SCGAN_MAGIC = b"IDSAUG-GAN-2\n"


@dataclass
class ScganConfig:
    noise_dim: int = 16
    gen_hidden: tuple[int, ...] = (32, 64, 128)
    disc_hidden: tuple[int, ...] = (64, 8)
    epochs: int = 300
    batch_size: int = 16
    lr: float = 2e-4
    seed: int = 0

    def __post_init__(self):
        if self.noise_dim < 1:
            raise ConfigError("noise_dim must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be at least 2 (batchnorm needs it)")


@dataclass
class FilterPolicy:
    eta: float = 0.45
    max_attempt_factor: int = 50

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError("eta must lie in [0, 1]")
        if self.max_attempt_factor < 1:
            raise ConfigError("max_attempt_factor must be at least 1")


@dataclass
class ScganHistory:
    d_loss: list[float] = field(default_factory=list)
    g_loss: list[float] = field(default_factory=list)
    # last step's raw scores and losses, for auditing: the discriminator loss
    # comes from (real, fake), the generator loss from the post-update pass
    last_real_scores: np.ndarray | None = None
    last_fake_scores: np.ndarray | None = None
    last_gen_scores: np.ndarray | None = None
    last_d_loss: float | None = None
    last_g_loss: float | None = None


@dataclass
class SynthesisResult:
    samples: np.ndarray
    conditions: np.ndarray
    scores: np.ndarray
    attempts: int
    acceptance_rate: float


class ScganModel:
    def __init__(self, generator: Network, discriminator: Network, noise_dim: int,
                 code_dim: int, feature_dim: int, class_id: int | None = None,
                 trained: bool = False):
        self.generator = generator
        self.discriminator = discriminator
        self.noise_dim = int(noise_dim)
        self.code_dim = int(code_dim)
        self.feature_dim = int(feature_dim)
        self.class_id = class_id
        self.trained = trained

    def eval(self) -> "ScganModel":
        self.generator.eval()
        self.discriminator.eval()
        return self


def build_scgan(feature_dim: int, code_dim: int, config: ScganConfig,
                rng: np.random.Generator | None = None,
                class_id: int | None = None) -> ScganModel:
    """Generator (code+noise -> features, sigmoid output) and conditional
    discriminator (features+code -> score)."""
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    gen_layers = []
    prev = code_dim + config.noise_dim
    for width in config.gen_hidden:
        gen_layers += [Dense(prev, width, rng), BatchNorm(width), LeakyReLU(width)]
        prev = width
    gen_layers += [Dense(prev, feature_dim, rng), Sigmoid(feature_dim)]

    disc_layers = []
    prev = feature_dim + code_dim
    for width in config.disc_hidden:
        disc_layers += [Dense(prev, width, rng), LayerNorm(width), LeakyReLU(width)]
        prev = width
    disc_layers += [Dense(prev, 1, rng), Sigmoid(1)]
    return ScganModel(Network(gen_layers), Network(disc_layers), config.noise_dim,
                      code_dim, feature_dim, class_id=class_id)


def train_scgan(class_data, class_id, san_model: SanModel,
                config: ScganConfig, observer=None) -> tuple[ScganModel, ScganHistory]:
    """Adversarial training on one class's rows.

    Conditions are the autoencoder codes of the real rows. Returns the model
    in eval mode and per-epoch mean loss histories. ``observer``, when given,
    is called as observer(event, model) after each sub-update ("d-updated",
    "g-updated"), which makes the update alternation externally checkable.
    """
    data = np.asarray(class_data, dtype=np.float64)
    if data.size == 0:
        raise DataError("cannot train the generator on an empty class")
    _check_unit_range(data, "train_scgan")
    if data.shape[0] < 2 and config.epochs > 0:
        raise DataError("adversarial training needs at least 2 rows")
    seq = np.random.SeedSequence(config.seed)
    rng_init, rng_train = (np.random.default_rng(s) for s in seq.spawn(2))

    model = build_scgan(data.shape[1], san_model.code_dim, config, rng_init,
                        class_id=class_id)
    history = ScganHistory()
    if config.epochs == 0:
        return model.eval(), history

    codes = encode(san_model, data)
    gen, disc = model.generator, model.discriminator
    gen_params, disc_params = gen.parameters(), disc.parameters()
    opt_g = Adam(gen_params, lr=config.lr)
    opt_d = Adam(disc_params, lr=config.lr)
    steps = 0
    for epoch in range(config.epochs):
        order = rng_train.permutation(data.shape[0])
        d_losses, g_losses = [], []
        for start in range(0, data.shape[0], config.batch_size):
            batch_idx = order[start:start + config.batch_size]
            if batch_idx.size < 2:
                continue
            real = data[batch_idx]
            cond = codes[batch_idx]
            noise = rng_train.standard_normal((batch_idx.size, config.noise_dim))

            fake = gen.forward(np.concatenate([cond, noise], axis=1), check=False)
            tape_gen = gen.take_tape()

            d_real = disc.forward(np.concatenate([real, cond], axis=1), check=False)
            tape_real = disc.take_tape()
            d_fake = disc.forward(np.concatenate([fake, cond], axis=1), check=False)
            tape_fake = disc.take_tape()

            d_loss, _ = adversarial_losses(d_real, d_fake)
            grad_real, grad_fake = discriminator_score_grads(d_real, d_fake)
            disc.backward(grad_real, tape_real, input_grad=False)
            disc.backward(grad_fake, tape_fake, input_grad=False, accumulate=True)
            opt_d.step(disc_params, disc.grad)
            if observer is not None:
                observer("d-updated", model)

            # generator step against the updated, frozen discriminator
            d_fake2 = disc.forward(np.concatenate([fake, cond], axis=1), check=False)
            tape_fake2 = disc.take_tape()
            _, g_loss = adversarial_losses(d_real, d_fake2)
            grad_scores = generator_score_grad(d_fake2)
            grad_disc_in, _ = disc.backward(grad_scores, tape_fake2)
            gen.backward(grad_disc_in[:, :model.feature_dim], tape_gen, input_grad=False)
            opt_g.step(gen_params, gen.grad)
            if observer is not None:
                observer("g-updated", model)

            if not (np.isfinite(d_loss) and np.isfinite(g_loss)):
                raise TrainingDivergedError(
                    f"adversarial loss became non-finite at epoch {epoch + 1}",
                    epoch=epoch + 1,
                )
            d_losses.append(d_loss)
            g_losses.append(g_loss)
            history.last_real_scores = d_real.copy()
            history.last_fake_scores = d_fake.copy()
            history.last_gen_scores = d_fake2.copy()
            history.last_d_loss, history.last_g_loss = d_loss, g_loss
            steps += 1
        if d_losses:
            history.d_loss.append(float(np.mean(d_losses)))
            history.g_loss.append(float(np.mean(g_losses)))
    model.trained = steps > 0
    return model.eval(), history


def _class_codes(model: ScganModel, san_model: SanModel, class_samples) -> np.ndarray:
    """Check that ``model`` can synthesize for these rows; return their codes."""
    if not model.trained:
        raise StateError("generate requires a trained model")
    samples = np.asarray(class_samples, dtype=np.float64)
    if samples.shape[0] == 0:
        raise DataError("generate needs at least one real sample to condition on")
    return encode(san_model, samples)


def _draw(model: ScganModel, codes: np.ndarray, n: int,
          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    picks = rng.integers(0, codes.shape[0], size=n)
    conditions = codes[picks]
    noise = rng.standard_normal((n, model.noise_dim))
    candidates = model.generator.forward(np.concatenate([conditions, noise], axis=1))
    return candidates, conditions


def generate(model: ScganModel, san_model: SanModel, class_samples, n: int,
             seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` candidates: condition on the code of a uniformly chosen
    real row, concatenate standard-normal noise, run the generator.

    Returns (candidates, conditions), row aligned.
    """
    if n < 0:
        raise ConfigError("sample count must be non-negative")
    codes = _class_codes(model, san_model, class_samples)
    return _draw(model, codes, n, as_generator(seed))


def filter_generated(model: ScganModel, candidates, conditions,
                     policy: FilterPolicy) -> tuple[np.ndarray, np.ndarray]:
    """Keep candidates the discriminator scores at or above eta.

    Returns (kept_candidates, scores); scores cover every candidate so the
    rejection pattern can be audited.
    """
    candidates = np.asarray(candidates, dtype=np.float64)
    conditions = np.asarray(conditions, dtype=np.float64)
    if candidates.shape[0] != conditions.shape[0]:
        raise InputDataError("candidates and conditions must be row aligned")
    if candidates.shape[0] == 0:
        return candidates, np.empty(0)
    scores = model.discriminator.forward(
        np.concatenate([candidates, conditions], axis=1))[:, 0]
    return candidates[scores >= policy.eta], scores


def synthesize_to_target(model: ScganModel, san_model: SanModel, class_samples,
                         target_new: int, policy: FilterPolicy,
                         seed) -> SynthesisResult:
    """Generate in batches until exactly ``target_new`` rows pass the filter.

    The class's rows are encoded once; each round draws from their codes.

    Fails with the observed acceptance rate once total attempts exceed
    ``max_attempt_factor * target_new``.
    """
    if target_new < 0:
        raise ConfigError("target_new must be non-negative")
    if target_new == 0:
        return SynthesisResult(np.empty((0, model.feature_dim)),
                               np.empty((0, model.code_dim)), np.empty(0), 0, 1.0)
    codes = _class_codes(model, san_model, class_samples)
    rng = as_generator(seed)
    budget = policy.max_attempt_factor * target_new
    kept_samples, kept_conditions, kept_scores = [], [], []
    kept = 0
    attempts = 0
    while kept < target_new:
        remaining_budget = budget - attempts
        if remaining_budget <= 0:
            rate = kept / attempts if attempts else 0.0
            raise YieldError(
                f"attempt budget exhausted: {kept}/{target_new} accepted after "
                f"{attempts} attempts (acceptance rate {rate:.4f})",
                acceptance_rate=rate,
            )
        n_round = min(remaining_budget, max(64, 2 * (target_new - kept)))
        candidates, conditions = _draw(model, codes, n_round, rng)
        accepted, scores = filter_generated(model, candidates, conditions, policy)
        mask = scores >= policy.eta
        kept_samples.append(accepted)
        kept_conditions.append(conditions[mask])
        kept_scores.append(scores[mask])
        kept += int(mask.sum())
        attempts += n_round
    samples = np.concatenate(kept_samples)[:target_new]
    conditions = np.concatenate(kept_conditions)[:target_new]
    scores = np.concatenate(kept_scores)[:target_new]
    return SynthesisResult(samples, conditions, scores, attempts, kept / attempts)


def save_scgan(path, model: ScganModel):
    write_record(path, SCGAN_MAGIC, {
        "noise_dim": model.noise_dim,
        "code_dim": model.code_dim,
        "feature_dim": model.feature_dim,
        "class_id": model.class_id,
        "trained": model.trained,
    }, networks=[model.generator, model.discriminator])


def load_scgan(path) -> ScganModel:
    meta, (generator, discriminator), _ = read_record(path, SCGAN_MAGIC, n_networks=2)
    return ScganModel(generator, discriminator, meta["noise_dim"], meta["code_dim"],
                      meta["feature_dim"], class_id=meta["class_id"], trained=meta["trained"])
