"""End-to-end augmentation orchestration plus the downstream classifier.

The augmentation policy: leveling decides which classes are ample, scarce,
and rare; ample rows pass through untouched; scarce classes are topped up
by the filtered conditional GAN (one model per class, conditioned on shared
autoencoder codes); rare classes are topped up by neighbor interpolation.
Model training and synthesis are separate steps so checkpointed models can
be reused.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import leveling, san, scgan, skn
from .dataio import (
    Dataset,
    _check_unit_range,
    load_normalization,
    save_dataset,  # noqa: F401  perfbench's tracer test checks this binding
    save_normalization,
    save_table,
)
from .leveling import LevelThresholds
from .san import SanConfig
from .scgan import FilterPolicy, ScganConfig
from .skn import SknConfig
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    PipelineError,
    ShapeError,
    TrainingDivergedError,
)
from .nncore import Adam, Dense, Network, ReLU, Softmax, cross_entropy_loss
from .nncore.checkpoint import read_bundle, write_bundle
from .seeding import derive_seed, substream

PROV_ORIGINAL = "original"
PROV_SCGAN = "scgan"
PROV_SKN = "skn"
PROV_ROS = "ros"

CLASSIFIER_MAGIC = b"IDSAUG-CLF-2\n"
RUN_FORMAT = "idsaug-run-1"


@dataclass
class AugmentConfig:
    thresholds: LevelThresholds = field(default_factory=LevelThresholds)
    san: SanConfig = field(default_factory=SanConfig)
    scgan: ScganConfig = field(default_factory=ScganConfig)
    filter_policy: FilterPolicy = field(default_factory=FilterPolicy)
    skn: SknConfig = field(default_factory=SknConfig)
    seed: int = 0


@dataclass
class StageReport:
    timings: list[tuple[str, float]] = field(default_factory=list)
    acceptance_rates: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"{name}: {seconds:.3f}s" for name, seconds in self.timings]
        for class_name in sorted(self.acceptance_rates):
            lines.append(f"acceptance[{class_name}]: {self.acceptance_rates[class_name]:.4f}")
        lines.extend(self.notes)
        return "\n".join(lines) + "\n"


@dataclass
class AugmentedDataset:
    dataset: Dataset
    provenance: np.ndarray
    before_counts: dict[int, int]
    after_counts: dict[int, int]

    def __post_init__(self):
        if len(self.provenance) != self.dataset.n_rows:
            raise ShapeError("provenance length must match the dataset")


@dataclass
class AugmentationModels:
    part: leveling.LevelPartition
    targets: dict[int, int]
    san_model: san.SanModel | None
    scgan_models: dict[int, scgan.ScganModel]
    san_history: list[float] = field(default_factory=list)
    scgan_histories: dict[int, scgan.ScganHistory] = field(default_factory=dict)


class _Timer:
    def __init__(self, report: StageReport, name: str):
        self.report = report
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.report.timings.append((self.name, time.perf_counter() - self.start))
        return False


@contextmanager
def _stage(stage: str, class_name: str | None = None):
    """Re-raise a failure as a PipelineError naming the stage and class; a
    PipelineError from an inner stage passes through unchanged."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        where = f" for class {class_name!r}" if class_name else ""
        raise PipelineError(f"stage {stage} failed{where}: {exc}",
                            stage=stage, class_name=class_name) from exc


def san_training_rows(train: Dataset, part: leveling.LevelPartition,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Scarce rows plus an equal-size random subsample of ample rows, so the
    pair sampler always finds dissimilar pairs."""
    scarce_idx = [train.rows_of(c) for c in part.classes_at(leveling.SCARCE)]
    scarce_idx = np.concatenate(scarce_idx) if scarce_idx else np.array([], dtype=np.int64)
    ample_idx = [train.rows_of(c) for c in part.classes_at(leveling.AMPLE)]
    ample_idx = np.concatenate(ample_idx) if ample_idx else np.array([], dtype=np.int64)
    take = min(ample_idx.size, max(scarce_idx.size, 2))
    ample_pick = rng.choice(ample_idx, size=take, replace=False) if take else ample_idx
    chosen = np.concatenate([scarce_idx, ample_pick])
    return train.features[chosen], train.labels[chosen]


def level_training_set(train: Dataset, thresholds: leveling.LevelThresholds):
    counts = train.class_counts()
    irs = leveling.imbalance_ratios(counts)
    part = leveling.partition(irs, thresholds)
    targets = leveling.augmentation_targets(part, counts)
    return counts, part, targets


def scgan_classes(counts: dict[int, int], part: leveling.LevelPartition,
                  targets: dict[int, int]) -> list[int]:
    """The scarce classes below their target: each gets its own generator."""
    return [c for c in part.classes_at(leveling.SCARCE) if targets[c] > counts[c]]


def train_san_stage(train: Dataset, part: leveling.LevelPartition,
                    config: AugmentConfig) -> tuple[san.SanModel, list[float]]:
    """Train the shared autoencoder on the scarce rows plus an ample subsample."""
    with _stage("san-training"):
        feats, labs = san_training_rows(train, part, substream(config.seed, "san-subsample"))
        san_cfg = replace(config.san, seed=derive_seed(config.seed, "san"))
        return san.train_san(feats, labs, san_cfg)


def train_scgan_stage(train: Dataset, class_id: int, san_model: san.SanModel,
                      config: AugmentConfig) -> tuple[scgan.ScganModel, scgan.ScganHistory]:
    """Train one class's conditional GAN on that class's rows."""
    with _stage("scgan-training", train.name_of(class_id)):
        gan_cfg = replace(config.scgan, seed=derive_seed(config.seed, "scgan", class_id))
        return scgan.train_scgan(train.features[train.rows_of(class_id)], class_id,
                                 san_model, gan_cfg)


def train_augmentation_models(train: Dataset, config: AugmentConfig,
                              report: StageReport | None = None,
                              san_model: san.SanModel | None = None,
                              scgan_models: dict[int, scgan.ScganModel] | None = None,
                              ) -> tuple[AugmentationModels, StageReport]:
    """Level the training set and train the autoencoder plus one conditional
    GAN per scarce class that needs new rows.

    A given ``san_model`` is reused together with the ``scgan_models``
    trained against it; only the generators missing from them are trained.
    Without a ``san_model`` every model is trained afresh.
    """
    _check_unit_range(train.features, "train_augmentation_models")
    report = report or StageReport()
    with _Timer(report, "leveling"):
        counts, part, targets = level_training_set(train, config.thresholds)
    reused = dict(scgan_models or {}) if san_model is not None else {}
    models = AugmentationModels(part, targets, san_model, reused)
    needing = [c for c in scgan_classes(counts, part, targets) if c not in reused]
    if needing and models.san_model is None:
        with _Timer(report, "san-training"):
            models.san_model, models.san_history = train_san_stage(train, part, config)
    for class_id in needing:
        with _Timer(report, f"scgan-training[{train.name_of(class_id)}]"):
            model, history = train_scgan_stage(train, class_id, models.san_model, config)
        models.scgan_models[class_id] = model
        models.scgan_histories[class_id] = history
    return models, report


def _join(parts: list[np.ndarray]) -> np.ndarray:
    # a lone part is the training set itself, which needs no copy
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def top_up(train: Dataset, targets: dict[int, int], sampler) -> AugmentedDataset:
    """Keep every training row and add ``sampler``'s rows to each class below
    its target, visiting classes in ``targets`` order.

    ``sampler(class_id, rows, need)`` gets the class's training rows and
    returns ``need`` new rows plus their provenance tag. A failure raises a
    PipelineError naming the stage and class, with the rows assembled so far
    on its ``partial`` attribute. Every class must end exactly at its target.
    """
    counts = train.class_counts()
    blocks = [train.features]
    labels = [train.labels]
    provenance = [np.full(train.n_rows, PROV_ORIGINAL, dtype=object)]

    def assemble() -> AugmentedDataset:
        dataset = Dataset(_join(blocks), _join(labels), dict(train.label_names),
                          train.feature_names)
        return AugmentedDataset(dataset, _join(provenance), counts, dataset.class_counts())

    for class_id, target in targets.items():
        need = target - counts.get(class_id, 0)
        if need <= 0:
            continue
        try:
            with _stage("top-up", train.name_of(class_id)):
                rows, tag = sampler(class_id, train.features[train.rows_of(class_id)], need)
        except PipelineError as error:
            # carry the partial result so a failed run can still be inspected
            error.partial = assemble()
            raise
        blocks.append(rows)
        labels.append(np.full(len(rows), class_id, dtype=np.int64))
        provenance.append(np.full(len(rows), tag, dtype=object))

    augmented = assemble()
    for class_id, target in targets.items():
        if augmented.after_counts.get(class_id, 0) != target:
            raise PipelineError(
                f"class {train.name_of(class_id)!r} ended at "
                f"{augmented.after_counts.get(class_id, 0)} rows, target {target}",
                stage="assemble", class_name=train.name_of(class_id))
    return augmented


def synthesize_augmented(train: Dataset, config: AugmentConfig,
                         models: AugmentationModels,
                         report: StageReport | None = None,
                         ) -> tuple[AugmentedDataset, StageReport]:
    """Top every scarce class up with its generator and every rare class
    with neighbor interpolation, scarce classes first."""
    _check_unit_range(train.features, "synthesize_augmented")
    report = report or StageReport()
    levels = models.part.levels

    def sample(class_id, rows, need):
        name = train.name_of(class_id)
        if levels[class_id] == leveling.RARE:
            with _Timer(report, f"skn[{name}]"), _stage("skn", name):
                return skn.skn_synthesize(rows, need, config.skn,
                                          substream(config.seed, "skn", class_id)), PROV_SKN
        with _Timer(report, f"scgan-synthesis[{name}]"), _stage("scgan-synthesis", name):
            if models.san_model is None or class_id not in models.scgan_models:
                raise DataError("no trained generator available for this class")
            result = scgan.synthesize_to_target(
                models.scgan_models[class_id], models.san_model, rows, need,
                config.filter_policy, substream(config.seed, "scgan-gen", class_id))
        report.acceptance_rates[name] = result.acceptance_rate
        return result.samples, PROV_SCGAN

    order = sorted(models.targets, key=lambda c: (levels[c] != leveling.SCARCE, c))
    augmented = top_up(train, {c: models.targets[c] for c in order}, sample)
    return augmented, report


def build_augmented(train: Dataset, config: AugmentConfig) -> tuple[AugmentedDataset, StageReport]:
    """Train the models and synthesize in one shot."""
    models, report = train_augmentation_models(train, config)
    return synthesize_augmented(train, config, models, report)


def augment_ros(train: Dataset, targets: dict[int, int], seed: int) -> AugmentedDataset:
    """Random-duplication baseline: below-target classes are topped up by
    resampling their own rows with replacement."""
    def sample(class_id, rows, need):
        picks = substream(seed, "ros", class_id).integers(0, rows.shape[0], size=need)
        return rows[picks], PROV_ROS

    return top_up(train, dict(sorted(targets.items())), sample)


def augment_smote(train: Dataset, targets: dict[int, int],
                  config: skn.SknConfig, seed: int) -> AugmentedDataset:
    """Neighbor-interpolation baseline applied to every below-target class."""
    def sample(class_id, rows, need):
        return skn.skn_synthesize(rows, need, config,
                                  substream(seed, "smote", class_id)), PROV_SKN

    return top_up(train, dict(sorted(targets.items())), sample)


@dataclass
class ClassifierConfig:
    hidden: tuple[int, ...] = (128, 64, 32, 16)
    epochs: int = 100
    batch_size: int = 128
    lr: float = 1e-3
    seed: int = 0
    patience: int | None = None

    def __post_init__(self):
        if not 0 <= self.epochs <= 100:
            raise ConfigError("classifier epochs must lie in [0, 100]")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.patience is not None and self.patience < 1:
            raise ConfigError("patience must be positive when set")


class ClassifierModel:
    """Softmax network whose output width covers the full label dictionary.

    Its parameters are float32, so it trains and predicts in float32.
    """

    def __init__(self, net: Network, class_ids: list[int]):
        if net.out_dim != len(class_ids):
            raise ShapeError("network width must equal the number of classes")
        self.net = net
        self.class_ids = [int(c) for c in class_ids]


def _float32(net: Network) -> Network:
    """Narrow every array a layer holds to float32, so the network computes
    in float32."""
    for layer in net.layers:
        for name, value in list(vars(layer).items()):
            if isinstance(value, np.ndarray):
                setattr(layer, name, value.astype(np.float32))
    return net


def build_classifier(input_dim: int, class_ids: list[int], config: ClassifierConfig,
                     rng: np.random.Generator | None = None) -> ClassifierModel:
    """Draw the weights in float64 from ``rng``, then narrow them to float32."""
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    layers = []
    prev = input_dim
    for width in config.hidden:
        layers += [Dense(prev, width, rng), ReLU(width)]
        prev = width
    layers += [Dense(prev, len(class_ids), rng), Softmax(len(class_ids))]
    return ClassifierModel(_float32(Network(layers)), class_ids)


def train_classifier(data: Dataset, config: ClassifierConfig) -> tuple[ClassifierModel, list[float]]:
    """Cross-entropy training over the augmented set; at most 100 epochs."""
    _check_unit_range(data.features, "train_classifier")
    class_ids = sorted(data.label_names)
    if len(class_ids) < 2:
        raise DataError("classifier needs at least 2 classes")
    seq = np.random.SeedSequence(config.seed)
    rng_init, rng_train = (np.random.default_rng(s) for s in seq.spawn(2))
    model = build_classifier(data.n_features, class_ids, config, rng_init)
    if config.epochs == 0:
        model.net.eval()
        return model, []

    features = data.features.astype(np.float32)
    col = {c: i for i, c in enumerate(class_ids)}
    targets = np.zeros((data.n_rows, len(class_ids)), dtype=np.float32)
    targets[np.arange(data.n_rows), [col[int(c)] for c in data.labels]] = 1.0

    optimizer = Adam(model.net.parameters(), lr=config.lr)
    history: list[float] = []
    best = np.inf
    stale = 0
    for epoch in range(config.epochs):
        order = rng_train.permutation(data.n_rows)
        losses = []
        for start in range(0, data.n_rows, config.batch_size):
            idx = order[start:start + config.batch_size]
            probs = model.net.forward(features[idx])
            loss, grad = cross_entropy_loss(probs, targets[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"classifier loss became non-finite at epoch {epoch + 1}",
                    epoch=epoch + 1)
            _, param_grads = model.net.backward(grad, input_grad=False)
            optimizer.step(model.net.parameters(), param_grads)
            losses.append(loss)
        epoch_loss = float(np.mean(losses))
        history.append(epoch_loss)
        if config.patience is not None:
            if epoch_loss < best - 1e-9:
                best = epoch_loss
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
    model.net.eval()
    return model, history


def predict(model: ClassifierModel, data) -> tuple[np.ndarray, np.ndarray]:
    """Class ids by softmax argmax (ties go to the lowest class id), plus the
    probability rows for auditing."""
    probs = model.net.forward(data)
    ids = np.asarray(model.class_ids, dtype=np.int64)[probs.argmax(axis=1)]
    return ids, probs


def save_classifier(path, model: ClassifierModel):
    write_bundle(path, CLASSIFIER_MAGIC, {"class_ids": model.class_ids}, [model.net])


def load_classifier(path) -> ClassifierModel:
    meta, (net,) = read_bundle(path, CLASSIFIER_MAGIC, 1)
    return ClassifierModel(_float32(net), meta["class_ids"])


def save_run(run_dir, *, config_text=None, norm_params=None,
             augmented: AugmentedDataset | None = None, san_model=None,
             scgan_models: dict | None = None, classifier: ClassifierModel | None = None,
             histories: dict | None = None, stage_report: StageReport | None = None,
             extra_files: dict | None = None):
    """Write run artifacts under ``run_dir`` in the canonical layout."""
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "format.txt"), "w", encoding="utf-8") as fh:
        fh.write(RUN_FORMAT + "\n")
    if config_text is not None:
        with open(os.path.join(run_dir, "config.txt"), "w", encoding="utf-8") as fh:
            fh.write(config_text)
    if norm_params is not None:
        save_normalization(os.path.join(run_dir, "norm.json"), norm_params)
    if augmented is not None:
        save_table(os.path.join(run_dir, "augmented.csv"), augmented.dataset,
                   provenance=augmented.provenance)
    if san_model is not None:
        san.save_san(os.path.join(run_dir, "san.ckpt"), san_model)
    if scgan_models:
        for class_id, model in sorted(scgan_models.items()):
            scgan.save_scgan(os.path.join(run_dir, f"scgan_{class_id}.ckpt"), model)
    if classifier is not None:
        save_classifier(os.path.join(run_dir, "classifier.ckpt"), classifier)
    if histories:
        for name, series in sorted(histories.items()):
            path = os.path.join(run_dir, f"history_{name}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                if isinstance(series, scgan.ScganHistory):
                    fh.write("epoch,d_loss,g_loss\n")
                    for i, (d, g) in enumerate(zip(series.d_loss, series.g_loss), 1):
                        fh.write(f"{i},{d!r},{g!r}\n")
                else:
                    fh.write("epoch,loss\n")
                    for i, loss in enumerate(series, 1):
                        fh.write(f"{i},{loss!r}\n")
    if stage_report is not None:
        with open(os.path.join(run_dir, "stage_report.txt"), "w", encoding="utf-8") as fh:
            fh.write(stage_report.summary())
    if extra_files:
        for name, text in extra_files.items():
            with open(os.path.join(run_dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)


def check_run_format(run_dir):
    marker = os.path.join(run_dir, "format.txt")
    if not os.path.exists(marker):
        raise FormatError(f"{run_dir}: not a run directory (format.txt missing)")
    with open(marker, encoding="utf-8") as fh:
        version = fh.read().strip()
    if version != RUN_FORMAT:
        raise FormatError(f"{run_dir}: unsupported run format {version!r}")


def load_run(run_dir) -> dict:
    """Reload whatever artifacts exist in a run directory."""
    check_run_format(run_dir)
    out: dict = {}
    path = os.path.join(run_dir, "config.txt")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            out["config_text"] = fh.read()
    path = os.path.join(run_dir, "norm.json")
    if os.path.exists(path):
        out["norm_params"] = load_normalization(path)
    path = os.path.join(run_dir, "san.ckpt")
    if os.path.exists(path):
        out["san_model"] = san.load_san(path)
    path = os.path.join(run_dir, "classifier.ckpt")
    if os.path.exists(path):
        out["classifier"] = load_classifier(path)
    scgans = {}
    for name in sorted(os.listdir(run_dir)):
        if name.startswith("scgan_") and name.endswith(".ckpt"):
            model, meta = scgan.load_scgan(os.path.join(run_dir, name))
            scgans[meta.get("class_id")] = model
    if scgans:
        out["scgan_models"] = scgans
    return out
