"""End-to-end augmentation orchestration plus the downstream classifier.

The augmentation policy: leveling decides which classes are ample, scarce,
and rare; ample rows pass through untouched; scarce classes are topped up
by the filtered conditional GAN (one model per class, conditioned on shared
autoencoder codes); rare classes are topped up by neighbor interpolation.
Model training and synthesis are separate steps: a staged run synthesizes
with the checkpoints its training commands wrote.
"""

from __future__ import annotations

import fnmatch
import glob
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import evalreport, leveling, san, scgan, skn
from .dataio import (
    ORIGINAL,
    Dataset,
    Table,
    _check_unit_range,
    dataset_fingerprint,
    load_table,
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
    ReportError,
    ShapeError,
    TrainingDivergedError,
)
from .nncore import Adam, Dense, Network, ReLU, cross_entropy_loss, softmax
from .nncore.layers import check_batch
from .nncore.checkpoint import atomic_file, read_record, write_record
from .seeding import derive_seed, substream

PROV_ORIGINAL = ORIGINAL
PROV_SCGAN = "scgan"
PROV_SKN = "skn"
PROV_ROS = "ros"

CLASSIFIER_MAGIC = b"IDSAUG-CLF-4\n"
# idsaug-run-4: run-table CSV floats are written as dataio.CELL_FORMAT, not repr
RUN_FORMAT = "idsaug-run-4"


@dataclass
class AugmentConfig:
    thresholds: LevelThresholds = field(default_factory=LevelThresholds)
    san: SanConfig = field(default_factory=SanConfig)
    scgan: ScganConfig = field(default_factory=ScganConfig)
    filter_policy: FilterPolicy = field(default_factory=FilterPolicy)
    skn: SknConfig = field(default_factory=SknConfig)
    seed: int = 0


@dataclass
class AugmentedDataset:
    """An augmented training set and what its synthesis measured: the seconds
    of each class's sampler call, keyed ``<provenance tag>[<class name>]``,
    and each generator's filter acceptance rate, keyed by class name."""
    dataset: Dataset
    provenance: np.ndarray
    before_counts: dict[int, int]
    after_counts: dict[int, int]
    timings: dict[str, float] = field(default_factory=dict)
    acceptance_rates: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.provenance) != self.dataset.n_rows:
            raise ShapeError("provenance length must match the dataset")

    def stage_report(self) -> str:
        lines = [f"{key}: {seconds:.3f}s" for key, seconds in self.timings.items()]
        lines += [f"acceptance[{name}]: {rate:.4f}"
                  for name, rate in sorted(self.acceptance_rates.items())]
        return "".join(line + "\n" for line in lines)


@dataclass
class AugmentationModels:
    part: leveling.LevelPartition
    targets: dict[int, int]
    san_model: san.SanModel | None
    scgan_models: dict[int, scgan.ScganModel]


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
    return level_counts(train.class_counts(), thresholds)


def level_counts(counts: dict[int, int], thresholds: leveling.LevelThresholds):
    """The counts, level partition and targets of classes with ``counts``."""
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


def train_augmentation_models(train: Dataset, config: AugmentConfig) -> AugmentationModels:
    """Level the training set and train the autoencoder plus one conditional
    GAN per scarce class that needs new rows."""
    _check_unit_range(train.features, "train_augmentation_models")
    counts, part, targets = level_training_set(train, config.thresholds)
    models = AugmentationModels(part, targets, None, {})
    needing = scgan_classes(counts, part, targets)
    if needing:
        models.san_model, _ = train_san_stage(train, part, config)
    for class_id in needing:
        models.scgan_models[class_id], _ = train_scgan_stage(
            train, class_id, models.san_model, config)
    return models


def _join(parts: list[np.ndarray]) -> np.ndarray:
    # a lone part is the training set itself, which needs no copy
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def top_up(train: Dataset, targets: dict[int, int], sampler) -> AugmentedDataset:
    """Keep every training row and add ``sampler``'s rows to each class below
    its target, visiting classes in ``targets`` order.

    ``sampler(class_id, rows, need)`` gets the class's training rows and
    returns ``need`` new rows plus their provenance tag; the call's seconds
    are kept in the result's ``timings`` as ``<tag>[<class name>]``. A failure
    raises a PipelineError naming the stage and class. Every class must end
    exactly at its target.
    """
    counts = train.class_counts()
    blocks = [train.features]
    labels = [train.labels]
    provenance = [np.full(train.n_rows, PROV_ORIGINAL, dtype=object)]
    timings = {}
    for class_id, target in targets.items():
        need = target - counts.get(class_id, 0)
        if need <= 0:
            continue
        name = train.name_of(class_id)
        with _stage("top-up", name):
            start = time.perf_counter()
            rows, tag = sampler(class_id, train.features[train.rows_of(class_id)], need)
            timings[f"{tag}[{name}]"] = time.perf_counter() - start
        blocks.append(rows)
        labels.append(np.full(len(rows), class_id, dtype=np.int64))
        provenance.append(np.full(len(rows), tag, dtype=object))

    dataset = Dataset(_join(blocks), _join(labels), dict(train.label_names), train.feature_names)
    augmented = AugmentedDataset(dataset, _join(provenance), counts, dataset.class_counts(),
                                 timings)
    for class_id, target in targets.items():
        if augmented.after_counts.get(class_id, 0) != target:
            raise PipelineError(
                f"class {train.name_of(class_id)!r} ended at "
                f"{augmented.after_counts.get(class_id, 0)} rows, target {target}",
                stage="assemble", class_name=train.name_of(class_id))
    return augmented


def synthesize_augmented(train: Dataset, config: AugmentConfig,
                         models: AugmentationModels) -> AugmentedDataset:
    """Top every scarce class up with its generator and every rare class
    with neighbor interpolation, scarce classes first; the result keeps each
    generator's acceptance rate."""
    _check_unit_range(train.features, "synthesize_augmented")
    levels = models.part.levels
    acceptance_rates = {}

    def sample(class_id, rows, need):
        name = train.name_of(class_id)
        if levels[class_id] == leveling.RARE:
            with _stage("skn", name):
                return skn.skn_synthesize(rows, need, config.skn,
                                          substream(config.seed, "skn", class_id)), PROV_SKN
        with _stage("scgan-synthesis", name):
            if models.san_model is None or class_id not in models.scgan_models:
                raise DataError("no trained generator available for this class")
            result = scgan.synthesize_to_target(
                models.scgan_models[class_id], models.san_model, rows, need,
                config.filter_policy, substream(config.seed, "scgan-gen", class_id))
        acceptance_rates[name] = result.acceptance_rate
        return result.samples, PROV_SCGAN

    order = sorted(models.targets, key=lambda c: (levels[c] != leveling.SCARCE, c))
    augmented = top_up(train, {c: models.targets[c] for c in order}, sample)
    augmented.acceptance_rates = acceptance_rates
    return augmented


def build_augmented(train: Dataset, config: AugmentConfig) -> AugmentedDataset:
    """Train the models and synthesize in one shot."""
    return synthesize_augmented(train, config, train_augmentation_models(train, config))


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

    def __post_init__(self):
        if not 0 <= self.epochs <= 100:
            raise ConfigError("classifier epochs must lie in [0, 100]")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if not self.lr > 0.0:
            raise ConfigError(f"classifier learning rate must be positive, got {self.lr}")


class ClassifierModel:
    """Dense network whose output logits cover the full label dictionary;
    a softmax over them gives the class probabilities.

    Its parameters are float32, so it trains and predicts in float32.
    """

    def __init__(self, net: Network, class_ids: list[int]):
        if net.out_dim != len(class_ids):
            raise ShapeError("network width must equal the number of classes")
        self.net = net
        self.class_ids = [int(c) for c in class_ids]


def build_classifier(input_dim: int, class_ids: list[int], config: ClassifierConfig,
                     rng: np.random.Generator) -> ClassifierModel:
    """Draw the weights in float64 from ``rng``; the network holds them in float32."""
    layers = []
    prev = input_dim
    for width in config.hidden:
        layers += [Dense(prev, width, rng), ReLU(width)]
        prev = width
    layers.append(Dense(prev, len(class_ids), rng))
    return ClassifierModel(Network(layers, dtype=np.float32), class_ids)


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
        return model, []

    net = model.net
    # the one input check of the call: every batch is a slice of a shuffled
    # copy of this matrix
    features = check_batch(data.features, net.in_dim, "train_classifier", net.dtype)
    targets = np.zeros((data.n_rows, len(class_ids)), dtype=net.dtype)
    # a Dataset names every label it holds, so each label has a column
    targets[np.arange(data.n_rows), np.searchsorted(class_ids, data.labels)] = 1.0

    optimizer = Adam(net.params, lr=config.lr)
    # each epoch's shuffled copy, rewritten in place; batches are row slices
    shuffled_x = np.empty(features.shape, features.dtype)
    shuffled_t = np.empty(targets.shape, targets.dtype)
    history: list[float] = []
    for epoch in range(config.epochs):
        order = rng_train.permutation(data.n_rows)
        # a permutation is in range; "clip" writes straight into ``out``
        np.take(features, order, axis=0, out=shuffled_x, mode="clip")
        np.take(targets, order, axis=0, out=shuffled_t, mode="clip")
        losses = []
        for start in range(0, data.n_rows, config.batch_size):
            stop = start + config.batch_size
            logits, tape = net.forward(shuffled_x[start:stop])
            loss, grad = cross_entropy_loss(logits, shuffled_t[start:stop])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"classifier loss became non-finite at epoch {epoch + 1}",
                    epoch=epoch + 1)
            net.backward(grad, tape, input_grad=False)
            optimizer.step(net.params, net.grad)
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return model, history


def predict(model: ClassifierModel, data) -> tuple[np.ndarray, np.ndarray]:
    """Class ids by softmax argmax (ties go to the lowest class id), plus the
    probability rows for auditing. The softmax is taken in place over the
    inferred logits, so the rows are the one (n, classes) array."""
    probs = softmax(model.net.infer(data))
    ids = np.asarray(model.class_ids, dtype=np.int64)[probs.argmax(axis=1)]
    return ids, probs


def save_classifier(path, model: ClassifierModel):
    write_record(path, CLASSIFIER_MAGIC, {"class_ids": model.class_ids}, networks=[model.net])


def load_classifier(path) -> ClassifierModel:
    meta, (net,), _ = read_record(path, CLASSIFIER_MAGIC, n_networks=1, dtype=np.float32)
    return ClassifierModel(net, meta["class_ids"])


# Every file of a run directory, relative to it, by the command that writes
# it; ``*`` stands for a class id. A command refuses a missing input by naming
# its writer.
RUN_FILES = {
    "preprocess": ("format.txt", "config.txt", "ingest_report.txt", "labels.json", "norm.json",
                   "test_fingerprint.txt", "split_train.csv", "split_train.tbl",
                   "split_test.csv", "split_test.tbl"),
    "levels": ("levels.csv", "levels.txt", "levels_full.csv", "levels_full.txt"),
    "train-san": ("san.ckpt", "history_san.csv"),
    "train-scgan": ("scgan_*.ckpt", "history_scgan_*.csv"),
    "augment": ("augmented.csv", "augmented.tbl", "stage_report.txt"),
    "train-clf": ("classifier.ckpt", "history_clf.csv"),
    "eval": ("metrics/per_class.csv", "metrics/aggregates.csv", "metrics/confusion.csv",
             "metrics/summary.txt", "metrics/metrics.json", "metrics/pca.csv"),
}
WRITERS = {name: command for command, names in RUN_FILES.items() for name in names}
STAGE_OUTPUTS = tuple(name for name, command in WRITERS.items() if command != "preprocess")


def _write_text(path, text: str):
    with atomic_file(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _history_text(series) -> str:
    if isinstance(series, scgan.ScganHistory):
        return "epoch,d_loss,g_loss\n" + "".join(
            f"{i},{d!r},{g!r}\n" for i, (d, g) in enumerate(zip(series.d_loss, series.g_loss), 1))
    return "epoch,loss\n" + "".join(f"{i},{loss!r}\n" for i, loss in enumerate(series, 1))


def save_run(run_dir, *, config_text=None, norm_params=None, ingest_report=None, split=None,
             levels: dict | None = None, augmented: AugmentedDataset | None = None,
             train_table: Table | None = None, san_model=None, san_history=None,
             scgan_models: dict | None = None, scgan_histories: dict | None = None,
             classifier: ClassifierModel | None = None, clf_history=None, metrics=None, pca=None):
    """Write the given artifacts under ``run_dir``, each under its ``RUN_FILES``
    name and each through ``atomic_file``.

    ``split`` is the (train, test) pair, min-max scaled, each row tagged
    ``ORIGINAL``; writing it first removes every ``STAGE_OUTPUTS`` file.
    ``train_table``, the training split as read from ``run_dir``, is the
    table whose CSV ``augmented.csv`` starts with, copied byte for byte: the
    rows ``augmented`` starts with. ``stage_report.txt`` is
    ``augmented.stage_report()``. ``levels`` maps a scope
    (``train`` or ``full``) to its level report rows. ``metrics`` is the
    (report, confusion matrix, class names) triple of eval, ``pca`` the
    (projection, labels, class names) one.
    """
    def path(name):
        return os.path.join(run_dir, name)

    os.makedirs(run_dir, exist_ok=True)
    if split is not None and os.path.exists(path("format.txt")):
        # a new split makes an earlier run's stage outputs stale
        for pattern in STAGE_OUTPUTS:
            for stale in glob.glob(os.path.join(glob.escape(os.fspath(run_dir)), pattern)):
                if os.path.isfile(stale):
                    os.remove(stale)
    _write_text(path("format.txt"), RUN_FORMAT + "\n")
    if config_text is not None:
        _write_text(path("config.txt"), config_text)
    if ingest_report is not None:
        _write_text(path("ingest_report.txt"), ingest_report.summary() + "\n")
    if norm_params is not None:
        save_normalization(path("norm.json"), norm_params)
    if split is not None:
        train, test = split
        _write_text(path("test_fingerprint.txt"), dataset_fingerprint(test) + "\n")
        _write_text(path("labels.json"), json.dumps(
            {str(k): v for k, v in sorted(train.label_names.items())}, sort_keys=True))
        save_table(path("split_train.csv"), train)
        save_table(path("split_test.csv"), test)
    for scope, rows in (levels or {}).items():
        name = "levels" if scope == "train" else f"levels_{scope}"
        leveling.write_level_report(path(f"{name}.csv"), path(f"{name}.txt"), rows)
    if augmented is not None:
        save_table(path("augmented.csv"), augmented.dataset, provenance=augmented.provenance,
                   prefix=train_table)
        _write_text(path("stage_report.txt"), augmented.stage_report())
    if san_model is not None:
        san.save_san(path("san.ckpt"), san_model)
    if san_history is not None:
        _write_text(path("history_san.csv"), _history_text(san_history))
    for class_id, model in sorted((scgan_models or {}).items()):
        scgan.save_scgan(path(f"scgan_{class_id}.ckpt"), model)
    for class_id, history in sorted((scgan_histories or {}).items()):
        _write_text(path(f"history_scgan_{class_id}.csv"), _history_text(history))
    if classifier is not None:
        save_classifier(path("classifier.ckpt"), classifier)
    if clf_history is not None:
        _write_text(path("history_clf.csv"), _history_text(clf_history))
    if metrics is not None:
        report, cm, names = metrics
        os.makedirs(path("metrics"), exist_ok=True)
        evalreport.write_per_class_csv(path("metrics/per_class.csv"), report, names)
        evalreport.write_aggregates_csv(path("metrics/aggregates.csv"), report)
        evalreport.write_confusion_csv(path("metrics/confusion.csv"), cm, names)
        _write_text(path("metrics/summary.txt"), evalreport.render_summary(report, names))
        evalreport.save_metrics(path("metrics/metrics.json"), report, names)
    if pca is not None:
        evalreport.write_pca_csv(path("metrics/pca.csv"), *pca)


def _existing(run_dir, name: str, error=ConfigError) -> str:
    """The path of run file ``name``; ``error`` names its writer if it is missing."""
    path = os.path.join(run_dir, name)
    if not os.path.exists(path):
        writer = next(c for p, c in WRITERS.items() if fnmatch.fnmatchcase(name, p))
        raise error(f"{run_dir}: {name} missing; run {writer} first")
    return path


def check_run_format(run_dir):
    with open(_existing(run_dir, "format.txt", FormatError), encoding="utf-8") as fh:
        version = fh.read().strip()
    if version != RUN_FORMAT:
        raise FormatError(f"{run_dir}: unsupported run format {version!r}")


def read_fingerprint(run_dir) -> str:
    """The test split's fingerprint recorded at preprocess."""
    with open(_existing(run_dir, "test_fingerprint.txt", ReportError), encoding="utf-8") as fh:
        return fh.read().strip()


def read_metrics(run_dir) -> tuple[evalreport.MetricsReport, dict[int, str]]:
    return evalreport.load_metrics(_existing(run_dir, "metrics/metrics.json", ReportError))


def _read_only(value):
    """``value`` with every array it holds marked read-only: its own, its
    attributes' and, for a model, its networks' parameter vectors and
    layers' (views of that vector included)."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, Network):
        _read_only(value.params)
        for layer in value.layers:
            _read_only(layer)
    elif hasattr(value, "__dict__"):
        for item in vars(value).values():
            _read_only(item)
    return value


class Run:
    """A run directory as one process reads it, under the process's config.

    Nothing is read when a Run is built. Each input is decoded on first use
    and kept, read-only, so the stages that share a Run share one copy and
    none can change it for the next. ``save`` writes through ``save_run`` and
    drops what the write replaced. A missing input is refused, naming the
    command that writes it. ``config`` is the command's ``cli.RunConfig``; a
    Run reads only its ``thresholds()``.
    """

    def __init__(self, run_dir, config):
        self.dir = run_dir
        self.config = config
        # (the save_run argument that replaces it, detail) -> decoded value
        self._memo: dict[tuple, object] = {}

    def _kept(self, key: tuple, read, *args):
        if key not in self._memo:
            self._memo[key] = _read_only(read(*args))
        return self._memo[key]

    def _table(self, name: str) -> Table:
        """The run table ``name`` from its ``.tbl`` record, checked against its CSV."""
        path = _existing(self.dir, name + ".csv")
        _existing(self.dir, name + ".tbl")
        return load_table(path)

    def split(self, which: str) -> Table:
        """The ``train`` or ``test`` split, min-max scaled at preprocess."""
        return self._kept(("split", which), self._table, f"split_{which}")

    def leveling(self):
        """``level_training_set`` of the training split under the config's
        thresholds."""
        return self._kept(("split", "leveling"), lambda: level_training_set(
            self.split("train"), self.config.thresholds()))

    def scgan_classes(self) -> list[int]:
        return self._kept(("split", "scgan_classes"), lambda: scgan_classes(*self.leveling()))

    def san(self) -> san.SanModel:
        return self._kept(("san_model",), lambda: san.load_san(_existing(self.dir, "san.ckpt")))

    def scgan(self, class_id: int) -> scgan.ScganModel:
        return self._kept(("scgan_models", class_id),
                          lambda: scgan.load_scgan(_existing(self.dir, f"scgan_{class_id}.ckpt")))

    def augmented(self) -> Dataset:
        return self._kept(("augmented",), self._table, "augmented")

    def classifier(self) -> ClassifierModel:
        return self._kept(("classifier",),
                          lambda: load_classifier(_existing(self.dir, "classifier.ckpt")))

    def save(self, **artifacts):
        """``save_run`` these artifacts, then drop the memo of every file the
        write replaced. Writing the split drops everything: ``save_run`` then
        removes every stage's outputs. An augmented set starts with the
        training split's rows, so its CSV starts with a copy of the split's."""
        if artifacts.get("augmented") is not None:
            artifacts["train_table"] = self.split("train")
        save_run(self.dir, **artifacts)
        written = {name for name, value in artifacts.items() if value is not None}
        self._memo = {} if "split" in written else {
            key: value for key, value in self._memo.items() if key[0] not in written}


def load_run(run: Run) -> AugmentationModels:
    """The run's leveling and the models that synthesize its scarce rows:
    ``san.ckpt`` and the ``scgan_<id>.ckpt`` of each scarce class below its
    target."""
    _, part, targets = run.leveling()
    wanted = run.scgan_classes()
    return AugmentationModels(part, targets, run.san() if wanted else None,
                              {c: run.scgan(c) for c in wanted})
