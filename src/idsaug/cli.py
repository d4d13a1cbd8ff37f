"""Command-line entry point wiring the whole augmentation workflow.

Commands: run-all, preprocess, levels, train-san, train-scgan, augment,
train-clf, eval, compare, synthbench. run-all runs preprocess, levels (both
scopes), augment, train-clf and eval in one process. Configuration comes from
a key=value file plus flags; flags win. The IDSAUG_OUT environment variable
sets the default output root.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import dataio, evalreport, leveling, pipeline, san, scgan, skn, synthbench
from .errors import ConfigError, IdsAugError, ReportError
from .seeding import derive_seed

OUT_ENV = "IDSAUG_OUT"
METHODS = ("baseline", "ros", "smote", "s2cgan")


@dataclass
class RunConfig:
    dataset: str = ""
    label_column: str = "Label"
    mapping: str = "none"            # none | builtin | <path>
    train_ratio: float = 0.8
    stratified: bool = True
    master_seed: int = 0
    out: str = ""
    method: str = "s2cgan"
    level_mode: str = "fixed"        # fixed | auto-gap
    scarce_min_ir: float = 100.0
    rare_min_ir: float = 10000.0
    san_epochs: int = 50
    san_lr: float = 1e-3
    san_batch: int = 64
    san_pairs: int = 512
    san_margin: float = 1.0
    san_alpha: float = 1.0
    san_dissimilar_fraction: float = 0.5
    san_code_dim: int = 16
    scgan_epochs: int = 300
    scgan_lr: float = 2e-4
    scgan_batch: int = 16
    scgan_noise_dim: int = 16
    eta: float = 0.45
    max_attempt_factor: int = 50
    skn_k: int = 5
    clf_epochs: int = 100
    clf_lr: float = 1e-3
    clf_batch: int = 128
    clf_patience: int = 0            # 0 disables early stopping
    emit_pca: bool = False

    def validate(self, need_dataset: bool = False) -> "RunConfig":
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 < self.train_ratio < 1.0:
            raise ConfigError(f"train_ratio must be inside (0, 1), got {self.train_ratio}")
        if self.level_mode not in ("fixed", "auto-gap"):
            raise ConfigError(f"level_mode must be fixed or auto-gap, got {self.level_mode!r}")
        if need_dataset:
            if not self.dataset:
                raise ConfigError("a --dataset path is required")
            if not os.path.exists(self.dataset):
                raise ConfigError(f"dataset path {self.dataset!r} does not exist")
        if self.mapping not in ("none", "builtin") and not os.path.exists(self.mapping):
            raise ConfigError(f"mapping path {self.mapping!r} does not exist")
        # constructing the stage configs runs their own validation
        self.thresholds()
        self.san_config()
        self.scgan_config()
        self.filter_policy()
        self.skn_config()
        self.classifier_config()
        return self

    def thresholds(self) -> leveling.LevelThresholds:
        return leveling.LevelThresholds(self.scarce_min_ir, self.rare_min_ir, self.level_mode)

    def san_config(self) -> san.SanConfig:
        return san.SanConfig(code_dim=self.san_code_dim, epochs=self.san_epochs,
                             batch_size=self.san_batch, pairs_per_epoch=self.san_pairs,
                             dissimilar_fraction=self.san_dissimilar_fraction,
                             margin=self.san_margin, alpha=self.san_alpha, lr=self.san_lr)

    def scgan_config(self) -> scgan.ScganConfig:
        return scgan.ScganConfig(noise_dim=self.scgan_noise_dim, epochs=self.scgan_epochs,
                                 batch_size=self.scgan_batch, lr=self.scgan_lr)

    def filter_policy(self) -> scgan.FilterPolicy:
        return scgan.FilterPolicy(eta=self.eta, max_attempt_factor=self.max_attempt_factor)

    def skn_config(self) -> skn.SknConfig:
        return skn.SknConfig(k=self.skn_k)

    def classifier_config(self) -> pipeline.ClassifierConfig:
        return pipeline.ClassifierConfig(
            epochs=self.clf_epochs, batch_size=self.clf_batch, lr=self.clf_lr,
            seed=derive_seed(self.master_seed, "classifier"),
            patience=self.clf_patience or None)

    def augment_config(self) -> pipeline.AugmentConfig:
        return pipeline.AugmentConfig(
            thresholds=self.thresholds(), san=self.san_config(), scgan=self.scgan_config(),
            filter_policy=self.filter_policy(), skn=self.skn_config(), seed=self.master_seed)

    def snapshot(self) -> str:
        lines = []
        for field in sorted(dataclasses.fields(self), key=lambda f: f.name):
            lines.append(f"{field.name} = {getattr(self, field.name)}")
        return "\n".join(lines) + "\n"


def parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {line_no} is not key = value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _coerce(name: str, value: str, target_type) -> object:
    if target_type is bool:
        lowered = value.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"config key {name}: expected a boolean, got {value!r}")
    try:
        return target_type(value)
    except ValueError as exc:
        raise ConfigError(f"config key {name}: {exc}") from exc


def build_run_config(file_values: dict[str, str], flag_values: dict[str, object]) -> RunConfig:
    """Merge config-file values and flags (flags win) into a RunConfig."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    config = RunConfig()
    for key, raw in file_values.items():
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(config, key, _coerce(key, raw, type(getattr(config, key))))
    for key, value in flag_values.items():
        if value is None or key not in fields:
            continue
        setattr(config, key, value)
    return config


def _config_from_args(args) -> RunConfig:
    file_values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    flag_values = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    return build_run_config(file_values, flag_values)


def _default_out(config: RunConfig) -> str:
    root = os.environ.get(OUT_ENV, "runs")
    return os.path.join(root, f"{config.method}-seed{config.master_seed}")


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key = value configuration file")
    for field in dataclasses.fields(RunConfig):
        flag = "--" + field.name.replace("_", "-")
        if field.name == "master_seed":
            parser.add_argument("--seed", dest="master_seed", type=int, default=None,
                                help="master seed for every randomized stage")
            continue
        kind = type(getattr(RunConfig(), field.name))
        if kind is bool:
            parser.add_argument(flag, dest=field.name, default=None,
                                type=lambda v, n=field.name: _coerce(n, v, bool))
        else:
            parser.add_argument(flag, dest=field.name, type=kind, default=None)


# ---------------------------------------------------------------------------
# shared stage helpers


def _load_table(run_dir, name: str, producer: str) -> dataio.Dataset:
    """The run table ``name`` from its ``.tbl`` record, checked against its CSV."""
    for ext in (".csv", ".tbl"):
        if not os.path.exists(os.path.join(run_dir, name + ext)):
            raise ConfigError(f"{run_dir}: {name}{ext} missing; run {producer} first")
    return dataio.load_table(os.path.join(run_dir, name + ".csv"))


def _load_split(run_dir, which: str) -> dataio.Dataset:
    return _load_table(run_dir, f"split_{which}", "preprocess")


def _load_norm(run_dir) -> dataio.NormalizationParams:
    path = os.path.join(run_dir, "norm.json")
    if not os.path.exists(path):
        raise ConfigError(f"{run_dir}: norm.json missing; run preprocess first")
    return dataio.load_normalization(path)


def _normalized_train(run_dir) -> dataio.Dataset:
    return dataio.normalized_dataset(_load_split(run_dir, "train"), _load_norm(run_dir))


def _apply_mapping(dataset: dataio.Dataset, config: RunConfig) -> dataio.Dataset:
    if config.mapping == "none":
        return dataset
    if config.mapping == "builtin":
        return dataio.map_labels(dataset, dataio.DEFAULT_LABEL_MAP)
    return dataio.map_labels(dataset, dataio.load_label_map(config.mapping))


def _load_metrics(run_dir) -> tuple[evalreport.MetricsReport, dict[int, str]]:
    path = os.path.join(run_dir, "metrics", "metrics.json")
    if not os.path.exists(path):
        raise ReportError(f"{run_dir}: metrics/metrics.json missing; run eval first")
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    report = evalreport.MetricsReport(
        class_ids=[int(c) for c in raw["class_ids"]],
        precision=np.array(raw["precision"]),
        recall=np.array(raw["recall"]),
        f_beta=np.array(raw["f_beta"]),
        beta=float(raw["beta"]),
        supports=np.array(raw["supports"]),
        weighted=raw["weighted"],
        macro=raw["macro"],
    )
    names = {int(k): v for k, v in raw["names"].items()}
    return report, names


def _read_fingerprint(run_dir) -> str:
    path = os.path.join(run_dir, "test_fingerprint.txt")
    if not os.path.exists(path):
        raise ReportError(f"{run_dir}: test_fingerprint.txt missing")
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


# ---------------------------------------------------------------------------
# stages: each reads its inputs from the run directory and writes its outputs
# there, so run-all and the staged commands run the same code. The test split
# is sealed by that boundary: only the full-scope level report (counts) and
# eval read split_test.*


# what the stages after preprocess write, relative to the run directory
STAGE_OUTPUTS = ("san.ckpt", "scgan_*.ckpt", "classifier.ckpt", "history_*.csv",
                 "augmented.csv", "augmented.tbl", "levels*.csv", "levels*.txt",
                 "stage_report.txt", os.path.join("metrics", "*"))


def _clear_stage_outputs(run_dir):
    """Remove an earlier run's stage outputs from a used run directory, so no
    later stage reuses them; files of other names are left alone."""
    if not os.path.exists(os.path.join(run_dir, "format.txt")):
        return
    for pattern in STAGE_OUTPUTS:
        for path in glob.glob(os.path.join(glob.escape(run_dir), pattern)):
            if os.path.isfile(path):
                os.remove(path)


def _preprocess(config: RunConfig, run_dir):
    """Load and label-map the dataset, split it, fit min-max scaling on the
    training side, clear an earlier run's stage outputs and write the config,
    the scaling, the labels, the ingest report, the test fingerprint and both
    splits."""
    dataset, report = dataio.load_dataset(config.dataset, config.label_column)
    # the run directory's tables add these columns to the features
    clash = sorted({dataio.DEFAULT_LABEL_COLUMN, "provenance"} & set(dataset.feature_names))
    if clash:
        raise ConfigError(f"{config.dataset}: feature column {clash[0]!r} would clash with "
                          "a column of the run directory's tables; rename it")
    dataset = _apply_mapping(dataset, config)
    spec = dataio.SplitSpec(config.train_ratio, derive_seed(config.master_seed, "split"),
                            config.stratified)
    train, test = dataio.stratified_split(dataset, spec)
    fingerprint = dataio.dataset_fingerprint(test)
    _clear_stage_outputs(run_dir)
    pipeline.save_run(run_dir, config_text=config.snapshot(),
                      norm_params=dataio.fit_minmax(train),
                      extra_files={"ingest_report.txt": report.summary() + "\n",
                                   "test_fingerprint.txt": fingerprint + "\n"})
    labels = {str(k): v for k, v in sorted(dataset.label_names.items())}
    with open(os.path.join(run_dir, "labels.json"), "w", encoding="utf-8") as fh:
        json.dump(labels, fh, sort_keys=True)
    dataio.save_table(os.path.join(run_dir, "split_train.csv"), train)
    dataio.save_table(os.path.join(run_dir, "split_test.csv"), test)
    print(f"preprocess: {train.n_rows} train rows, {test.n_rows} test rows -> {run_dir}")


def _levels(config: RunConfig, run_dir, scope: str):
    data = _load_split(run_dir, "train")
    suffix = ""
    if scope == "full":
        # ratios over the complete dataset are the published-figure view;
        # training-scope ratios are what drive augmentation targets
        test = _load_split(run_dir, "test")
        data = dataio.Dataset(
            np.concatenate([data.features, test.features]),
            np.concatenate([data.labels, test.labels]),
            dict(data.label_names), data.feature_names)
        suffix = "_full"
    counts, part, targets = pipeline.level_training_set(data, config.thresholds())
    text_path = os.path.join(run_dir, f"levels{suffix}.txt")
    leveling.write_level_report(
        os.path.join(run_dir, f"levels{suffix}.csv"), text_path,
        leveling.build_level_report(counts, part, targets, data.label_names))
    with open(text_path, encoding="utf-8") as fh:
        print(fh.read(), end="")


def _augment(config: RunConfig, run_dir, checkpoints: dict):
    """Top the scaled training split up by the configured method. The s2cgan
    method reuses the SAN in ``checkpoints`` with the SCGAN models there,
    trains whatever is missing and saves only what it trained."""
    train_norm = _normalized_train(run_dir)
    aug_config = config.augment_config()
    report = pipeline.StageReport()
    if config.method == "s2cgan":
        models, report = pipeline.train_augmentation_models(
            train_norm, aug_config, report, checkpoints.get("san_model"),
            checkpoints.get("scgan_models"))
        augmented, report = pipeline.synthesize_augmented(train_norm, aug_config, models,
                                                          report)
        # the models trained here are those with a loss history
        histories = {f"scgan_{c}": h for c, h in models.scgan_histories.items()}
        if models.san_history:
            histories["san"] = models.san_history
        pipeline.save_run(
            run_dir, san_model=None if "san_model" in checkpoints else models.san_model,
            scgan_models={c: models.scgan_models[c] for c in models.scgan_histories},
            histories=histories)
    else:
        counts, _, targets = pipeline.level_training_set(train_norm, aug_config.thresholds)
        if config.method == "baseline":
            # every target is the class's own count: there is nothing to sample
            augmented = pipeline.top_up(train_norm, counts, None)
        elif config.method == "ros":
            augmented = pipeline.augment_ros(train_norm, targets, config.master_seed)
        else:
            augmented = pipeline.augment_smote(train_norm, targets, aug_config.skn,
                                               config.master_seed)
    pipeline.save_run(run_dir, augmented=augmented, stage_report=report)
    before = sum(augmented.before_counts.values())
    print(f"augment[{config.method}]: {before} -> {augmented.dataset.n_rows} rows")


def _train_clf(config: RunConfig, run_dir):
    dataset = _load_table(run_dir, "augmented", "augment")
    classifier, history = pipeline.train_classifier(dataset, config.classifier_config())
    pipeline.save_run(run_dir, classifier=classifier, histories={"clf": history})
    print(f"train-clf: {len(history)} epochs, final loss "
          f"{history[-1] if history else float('nan'):.6f}")


def _eval(config: RunConfig, run_dir):
    """Score the classifier on the test split, after checking that the split
    still has the fingerprint recorded at preprocess, and write metrics/."""
    path = os.path.join(run_dir, "classifier.ckpt")
    if not os.path.exists(path):
        raise ConfigError(f"{run_dir}: classifier.ckpt missing; run train-clf first")
    classifier = pipeline.load_classifier(path)
    test = _load_split(run_dir, "test")
    if dataio.dataset_fingerprint(test) != _read_fingerprint(run_dir):
        raise ReportError(f"{run_dir}: test split fingerprint changed since preprocess")
    features = dataio.apply_minmax(_load_norm(run_dir), test)
    predicted, _ = pipeline.predict(classifier, features)
    report = evalreport.build_report(test.labels, predicted, sorted(test.label_names))
    metrics_dir = os.path.join(run_dir, "metrics")
    os.makedirs(metrics_dir, exist_ok=True)
    names = test.label_names
    evalreport.write_per_class_csv(os.path.join(metrics_dir, "per_class.csv"), report, names)
    evalreport.write_aggregates_csv(os.path.join(metrics_dir, "aggregates.csv"), report)
    cm = evalreport.confusion(test.labels, predicted, sorted(test.label_names))
    evalreport.write_confusion_csv(os.path.join(metrics_dir, "confusion.csv"), cm, names)
    with open(os.path.join(metrics_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(evalreport.render_summary(report, names))
    payload = {
        "class_ids": report.class_ids,
        "names": {str(c): names[c] for c in report.class_ids},
        "precision": [float(v) for v in report.precision],
        "recall": [float(v) for v in report.recall],
        "f_beta": [float(v) for v in report.f_beta],
        "supports": [float(v) for v in report.supports],
        "beta": report.beta,
        "weighted": report.weighted,
        "macro": report.macro,
    }
    with open(os.path.join(metrics_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
    if config.emit_pca:
        projection, _, _ = evalreport.pca2d(features)
        evalreport.write_pca_csv(os.path.join(metrics_dir, "pca.csv"),
                                 projection, test.labels, names)
    print(evalreport.render_summary(report, names), end="")


# ---------------------------------------------------------------------------
# commands


def _staged_config(args) -> RunConfig:
    """The validated config of a command that works in an existing run directory."""
    config = _config_from_args(args).validate()
    pipeline.check_run_format(args.run)
    return config


def cmd_preprocess(args) -> int:
    config = _config_from_args(args).validate(need_dataset=True)
    _preprocess(config, config.out or _default_out(config))
    return 0


def cmd_levels(args) -> int:
    _levels(_staged_config(args), args.run, args.scope)
    return 0


def cmd_train_san(args) -> int:
    config = _staged_config(args)
    train_norm = _normalized_train(args.run)
    _, part, _ = pipeline.level_training_set(train_norm, config.thresholds())
    model, history = pipeline.train_san_stage(train_norm, part, config.augment_config())
    pipeline.save_run(args.run, san_model=model, histories={"san": history})
    print(f"train-san: {len(history)} epochs, final loss "
          f"{history[-1] if history else float('nan'):.6f}")
    return 0


def cmd_train_scgan(args) -> int:
    config = _staged_config(args)
    run_dir = args.run
    train_norm = _normalized_train(run_dir)
    path = os.path.join(run_dir, "san.ckpt")
    if not os.path.exists(path):
        raise ConfigError(f"{run_dir}: san.ckpt missing; run train-san first")
    san_model = san.load_san(path)
    if args.class_name:
        wanted = [train_norm.id_of(args.class_name)]
    else:
        wanted = pipeline.scgan_classes(
            *pipeline.level_training_set(train_norm, config.thresholds()))
    aug_config = config.augment_config()
    models = {}
    histories = {}
    for class_id in wanted:
        models[class_id], history = pipeline.train_scgan_stage(
            train_norm, class_id, san_model, aug_config)
        histories[f"scgan_{class_id}"] = history
        print(f"train-scgan[{train_norm.name_of(class_id)}]: "
              f"{len(history.d_loss)} epochs")
    pipeline.save_run(run_dir, scgan_models=models, histories=histories)
    return 0


def cmd_augment(args) -> int:
    config = _staged_config(args)
    checkpoints = pipeline.load_run(args.run) if config.method == "s2cgan" else {}
    _augment(config, args.run, checkpoints)
    return 0


def cmd_train_clf(args) -> int:
    _train_clf(_staged_config(args), args.run)
    return 0


def cmd_eval(args) -> int:
    _eval(_staged_config(args), args.run)
    return 0


def cmd_run_all(args) -> int:
    """The staged commands in one process. No checkpoint is reused, so a run
    never depends on what an earlier run left in ``--out``."""
    config = _config_from_args(args).validate(need_dataset=True)
    run_dir = config.out or _default_out(config)
    stages = (("ingest", _preprocess, ()), ("level", _levels, ("train",)),
              ("level", _levels, ("full",)), ("augment", _augment, ({},)),
              ("train-classifier", _train_clf, ()), ("evaluate", _eval, ()))
    for stage, run, extra in stages:
        try:
            run(config, run_dir, *extra)
        except IdsAugError as exc:
            raise type(exc)(f"[stage {stage}] {exc}") from exc
    return 0


def cmd_compare(args) -> int:
    out_dir = args.out or "comparison"
    baseline_dir = args.baseline
    run_dirs = [baseline_dir] + list(args.runs)
    reports = {}
    names = {}
    fingerprints = {}
    for run_dir in run_dirs:
        label = os.path.basename(os.path.normpath(run_dir))
        reports[label], names = _load_metrics(run_dir)
        fingerprints[label] = _read_fingerprint(run_dir)
    baseline_label = os.path.basename(os.path.normpath(baseline_dir))
    mismatched = {k: v for k, v in fingerprints.items()
                  if v != fingerprints[baseline_label]}
    if mismatched:
        raise ReportError(f"test splits differ from the baseline: {sorted(mismatched)}")
    table = evalreport.compare(reports, baseline_label)
    os.makedirs(out_dir, exist_ok=True)
    evalreport.write_comparison_csv(os.path.join(out_dir, "deltas.csv"), table, names)
    with open(os.path.join(out_dir, "aggregates.csv"), "w", encoding="utf-8") as fh:
        fh.write("method,scope,precision,recall,f_beta\n")
        for label, report in sorted(reports.items()):
            for scope in ("weighted", "macro"):
                values = getattr(report, scope)
                fh.write(f"{label},{scope},{values['precision']!r},"
                         f"{values['recall']!r},{values['f_beta']!r}\n")
    print(f"compare: wrote {out_dir}/deltas.csv and {out_dir}/aggregates.csv")
    return 0


def cmd_synthbench(args) -> int:
    counts = tuple(int(v) for v in args.counts.split(","))
    spec = synthbench.default_spec(counts, dim=args.dim, seed=args.seed_value)
    synthbench.write_bench_csv(args.out_file, spec)
    print(f"synthbench: {sum(counts)} rows, {args.dim} features -> {args.out_file}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idsaug",
        description="Level-aware augmentation for imbalanced intrusion-detection data")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, needs_run=False, needs_config=True):
        p = sub.add_parser(name)
        if needs_config:
            _add_config_flags(p)
        if needs_run:
            p.add_argument("--run", required=True, help="run directory")
        p.set_defaults(func=func)
        return p

    command("run-all", cmd_run_all)
    command("preprocess", cmd_preprocess)
    p = command("levels", cmd_levels, needs_run=True)
    p.add_argument("--scope", choices=("train", "full"), default="train")
    command("train-san", cmd_train_san, needs_run=True)
    p = command("train-scgan", cmd_train_scgan, needs_run=True)
    p.add_argument("--class-name", default=None, help="train only this class")
    command("augment", cmd_augment, needs_run=True)
    command("train-clf", cmd_train_clf, needs_run=True)
    command("eval", cmd_eval, needs_run=True)

    p = sub.add_parser("compare")
    p.add_argument("--baseline", required=True)
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", default="comparison")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synthbench")
    p.add_argument("--out", dest="out_file", required=True)
    p.add_argument("--counts", default="20000,150,12")
    p.add_argument("--dim", type=int, default=20)
    p.add_argument("--seed", dest="seed_value", type=int, default=0)
    p.set_defaults(func=cmd_synthbench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error [config]: {exc}", file=sys.stderr)
        return 2
    except IdsAugError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
