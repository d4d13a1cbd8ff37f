"""Command-line entry point wiring the whole augmentation workflow.

Commands: run-all, preprocess, levels, train-san, train-scgan, augment,
train-clf, eval, compare, synthbench. run-all runs preprocess, levels (both
scopes), train-san and train-scgan (s2cgan only), augment, train-clf and eval
in one process. Configuration comes from a key=value file plus flags; flags
win. The IDSAUG_OUT environment variable sets the default output root.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass

from . import dataio, evalreport, leveling, pipeline, san, scgan, synthbench
from .errors import ConfigError, DataError, IdsAugError, ReportError
from .seeding import derive_seed

OUT_ENV = "IDSAUG_OUT"
METHODS = ("baseline", "ros", "smote", "s2cgan")


@dataclass
class RunConfig:
    """The settings the CLI takes; each default is its stage config's."""

    dataset: str = ""
    label_column: str = dataio.DEFAULT_LABEL_COLUMN
    mapping: str = "none"            # none | builtin | <path>
    train_ratio: float = dataio.SplitSpec.train_ratio
    master_seed: int = 0
    out: str = ""
    method: str = "s2cgan"
    level_mode: str = leveling.LevelThresholds.mode  # fixed | auto-gap
    scarce_min_ir: float = leveling.LevelThresholds.scarce_min_ir
    rare_min_ir: float = leveling.LevelThresholds.rare_min_ir
    san_epochs: int = san.SanConfig.epochs
    san_lr: float = san.SanConfig.lr
    san_pairs: int = san.SanConfig.pairs_per_epoch
    san_margin: float = san.SanConfig.margin
    san_alpha: float = san.SanConfig.alpha
    scgan_epochs: int = scgan.ScganConfig.epochs
    scgan_lr: float = scgan.ScganConfig.lr
    eta: float = scgan.FilterPolicy.eta
    max_attempt_factor: int = scgan.FilterPolicy.max_attempt_factor
    clf_epochs: int = pipeline.ClassifierConfig.epochs
    clf_lr: float = pipeline.ClassifierConfig.lr
    emit_pca: bool = False

    def validate(self, need_dataset: bool = False) -> "RunConfig":
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        self.split_spec()
        if need_dataset:
            if not self.dataset:
                raise ConfigError("a --dataset path is required")
            if not os.path.exists(self.dataset):
                raise ConfigError(f"dataset path {self.dataset!r} does not exist")
        if self.mapping not in ("none", "builtin") and not os.path.exists(self.mapping):
            raise ConfigError(f"mapping path {self.mapping!r} does not exist")
        # constructing the stage configs runs their own validation
        self.augment_config()
        self.classifier_config()
        return self

    def split_spec(self) -> dataio.SplitSpec:
        return dataio.SplitSpec(self.train_ratio, derive_seed(self.master_seed, "split"))

    def thresholds(self) -> leveling.LevelThresholds:
        return leveling.LevelThresholds(self.scarce_min_ir, self.rare_min_ir, self.level_mode)

    def classifier_config(self) -> pipeline.ClassifierConfig:
        return pipeline.ClassifierConfig(epochs=self.clf_epochs, lr=self.clf_lr,
                                         seed=derive_seed(self.master_seed, "classifier"))

    def augment_config(self) -> pipeline.AugmentConfig:
        return pipeline.AugmentConfig(
            thresholds=self.thresholds(),
            san=san.SanConfig(epochs=self.san_epochs, pairs_per_epoch=self.san_pairs,
                              margin=self.san_margin, alpha=self.san_alpha, lr=self.san_lr),
            scgan=scgan.ScganConfig(epochs=self.scgan_epochs, lr=self.scgan_lr),
            filter_policy=scgan.FilterPolicy(eta=self.eta,
                                             max_attempt_factor=self.max_attempt_factor),
            seed=self.master_seed)

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
# stages: each reads its inputs through a pipeline.Run and writes its outputs
# to the run directory with Run.save, so run-all and the staged commands run
# the same code. run-all passes one Run through every stage, so it decodes
# each input once; each staged command builds its own. The test split is
# sealed by the run directory: only the full-scope level report (counts) and
# eval read it. pipeline.RUN_FILES names every file.


def _preprocess(run: pipeline.Run):
    """Load and label-map the dataset, split it, fit min-max scaling on the
    training side, and write both sides scaled, with what describes them;
    writing the split clears an earlier run's stage outputs. A split that
    leaves either side empty is refused before anything is written."""
    config = run.config
    dataset, report = dataio.load_dataset(config.dataset, config.label_column)
    if config.mapping != "none":
        dataset = dataio.map_labels(dataset, None if config.mapping == "builtin"
                                    else dataio.load_label_map(config.mapping))
    # the run directory's tables add these columns to the features
    clash = sorted({dataio.DEFAULT_LABEL_COLUMN, "provenance"} & set(dataset.feature_names))
    if clash:
        raise ConfigError(f"{config.dataset}: feature column {clash[0]!r} would clash with "
                          "a column of the run directory's tables; rename it")
    train, test = dataio.stratified_split(dataset, config.split_spec())
    if not (train.n_rows and test.n_rows):
        raise DataError(f"{config.dataset}: the split leaves {train.n_rows} train rows and "
                        f"{test.n_rows} test rows at train_ratio {config.train_ratio}; "
                        "both sides need rows")
    del dataset  # the split holds copies of its rows
    params = dataio.fit_minmax(train)
    run.save(config_text=config.snapshot(), norm_params=params, ingest_report=report,
             split=(dataio.normalized_dataset(train, params),
                    dataio.normalized_dataset(test, params)))
    print(f"preprocess: {train.n_rows} train rows, {test.n_rows} test rows -> {run.dir}")


def _levels(run: pipeline.Run, scope: str):
    train = run.split("train")
    if scope == "train":
        leveled = run.leveling()
    else:
        # ratios over the complete dataset are the published-figure view;
        # training-scope ratios are what drive augmentation targets
        train_counts, test_counts = train.class_counts(), run.split("test").class_counts()
        leveled = pipeline.level_counts(
            {c: train_counts.get(c, 0) + test_counts.get(c, 0)
             for c in sorted(train_counts.keys() | test_counts.keys())},
            run.config.thresholds())
    rows = leveling.build_level_report(*leveled, train.label_names)
    run.save(levels={scope: rows})
    print(leveling.level_report_text(rows), end="")


def _augment(run: pipeline.Run):
    """Top the training split up by the configured method; s2cgan
    synthesizes with the SAN and SCGAN checkpoints of the run."""
    config = run.config
    train = run.split("train")
    aug_config = config.augment_config()
    counts, _, targets = run.leveling()
    if config.method == "s2cgan":
        augmented = pipeline.synthesize_augmented(train, aug_config, pipeline.load_run(run))
    elif config.method == "baseline":
        # every target is the class's own count: there is nothing to sample
        augmented = pipeline.top_up(train, counts, None)
    elif config.method == "ros":
        augmented = pipeline.augment_ros(train, targets, config.master_seed)
    else:
        augmented = pipeline.augment_smote(train, targets, aug_config.skn, config.master_seed)
    run.save(augmented=augmented)
    before = sum(augmented.before_counts.values())
    print(f"augment[{config.method}]: {before} -> {augmented.dataset.n_rows} rows")


def _train_san(run: pipeline.Run):
    """Train the SAN when some scarce class is below its target."""
    if not run.scgan_classes():
        print("train-san: no scarce class below its target")
        return
    _, part, _ = run.leveling()
    model, history = pipeline.train_san_stage(run.split("train"), part,
                                              run.config.augment_config())
    run.save(san_model=model, san_history=history)
    print(f"train-san: {len(history)} epochs, final loss "
          f"{history[-1] if history else float('nan'):.6f}")


def _train_scgan(run: pipeline.Run, class_name: str | None):
    """Train a generator for ``class_name``, or for each scarce class below
    its target, against the run's SAN."""
    train = run.split("train")
    wanted = [train.id_of(class_name)] if class_name else run.scgan_classes()
    aug_config = run.config.augment_config()
    models, histories = {}, {}
    for class_id in wanted:
        models[class_id], histories[class_id] = pipeline.train_scgan_stage(
            train, class_id, run.san(), aug_config)
        print(f"train-scgan[{train.name_of(class_id)}]: "
              f"{len(histories[class_id].d_loss)} epochs")
    run.save(scgan_models=models, scgan_histories=histories)


def _train_clf(run: pipeline.Run):
    classifier, history = pipeline.train_classifier(run.augmented(),
                                                    run.config.classifier_config())
    run.save(classifier=classifier, clf_history=history)
    print(f"train-clf: {len(history)} epochs, final loss "
          f"{history[-1] if history else float('nan'):.6f}")


def _eval(run: pipeline.Run):
    """Score the classifier on the test split, after checking that the split
    still has the fingerprint recorded at preprocess, and write the metrics."""
    classifier = run.classifier()
    test = run.split("test")
    if dataio.dataset_fingerprint(test) != pipeline.read_fingerprint(run.dir):
        raise ReportError(f"{run.dir}: test split fingerprint changed since preprocess")
    predicted, _ = pipeline.predict(classifier, test.features)
    class_ids, names = sorted(test.label_names), test.label_names
    cm = evalreport.confusion(test.labels, predicted, class_ids)
    report = evalreport.per_class_metrics(cm)
    pca = ((evalreport.pca2d(test.features)[0], test.labels, names) if run.config.emit_pca
           else None)
    run.save(metrics=(report, cm, names), pca=pca)
    print(evalreport.render_summary(report, names), end="")


# ---------------------------------------------------------------------------
# commands


def cmd_preprocess(args) -> int:
    config = _config_from_args(args).validate(need_dataset=True)
    _preprocess(pipeline.Run(config.out or _default_out(config), config))
    return 0


def _staged(stage, *arg_names):
    """The command that runs ``stage`` on its own Run of the existing run
    directory ``--run``, passing it the arguments ``arg_names``."""
    def run_stage(args) -> int:
        config = _config_from_args(args).validate()
        pipeline.check_run_format(args.run)
        stage(pipeline.Run(args.run, config), *(getattr(args, name) for name in arg_names))
        return 0
    return run_stage


def cmd_run_all(args) -> int:
    """The staged commands in one process; s2cgan trains its models under the
    augment stage. preprocess clears what an earlier run left in ``--out``, so
    a run never depends on it."""
    config = _config_from_args(args).validate(need_dataset=True)
    run = pipeline.Run(config.out or _default_out(config), config)
    models = ((("augment", _train_san, ()), ("augment", _train_scgan, (None,)))
              if config.method == "s2cgan" else ())
    stages = (("ingest", _preprocess, ()), ("level", _levels, ("train",)),
              ("level", _levels, ("full",)), *models, ("augment", _augment, ()),
              ("train-classifier", _train_clf, ()), ("evaluate", _eval, ()))
    for stage, stage_fn, extra in stages:
        try:
            stage_fn(run, *extra)
        except IdsAugError as exc:
            # prefixed in place, so the error keeps its fields (stage, epoch, ...)
            exc.args = (f"[stage {stage}] {exc}", *exc.args[1:])
            raise
    return 0


def cmd_compare(args) -> int:
    """Deltas of each run's metrics against the baseline's. A run is labelled
    by its directory's basename, so two directories may not share one."""
    runs, reports, fingerprints = {}, {}, {}
    for run_dir in [args.baseline, *args.runs]:
        label = os.path.basename(os.path.normpath(run_dir))
        seen = runs.setdefault(label, run_dir)
        if os.path.abspath(seen) != os.path.abspath(run_dir):
            raise ReportError(f"runs {seen} and {run_dir} would both be labelled {label!r}; "
                              "give their directories different names")
        reports[label], names = pipeline.read_metrics(run_dir)
        fingerprints[label] = pipeline.read_fingerprint(run_dir)
    baseline_label = next(iter(runs))
    mismatched = sorted(k for k, v in fingerprints.items() if v != fingerprints[baseline_label])
    if mismatched:
        raise ReportError(f"test splits differ from the baseline: {mismatched}")
    paths = evalreport.write_comparison(args.out or "comparison", reports, baseline_label, names)
    print(f"compare: wrote {' and '.join(paths)}")
    return 0


def cmd_synthbench(args) -> int:
    try:
        counts = tuple(int(v) for v in args.counts.split(","))
    except ValueError as exc:
        raise ConfigError(f"--counts must be comma-separated integers: {exc}") from exc
    spec = synthbench.default_spec(counts, dim=args.dim, seed=args.seed_value)
    synthbench.write_bench_csv(args.out_file, spec)
    print(f"synthbench: {sum(counts)} rows, {args.dim} features -> {args.out_file}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idsaug",
        description="Level-aware augmentation for imbalanced intrusion-detection data")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, needs_run=False):
        p = sub.add_parser(name)
        _add_config_flags(p)
        if needs_run:
            p.add_argument("--run", required=True, help="run directory")
        p.set_defaults(func=func)
        return p

    command("run-all", cmd_run_all)
    command("preprocess", cmd_preprocess)
    p = command("levels", _staged(_levels, "scope"), needs_run=True)
    p.add_argument("--scope", choices=("train", "full"), default="train")
    command("train-san", _staged(_train_san), needs_run=True)
    p = command("train-scgan", _staged(_train_scgan, "class_name"), needs_run=True)
    p.add_argument("--class-name", default=None, help="train only this class")
    command("augment", _staged(_augment), needs_run=True)
    command("train-clf", _staged(_train_clf), needs_run=True)
    command("eval", _staged(_eval), needs_run=True)

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
