from pathlib import Path

import numpy as np
import pytest

from idsaug import dataio, leveling, pipeline, san, scgan
from idsaug.dataio import Dataset
from idsaug.errors import ConfigError, DataError, FormatError, InputDataError, PipelineError
from idsaug.nncore import Adam, Network, Softmax
from idsaug.nncore.checkpoint import read_record, write_record
from idsaug.san import SanConfig
from idsaug.scgan import FilterPolicy, ScganConfig
from idsaug.skn import SknConfig


def leveled_dataset(seed=0, n_ample=400, n_scarce=40, n_rare=6, dim=8):
    rng = np.random.default_rng(seed)
    centers = rng.random((3, dim))
    blocks = [
        np.clip(centers[0] + 0.10 * rng.standard_normal((n_ample, dim)), 0, 1),
        np.clip(centers[1] + 0.06 * rng.standard_normal((n_scarce, dim)), 0, 1),
        np.clip(centers[2] + 0.04 * rng.standard_normal((n_rare, dim)), 0, 1),
    ]
    labels = np.concatenate([np.full(n_ample, 0), np.full(n_scarce, 1), np.full(n_rare, 2)])
    return Dataset(np.concatenate(blocks), labels.astype(np.int64),
                   {0: "bulk", 1: "mid", 2: "tiny"})


def fast_config(seed=0, eta=0.45):
    return pipeline.AugmentConfig(
        thresholds=leveling.LevelThresholds(5.0, 30.0),
        san=SanConfig(epochs=8, pairs_per_epoch=128),
        scgan=ScganConfig(epochs=60),
        filter_policy=FilterPolicy(eta=eta),
        skn=SknConfig(k=3),
        seed=seed,
    )


@pytest.fixture(scope="module")
def augmented_run():
    train = leveled_dataset()
    config = fast_config()
    augmented, report = pipeline.build_augmented(train, config)
    return train, config, augmented, report


class TestBuildAugmented:
    def test_counts_hit_targets_exactly(self, augmented_run):
        train, _, augmented, _ = augmented_run
        # scarce rises to the ample count, rare rises to the scarce count
        assert augmented.after_counts == {0: 400, 1: 400, 2: 40}
        assert augmented.before_counts == train.class_counts()

    def test_original_rows_preserved_byte_identical(self, augmented_run):
        train, _, augmented, _ = augmented_run
        originals = augmented.provenance == pipeline.PROV_ORIGINAL
        assert int(originals.sum()) == train.n_rows
        assert np.array_equal(augmented.dataset.features[originals], train.features)
        assert np.array_equal(augmented.dataset.labels[originals], train.labels)

    def test_provenance_tags_match_levels(self, augmented_run):
        _, _, augmented, _ = augmented_run
        labels = augmented.dataset.labels
        prov = augmented.provenance
        assert set(prov[labels == 1]) == {pipeline.PROV_ORIGINAL, pipeline.PROV_SCGAN}
        assert set(prov[labels == 2]) == {pipeline.PROV_ORIGINAL, pipeline.PROV_SKN}

    def test_stage_report_has_timings_and_acceptance(self, augmented_run):
        _, _, _, report = augmented_run
        stages = [name for name, _ in report.timings]
        assert any(s.startswith("scgan-training") for s in stages)
        assert any(s.startswith("skn") for s in stages)
        assert "mid" in report.acceptance_rates
        assert 0.0 < report.acceptance_rates["mid"] <= 1.0

    def test_generated_rows_stay_in_unit_box(self, augmented_run):
        _, _, augmented, _ = augmented_run
        assert augmented.dataset.features.min() >= 0.0
        assert augmented.dataset.features.max() <= 1.0

    def test_all_ample_dataset_passes_through(self):
        rng = np.random.default_rng(1)
        train = Dataset(rng.random((60, 4)),
                        np.repeat([0, 1, 2], 20).astype(np.int64),
                        {0: "a", 1: "b", 2: "c"})
        augmented, _ = pipeline.build_augmented(train, fast_config())
        assert augmented.dataset.n_rows == train.n_rows
        assert np.array_equal(augmented.dataset.features, train.features)
        assert set(augmented.provenance) == {pipeline.PROV_ORIGINAL}

    def test_deterministic_for_fixed_seed(self):
        train = leveled_dataset(seed=2, n_ample=120, n_scarce=20, n_rare=4)
        config = fast_config(seed=7)
        a, _ = pipeline.build_augmented(train, config)
        b, _ = pipeline.build_augmented(train, config)
        assert np.array_equal(a.dataset.features, b.dataset.features)
        assert np.array_equal(a.dataset.labels, b.dataset.labels)
        assert np.array_equal(a.provenance, b.provenance)

    def test_stage_failure_names_class_and_carries_partial(self):
        train = leveled_dataset(seed=3, n_ample=120, n_scarce=20, n_rare=4)
        config = fast_config(seed=1, eta=1.0)  # unreachable filter threshold
        config.filter_policy.max_attempt_factor = 1
        with pytest.raises(PipelineError) as excinfo:
            pipeline.build_augmented(train, config)
        err = excinfo.value
        assert err.stage == "scgan-synthesis"
        assert err.class_name == "mid"
        assert err.partial.dataset.n_rows >= train.n_rows

    def test_unnormalized_input_rejected(self):
        train = leveled_dataset(seed=4)
        bad = Dataset(train.features * 7.0, train.labels, dict(train.label_names))
        from idsaug.errors import InputDataError
        with pytest.raises(InputDataError):
            pipeline.build_augmented(bad, fast_config())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("trainer", ["classifier", "san", "scgan"])
def test_non_finite_features_refused_before_any_step(monkeypatch, trainer, bad):
    train = leveled_dataset(seed=7, n_ample=40, n_scarce=12, n_rare=4)
    san_model = san.build_san(train.n_features, SanConfig(), np.random.default_rng(0)).eval()
    features = train.features.copy()
    features[40, 1] = bad  # the first scarce row

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(Network, "forward", no_step)
    monkeypatch.setattr(Adam, "step", no_step)
    with pytest.raises(InputDataError, match="NaN or Inf"):
        if trainer == "classifier":
            pipeline.train_classifier(Dataset(features, train.labels, dict(train.label_names)),
                                      pipeline.ClassifierConfig(epochs=1))
        elif trainer == "san":
            san.train_san(features, train.labels, SanConfig(epochs=1))
        else:
            scgan.train_scgan(features[train.labels == 1], 1, san_model, ScganConfig(epochs=1))


class TestBaselines:
    def test_ros_duplicates_rows_to_targets(self):
        train = leveled_dataset(seed=5, n_ample=100, n_scarce=12, n_rare=3)
        targets = {0: 100, 1: 100, 2: 12}
        augmented = pipeline.augment_ros(train, targets, seed=0)
        assert augmented.after_counts == targets
        added = augmented.provenance == pipeline.PROV_ROS
        class_rows = train.features[train.labels == 1]
        for row in augmented.dataset.features[added & (augmented.dataset.labels == 1)][:10]:
            assert any(np.array_equal(row, original) for original in class_rows)

    def test_smote_interpolates_to_targets(self):
        train = leveled_dataset(seed=6, n_ample=100, n_scarce=12, n_rare=3)
        targets = {0: 100, 1: 100, 2: 12}
        augmented = pipeline.augment_smote(train, targets, SknConfig(k=3), seed=0)
        assert augmented.after_counts == targets
        lo = train.features[train.labels == 1].min(axis=0)
        hi = train.features[train.labels == 1].max(axis=0)
        added = (augmented.provenance == pipeline.PROV_SKN) & (augmented.dataset.labels == 1)
        block = augmented.dataset.features[added]
        assert np.all(block >= lo - 1e-12) and np.all(block <= hi + 1e-12)


def separable_dataset(seed=0, n=300, dim=6):
    rng = np.random.default_rng(seed)
    half = n // 2
    a = np.clip(0.25 + 0.05 * rng.standard_normal((half, dim)), 0, 1)
    b = np.clip(0.75 + 0.05 * rng.standard_normal((half, dim)), 0, 1)
    labels = np.concatenate([np.zeros(half), np.ones(half)]).astype(np.int64)
    return Dataset(np.concatenate([a, b]), labels, {0: "lo", 1: "hi"})


class TestClassifier:
    def test_separable_problem_reaches_high_accuracy(self):
        data = separable_dataset()
        config = pipeline.ClassifierConfig(epochs=30, seed=0)
        model, history = pipeline.train_classifier(data, config)
        predicted, _ = pipeline.predict(model, data.features)
        assert (predicted == data.labels).mean() >= 0.99
        assert len(history) <= 30

    def test_zero_epochs_returns_initialized_model(self):
        data = separable_dataset(seed=1)
        model, history = pipeline.train_classifier(
            data, pipeline.ClassifierConfig(epochs=0))
        assert history == []
        predicted, probs = pipeline.predict(model, data.features)
        assert probs.shape == (data.n_rows, 2)

    def test_softmax_width_matches_class_count(self):
        rng = np.random.default_rng(2)
        labels = np.arange(8).repeat(4)
        data = Dataset(rng.random((32, 5)), labels, {i: str(i) for i in range(8)})
        model, _ = pipeline.train_classifier(data, pipeline.ClassifierConfig(epochs=1))
        assert model.net.out_dim == 8

    def test_epoch_budget_capped_at_one_hundred(self):
        with pytest.raises(ConfigError):
            pipeline.ClassifierConfig(epochs=101)

    def test_single_class_rejected(self):
        data = Dataset(np.random.default_rng(3).random((10, 3)),
                       np.zeros(10, dtype=np.int64), {0: "only"})
        with pytest.raises(DataError):
            pipeline.train_classifier(data, pipeline.ClassifierConfig(epochs=1))

    def test_early_stop_patience_halts_training(self):
        # labels independent of features: the loss plateaus at chance level
        rng = np.random.default_rng(4)
        data = Dataset(rng.random((200, 4)), rng.integers(0, 2, size=200),
                       {0: "a", 1: "b"})
        config = pipeline.ClassifierConfig(epochs=100, patience=2, seed=0)
        _, history = pipeline.train_classifier(data, config)
        assert len(history) < 100

    def test_output_width_covers_absent_classes(self):
        # label dictionary defines the width even when a class has no rows
        rng = np.random.default_rng(5)
        data = Dataset(rng.random((20, 4)), np.repeat([0, 2], 10),
                       {0: "a", 1: "ghost", 2: "c"})
        model, _ = pipeline.train_classifier(data, pipeline.ClassifierConfig(epochs=1))
        assert model.net.out_dim == 3

    def test_training_is_bit_reproducible(self):
        data = separable_dataset(seed=12)
        config = pipeline.ClassifierConfig(epochs=5, seed=3)
        model_a, hist_a = pipeline.train_classifier(data, config)
        model_b, hist_b = pipeline.train_classifier(data, config)
        assert hist_a == hist_b
        for pa, pb in zip(model_a.net.parameters(), model_b.net.parameters()):
            assert np.array_equal(pa, pb)


class TestPredict:
    def test_argmax_of_probability_row(self):
        probs = np.array([[0.1, 0.7, 0.2]])
        assert int(probs.argmax(axis=1)[0]) == 1

    def test_exact_tie_goes_to_lowest_class_id(self):
        data = separable_dataset(seed=6)
        model, _ = pipeline.train_classifier(data, pipeline.ClassifierConfig(epochs=0))
        tie = np.array([[0.5, 0.5]])
        assert int(tie.argmax(axis=1)[0]) == 0

    def test_batch_prediction_shape(self):
        data = separable_dataset(seed=7)
        model, _ = pipeline.train_classifier(data, pipeline.ClassifierConfig(epochs=2))
        predicted, probs = pipeline.predict(model, data.features[:13])
        assert predicted.shape == (13,)
        assert probs.shape == (13, 2)

    def test_predicts_in_float32_whatever_the_input_dtype(self):
        data = separable_dataset(seed=15)
        model, _ = pipeline.train_classifier(
            data, pipeline.ClassifierConfig(hidden=(8,), epochs=2, seed=4))
        assert all(p.dtype == np.float32 for p in model.net.parameters())
        ids64, probs64 = pipeline.predict(model, data.features)
        ids32, probs32 = pipeline.predict(model, data.features.astype(np.float32))
        assert probs64.dtype == probs32.dtype == np.float32
        assert np.array_equal(ids64, ids32)
        assert probs64.tobytes() == probs32.tobytes()

    def test_argmax_invariant_to_positive_logit_scaling(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((50, 4))
        softmax = Softmax(4)
        base, _ = softmax.forward(logits, train=False)
        scaled, _ = softmax.forward(2.5 * logits, train=False)
        assert np.array_equal(base.argmax(axis=1), scaled.argmax(axis=1))


class TestModelReuse:
    def test_only_missing_generators_are_trained(self):
        train = leveled_dataset(seed=12, n_ample=80, n_scarce=16, n_rare=3)
        config = fast_config(seed=4)
        config.scgan.epochs = 10
        full, _ = pipeline.train_augmentation_models(train, config)
        kept, missing = sorted(full.scgan_models)
        reused, _ = pipeline.train_augmentation_models(
            train, config, None, full.san_model, {kept: full.scgan_models[kept]})
        assert reused.san_model is full.san_model and not reused.san_history
        assert reused.scgan_models[kept] is full.scgan_models[kept]
        assert set(reused.scgan_histories) == {missing}
        for a, b in zip(reused.scgan_models[missing].generator.parameters(),
                        full.scgan_models[missing].generator.parameters()):
            assert np.array_equal(a, b)

    def test_generators_without_their_san_are_retrained(self):
        train = leveled_dataset(seed=12, n_ample=80, n_scarce=16, n_rare=3)
        config = fast_config(seed=4)
        config.scgan.epochs = 10
        full, _ = pipeline.train_augmentation_models(train, config)
        again, _ = pipeline.train_augmentation_models(train, config, None, None,
                                                      full.scgan_models)
        assert set(again.scgan_histories) == set(full.scgan_models)
        assert all(again.scgan_models[c] is not m for c, m in full.scgan_models.items())
        assert again.san_history == full.san_history


def _save_checkpoint(path):
    """Save a freshly built model of the kind the run-directory file ``path``
    names; return its loader, its magic and its number of networks."""
    name = path.name
    if name == "san.ckpt":
        san.save_san(path, san.build_san(6, SanConfig(hidden_dims=(5,), code_dim=3)))
        return san.load_san, san.SAN_MAGIC, 2
    if name.startswith("scgan_"):
        config = ScganConfig(noise_dim=2, gen_hidden=(5,), disc_hidden=(4,))
        scgan.save_scgan(path, scgan.build_scgan(6, 3, config, class_id=1))
        return scgan.load_scgan, scgan.SCGAN_MAGIC, 2
    model = pipeline.build_classifier(6, [0, 1], pipeline.ClassifierConfig(hidden=(4,)))
    pipeline.save_classifier(path, model)
    return pipeline.load_classifier, pipeline.CLASSIFIER_MAGIC, 1


class TestSaveLoadRun:
    def test_classifier_round_trip_predicts_identically(self, tmp_path):
        data = separable_dataset(seed=9)
        model, history = pipeline.train_classifier(
            data, pipeline.ClassifierConfig(epochs=5, seed=1))
        run_dir = tmp_path / "run"
        pipeline.save_run(run_dir, classifier=model, clf_history=history)
        loaded = pipeline.load_classifier(run_dir / "classifier.ckpt")
        probe = data.features[:17]
        a_ids, a_probs = pipeline.predict(model, probe)
        b_ids, b_probs = pipeline.predict(loaded, probe)
        assert np.array_equal(a_ids, b_ids)
        assert np.array_equal(a_probs, b_probs)

    def test_classifier_checkpoint_round_trips_float32_bit_for_bit(self, tmp_path):
        data = separable_dataset(seed=13)
        model, _ = pipeline.train_classifier(
            data, pipeline.ClassifierConfig(hidden=(8, 4), epochs=3, seed=2))
        path = tmp_path / "classifier.ckpt"
        pipeline.save_classifier(path, model)
        loaded = pipeline.load_classifier(path)
        assert loaded.class_ids == model.class_ids
        for a, b in zip(model.net.parameters(), loaded.net.parameters()):
            assert a.dtype == b.dtype == np.float32
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name, old_magic", [
        ("san.ckpt", "IDSAUG-SAN-1"), ("scgan_1.ckpt", "IDSAUG-GAN-1"),
        ("classifier.ckpt", "IDSAUG-CLF-2")])
    def test_older_checkpoint_magic_refused(self, tmp_path, name, old_magic):
        path = tmp_path / name
        load, magic, n_networks = _save_checkpoint(path)
        meta, networks, _ = read_record(path, magic, n_networks=n_networks)
        write_record(path, f"{old_magic}\n".encode(), meta, networks=networks)
        expected = magic.decode().strip()
        with pytest.raises(FormatError, match=f"bad checkpoint magic, expected {expected}"):
            load(path)

    @pytest.mark.parametrize("name", ["san.ckpt", "scgan_1.ckpt", "classifier.ckpt"])
    def test_damaged_checkpoint_refused(self, tmp_path, name):
        path = tmp_path / name
        load, magic, _ = _save_checkpoint(path)
        blob = path.read_bytes()
        at = len(magic) + (len(blob) - len(magic)) // 2
        path.write_bytes(blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1:])
        with pytest.raises(FormatError, match="record checksum mismatch"):
            load(path)

    def test_readme_layout_lists_the_run_files(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("### Run directory layout", 1)[1]
        block = section.split("```\n", 2)[1]
        listed = [tuple(line.split()[:2]) for line in block.splitlines()]
        assert listed == [(name, command) for command, names in pipeline.RUN_FILES.items()
                          for name in names]

    def test_norm_params_round_trip(self, tmp_path):
        params = dataio.fit_minmax(np.random.default_rng(10).random((20, 6)) * 100)
        run_dir = tmp_path / "run"
        pipeline.save_run(run_dir, norm_params=params)
        loaded = dataio.load_normalization(run_dir / "norm.json")
        probe = np.random.default_rng(11).random((5, 6)) * 100
        assert np.array_equal(dataio.apply_minmax(params, probe),
                              dataio.apply_minmax(loaded, probe))

    def test_corrupted_format_marker_rejected(self, tmp_path):
        run_dir = tmp_path / "run"
        pipeline.save_run(run_dir)
        (run_dir / "format.txt").write_text("idsaug-run-999\n")
        with pytest.raises(FormatError):
            pipeline.load_run(run_dir)

    def test_missing_marker_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            pipeline.load_run(tmp_path)

    def test_scgan_checkpoints_round_trip(self, tmp_path, ):
        train = leveled_dataset(seed=11, n_ample=80, n_scarce=16, n_rare=3)
        config = fast_config(seed=3)
        config.scgan.epochs = 20
        models, _ = pipeline.train_augmentation_models(train, config)
        run_dir = tmp_path / "run"
        pipeline.save_run(run_dir, san_model=models.san_model,
                          scgan_models=models.scgan_models)
        loaded = pipeline.load_run(run_dir)
        assert set(loaded["scgan_models"]) == set(models.scgan_models)
        augmented_a, _ = pipeline.synthesize_augmented(train, config, models)
        rebuilt = pipeline.AugmentationModels(models.part, models.targets,
                                              loaded["san_model"],
                                              loaded["scgan_models"])
        augmented_b, _ = pipeline.synthesize_augmented(train, config, rebuilt)
        assert np.array_equal(augmented_a.dataset.features, augmented_b.dataset.features)
