import numpy as np
import pytest

from idsaug.errors import ConfigError, DataError, InputDataError, StateError
from idsaug.nncore import Dense, Network
from idsaug.san import (
    PairBatch,
    SanConfig,
    SanModel,
    build_san,
    encode,
    load_san,
    sample_pairs,
    san_loss,
    save_san,
    train_san,
    _loss_and_grads,
)

from _gradcheck import fd_gradient, max_rel_err


def gaussian_blobs(seed=0, n_per=(60, 40, 30), dim=12, spread=0.08):
    rng = np.random.default_rng(seed)
    centers = rng.random((len(n_per), dim))
    blocks, labels = [], []
    for i, n in enumerate(n_per):
        blocks.append(np.clip(centers[i] + spread * rng.standard_normal((n, dim)), 0, 1))
        labels.append(np.full(n, i, dtype=np.int64))
    return np.concatenate(blocks), np.concatenate(labels)


class TestSamplePairs:
    def test_single_class_pairs_are_all_similar(self):
        features = np.random.default_rng(0).random((10, 4))
        with pytest.warns(UserWarning, match="one class"):
            batch = sample_pairs(features, np.zeros(10), 20, 0.5, rng=1)
        assert np.array_equal(batch.y, np.zeros(20))

    def test_dissimilar_fraction_is_exact(self):
        features, labels = gaussian_blobs()
        batch = sample_pairs(features, labels, 100, 0.5, rng=2)
        assert int(batch.y.sum()) == 50
        batch = sample_pairs(features, labels, 10, 0.3, rng=2)
        assert int(batch.y.sum()) == 3

    def test_same_seed_gives_identical_index_lists(self):
        features, labels = gaussian_blobs()
        a = sample_pairs(features, labels, 64, 0.5, rng=7)
        b = sample_pairs(features, labels, 64, 0.5, rng=7)
        assert np.array_equal(a.idx1, b.idx1)
        assert np.array_equal(a.idx2, b.idx2)
        assert np.array_equal(a.y, b.y)

    def test_pair_never_repeats_a_row(self):
        features, labels = gaussian_blobs(n_per=(3, 3))
        batch = sample_pairs(features, labels, 200, 0.5, rng=3)
        assert np.all(batch.idx1 != batch.idx2)

    def test_dissimilar_pairs_span_classes(self):
        features, labels = gaussian_blobs()
        batch = sample_pairs(features, labels, 80, 1.0, rng=4)
        assert np.all(labels[batch.idx1] != labels[batch.idx2])

    def test_needs_two_samples(self):
        with pytest.raises(DataError):
            sample_pairs(np.ones((1, 3)), [0], 4, 0.5, rng=0)

    def test_no_class_with_two_rows_makes_every_pair_dissimilar(self):
        features = np.random.default_rng(0).random((3, 4))
        with pytest.warns(UserWarning, match="no class has two samples"):
            batch = sample_pairs(features, [0, 1, 2], 20, 0.5, rng=1)
        assert np.array_equal(batch.y, np.ones(20))


class TestPairDistribution:
    """20,000 pairs over classes of 2, 5 and 40 rows: a similar pair's class
    is uniform over the classes with two rows, a dissimilar pair's ordered
    class pair uniform over the distinct ones, whatever the class sizes."""

    SIZES = (2, 5, 40)
    PAIRS = 20_000

    @pytest.fixture(scope="class")
    def drawn(self):
        labels = np.repeat(np.arange(len(self.SIZES)), self.SIZES)
        features = np.random.default_rng(0).random((labels.size, 3))
        batch = sample_pairs(features, labels, self.PAIRS, 0.5, rng=11)
        return labels, batch

    def test_kind_counts_are_exact(self, drawn):
        _, batch = drawn
        assert int((batch.y == 1.0).sum()) == self.PAIRS // 2
        assert int((batch.y == 0.0).sum()) == self.PAIRS // 2

    def test_rows_of_a_pair_are_distinct(self, drawn):
        _, batch = drawn
        assert np.all(batch.idx1 != batch.idx2)

    def test_kind_decides_whether_the_classes_match(self, drawn):
        labels, batch = drawn
        same = labels[batch.idx1] == labels[batch.idx2]
        assert np.array_equal(same, batch.y == 0.0)

    def test_similar_pairs_spread_evenly_over_classes(self, drawn):
        labels, batch = drawn
        classes = labels[batch.idx1[batch.y == 0.0]]
        shares = np.bincount(classes, minlength=3) / classes.size
        np.testing.assert_allclose(shares, 1 / 3, atol=0.02)

    def test_dissimilar_pairs_spread_evenly_over_ordered_class_pairs(self, drawn):
        labels, batch = drawn
        dissimilar = batch.y == 1.0
        cells = 3 * labels[batch.idx1[dissimilar]] + labels[batch.idx2[dissimilar]]
        shares = np.bincount(cells, minlength=9).reshape(3, 3) / dissimilar.sum()
        off_diagonal = ~np.eye(3, dtype=bool)
        assert np.all(shares[~off_diagonal] == 0.0)
        np.testing.assert_allclose(shares[off_diagonal], 1 / 6, atol=0.02)


class TestSanModel:
    def test_architecture_dims(self):
        model = build_san(78, SanConfig(), np.random.default_rng(0))
        assert model.encoder.in_dim == 78
        assert model.encoder.out_dim == 16
        assert model.decoder.in_dim == 16
        assert model.decoder.out_dim == 78

    def test_twins_share_storage(self):
        # one physical parameter set: an update through either twin moves both
        model = build_san(8, SanConfig(code_dim=4, hidden_dims=(6,)),
                          np.random.default_rng(1))
        p_first = model.encoder.parameters()
        p_second = model.encoder.parameters()
        for a, b in zip(p_first, p_second):
            assert a is b

    def test_mismatched_encoder_decoder_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ConfigError):
            SanModel(Network([Dense(8, 4, rng)]), Network([Dense(5, 8, rng)]))


class TestSanLoss:
    def test_identity_autoencoder_same_class_is_zero(self):
        rng = np.random.default_rng(3)
        enc = Network([Dense(4, 4, rng)])
        enc.layers[0].weights[...] = np.eye(4)
        dec = Network([Dense(4, 4, rng)])
        dec.layers[0].weights[...] = np.eye(4)
        model = SanModel(enc, dec, margin=1.0, alpha=1.0)
        x = rng.random((5, 4))
        batch = PairBatch(x, x.copy(), np.zeros(5))
        assert san_loss(model, batch) == pytest.approx(0.0)

    def test_alpha_zero_reduces_to_reconstruction_sum(self):
        from idsaug.nncore import reconstruction_loss

        rng = np.random.default_rng(4)
        model = build_san(6, SanConfig(code_dim=3, hidden_dims=(5,), alpha=0.0),
                          rng).eval()
        x1, x2 = rng.random((4, 6)), rng.random((4, 6))
        batch = PairBatch(x1, x2, np.ones(4))
        r1 = model.decoder.forward(model.encoder.forward(x1))
        r2 = model.decoder.forward(model.encoder.forward(x2))
        expected = reconstruction_loss(x1, r1)[0] + reconstruction_loss(x2, r2)[0]
        assert san_loss(model, batch) == pytest.approx(expected)

    def test_combined_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        model = build_san(5, SanConfig(code_dim=3, hidden_dims=(4,)), rng)
        x1 = rng.random((6, 5))
        x2 = rng.random((6, 5))
        batch = PairBatch(x1, x2, rng.integers(0, 2, size=6).astype(float))
        _, enc_grads, dec_grads = _loss_and_grads(model, batch)

        def objective():
            return san_loss(model, batch)

        for param, analytic in zip(model.encoder.parameters(), enc_grads):
            assert max_rel_err(analytic, fd_gradient(objective, param)) < 1e-4
        for param, analytic in zip(model.decoder.parameters(), dec_grads):
            assert max_rel_err(analytic, fd_gradient(objective, param)) < 1e-4


class TestTrainSan:
    def test_zero_epochs_returns_initialized_model(self):
        features, labels = gaussian_blobs()
        model, history = train_san(features, labels, SanConfig(epochs=0))
        assert history == []
        assert model.encoder.mode == "eval"
        assert encode(model, features).shape == (features.shape[0], 16)

    def test_loss_decreases_and_embeddings_separate(self):
        features, labels = gaussian_blobs(seed=1, dim=16)
        config = SanConfig(epochs=12, pairs_per_epoch=256, seed=1)
        model, history = train_san(features, labels, config)
        assert len(history) == 12
        assert history[-1] <= history[0]
        assert history[-1] < 0.5 * history[0]
        held_x, held_y = gaussian_blobs(seed=2, dim=16)
        codes = encode(model, held_x)
        rng = np.random.default_rng(0)
        same, cross = [], []
        for _ in range(1500):
            i, j = rng.integers(0, held_x.shape[0], size=2)
            if i == j:
                continue
            d = float(np.linalg.norm(codes[i] - codes[j]))
            (same if held_y[i] == held_y[j] else cross).append(d)
        assert np.mean(same) < np.mean(cross)

    def test_deterministic_per_seed(self):
        features, labels = gaussian_blobs(seed=3)
        config = SanConfig(epochs=3, pairs_per_epoch=64, seed=9)
        model_a, hist_a = train_san(features, labels, config)
        model_b, hist_b = train_san(features, labels, config)
        assert hist_a == hist_b
        for pa, pb in zip(model_a.encoder.parameters(), model_b.encoder.parameters()):
            assert np.array_equal(pa, pb)

    def test_windowed_loss_trend_never_rises_after_warmup(self):
        # rolling 5-epoch means after epoch 5 may wobble in the converged
        # tail but never rise by more than 2% of the starting loss
        features, labels = gaussian_blobs(seed=10, dim=20, n_per=(150, 100, 60))
        _, history = train_san(features, labels, SanConfig(epochs=30, seed=0))
        windows = [float(np.mean(history[k:k + 5])) for k in range(5, len(history) - 4)]
        tolerance = 0.02 * history[0]
        for earlier, later in zip(windows, windows[1:]):
            assert later <= earlier + tolerance, windows

    def test_unnormalized_input_rejected(self):
        features, labels = gaussian_blobs()
        with pytest.raises(InputDataError):
            train_san(features * 10.0, labels, SanConfig(epochs=1))


class TestEncode:
    def test_code_width_is_sixteen_by_default(self):
        features, labels = gaussian_blobs(dim=78)
        model, _ = train_san(features, labels, SanConfig(epochs=0))
        assert encode(model, features).shape[1] == 16

    def test_encode_is_deterministic(self):
        features, labels = gaussian_blobs(seed=5)
        model, _ = train_san(features, labels, SanConfig(epochs=2, pairs_per_epoch=64))
        a = encode(model, features)
        b = encode(model, features)
        assert np.array_equal(a, b)

    def test_row_count_preserved(self):
        features, labels = gaussian_blobs(seed=6)
        model, _ = train_san(features, labels, SanConfig(epochs=0))
        assert encode(model, features[:7]).shape[0] == 7

    def test_train_mode_encode_rejected(self):
        features, labels = gaussian_blobs(seed=7)
        model, _ = train_san(features, labels, SanConfig(epochs=0))
        model.train()
        with pytest.raises(StateError):
            encode(model, features)


def test_checkpoint_round_trip(tmp_path):
    features, labels = gaussian_blobs(seed=8)
    model, _ = train_san(features, labels,
                         SanConfig(epochs=2, pairs_per_epoch=64, seed=4))
    path = tmp_path / "san.ckpt"
    save_san(path, model)
    loaded = load_san(path)
    assert loaded.margin == model.margin and loaded.alpha == model.alpha
    assert np.array_equal(encode(loaded, features), encode(model, features))
