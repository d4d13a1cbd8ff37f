import copy

import numpy as np
import pytest

import idsaug.scgan as scgan_module
from idsaug.errors import ConfigError, DataError, StateError, YieldError
from idsaug.nncore import Network, adversarial_losses, discriminator_score_grads
from idsaug.san import SanConfig, encode, train_san
from idsaug.scgan import (
    FilterPolicy,
    ScganConfig,
    build_scgan,
    filter_generated,
    generate,
    load_scgan,
    save_scgan,
    synthesize_to_target,
    train_scgan,
)

DIM = 10


def scarce_fixture(seed=0, n_majority=120, n_scarce=60):
    rng = np.random.default_rng(seed)
    centers = rng.random((2, DIM))
    majority = np.clip(centers[0] + 0.08 * rng.standard_normal((n_majority, DIM)), 0, 1)
    scarce = np.clip(centers[1] + 0.05 * rng.standard_normal((n_scarce, DIM)), 0, 1)
    features = np.concatenate([majority, scarce])
    labels = np.concatenate([np.zeros(n_majority, dtype=np.int64),
                             np.ones(n_scarce, dtype=np.int64)])
    san_model, _ = train_san(features, labels, SanConfig(epochs=15, seed=seed))
    return scarce, san_model


@pytest.fixture(scope="module")
def trained():
    scarce, san_model = scarce_fixture()
    model, history = train_scgan(scarce, 1, san_model,
                                 ScganConfig(epochs=200, seed=0))
    return scarce, san_model, model, history


class TestBuild:
    def test_architecture_dims(self):
        model = build_scgan(78, 16, ScganConfig(), np.random.default_rng(0))
        assert model.generator.in_dim == 32
        assert model.generator.out_dim == 78
        assert model.discriminator.in_dim == 94
        assert model.discriminator.out_dim == 1
        assert not model.trained


class TestTrain:
    def test_zero_epochs_gives_untrained_model_and_empty_history(self):
        scarce, san_model = scarce_fixture(seed=1)
        model, history = train_scgan(scarce, 1, san_model, ScganConfig(epochs=0, seed=1))
        assert not model.trained
        assert history.d_loss == [] and history.g_loss == []

    def test_empty_class_rejected(self):
        _, san_model = scarce_fixture(seed=2)
        with pytest.raises(DataError):
            train_scgan(np.empty((0, DIM)), 1, san_model, ScganConfig(epochs=1))

    def test_losses_finite_and_recorded_per_epoch(self, trained):
        _, _, model, history = trained
        assert model.trained
        assert len(history.d_loss) == 200
        assert np.isfinite(history.d_loss).all()
        assert np.isfinite(history.g_loss).all()

    def test_losses_bounded_after_warmup(self, trained):
        _, _, _, history = trained
        tail_d = history.d_loss[50:]
        tail_g = history.g_loss[50:]
        assert 0.0 < min(tail_d) and max(tail_d) < 5.0
        assert 0.0 < min(tail_g) and max(tail_g) < 5.0

    def test_recorded_scores_reproduce_losses_exactly(self, monkeypatch):
        # every step's scores and losses, recorded where train_scgan computes
        # them, interleaved with the observer's update events
        scarce, san_model = scarce_fixture(seed=4, n_scarce=33)
        events = []

        def recording(real_scores, fake_scores):
            losses = adversarial_losses(real_scores, fake_scores)
            events.append((real_scores.copy(), fake_scores.copy(), losses))
            return losses

        monkeypatch.setattr(scgan_module, "adversarial_losses", recording)
        config = ScganConfig(epochs=4, seed=2)
        _, history = train_scgan(scarce, 1, san_model, config,
                                 observer=lambda event, model: events.append(event))
        # 33 rows at batch 16: two steps an epoch, the lone last row skipped
        per_epoch = 2
        steps = [events[i:i + 4] for i in range(0, len(events), 4)]
        assert len(events) == 4 * per_epoch * config.epochs
        d_losses, g_losses = [], []
        for d_pass, d_event, g_pass, g_event in steps:
            assert (d_event, g_event) == ("d-updated", "g-updated")
            # the generator pass rescores the same fakes with the updated
            # discriminator against the pre-update real scores
            assert np.array_equal(d_pass[0], g_pass[0])
            assert not np.array_equal(d_pass[1], g_pass[1])
            d_losses.append(d_pass[2][0])
            g_losses.append(g_pass[2][1])
        starts = range(0, len(steps), per_epoch)
        assert history.d_loss == [float(np.mean(d_losses[i:i + per_epoch])) for i in starts]
        assert history.g_loss == [float(np.mean(g_losses[i:i + per_epoch])) for i in starts]

    def test_merged_discriminator_pass_matches_two_accumulated_passes(self, monkeypatch):
        # each step's discriminator update runs once over real rows stacked on
        # generated rows; a copy of the discriminator taken before it, run as
        # two passes whose gradients accumulate, must agree with it
        scarce, san_model = scarce_fixture(seed=7, n_scarce=34)
        build, forward = scgan_module.build_scgan, Network.forward
        models, steps, losses = [], [], []
        # the first discriminator forward of a step is the update's pass, the
        # second the generator step's rescoring
        state = {"update_pass_next": True}

        def keeping(*args, **kwargs):
            models.append(build(*args, **kwargs))
            return models[-1]

        def recording(net, x):
            if models and net is models[0].discriminator and state["update_pass_next"]:
                steps.append({"rows": np.array(x, copy=True),
                              "before": Network(copy.deepcopy(net.layers))})
                state["update_pass_next"] = False
            return forward(net, x)

        def observer(event, model):
            if event == "d-updated":
                steps[-1]["grad"] = model.discriminator.grad.copy()
            else:
                state["update_pass_next"] = True

        def losses_recording(real_scores, fake_scores):
            result = adversarial_losses(real_scores, fake_scores)
            losses.append(result)
            return result

        monkeypatch.setattr(scgan_module, "build_scgan", keeping)
        monkeypatch.setattr(Network, "forward", recording)
        monkeypatch.setattr(scgan_module, "adversarial_losses", losses_recording)
        train_scgan(scarce, 1, san_model, ScganConfig(epochs=2, seed=3), observer=observer)
        monkeypatch.undo()

        # 34 rows at batch 16: steps of 16, 16 and 2 rows an epoch, each pass
        # over twice its rows
        assert [len(step["rows"]) for step in steps] == [32, 32, 4] * 2
        for step, d_losses in zip(steps, losses[::2]):
            disc, rows = step["before"], step["rows"]
            b = len(rows) // 2
            d_real, tape_real = disc.forward(rows[:b])
            d_fake, tape_fake = disc.forward(rows[b:])
            expected = adversarial_losses(d_real, d_fake)
            np.testing.assert_allclose(d_losses, expected, rtol=0, atol=1e-12)
            grad_real, grad_fake = discriminator_score_grads(d_real, d_fake)
            disc.backward(grad_real, tape_real, input_grad=False)
            disc.backward(grad_fake, tape_fake, input_grad=False, accumulate=True)
            np.testing.assert_allclose(step["grad"], disc.grad, rtol=1e-10)

    def test_normalization_mismatch_rejected(self):
        scarce, san_model = scarce_fixture(seed=6)
        from idsaug.errors import InputDataError
        with pytest.raises(InputDataError):
            train_scgan(scarce * 3.0, 1, san_model, ScganConfig(epochs=1))

    def test_training_is_deterministic(self):
        scarce, san_model = scarce_fixture(seed=3)
        config = ScganConfig(epochs=5, seed=5)
        model_a, hist_a = train_scgan(scarce, 1, san_model, config)
        model_b, hist_b = train_scgan(scarce, 1, san_model, config)
        assert hist_a.d_loss == hist_b.d_loss
        for pa, pb in zip(model_a.generator.parameters(), model_b.generator.parameters()):
            assert np.array_equal(pa, pb)


class TestGenerate:
    def test_zero_requested_gives_empty(self, trained):
        scarce, san_model, model, _ = trained
        candidates, conditions = generate(model, san_model, scarce, 0, seed=0)
        assert candidates.shape == (0, DIM)
        assert conditions.shape == (0, model.code_dim)

    def test_output_shape_and_range(self, trained):
        scarce, san_model, model, _ = trained
        candidates, _ = generate(model, san_model, scarce, 1000, seed=1)
        assert candidates.shape == (1000, DIM)
        assert candidates.min() >= 0.0 and candidates.max() <= 1.0

    def test_same_seed_reproduces_candidates(self, trained):
        scarce, san_model, model, _ = trained
        a, ca = generate(model, san_model, scarce, 50, seed=9)
        b, cb = generate(model, san_model, scarce, 50, seed=9)
        assert np.array_equal(a, b)
        assert np.array_equal(ca, cb)

    def test_untrained_model_rejected(self):
        scarce, san_model = scarce_fixture(seed=4)
        model, _ = train_scgan(scarce, 1, san_model, ScganConfig(epochs=0, seed=0))
        with pytest.raises(StateError):
            generate(model, san_model, scarce, 5, seed=0)

    def test_empty_condition_source_rejected(self, trained):
        _, san_model, model, _ = trained
        with pytest.raises(DataError):
            generate(model, san_model, np.empty((0, DIM)), 5, seed=0)


class TestFilter:
    def test_eta_zero_keeps_everything(self, trained):
        scarce, san_model, model, _ = trained
        candidates, conditions = generate(model, san_model, scarce, 200, seed=2)
        kept, scores = filter_generated(model, candidates, conditions,
                                        FilterPolicy(eta=0.0))
        assert kept.shape == candidates.shape
        assert scores.shape == (200,)

    def test_threshold_is_inclusive(self, trained):
        scarce, san_model, model, _ = trained
        candidates, conditions = generate(model, san_model, scarce, 64, seed=3)
        _, scores = filter_generated(model, candidates, conditions, FilterPolicy(eta=0.45))
        exact_eta = float(scores[0])
        kept, _ = filter_generated(model, candidates, conditions,
                                   FilterPolicy(eta=exact_eta))
        assert any(np.array_equal(candidates[0], row) for row in kept)

    def test_kept_count_matches_scores_at_or_above_eta(self, trained):
        scarce, san_model, model, _ = trained
        candidates, conditions = generate(model, san_model, scarce, 300, seed=8)
        policy = FilterPolicy(eta=0.45)
        kept, scores = filter_generated(model, candidates, conditions, policy)
        assert kept.shape[0] == int((scores >= 0.45).sum())
        assert 0 < kept.shape[0] < 300  # threshold actually discriminates

    def test_default_eta(self):
        assert FilterPolicy().eta == 0.45

    def test_eta_bounds_validated(self):
        with pytest.raises(ConfigError):
            FilterPolicy(eta=1.5)


class TestSynthesizeToTarget:
    def test_zero_target_is_empty(self, trained):
        scarce, san_model, model, _ = trained
        result = synthesize_to_target(model, san_model, scarce, 0, FilterPolicy(), seed=0)
        assert result.samples.shape == (0, DIM)
        assert result.attempts == 0

    def test_eta_zero_needs_one_batch(self, trained):
        scarce, san_model, model, _ = trained
        result = synthesize_to_target(model, san_model, scarce, 10,
                                      FilterPolicy(eta=0.0), seed=1)
        assert result.samples.shape == (10, DIM)
        assert result.attempts == 64  # one minimum-size batch
        assert result.acceptance_rate > 0.0

    def test_exact_count_and_filter_soundness(self, trained):
        scarce, san_model, model, _ = trained
        policy = FilterPolicy(eta=0.45, max_attempt_factor=50)
        result = synthesize_to_target(model, san_model, scarce, 500, policy, seed=2)
        assert result.samples.shape == (500, DIM)
        assert result.samples.min() >= 0.0 and result.samples.max() <= 1.0
        # every returned sample re-scores at or above eta with its condition
        rescored = model.discriminator.infer(
            np.concatenate([result.samples, result.conditions], axis=1))[:, 0]
        assert np.all(rescored >= policy.eta)
        assert np.array_equal(rescored, result.scores)

    def test_impossible_threshold_exhausts_budget(self, trained):
        scarce, san_model, model, _ = trained
        policy = FilterPolicy(eta=1.0, max_attempt_factor=2)
        with pytest.raises(YieldError) as excinfo:
            synthesize_to_target(model, san_model, scarce, 50, policy, seed=3)
        assert excinfo.value.acceptance_rate == 0.0

    def test_deterministic_per_seed(self, trained):
        scarce, san_model, model, _ = trained
        a = synthesize_to_target(model, san_model, scarce, 40, FilterPolicy(), seed=4)
        b = synthesize_to_target(model, san_model, scarce, 40, FilterPolicy(), seed=4)
        assert np.array_equal(a.samples, b.samples)

    def test_class_is_encoded_once_across_rounds(self, trained, monkeypatch):
        scarce, san_model, model, _ = trained
        calls = []

        def counting_encode(san, data):
            calls.append(len(data))
            return encode(san, data)

        monkeypatch.setattr("idsaug.scgan.encode", counting_encode)
        # eta 1.0 accepts nothing, so the budget of 200 runs two 100-row rounds
        policy = FilterPolicy(eta=1.0, max_attempt_factor=4)
        with pytest.raises(YieldError):
            synthesize_to_target(model, san_model, scarce, 50, policy, seed=3)
        assert calls == [len(scarce)]

    def test_rounds_draw_like_generate(self, trained):
        # one round takes the same picks-then-noise draws as generate
        scarce, san_model, model, _ = trained
        result = synthesize_to_target(model, san_model, scarce, 10,
                                      FilterPolicy(eta=0.0), seed=5)
        candidates, conditions = generate(model, san_model, scarce, 64, seed=5)
        assert np.array_equal(result.samples, candidates[:10])
        assert np.array_equal(result.conditions, conditions[:10])


class TestAlternation:
    def test_one_d_and_one_g_update_per_step_with_d_frozen(self):
        scarce, san_model = scarce_fixture(seed=5)
        events = []
        snapshots = {}

        def observer(event, model):
            events.append(event)
            if event == "d-updated":
                snapshots["disc"] = [p.copy() for p in model.discriminator.parameters()]
                snapshots["gen"] = [p.copy() for p in model.generator.parameters()]
            else:
                # the generator step must not have touched the discriminator
                for before, now in zip(snapshots["disc"],
                                       model.discriminator.parameters()):
                    assert np.array_equal(before, now)
                moved = any(not np.array_equal(before, now) for before, now in
                            zip(snapshots["gen"], model.generator.parameters()))
                assert moved

        train_scgan(scarce, 1, san_model, ScganConfig(epochs=2, seed=0),
                    observer=observer)
        assert events[::2] == ["d-updated"] * (len(events) // 2)
        assert events[1::2] == ["g-updated"] * (len(events) // 2)


def test_checkpoint_round_trip(tmp_path, trained):
    scarce, san_model, model, _ = trained
    path = tmp_path / "gan.ckpt"
    save_scgan(path, model)
    loaded = load_scgan(path)
    assert loaded.class_id == 1
    assert loaded.trained
    a, _ = generate(model, san_model, scarce, 25, seed=6)
    b, _ = generate(loaded, san_model, scarce, 25, seed=6)
    assert np.array_equal(a, b)
