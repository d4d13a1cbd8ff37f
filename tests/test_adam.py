import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsaug import pipeline, san, scgan
from idsaug.errors import ConfigError, ShapeError
from idsaug.nncore import Adam, Dense
from idsaug.synthbench import default_spec, generate_dataset

from _adam_oracle import ReferenceAdam


def flat_grads(*grads):
    """The gradients as the one flat vector ``Adam.step`` takes."""
    return np.concatenate([np.ravel(g) for g in grads])


def test_zero_gradients_leave_params_unchanged():
    params = [np.array([1.0, -2.0, 3.0]), np.array([[4.0, 5.0]])]
    opt = Adam(params)
    before = [p.copy() for p in params]
    opt.step(params, flat_grads(*(np.zeros_like(p) for p in params)))
    for p, b in zip(params, before):
        assert np.array_equal(p, b)
    assert opt.step_count == 1


def test_first_step_moves_by_lr_times_sign():
    for g in (0.3, -7.0, 123.4):
        param = [np.array([0.0])]
        opt = Adam(param, lr=0.01)
        opt.step(param, np.array([g]))
        # bias correction makes the first update lr * g / (|g| + eps)
        assert param[0][0] == pytest.approx(-0.01 * np.sign(g), rel=1e-6)


def test_quadratic_minimization_converges():
    w = [np.array([0.0])]
    opt = Adam(w, lr=0.01)
    for _ in range(2000):
        grad = 2.0 * (w[0] - 3.0)
        opt.step(w, grad)
        if abs(w[0][0] - 3.0) < 1e-3:
            break
    assert abs(w[0][0] - 3.0) < 1e-3


def test_shape_mismatch_rejected():
    params = [np.zeros(3)]
    opt = Adam(params)
    with pytest.raises(ShapeError):
        opt.step(params, np.zeros(4))
    with pytest.raises(ShapeError):
        opt.step([np.zeros(4)], np.zeros(3))
    with pytest.raises(ShapeError):
        opt.step([np.zeros(3), np.zeros(2)], np.zeros(5))


def test_step_counter_increments_per_update():
    params = [np.zeros(2)]
    opt = Adam(params)
    for expected in range(1, 6):
        opt.step(params, np.ones(2))
        assert opt.step_count == expected


def test_invalid_hyperparameters():
    with pytest.raises(ConfigError):
        Adam([np.zeros(1)], lr=0.0)
    with pytest.raises(ConfigError):
        Adam([np.zeros(1)], beta1=1.0)
    with pytest.raises(ConfigError):
        Adam([np.zeros(1)], beta2=0.0)
    with pytest.raises(ConfigError):
        Adam([np.zeros(1)], epsilon=-1e-8)


def test_updates_are_deterministic():
    def run():
        params = [np.ones((3, 2))]
        opt = Adam(params, lr=0.05)
        rng = np.random.default_rng(42)
        for _ in range(50):
            opt.step(params, flat_grads(rng.standard_normal((3, 2))))
        return params[0]

    assert np.array_equal(run(), run())


# 0-d and empty parameters included: both must pass through the flat state
param_shapes = st.lists(
    st.one_of(st.just(()), st.just((0,)), st.tuples(st.integers(1, 7)),
              st.tuples(st.integers(0, 5), st.integers(1, 5))),
    min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(param_shapes, st.floats(1e-5, 0.5), st.floats(0.01, 0.99), st.floats(0.5, 0.9999),
       st.floats(1e-12, 1e-2), st.integers(1, 60),
       st.sampled_from([1e-150, 1e-3, 1.0, 1e3]), st.integers(0, 2**31),
       st.sampled_from([np.float64, np.float32]))
def test_flat_update_is_bit_identical_to_the_per_parameter_oracle(
        shapes, lr, beta1, beta2, epsilon, n_steps, scale, seed, dtype):
    rng = np.random.default_rng(seed)
    start = [np.array(rng.standard_normal(s), dtype=dtype) for s in shapes]
    ours = [p.copy() for p in start]
    held = list(ours)
    theirs = [p.copy() for p in start]
    hyper = dict(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon)
    opt, oracle = Adam(ours, **hyper), ReferenceAdam(theirs, **hyper)
    for _ in range(n_steps):
        # some exact zeros, as a ReLU's masked gradients have
        grads = flat_grads(*(np.array(rng.standard_normal(s) * scale * (rng.random(s) > 0.2),
                                dtype=dtype) for s in shapes))
        opt.step(ours, grads)
        oracle.step(theirs, grads)
        for a, b in zip(ours, theirs):
            assert a.tobytes() == b.tobytes()
    # the parameters are updated in place and keep their dtype; the moments
    # are float64 whatever it is
    assert all(a is b and a.dtype == dtype for a, b in zip(ours, held))
    assert opt.first.dtype == opt.second.dtype == np.float64
    flat = np.concatenate([m.ravel() for m in oracle.first])
    assert opt.first.tobytes() == flat.tobytes()
    flat = np.concatenate([v.ravel() for v in oracle.second])
    assert opt.second.tobytes() == flat.tobytes()


def test_step_updates_the_callers_arrays_in_place():
    layer = Dense(3, 2, np.random.default_rng(0))
    weights, bias = layer.params()
    opt = Adam([weights, bias], lr=0.1)
    opt.step(layer.params(), np.ones(8))
    assert layer.weights is weights and layer.bias is bias
    assert np.allclose(bias, -0.1, rtol=1e-6)
    # nothing is bound into the layer: a rebound parameter (as a checkpoint
    # load does) is the array the next step updates
    held = weights.copy()
    layer.weights = np.zeros((3, 2))
    opt.step(layer.params(), np.ones(8))
    assert np.all(layer.weights < 0.0)
    assert np.array_equal(weights, held)


def _train_all(data, monkeypatch, optimizer):
    built = []

    def build(params, **kwargs):
        built.append(optimizer(params, **kwargs))
        return built[-1]

    for module in (pipeline, san, scgan):
        monkeypatch.setattr(module, "Adam", build)
    clf, clf_history = pipeline.train_classifier(
        data, pipeline.ClassifierConfig(hidden=(16, 8), epochs=3, batch_size=32, seed=5))
    san_model, san_history = san.train_san(
        data.features, data.labels, san.SanConfig(epochs=3, pairs_per_epoch=128, seed=6))
    gan, gan_history = scgan.train_scgan(
        data.features[data.labels == 2], 2, san_model, scgan.ScganConfig(epochs=20, seed=7))
    # one classifier, two SAN and two SCGAN optimizers, each of the given kind
    assert [type(opt) for opt in built] == [optimizer] * 5
    return clf, clf_history, san_model, san_history, gan, gan_history


def test_training_matches_the_oracle_byte_for_byte(tmp_path, monkeypatch):
    data = generate_dataset(default_spec(counts=(240, 48, 6), dim=6, seed=3))
    data.features = np.clip(data.features, 0.0, 1.0)
    runs = {}
    for tag, optimizer in (("flat", Adam), ("oracle", ReferenceAdam)):
        clf, clf_history, san_model, san_history, gan, gan_history = _train_all(
            data, monkeypatch, optimizer)
        pipeline.save_classifier(tmp_path / f"{tag}-clf.ckpt", clf)
        san.save_san(tmp_path / f"{tag}-san.ckpt", san_model)
        scgan.save_scgan(tmp_path / f"{tag}-scgan.ckpt", gan)
        runs[tag] = (clf_history, san_history, gan_history.d_loss, gan_history.g_loss)
    assert runs["flat"] == runs["oracle"]
    assert len(runs["flat"][0]) == 3 and len(runs["flat"][3]) == 20
    for name in ("clf", "san", "scgan"):
        flat = (tmp_path / f"flat-{name}.ckpt").read_bytes()
        assert flat == (tmp_path / f"oracle-{name}.ckpt").read_bytes(), name
