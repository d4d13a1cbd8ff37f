import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsaug import pipeline, san, scgan
from idsaug.errors import ConfigError, ShapeError
from idsaug.nncore import Adam, Network
from idsaug.synthbench import default_spec, generate_dataset

from _adam_oracle import ReferenceAdam


def flat(*arrays):
    """The arrays as one flat vector, the layout of a network's ``params`` and
    ``grad``."""
    return np.concatenate([np.ravel(a) for a in arrays])


def test_zero_gradients_leave_params_unchanged():
    params = np.array([1.0, -2.0, 3.0, 4.0, 5.0])
    opt = Adam(params)
    before = params.copy()
    opt.step(params, np.zeros_like(params))
    assert np.array_equal(params, before)
    assert opt.step_count == 1


def test_first_step_moves_by_lr_times_sign():
    for g in (0.3, -7.0, 123.4):
        param = np.array([0.0])
        opt = Adam(param, lr=0.01)
        opt.step(param, np.array([g]))
        # bias correction makes the first update lr * g / (|g| + eps)
        assert param[0] == pytest.approx(-0.01 * np.sign(g), rel=1e-6)


def test_quadratic_minimization_converges():
    w = np.array([0.0])
    opt = Adam(w, lr=0.01)
    for _ in range(2000):
        grad = 2.0 * (w - 3.0)
        opt.step(w, grad)
        if abs(w[0] - 3.0) < 1e-3:
            break
    assert abs(w[0] - 3.0) < 1e-3


def test_shape_mismatch_rejected():
    params = np.zeros(3)
    opt = Adam(params)
    with pytest.raises(ShapeError):
        opt.step(params, np.zeros(4))
    with pytest.raises(ShapeError):
        opt.step(np.zeros(4), np.zeros(3))
    with pytest.raises(ShapeError):
        opt.step(np.zeros((3, 1)), np.zeros(3))


def test_step_counter_increments_per_update():
    params = np.zeros(2)
    opt = Adam(params)
    for expected in range(1, 6):
        opt.step(params, np.ones(2))
        assert opt.step_count == expected


def test_invalid_hyperparameters():
    with pytest.raises(ConfigError):
        Adam(np.zeros(1), lr=0.0)
    with pytest.raises(ConfigError):
        Adam(np.zeros(1), beta1=1.0)
    with pytest.raises(ConfigError):
        Adam(np.zeros(1), beta2=0.0)
    with pytest.raises(ConfigError):
        Adam(np.zeros(1), epsilon=-1e-8)
    with pytest.raises(ConfigError, match="learning rate"):
        Adam(np.zeros(1), lr=float("nan"))
    with pytest.raises(ConfigError, match="epsilon"):
        Adam(np.zeros(1), epsilon=float("nan"))


def test_updates_are_deterministic():
    def run():
        params = np.ones(6)
        opt = Adam(params, lr=0.05)
        rng = np.random.default_rng(42)
        for _ in range(50):
            opt.step(params, rng.standard_normal(6))
        return params

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
    theirs = [np.array(rng.standard_normal(s), dtype=dtype) for s in shapes]
    ours = flat(*theirs)
    hyper = dict(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon)
    opt, oracle = Adam(ours, **hyper), ReferenceAdam(theirs, **hyper)
    for _ in range(n_steps):
        # some exact zeros, as a ReLU's masked gradients have
        grads = flat(*(np.array(rng.standard_normal(s) * scale * (rng.random(s) > 0.2),
                                dtype=dtype) for s in shapes))
        opt.step(ours, grads)
        oracle.step(theirs, grads)
        assert ours.tobytes() == flat(*theirs).tobytes()
    # the parameters keep their dtype; the moments are float64 whatever it is
    assert ours.dtype == dtype
    assert opt.first.dtype == opt.second.dtype == np.float64
    assert opt.first.tobytes() == flat(*oracle.first).tobytes()
    assert opt.second.tobytes() == flat(*oracle.second).tobytes()


def _built_and_loaded_networks(tmp_path):
    rng = np.random.default_rng(0)
    clf = pipeline.build_classifier(5, [0, 1, 2], pipeline.ClassifierConfig(hidden=(4,)), rng)
    san_model = san.build_san(5, san.SanConfig(code_dim=3, hidden_dims=(4,)), rng)
    gan = scgan.build_scgan(5, 3, scgan.ScganConfig(gen_hidden=(4,), disc_hidden=(4,)), rng)
    pipeline.save_classifier(tmp_path / "clf.ckpt", clf)
    san.save_san(tmp_path / "san.ckpt", san_model)
    scgan.save_scgan(tmp_path / "scgan.ckpt", gan)
    loaded_san = san.load_san(tmp_path / "san.ckpt")
    loaded_gan = scgan.load_scgan(tmp_path / "scgan.ckpt")
    return [
        (clf.net, np.float32), (pipeline.load_classifier(tmp_path / "clf.ckpt").net, np.float32),
        (san_model.encoder, np.float64), (san_model.decoder, np.float64),
        (loaded_san.encoder, np.float64), (loaded_san.decoder, np.float64),
        (gan.generator, np.float64), (gan.discriminator, np.float64),
        (loaded_gan.generator, np.float64), (loaded_gan.discriminator, np.float64),
    ]


def test_step_updates_the_callers_arrays_in_place(tmp_path):
    """Every layer array of a built or loaded classifier, SAN and SCGAN is a
    view of its network's ``params``, in order, so one step on that vector
    moves them all."""
    for net, dtype in _built_and_loaded_networks(tmp_path):
        assert net.params.dtype == net.grad.dtype == dtype
        params = net.parameters()
        base = net.params.__array_interface__["data"][0]
        pos = 0
        for p in params:
            assert p.base is net.params and p.dtype == dtype
            assert p.__array_interface__["data"][0] == base + pos * net.params.itemsize
            pos += p.size
        assert pos == net.params.size
        before = [p.copy() for p in params]
        Adam(net.params, lr=0.01).step(net.params, np.ones(net.params.shape, dtype))
        assert all(np.all(p < b) for p, b in zip(params, before))


class _OracleOnViews(ReferenceAdam):
    """``ReferenceAdam`` built and stepped with a network's flat ``params``,
    as training code calls ``Adam``; it updates that network's per-parameter
    views array by array. ``networks`` holds every network built so far."""

    networks: list[Network] = []

    def __init__(self, params, **hyper):
        self.views = next(net.parameters() for net in self.networks if net.params is params)
        super().__init__(self.views, **hyper)

    def step(self, params, grads):
        super().step(self.views, grads)


def _train_all(data, monkeypatch, optimizer):
    built = []

    def build(params, **kwargs):
        built.append(optimizer(params, **kwargs))
        return built[-1]

    init = Network.__init__

    def recording_init(net, *args, **kwargs):
        init(net, *args, **kwargs)
        _OracleOnViews.networks.append(net)

    monkeypatch.setattr(Network, "__init__", recording_init)
    monkeypatch.setattr(_OracleOnViews, "networks", [])
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
    for tag, optimizer in (("flat", Adam), ("oracle", _OracleOnViews)):
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
