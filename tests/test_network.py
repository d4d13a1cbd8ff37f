import hashlib
import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsaug.errors import ConfigError, FormatError, InputDataError, ShapeError, StateError
from idsaug.nncore import (
    BatchNorm,
    Dense,
    LayerNorm,
    LeakyReLU,
    Network,
    ReLU,
    Sigmoid,
    Softmax,
    load_network,
    read_network,
    save_network,
    write_network,
)
from idsaug.nncore.checkpoint import read_record, write_record

from _gradcheck import fd_gradient, max_rel_err


def _three_layer_net(rng):
    return Network([
        Dense(4, 6, rng),
        BatchNorm(6),
        LeakyReLU(6),
        Dense(6, 3, rng),
    ])


def test_dims_must_chain():
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeError):
        Network([Dense(3, 4, rng), Dense(5, 2, rng)])


def test_forward_output_width_matches_last_layer():
    rng = np.random.default_rng(1)
    net = _three_layer_net(rng)
    out = net.forward(rng.standard_normal((7, 4)))
    assert out.shape == (7, 3)


def test_forward_rejects_wrong_width_and_nonfinite():
    rng = np.random.default_rng(2)
    net = _three_layer_net(rng)
    with pytest.raises(ShapeError):
        net.forward(np.zeros((3, 5)))
    bad = np.zeros((3, 4))
    bad[1, 2] = np.nan
    with pytest.raises(InputDataError):
        net.forward(bad)


def test_backward_without_forward_is_a_state_error():
    net = _three_layer_net(np.random.default_rng(3))
    with pytest.raises(StateError):
        net.backward(np.zeros((2, 3)))


def test_eval_forward_keeps_no_tape():
    net = _three_layer_net(np.random.default_rng(4))
    net.forward(np.random.default_rng(0).standard_normal((4, 4)))  # train: tape stored
    net.eval()
    net.forward(np.random.default_rng(0).standard_normal((4, 4)))
    with pytest.raises(StateError):
        net.backward(np.zeros((4, 3)))


def test_zero_upstream_gradient_gives_zero_param_gradients():
    rng = np.random.default_rng(5)
    net = _three_layer_net(rng)
    net.forward(rng.standard_normal((5, 4)))
    _, grads = net.backward(np.zeros((5, 3)))
    for g in grads:
        assert np.array_equal(g, np.zeros_like(g))


def test_three_layer_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    net = _three_layer_net(rng)
    x = rng.standard_normal((6, 4)) * 2.0
    probe = rng.standard_normal((6, 3))

    def objective():
        return float((net.forward(x) * probe).sum())

    net.forward(x)
    grad_in, param_grads = net.backward(probe)
    assert max_rel_err(grad_in, fd_gradient(objective, x)) < 1e-4
    for param, analytic in zip(net.parameters(), param_grads):
        assert max_rel_err(analytic, fd_gradient(objective, param)) < 1e-4


def test_forward_is_deterministic_per_seed():
    def build_and_run():
        rng = np.random.default_rng(99)
        net = _three_layer_net(rng)
        x = np.random.default_rng(1).standard_normal((8, 4))
        out = net.forward(x)
        _, grads = net.backward(np.ones((8, 3)))
        return out, grads

    out_a, grads_a = build_and_run()
    out_b, grads_b = build_and_run()
    assert np.array_equal(out_a, out_b)
    for a, b in zip(grads_a, grads_b):
        assert np.array_equal(a, b)


def _full_zoo_network(rng):
    return Network([
        Dense(5, 8, rng),
        BatchNorm(8),
        LeakyReLU(8, slope=0.02),
        Dense(8, 6, rng),
        LayerNorm(6),
        ReLU(6),
        Dense(6, 4, rng),
        Sigmoid(4),
        Dense(4, 4, rng),
        Softmax(4),
    ])


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    net = _full_zoo_network(rng)
    # give the norm layers non-trivial state first
    for _ in range(4):
        net.forward(rng.standard_normal((16, 5)))
    net.eval()
    path = tmp_path / "net.ckpt"
    save_network(path, net)
    loaded = load_network(path)
    assert loaded.mode == net.mode
    assert len(loaded.layers) == len(net.layers)
    for ours, theirs in zip(net.layers, loaded.layers):
        assert ours.kind == theirs.kind
        for p_ours, p_theirs in zip(ours.params(), theirs.params()):
            assert np.array_equal(p_ours, p_theirs)
        if ours.kind == "batchnorm":
            assert np.array_equal(ours.running_mean, theirs.running_mean)
            assert np.array_equal(ours.running_var, theirs.running_var)
            assert ours.epsilon == theirs.epsilon and ours.momentum == theirs.momentum
        if ours.kind == "leakyrelu":
            assert ours.slope == theirs.slope
    probe = rng.standard_normal((3, 5))
    assert np.array_equal(net.forward(probe), loaded.forward(probe))
    # second serialization is byte-identical
    buf_a, buf_b = io.BytesIO(), io.BytesIO()
    write_network(buf_a, net)
    write_network(buf_b, loaded)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "net.ckpt"
    path.write_bytes(b"NOT-A-CHECKPOINT")
    with pytest.raises(FormatError):
        load_network(path)


def test_checkpoint_rejects_truncation(tmp_path):
    rng = np.random.default_rng(8)
    net = Network([Dense(3, 3, rng)])
    path = tmp_path / "net.ckpt"
    save_network(path, net)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError):
        load_network(path)


@pytest.mark.parametrize("index, name", [(0, "bias"), (1, "running_var"), (4, "shift")])
def test_checkpoint_rejects_an_array_of_the_wrong_shape(tmp_path, index, name):
    net = _full_zoo_network(np.random.default_rng(11))
    layer = net.layers[index]
    # through the instance dict: a network's layer refuses a rebound parameter
    vars(layer)[name] = np.zeros(layer.out_dim + 1)
    path = tmp_path / "net.ckpt"
    save_network(path, net)
    with pytest.raises(FormatError, match=f"{layer.kind} {name} shape"):
        load_network(path)


def test_a_rebound_parameter_is_refused():
    net = _full_zoo_network(np.random.default_rng(12))
    before = net.params.copy()
    for layer in net.layers:
        for name in layer.param_names:
            with pytest.raises(StateError, match=rf"{layer.kind}\.{name} is a view"):
                setattr(layer, name, np.zeros_like(getattr(layer, name)))
    assert np.array_equal(net.params, before)
    assert all(np.shares_memory(p, net.params) for p in net.parameters())
    net.layers[0].bias[...] = 7.0  # written in place, a parameter stays the network's
    assert not np.array_equal(net.params, before)
    # a layer's other arrays are not in the flat vector and may be rebound
    net.layers[1].running_var = np.full(net.layers[1].out_dim, 2.0)


def test_unserializable_layer_leaves_no_file(tmp_path):
    class Identity(ReLU):
        kind = "identity"

    with pytest.raises(FormatError, match="cannot serialize layer kind 'identity'"):
        save_network(tmp_path / "net.ckpt", Network([Dense(2, 2), Identity(2)]))
    assert list(tmp_path.iterdir()) == []


def test_read_network_from_stream():
    rng = np.random.default_rng(9)
    net = Network([Dense(2, 2, rng), Sigmoid(2)])
    buf = io.BytesIO()
    write_network(buf, net)
    buf.seek(0)
    loaded = read_network(buf)
    x = np.array([[0.3, -0.4]])
    assert np.array_equal(net.forward(x), loaded.forward(x))


def test_a_stream_cut_inside_an_array_is_refused():
    buf = io.BytesIO()
    write_network(buf, Network([Dense(3, 3, np.random.default_rng(9))]))
    with pytest.raises(FormatError, match="truncated checkpoint: expected float64 payload"):
        read_network(io.BytesIO(buf.getvalue()[:-8]))


def test_records_copy_no_array_on_write_and_one_on_read(tmp_path):
    # write_record writes each array's own buffer; read_record reads and
    # hashes each array in place, so it holds the arrays and nothing more
    arr = np.random.default_rng(10).random((20_000, 50))
    path = tmp_path / "big.rec"
    tracemalloc.start()
    try:
        write_record(path, b"TEST\n", {}, arrays=[arr])
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _, _, (back,) = read_record(path, b"TEST\n", n_arrays=1)
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert write_peak < arr.nbytes // 10
    assert read_peak < arr.nbytes + arr.nbytes // 10
    assert back.dtype == np.float64 and np.array_equal(back, arr)
    # the format: magic, metadata, then the array's shape and values
    body = (b"TEST\n" + struct.pack("<I", 2) + b"{}" + struct.pack("<3I", 2, *arr.shape)
            + arr.astype("<f8").tobytes())
    assert path.read_bytes() == body + hashlib.sha256(body).digest()


_HUGE_DENSE = b'{"layers": [{"dims": [100000, 100000], "kind": "dense"}], "mode": "eval"}'


@pytest.mark.parametrize("declared, n_networks, what", [
    (struct.pack("<3I", 2, 2 ** 32 - 1, 2 ** 32 - 1), 0,
     r"an array of shape \(4294967295, 4294967295\)"),
    (struct.pack("<I", len(_HUGE_DENSE)) + _HUGE_DENSE, 1, "a dense layer"),
], ids=["array", "dense_layer"])
def test_a_record_declaring_more_than_it_holds_is_refused_before_allocating(
        tmp_path, declared, n_networks, what):
    # checksummed, so only the size check stands between the declaration and
    # an np.empty or a 100000 x 100000 dense layer
    body = b"TEST\n" + struct.pack("<I", 2) + b"{}" + declared
    path = tmp_path / "big.rec"
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(FormatError, match=f"truncated checkpoint: {what} needs"):
        read_record(path, b"TEST\n", n_networks=n_networks, n_arrays=1)


def test_every_damaged_byte_and_cut_is_a_checksum_mismatch(tmp_path):
    path = tmp_path / "net.rec"
    write_record(path, b"TEST\n", {"a": 1}, networks=[_softmax_classifier(
        np.random.default_rng(13))], arrays=[np.arange(6.0).reshape(2, 3)])
    blob = path.read_bytes()
    for at in range(len(b"TEST\n"), len(blob)):
        path.write_bytes(blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1:])
        with pytest.raises(FormatError, match="record checksum mismatch"):
            read_record(path, b"TEST\n", n_networks=1, n_arrays=1)
        path.write_bytes(blob[:at])
        with pytest.raises(FormatError, match="record checksum mismatch"):
            read_record(path, b"TEST\n", n_networks=1, n_arrays=1)


def _batchnorm_generator(rng):
    return Network([Dense(6, 8, rng), BatchNorm(8), LeakyReLU(8), Dense(8, 5, rng), Sigmoid(5)])


def _layernorm_discriminator(rng):
    return Network([Dense(7, 8, rng), LayerNorm(8), LeakyReLU(8), Dense(8, 1, rng), Sigmoid(1)])


def _softmax_classifier(rng):
    return Network([Dense(5, 8, rng), ReLU(8), Dense(8, 4, rng), Softmax(4)])


def _layer_state(net):
    return [a for layer in net.layers for a in layer.params()
            + [getattr(layer, name) for name in ("running_mean", "running_var")
               if hasattr(layer, name)]]


@pytest.mark.parametrize("n", [1, 6, 7, 8, 15])
@pytest.mark.parametrize("build", [_batchnorm_generator, _layernorm_discriminator,
                                   _softmax_classifier])
def test_blocked_eval_forward_matches_one_pass(monkeypatch, build, n):
    rng = np.random.default_rng(10)
    net = build(rng)
    for _ in range(3):  # train-mode passes give batchnorm non-trivial running stats
        net.forward(rng.standard_normal((16, net.in_dim)))
    net.eval()
    state = [a.copy() for a in _layer_state(net)]
    x = 2.0 * rng.standard_normal((n, net.in_dim))
    monkeypatch.setattr("idsaug.nncore.network.EVAL_BLOCK", n)
    one_pass = net.forward(x)
    monkeypatch.setattr("idsaug.nncore.network.EVAL_BLOCK", 7)
    blocked = net.forward(x)
    # a block size may change BLAS's summation order, so ask for closeness
    np.testing.assert_allclose(blocked, one_pass, rtol=1e-12, atol=0.0)
    assert np.array_equal(net.forward(x), blocked)
    with pytest.raises(StateError):
        net.backward(np.zeros((n, net.out_dim)))
    assert all(np.array_equal(a, b) for a, b in zip(state, _layer_state(net)))


def test_eval_forward_memory_is_bounded_by_its_output():
    # a desk-shaped generator (36 -> 32 -> 64 -> 128 -> 20) over one
    # synthesis round; one unblocked pass with caches peaks near 177 MiB
    rng = np.random.default_rng(11)
    widths = [36, 32, 64, 128]
    layers = []
    for width_in, width_out in zip(widths, widths[1:]):
        layers += [Dense(width_in, width_out, rng), BatchNorm(width_out), LeakyReLU(width_out)]
    net = Network(layers + [Dense(128, 20, rng), Sigmoid(20)], mode="eval")
    x = rng.standard_normal((32768, 36))
    tracemalloc.start()
    try:
        out = net.forward(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (32768, 20)
    assert peak <= 2 * out.nbytes + 16 * 2**20


# a random stack of Dense blocks, each with an optional norm and activation,
# maybe closed by a softmax; rebuilt from its spec and seed as often as needed
_NORMS = {"none": None, "batchnorm": BatchNorm, "layernorm": LayerNorm}
_ACTIVATIONS = {"none": None, "relu": ReLU, "leakyrelu": LeakyReLU, "sigmoid": Sigmoid}
stack_specs = st.tuples(
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(1, 6), st.sampled_from(sorted(_NORMS)),
                       st.sampled_from(sorted(_ACTIVATIONS))), min_size=1, max_size=3),
    st.booleans())


def _build_stack(spec, seed, dtype):
    in_dim, blocks, softmax = spec
    rng = np.random.default_rng(seed)
    layers, prev = [], in_dim
    for width, norm, activation in blocks:
        layers.append(Dense(prev, width, rng))
        for cls in (_NORMS[norm], _ACTIVATIONS[activation]):
            if cls is not None:
                layers.append(cls(width))
        prev = width
    if softmax:
        layers.append(Softmax(prev))
    return Network(layers, dtype=dtype)


@settings(max_examples=60, deadline=None)
@given(stack_specs, st.lists(st.sampled_from([2, 3, 5]), min_size=1, max_size=4),
       st.randoms(use_true_random=False), st.booleans(),
       st.sampled_from([np.float64, np.float32]), st.integers(0, 2**31))
def test_live_tapes_never_share_buffers(spec, rows, order_rng, accumulate, dtype, seed):
    """k forwards with take_tape, then backwards in any order: every output,
    input gradient and parameter gradient equals that of a fresh network."""
    rng = np.random.default_rng(seed)
    net = _build_stack(spec, seed, dtype)
    xs = [rng.standard_normal((n, net.in_dim)) for n in rows]
    gs = [rng.standard_normal((n, net.out_dim)) for n in rows]
    outs, tapes = [], []
    for x in xs:
        outs.append(net.forward(x))
        tapes.append(net.take_tape())
    order = list(range(len(rows)))
    order_rng.shuffle(order)
    reference = []
    for x, g in zip(xs, gs):
        fresh = _build_stack(spec, seed, dtype)
        out = fresh.forward(x)
        grad_in, grads = fresh.backward(g)
        reference.append((out, grad_in, np.concatenate([p.ravel() for p in grads])))
    expected = None
    for position, j in enumerate(order):
        add = accumulate and position > 0
        grad_in, grads = net.backward(gs[j], tapes[j], accumulate=add)
        ref_out, ref_grad_in, ref_flat = reference[j]
        assert grad_in.tobytes() == ref_grad_in.tobytes()
        expected = expected + ref_flat if add else ref_flat
        assert net.grad.tobytes() == expected.tobytes()
        assert all(g.base is net.grad or g.size == 0 for g in grads)
    # outputs are the caller's: later passes never wrote over them
    for out, (ref_out, _, _) in zip(outs, reference):
        assert out.dtype == dtype and out.tobytes() == ref_out.tobytes()
    with pytest.raises(StateError):
        net.backward(gs[order[0]], tapes[order[0]])


def test_eval_forward_keeps_no_workspace():
    rng = np.random.default_rng(12)
    net = _batchnorm_generator(rng)
    x = rng.standard_normal((4096, net.in_dim))
    g = rng.standard_normal((4096, net.out_dim))
    tracemalloc.start()
    try:
        for _ in range(2):
            net.forward(x)
            net.backward(g)
        trained, _ = tracemalloc.get_traced_memory()
        net.eval()
        idle, _ = tracemalloc.get_traced_memory()
        out = net.forward(x)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the train workspace (several 4096-row buffers per layer) is freed by
    # eval(), and an eval forward holds on to nothing but its output
    assert trained - idle >= 10 * 4096 * 8 * 8
    assert after - idle <= out.nbytes + 4096


def test_skip_last_starts_below_a_parameter_free_last_layer():
    from idsaug.nncore import cross_entropy_loss

    rng = np.random.default_rng(13)
    net = _softmax_classifier(rng)
    x = rng.standard_normal((6, net.in_dim))
    targets = np.eye(net.out_dim)[rng.integers(0, net.out_dim, size=6)]
    probs = net.forward(x)
    _, grad_probs = cross_entropy_loss(probs, targets)
    net.backward(grad_probs)
    chained = net.grad.copy()
    net.forward(x)
    _, grad_logits = cross_entropy_loss(probs, targets, wrt="logits")
    net.backward(grad_logits, skip_last=True)
    np.testing.assert_allclose(net.grad, chained, rtol=1e-10, atol=1e-14)
    dense_last = Network([Dense(3, 2, rng)])
    dense_last.forward(rng.standard_normal((2, 3)))
    with pytest.raises(ConfigError, match="skip_last"):
        dense_last.backward(np.zeros((2, 2)), skip_last=True)


@settings(max_examples=60, deadline=None)
@given(stack_specs, st.sampled_from([2, 3, 5]), st.sampled_from([np.float64, np.float32]),
       st.integers(0, 2**31))
def test_input_gradient_alone_leaves_grad_untouched(spec, rows, dtype, seed):
    """``param_grad=False`` gives the input gradient of a full backward, bit
    for bit, and neither writes ``grad`` nor returns parameter gradients."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, spec[0]))
    net = _build_stack(spec, seed, dtype)
    g = rng.standard_normal((rows, net.out_dim))
    net.forward(x)
    net.backward(rng.standard_normal((rows, net.out_dim)))  # some earlier gradient
    before = net.grad.copy()
    reference = _build_stack(spec, seed, dtype)
    reference.forward(x)
    expected, _ = reference.backward(g)
    net.forward(x)
    grad_in, grads = net.backward(g, param_grad=False)
    assert grads is None
    assert grad_in.dtype == dtype and grad_in.tobytes() == expected.tobytes()
    assert net.grad.tobytes() == before.tobytes()
