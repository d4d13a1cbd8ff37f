import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsaug.errors import ConfigError, ShapeError
from idsaug.nncore import (
    adversarial_losses,
    contrastive_loss,
    cross_entropy_loss,
    discriminator_score_grads,
    generator_score_grad,
    reconstruction_loss,
)
from idsaug.nncore.losses import LOG_EPS

from _gradcheck import fd_gradient, max_rel_err


class TestReconstruction:
    def test_zero_at_perfect_reconstruction(self):
        x = np.random.default_rng(0).standard_normal((4, 6))
        loss, grad = reconstruction_loss(x, x.copy())
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(x))

    def test_two_feature_example(self):
        loss, _ = reconstruction_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))
        assert loss == pytest.approx(0.5)

    def test_batch_mean_of_per_sample_means(self):
        x = np.zeros((2, 2))
        x_bar = np.array([[1.0, 1.0], [0.0, 0.0]])
        loss, _ = reconstruction_loss(x, x_bar)
        assert loss == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruction_loss(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5))
        x_bar = rng.standard_normal((3, 5))
        _, grad = reconstruction_loss(x, x_bar)
        numeric = fd_gradient(lambda: reconstruction_loss(x, x_bar)[0], x_bar)
        assert max_rel_err(grad, numeric) < 1e-6


class TestContrastive:
    def test_identical_similar_pair_contributes_zero(self):
        e = np.random.default_rng(2).standard_normal((1, 4))
        loss, g1, g2 = contrastive_loss(e, e.copy(), [0], margin=1.0)
        assert loss == 0.0
        assert np.array_equal(g1, np.zeros_like(e))

    def test_dissimilar_pair_at_zero_distance(self):
        e = np.ones((1, 3))
        loss, g1, _ = contrastive_loss(e, e.copy(), [1], margin=1.0)
        assert loss == pytest.approx(0.5)
        # direction undefined at zero distance, gradient defined as zero
        assert np.array_equal(g1, np.zeros_like(e))

    def test_dissimilar_pair_beyond_margin_is_free(self):
        e1 = np.array([[0.0, 0.0]])
        e2 = np.array([[5.0, 0.0]])
        loss, g1, g2 = contrastive_loss(e1, e2, [1], margin=1.0)
        assert loss == 0.0
        assert np.array_equal(g1, np.zeros_like(e1))

    def test_nonpositive_margin_rejected(self):
        with pytest.raises(ConfigError):
            contrastive_loss(np.zeros((1, 2)), np.ones((1, 2)), [1], margin=0.0)

    def test_sum_over_pairs(self):
        e1 = np.array([[0.0], [0.0]])
        e2 = np.array([[2.0], [2.0]])
        loss, _, _ = contrastive_loss(e1, e2, [0, 0], margin=1.0)
        assert loss == pytest.approx(0.5 * (4.0 + 4.0))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            e1 = rng.standard_normal((6, 4))
            e2 = rng.standard_normal((6, 4))
            y = rng.integers(0, 2, size=6)
            dist = np.linalg.norm(e1 - e2, axis=1)
            # stay away from the hinge kink and the zero-distance point
            if np.any(np.abs(dist - 2.0) < 1e-2) or np.any(dist < 1e-2):
                continue
            _, g1, g2 = contrastive_loss(e1, e2, y, margin=2.0)
            n1 = fd_gradient(lambda: contrastive_loss(e1, e2, y, margin=2.0)[0], e1)
            n2 = fd_gradient(lambda: contrastive_loss(e1, e2, y, margin=2.0)[0], e2)
            assert max_rel_err(g1, n1) < 1e-4
            assert max_rel_err(g2, n2) < 1e-4


class TestAdversarial:
    def test_perfect_discriminator(self):
        d_loss, _ = adversarial_losses([1.0 - LOG_EPS], [LOG_EPS])
        assert d_loss == pytest.approx(0.0, abs=1e-6)

    def test_perfect_generator(self):
        _, g_loss = adversarial_losses([0.5], [1.0 - LOG_EPS])
        assert g_loss == pytest.approx(0.0, abs=1e-6)

    def test_equilibrium_values(self):
        d_loss, g_loss = adversarial_losses([0.5], [0.5])
        assert d_loss == pytest.approx(2.0 * math.log(2.0))
        assert g_loss == pytest.approx(math.log(2.0))

    def test_losses_nonnegative_after_clamping(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(-0.5, 1.5, size=20)  # deliberately out of range
        d_loss, g_loss = adversarial_losses(scores, scores)
        assert d_loss >= 0.0 and g_loss >= 0.0
        assert np.isfinite([d_loss, g_loss]).all()

    def test_score_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        d_real = rng.uniform(0.1, 0.9, size=(8, 1))
        d_fake = rng.uniform(0.1, 0.9, size=(8, 1))
        g_real, g_fake = discriminator_score_grads(d_real, d_fake)
        n_real = fd_gradient(lambda: adversarial_losses(d_real, d_fake)[0], d_real)
        n_fake = fd_gradient(lambda: adversarial_losses(d_real, d_fake)[0], d_fake)
        assert max_rel_err(g_real, n_real) < 1e-4
        assert max_rel_err(g_fake, n_fake) < 1e-4
        g_gen = generator_score_grad(d_fake)
        n_gen = fd_gradient(lambda: adversarial_losses(d_real, d_fake)[1], d_fake)
        assert max_rel_err(g_gen, n_gen) < 1e-4


class TestCrossEntropy:
    def test_confident_correct_prediction(self):
        probs = np.array([[1.0, 0.0, 0.0]])
        targets = np.array([[1.0, 0.0, 0.0]])
        loss, _ = cross_entropy_loss(probs, targets)
        assert loss == pytest.approx(0.0)

    def test_uniform_probabilities(self):
        c = 7
        probs = np.full((3, c), 1.0 / c)
        targets = np.eye(c)[:3]
        loss, _ = cross_entropy_loss(probs, targets)
        assert loss == pytest.approx(math.log(c))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy_loss(np.ones((2, 3)), np.ones((3, 3)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((4, 5))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        targets = np.eye(5)[rng.integers(0, 5, size=4)]
        _, grad = cross_entropy_loss(probs, targets)
        numeric = fd_gradient(lambda: cross_entropy_loss(probs, targets)[0], probs)
        assert max_rel_err(grad, numeric) < 1e-5

    def test_chained_softmax_gradient_is_probs_minus_targets_over_batch(self):
        from idsaug.nncore import Softmax

        rng = np.random.default_rng(7)
        logits = rng.standard_normal((6, 4))
        layer = Softmax(4)
        probs, cache = layer.forward(logits, train=True)
        targets = np.eye(4)[rng.integers(0, 4, size=6)]
        _, grad_probs = cross_entropy_loss(probs, targets)
        grad_logits, _ = layer.backward(grad_probs, cache, train=True)
        assert np.allclose(grad_logits, (probs - targets) / 6, atol=1e-12)

        def objective():
            out, _ = layer.forward(logits, train=True)
            return cross_entropy_loss(out, targets)[0]

        numeric = fd_gradient(objective, logits)
        assert max_rel_err(grad_logits, numeric) < 1e-5


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(2, 6), st.sampled_from([1.0, 10.0, 40.0]),
       st.sampled_from([np.float32, np.float64]), st.integers(0, 2**31))
def test_fused_logits_gradient_matches_the_chained_softmax_gradient(rows, classes, scale,
                                                                    dtype, seed):
    from idsaug.nncore import Softmax

    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((rows, classes)) * scale
    targets = np.eye(classes)[rng.integers(0, classes, size=rows)]
    # one row whose other classes' probabilities lie far below the clamp
    logits = np.vstack([logits, np.eye(classes)[0] * 50.0]).astype(dtype)
    targets = np.vstack([targets, np.eye(classes)[0]])
    probs, cache = Softmax(classes).forward(logits, train=True)
    assert (probs[-1, 1:] < LOG_EPS).all()
    loss, grad_probs = cross_entropy_loss(probs, targets)
    chained, _ = Softmax(classes).backward(grad_probs, cache, train=True)
    fused_loss, fused = cross_entropy_loss(probs, targets, wrt="logits")
    assert fused_loss == loss
    assert fused.dtype == dtype
    np.testing.assert_array_equal(fused, (probs - targets.astype(dtype)) / (rows + 1))
    # the identity holds where the target's own probability is not clamped
    kept = (probs * targets).sum(axis=1) >= LOG_EPS
    np.testing.assert_allclose(fused[kept], chained[kept], rtol=1e-5, atol=1e-6)


def test_fused_gradient_is_the_unclamped_one_where_the_target_probability_is_clamped():
    from idsaug.nncore import Softmax

    layer = Softmax(2)
    probs, cache = layer.forward(np.array([[0.0, 30.0]]), train=True)
    targets = np.array([[1.0, 0.0]])
    assert probs[0, 0] < LOG_EPS
    loss, fused = cross_entropy_loss(probs, targets, wrt="logits")
    assert loss == pytest.approx(-math.log(LOG_EPS))
    unclamped, _ = layer.backward(-targets / probs, cache, train=True)
    np.testing.assert_allclose(fused, unclamped, rtol=1e-12)
    # chained through the clamped probability gradient, the pull almost vanishes
    _, grad_probs = cross_entropy_loss(probs, targets)
    chained, _ = layer.backward(grad_probs, cache, train=True)
    assert abs(chained[0, 0]) < 1e-5 < abs(fused[0, 0])


def test_cross_entropy_rejects_an_unknown_wrt():
    with pytest.raises(ConfigError):
        cross_entropy_loss(np.full((1, 2), 0.5), np.eye(2)[:1], wrt="inputs")


class TestNonNegativity:
    def test_every_loss_is_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rows, dim = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            x, x_bar = rng.standard_normal((2, rows, dim))
            assert reconstruction_loss(x, x_bar)[0] >= 0.0
            y = rng.integers(0, 2, size=rows)
            assert contrastive_loss(x, x_bar, y, margin=1.0)[0] >= 0.0
            scores = rng.uniform(-1, 2, size=rows)  # clamped internally
            d_loss, g_loss = adversarial_losses(scores, scores)
            assert d_loss >= 0.0 and g_loss >= 0.0
            probs = rng.dirichlet(np.ones(dim), size=rows)
            targets = np.eye(dim)[rng.integers(0, dim, size=rows)]
            assert cross_entropy_loss(probs, targets)[0] >= 0.0
