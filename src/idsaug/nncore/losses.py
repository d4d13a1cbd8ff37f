"""Loss functions and their gradients, and the softmax.

Each loss returns the scalar loss together with the gradients the training
loops need. Log-based losses clamp their arguments to
[LOG_EPS, 1 - LOG_EPS] so they never produce infinities.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ShapeError

LOG_EPS = 1e-7


def _check_same_shape(a: np.ndarray, b: np.ndarray, context: str):
    if a.shape != b.shape:
        raise ShapeError(f"{context}: shapes {a.shape} and {b.shape} differ")


def reconstruction_loss(x, x_bar):
    """Mean over samples of the per-sample mean squared error.

    Returns (loss, grad_wrt_x_bar).
    """
    x = np.asarray(x, dtype=np.float64)
    x_bar = np.asarray(x_bar, dtype=np.float64)
    _check_same_shape(x, x_bar, "reconstruction_loss")
    batch, n = x.shape
    diff = x_bar - x
    loss = float((diff * diff).sum() / (batch * n))
    grad = 2.0 * diff / (batch * n)
    return loss, grad


def contrastive_loss(e1, e2, y, margin: float):
    """Pairwise contrastive loss on embedding pairs.

    Similar pairs (y=0) contribute half the squared Euclidean distance;
    dissimilar pairs (y=1) contribute half the squared hinge on
    ``margin - distance``. The total is a sum over pairs.

    Returns (loss, grad_e1, grad_e2). The gradient of a dissimilar pair at
    exactly zero distance is defined as zero (the hinge has no direction
    there).
    """
    if margin <= 0.0:
        raise ConfigError("contrastive margin must be positive")
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    _check_same_shape(e1, e2, "contrastive_loss")
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != e1.shape[0]:
        raise ShapeError("pair labels do not match the number of pairs")

    diff = e1 - e2
    dist = np.sqrt((diff * diff).sum(axis=1))
    hinge = np.maximum(0.0, margin - dist)
    loss = float(0.5 * ((1.0 - y) * dist**2 + y * hinge**2).sum())

    safe_dist = np.where(dist > 0.0, dist, 1.0)
    # similar pairs pull together, active dissimilar pairs push apart
    coeff = (1.0 - y) - y * np.where((dist < margin) & (dist > 0.0), hinge / safe_dist, 0.0)
    grad_e1 = coeff[:, None] * diff
    return loss, grad_e1, -grad_e1


def adversarial_losses(d_real, d_fake):
    """Discriminator and generator losses from sigmoid scores.

    Both are batch means: the discriminator loss penalizes low scores on
    real rows and high scores on generated rows; the generator loss
    penalizes low scores on generated rows. Returns (d_loss, g_loss).
    """
    real = np.clip(np.asarray(d_real, dtype=np.float64), LOG_EPS, 1.0 - LOG_EPS)
    fake = np.clip(np.asarray(d_fake, dtype=np.float64), LOG_EPS, 1.0 - LOG_EPS)
    d_loss = float(-np.log(real).mean() - np.log(1.0 - fake).mean())
    g_loss = float(-np.log(fake).mean())
    return d_loss, g_loss


def discriminator_score_grads(d_real, d_fake):
    """Gradients of the discriminator loss with respect to its scores."""
    real = np.asarray(d_real, dtype=np.float64)
    fake = np.asarray(d_fake, dtype=np.float64)
    grad_real = -1.0 / (real.size * np.clip(real, LOG_EPS, 1.0 - LOG_EPS))
    grad_fake = 1.0 / (fake.size * (1.0 - np.clip(fake, LOG_EPS, 1.0 - LOG_EPS)))
    return grad_real, grad_fake


def generator_score_grad(d_fake):
    """Gradient of the generator loss with respect to the fake scores."""
    fake = np.asarray(d_fake, dtype=np.float64)
    return -1.0 / (fake.size * np.clip(fake, LOG_EPS, 1.0 - LOG_EPS))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-d float array, written over ``logits``, which
    is returned. The row maxima are the column maxima of a transposed copy,
    which numpy reduces several times faster than the rows, and the row sums
    are a matmul with a ones vector."""
    row = np.maximum.reduce(logits.T.copy(), 0)[:, None]
    np.subtract(logits, row, out=logits)
    np.exp(logits, out=logits)
    np.matmul(logits, np.ones(logits.shape[1], logits.dtype), out=row[:, 0])
    logits /= row
    return logits


def cross_entropy_loss(logits, targets):
    """Categorical cross-entropy of softmax(``logits``) against target rows
    that sum to one, such as one-hot rows.

    Returns (loss, grad), both batch means; ``grad`` is with respect to the
    logits, (probs - targets) / batch. The loss clamps the probabilities to
    at least LOG_EPS, while ``grad`` is the gradient of the unclamped loss,
    so the two part on a row whose target probability lies below LOG_EPS.
    The math runs in the dtype of float ``logits`` (float64 for any other
    input), which are left as they are; ``targets`` are cast to it.
    """
    logits = np.asarray(logits)
    dtype = logits.dtype if logits.dtype.kind == "f" else np.float64
    targets = np.asarray(targets, dtype=dtype)
    _check_same_shape(logits, targets, "cross_entropy_loss")
    batch = logits.shape[0]
    probs = softmax(logits.astype(dtype))
    clamped = np.maximum(probs, LOG_EPS)
    grad = np.subtract(probs, targets, out=probs)
    grad /= batch
    np.log(clamped, out=clamped)
    clamped *= targets
    loss = float(-clamped.sum() / batch)
    return loss, grad
