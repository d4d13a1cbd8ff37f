"""Adam optimizer with bias correction (Kingma & Ba, arXiv:1412.6980, §2)."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ShapeError


class Adam:
    """Holds the first and second moments of a parameter list as flat vectors.

    Both moments are one float64 vector each over all parameters, in list
    order, with preallocated scratch of the same length. ``step`` gathers the
    gradients into one flat buffer, runs the update as whole-vector in-place
    ufuncs and subtracts each parameter's slice from that parameter in place.
    Every operation is the per-parameter one in the same order, so the result
    is elementwise bit-identical to updating each array on its own.
    Parameters stay the caller's arrays: their shapes must match the list the
    optimizer was built from.
    """

    def __init__(self, params: list[np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        if lr <= 0.0:
            raise ConfigError("learning rate must be positive")
        if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
            raise ConfigError("betas must lie in (0, 1)")
        if epsilon <= 0.0:
            raise ConfigError("epsilon must be positive")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.step_count = 0
        self._shapes = [p.shape for p in params]
        total = sum(p.size for p in params)
        self.first = np.zeros(total)
        self.second = np.zeros(total)
        # the step's gradients, then its update; plus one scratch vector
        self._flat = np.empty(total)
        self._scratch = np.empty(total)
        bounds = np.cumsum([0] + [p.size for p in params])
        self._views = [self._flat[a:b].reshape(shape)
                       for a, b, shape in zip(bounds, bounds[1:], self._shapes)]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]):
        if len(params) != len(self._shapes) or len(grads) != len(self._shapes):
            raise ShapeError("parameter/gradient list length does not match optimizer state")
        for p, g, shape in zip(params, grads, self._shapes):
            if p.shape != shape or g.shape != shape:
                raise ShapeError(f"shape mismatch: expected {shape}, got {p.shape}/{g.shape}")
        self.step_count += 1
        t = self.step_count
        correct1 = 1.0 - self.beta1**t
        correct2 = 1.0 - self.beta2**t
        for view, g in zip(self._views, grads):
            view[...] = g
        flat, s, m, v = self._flat, self._scratch, self.first, self.second
        m *= self.beta1
        np.multiply(flat, 1.0 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(flat, 1.0 - self.beta2, out=s)
        s *= flat
        v += s
        # the gradients are spent: flat now holds lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(m, correct1, out=flat)
        flat *= self.lr
        np.divide(v, correct2, out=s)
        np.sqrt(s, out=s)
        s += self.epsilon
        flat /= s
        for p, update in zip(params, self._views):
            p -= update
