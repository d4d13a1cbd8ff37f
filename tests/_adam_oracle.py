"""Per-parameter Adam update, kept as the oracle for the flat optimizer.

This is the textbook loop (Kingma & Ba, arXiv:1412.6980, §2): one moment pair
per parameter array, updated array by array. ``idsaug.nncore.Adam`` must give
the same bytes after every step. The constructor takes ``Adam``'s arguments,
so the oracle can stand in for it wherever training code builds one. The
moments are float64 whatever the parameters' dtype: each gradient is widened
to float64, and the float64 update is subtracted from the parameter in place.
"""

from __future__ import annotations

import numpy as np


class ReferenceAdam:
    def __init__(self, params: list[np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.step_count = 0
        self.first = [np.zeros(p.shape) for p in params]
        self.second = [np.zeros(p.shape) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]):
        assert len(params) == len(grads) == len(self.first)
        self.step_count += 1
        t = self.step_count
        correct1 = 1.0 - self.beta1**t
        correct2 = 1.0 - self.beta2**t
        for p, g, m, v in zip(params, grads, self.first, self.second):
            g = np.asarray(g, dtype=np.float64)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / correct1
            v_hat = v / correct2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)
