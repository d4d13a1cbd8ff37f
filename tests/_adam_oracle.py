"""Per-parameter Adam update, kept as the oracle for the flat optimizer.

This is the textbook loop (Kingma & Ba, arXiv:1412.6980, §2) with the bias
correction folded into the step size and the epsilon, as the end of §2
describes: one moment pair per parameter array, updated array by array.
``idsaug.nncore.Adam`` must give the same bytes after every step. The
constructor takes ``Adam``'s arguments, so the oracle can stand in for it
wherever training code builds one; like ``Adam.step``, ``step`` takes the
gradients as one flat vector over all of them.
The moments are float64 whatever the parameters' dtype: each gradient is
widened to float64, the update is computed in float64, rounded once to the
parameter's dtype and subtracted from the parameter in place.
"""

from __future__ import annotations

import math

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

    def step(self, params: list[np.ndarray], grads: np.ndarray):
        bounds = np.cumsum([0] + [p.size for p in params])
        grads = [grads[a:b].reshape(p.shape) for a, b, p in zip(bounds, bounds[1:], params)]
        assert len(params) == len(grads) == len(self.first)
        self.step_count += 1
        t = self.step_count
        root2 = math.sqrt(1.0 - self.beta2**t)
        rate = self.lr * root2 / (1.0 - self.beta1**t)
        eps_hat = self.epsilon * root2
        for p, g, m, v in zip(params, grads, self.first, self.second):
            g = np.asarray(g, dtype=np.float64)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= (rate * (m / (np.sqrt(v) + eps_hat))).astype(p.dtype)
