"""Adam optimizer with bias correction (Kingma & Ba, arXiv:1412.6980, §2).

The bias correction is folded into the step size and the epsilon, the
reordering the paper gives at the end of §2: with c1 = 1 - beta1**t and
c2 = 1 - beta2**t, the update is ``lr * sqrt(c2) / c1 * m / (sqrt(v) +
epsilon * sqrt(c2))``, which equals ``lr * m_hat / (sqrt(v_hat) + epsilon)``
up to rounding and leaves no per-element division by c1 or c2.

Adam is elementwise, so it runs on one vector: a network's ``params``, with
``grad`` as its gradient, both laid out alike (see ``network``).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, ShapeError


class Adam:
    """Holds the first and second moments of one parameter vector.

    Both moments are float64 vectors of the parameters' shape, with
    preallocated scratch of the same shape. ``step`` takes the parameters and
    their gradients, each of the shape the optimizer was built with. A
    float64 gradient is read in place; one of another dtype is first copied
    into a float64 vector, so the moment arithmetic runs in float64 whatever
    the gradients' dtype: a float32 gradient is widened exactly, never
    multiplied in float32. The update is computed in float64, rounded once to
    the parameters' dtype and subtracted from the parameters in that dtype,
    in place.
    """

    def __init__(self, params: np.ndarray, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        # written so that NaN fails each check
        if not lr > 0.0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
            raise ConfigError("betas must lie in (0, 1)")
        if not epsilon > 0.0:
            raise ConfigError(f"epsilon must be positive, got {epsilon}")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.step_count = 0
        self.first = np.zeros(params.shape)
        self.second = np.zeros(params.shape)
        self._scratch = np.empty(params.shape)
        # a gradient that is not float64 is widened here
        self._wide = np.empty(params.shape)
        # the update, in the parameters' dtype
        self._update = np.empty(params.shape, params.dtype)

    def step(self, params: np.ndarray, grads: np.ndarray):
        for name, arr in (("parameter", params), ("gradient", grads)):
            if arr.shape != self.first.shape:
                raise ShapeError(f"{name} shape {arr.shape} does not match the optimizer's "
                                 f"{self.first.shape}")
        g = grads
        if grads.dtype != np.float64:
            g = self._wide
            np.copyto(g, grads)
        self.step_count += 1
        t = self.step_count
        root2 = math.sqrt(1.0 - self.beta2**t)
        rate = self.lr * root2 / (1.0 - self.beta1**t)
        eps_hat = self.epsilon * root2
        s, m, v = self._scratch, self.first, self.second
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=s)
        s *= g
        v += s
        np.sqrt(v, out=s)
        s += eps_hat
        np.divide(m, s, out=s)
        np.multiply(s, rate, out=self._update)
        params -= self._update
