"""Adam optimizer with bias correction (Kingma & Ba, arXiv:1412.6980, §2).

The bias correction is folded into the step size and the epsilon, the
reordering the paper gives at the end of §2: with c1 = 1 - beta1**t and
c2 = 1 - beta2**t, the update is ``lr * sqrt(c2) / c1 * m / (sqrt(v) +
epsilon * sqrt(c2))``, which equals ``lr * m_hat / (sqrt(v_hat) + epsilon)``
up to rounding and leaves no per-element division by c1 or c2.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, ShapeError


class Adam:
    """Holds the first and second moments of a parameter list as flat vectors.

    Both moments are one float64 vector each over all parameters, in list
    order, with preallocated scratch of the same length. ``step`` takes the
    gradients either as one flat vector in that order (a network's ``grad``)
    or as one array per parameter. A float64 flat vector is read in place;
    anything else is first copied into one float64 vector, so the moment
    arithmetic runs in float64 whatever the gradients' dtype: a float32
    gradient is widened exactly, never multiplied in float32. The update is
    computed in float64, rounded once to the parameters' dtype and subtracted
    from each parameter in that dtype, in place. Parameters stay the caller's
    arrays: their shapes must match the list the optimizer was built from.
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
        self._size = sum(p.size for p in params)
        self.first = np.zeros(self._size)
        self.second = np.zeros(self._size)
        self._scratch = np.empty(self._size)
        # gradients that are not one float64 vector are copied here
        self._wide = np.empty(self._size)
        # the update, in the parameters' dtype
        self._update = np.empty(self._size, np.result_type(*params) if params else np.float64)
        bounds = np.cumsum([0] + [p.size for p in params])
        self._wide_views = self._views(self._wide, bounds)
        self._update_views = self._views(self._update, bounds)

    def _views(self, flat, bounds):
        return [flat[a:b].reshape(shape)
                for a, b, shape in zip(bounds, bounds[1:], self._shapes)]

    def step(self, params: list[np.ndarray], grads):
        if len(params) != len(self._shapes):
            raise ShapeError("parameter list length does not match optimizer state")
        for p, shape in zip(params, self._shapes):
            if p.shape != shape:
                raise ShapeError(f"shape mismatch: expected {shape}, got {p.shape}")
        g = self._wide
        if isinstance(grads, np.ndarray):
            if grads.shape != (self._size,):
                raise ShapeError(f"flat gradient shape {grads.shape} does not match "
                                 f"({self._size},)")
            if grads.dtype == np.float64:
                g = grads
            else:
                np.copyto(g, grads)
        else:
            if len(grads) != len(self._shapes):
                raise ShapeError("gradient list length does not match optimizer state")
            for view, grad, shape in zip(self._wide_views, grads, self._shapes):
                if grad.shape != shape:
                    raise ShapeError(f"shape mismatch: expected {shape}, got {grad.shape}")
                view[...] = grad
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
        for p, update in zip(params, self._update_views):
            p -= update
