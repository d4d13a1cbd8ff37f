"""Central finite-difference oracle used by the gradient tests.

Kept independent of the backprop code it checks: it only re-evaluates a
scalar function under elementwise perturbations.
"""

from __future__ import annotations

import numpy as np

FD_STEP = 1e-5


def fd_gradient(f, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central differences of scalar ``f`` with respect to array ``x``.

    ``x`` is perturbed in place and restored, so ``f`` must recompute from
    ``x`` on every call.
    """
    x = np.asarray(x)
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = f()
        flat[i] = orig - step
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.abs(a) + np.abs(n), 1e-6)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def layer_gradcheck(layer, x: np.ndarray, rng: np.random.Generator) -> float:
    """Worst relative error across the input and parameter gradients of a
    training pass.

    The scalar objective is sum(forward(x) * weights) for a fixed random
    weight array, which exercises every output element.
    """
    y, _ = layer.forward(x.copy())
    probe = rng.standard_normal(y.shape)

    def objective():
        out, _ = layer.forward(x)
        return float((out * probe).sum())

    _, cache = layer.forward(x)
    param_grads = [np.empty_like(p) for p in layer.params()]
    grad_in = layer.backward(probe, cache, grads=param_grads)

    worst = max_rel_err(grad_in, fd_gradient(objective, x))
    for param, analytic in zip(layer.params(), param_grads):
        worst = max(worst, max_rel_err(analytic, fd_gradient(objective, param)))
    return worst
