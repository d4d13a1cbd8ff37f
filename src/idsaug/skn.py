"""Rare-class oversampling by interpolation toward same-class neighbors.

New rows are x_i + lam * (x_j - x_i) with x_j one of x_i's k nearest
neighbors inside the class and lam uniform on [0, 1]. Sources are visited
round-robin; per synthesized row the generator draws one ``integers(k)``
neighbor position followed by one ``random()`` lam, in that order. That
draw protocol is part of the contract so an independent implementation
sharing the seed reproduces the output bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .seeding import as_generator


@dataclass
class SknConfig:
    k: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be at least 1")


# a neighbor block holds at most this many float64 differences (4 MB), and
# at least one query row
_DIFF_BLOCK = 1 << 19


def build_neighbor_lists(points: np.ndarray, k: int) -> np.ndarray:
    """Row i: the indices of the k nearest Euclidean neighbors of row i of
    ``points``, an (n, dim) float64 array with 1 <= k < n.

    A row is never its own neighbor; ties, duplicate rows included, break
    toward the lower row index. The distance is sqrt(((p - q)**2).sum()),
    sorted stably, and the query rows are taken in blocks of ``_DIFF_BLOCK``
    differences.
    """
    n, dim = points.shape
    step = max(1, _DIFF_BLOCK // max(1, n * dim))
    out = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, step):
        stop = min(start + step, n)
        diff = points[None, :, :] - points[start:stop, None, :]
        np.multiply(diff, diff, out=diff)
        order = np.argsort(np.sqrt(diff.sum(axis=-1)), axis=1, kind="stable")
        # every row of the block holds its own index exactly once
        others = order[order != np.arange(start, stop)[:, None]]
        out[start:stop] = others.reshape(stop - start, n - 1)[:, :k]
    return out


def skn_synthesize(class_points, n_new: int, config: SknConfig,
                   rng=None) -> np.ndarray:
    """Exactly ``n_new`` interpolated rows for one class.

    A single-point class falls back to jittered duplication (uniform noise
    within 1e-3 per feature, clipped to [0, 1]) with a loud warning, since
    interpolation needs a neighbor.
    """
    points = np.asarray(class_points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise DataError("class_points must be a non-empty 2-d array")
    if n_new < 0:
        raise ConfigError("n_new must be non-negative")
    rng = as_generator(config.seed if rng is None else rng)
    n, dim = points.shape
    if n_new == 0:
        return np.empty((0, dim))

    if n == 1:
        warnings.warn(
            "SKN fallback: class has a single sample; duplicating it with "
            "per-feature jitter of at most 1e-3",
            stacklevel=2,
        )
        jitter = rng.uniform(-1e-3, 1e-3, size=(n_new, dim))
        return np.clip(points[0] + jitter, 0.0, 1.0)

    k_eff = min(config.k, n - 1)
    if k_eff < config.k:
        warnings.warn(f"k={config.k} exceeds class size - 1; using k={k_eff}")
    neighbors = build_neighbor_lists(points, k_eff)
    out = np.empty((n_new, dim))
    for t in range(n_new):
        i = t % n
        j = neighbors[i, rng.integers(k_eff)]
        lam = rng.random()
        out[t] = points[i] + lam * (points[j] - points[i])
    return out
