"""Rare-class oversampling by interpolation toward same-class neighbors.

New rows are x_i + lam * (x_j - x_i) with x_j one of x_i's k nearest
neighbors inside the class and lam uniform on [0, 1]. Sources are visited
round-robin; per call the generator draws one array of ``n_new`` neighbor
positions, ``integers(k, size=n_new)``, followed by one array of ``n_new``
lams, ``random(n_new)``, in that order. That draw protocol is part of the
contract so an independent implementation sharing the seed reproduces the
output bit for bit.
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


# each n-wide array of one block of query rows (approximate squared distances,
# shortlist mask, shortlisted pairs) holds at most this many elements (4 MB of
# float64) and at least one row; the re-rank takes its differences in chunks
# of at most this many floats
_DIFF_BLOCK = 1 << 19
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)
# squared norms up to this keep every sum below finite: |p - q|^2 is at most
# 2 (|p|^2 + |q|^2)
_NORM_LIMIT = float(np.finfo(np.float64).max) / 16


def build_neighbor_lists(points: np.ndarray, k: int) -> np.ndarray:
    """Row i: the indices of the k nearest Euclidean neighbors of row i of
    ``points``, an (n, dim) float64 array with 1 <= k < n.

    A row is never its own neighbor; ties, duplicate rows included, break
    toward the lower row index. The distance is sqrt(((p - q)**2).sum()),
    computed as numpy computes it, sorted stably.

    Only a shortlist of pairs gets that distance. For a block of query rows
    (``_DIFF_BLOCK`` bounds its n-wide arrays), one BLAS product gives
    ``G = |p|^2 + |q|^2 - 2 p.q``. Write ``S`` for the exact squared
    distance, ``S~`` for the contract sum, ``M = |p|^2 + |q|^2``,
    ``u = eps / 2`` and ``g(m) = m u / (1 - m u)``. A dot product of length
    m, summed in any order, with or without fused multiply-adds, is within
    ``g(m)`` times the sum of its terms' magnitudes of the exact value, plus
    ``m 2**-1075`` where products underflow. So the two norms are within
    ``g(dim) M`` together, and ``2 p.q`` within ``g(dim) M`` as
    ``2|p.q| <= M``; the two sums forming G add at most
    ``4 u M (1 + g(dim))``. ``S~`` sums dim squares of rounded differences,
    so it is within ``g(dim + 2) S <= 2 g(dim + 2) M`` of ``S``.
    Together ``|G - S~| <= (2 dim + 4) eps M`` to first order. Sorting by the
    rounded sqrt can also tie ``S~`` values ``2 eps S~ <= 4 eps M`` apart.
    Let ``t`` be the row's k-th smallest G (itself excluded). If a column
    that is among the k nearest had ``G`` above ``t``, one of the k columns
    at or below ``t`` would rank at or after it, so its own ``S~`` would
    exceed that column's by at most that tie width. Chaining the three
    bounds puts the column within ``(4 dim + 12) eps N`` of ``t``, where
    ``N = |p|^2 + max |q|^2`` over the class bounds M for every pair of
    the row. The shortlist takes every column within
    ``8 (dim + 4) (eps N + 2**-1074)`` of ``t``: twice that, which also
    covers the higher-order terms (for dim far below 2**50), the underflow
    terms, N taken from computed norms, and the rounding of the bound and
    of ``t`` plus it. The shortlist then holds every one of the k nearest,
    and re-ranking it by the contract distance gives the k nearest
    exactly. A row with a non-finite G, or a class whose largest squared
    norm exceeds ``_NORM_LIMIT`` (where sums may overflow), shortlists
    every column. Rows far from the origin, relative to their spread,
    widen the shortlist: the result stays exact and only the speed falls.
    """
    n, dim = points.shape
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("ij,ij->i", points, points)
        top = norms.max()
        bound = 8 * (dim + 4) * (_EPS * (norms + top) + _TINY)
    trusted = bool(top <= _NORM_LIMIT)  # False for NaN
    step = max(1, _DIFF_BLOCK // n)
    out = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, step):
        stop = min(start + step, n)
        out[start:stop] = _rerank(points, start, _shortlist(
            points, norms, bound, trusted, start, stop, k), k)
    return out


def _shortlist(points: np.ndarray, norms: np.ndarray, bound: np.ndarray, trusted: bool,
               start: int, stop: int, k: int) -> np.ndarray:
    """``mask[r, j]``: whether column ``j`` may be among the k nearest rows of
    query row ``start + r``: its approximate squared distance is within
    ``bound[start + r]`` of the row's k-th smallest. A row that holds a
    non-finite value, or any row of a class that is not ``trusted``, takes
    every column. No row takes itself."""
    with np.errstate(over="ignore", invalid="ignore"):
        approx = points[start:stop] @ points.T
        approx *= -2.0
        approx += norms[start:stop, None]
        approx += norms
        # one non-finite value makes the row's sum non-finite
        full = ~np.isfinite(approx.sum(axis=1)) | (not trusted)
        rows = np.arange(stop - start)
        approx[rows, rows + start] = np.inf
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        mask = approx <= (kth + bound[start:stop])[:, None]
    mask[full] = True
    mask[rows, rows + start] = False
    return mask


def _rerank(points: np.ndarray, start: int, mask: np.ndarray, k: int) -> np.ndarray:
    """The k nearest of the columns ``mask[r]`` holds for each query row
    ``start + r``, by the distance ``sqrt(((q - p)**2).sum())``, computed at
    most ``_DIFF_BLOCK`` differences at a time."""
    rows, cols = np.nonzero(mask)  # each row's columns in ascending order
    first = np.searchsorted(rows, np.arange(len(mask) + 1))
    place = np.arange(len(rows)) - first[rows]
    # padded with NaN, which sorts after every distance, NaN too, so a stable
    # sort of each row breaks ties toward the lower index
    distance = np.full((len(mask), int(np.diff(first).max())), np.nan)
    step = max(1, _DIFF_BLOCK // max(1, points.shape[1]))
    for pick in (slice(s, s + step) for s in range(0, len(rows), step)):
        diff = points[cols[pick]]
        diff -= points[rows[pick] + start]
        np.multiply(diff, diff, out=diff)
        distance[rows[pick], place[pick]] = np.sqrt(diff.sum(axis=-1))
    order = np.argsort(distance, axis=1, kind="stable")[:, :k]
    return cols[first[:-1, None] + order]


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
    picks = rng.integers(k_eff, size=n_new)
    lam = rng.random(n_new)
    sources = np.arange(n_new) % n
    base = points[sources]
    # the same float operations, element for element, as one row at a time
    return base + lam[:, None] * (points[neighbors[sources, picks]] - base)
