import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsaug.errors import ConfigError, DataError
from idsaug import skn
from idsaug.skn import SknConfig, build_neighbor_lists, skn_synthesize


def brute_force_neighbors(points, query, k):
    """Independent oracle: exhaustive distance sort with index tie-break;
    NaN distances last, as numpy sorts them."""
    scored = []
    for i, p in enumerate(points):
        if i == query:
            continue
        distance = float(np.sqrt(((p - points[query]) ** 2).sum()))
        scored.append((math.isnan(distance), 0.0 if math.isnan(distance) else distance, i))
    scored.sort()
    return [i for _, _, i in scored[:k]]


def brute_force_synthesize(points, n_new, k, seed):
    """Independent re-implementation sharing the documented draw protocol."""
    rng = np.random.default_rng(seed)
    n = len(points)
    k_eff = min(k, n - 1)
    out = np.empty((n_new, points.shape[1]))
    for t in range(n_new):
        i = t % n
        neighbors = brute_force_neighbors(points, i, k_eff)
        j = neighbors[int(rng.integers(k_eff))]
        lam = rng.random()
        out[t] = points[i] + lam * (points[j] - points[i])
    return out


class _ForcedLambda:
    """Generator stand-in that pins every lam draw to one value."""

    def __init__(self, lam, inner_seed=0):
        self.lam = lam
        self.inner = np.random.default_rng(inner_seed)

    def integers(self, *args, **kwargs):
        return self.inner.integers(*args, **kwargs)

    def random(self):
        return self.lam


@st.composite
def neighbor_classes(draw):
    """A class and a k for it: uniform rows or rows on a small integer grid
    (many tied distances), optionally moved by a constant 1e6 (so the
    expansion |p|^2 + |q|^2 - 2 p.q cancels), then exact duplicate rows,
    rows one ulp from another, and maybe a NaN cell."""
    n = draw(st.integers(2, 30))
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        points = rng.random((n, dim))
    else:
        points = rng.integers(0, 3, (n, dim)).astype(np.float64)
    if draw(st.booleans()):
        points += 1e6
    row = st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(row, row), max_size=4)):
        points[a] = points[b]
    for a, b, f in draw(st.lists(st.tuples(row, row, st.integers(0, dim - 1)), max_size=3)):
        points[a] = points[b]
        points[a, f] = np.nextafter(points[a, f], np.inf)
    if draw(st.integers(0, 4)) == 0:
        points[draw(row), draw(st.integers(0, dim - 1))] = np.nan
    k = draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)))
    return points, k


class TestKnn:
    """Rows of ``build_neighbor_lists``, the search ``skn_synthesize`` runs."""

    def test_one_dimensional_example(self):
        points = np.array([[0.0], [1.0], [10.0]])
        assert build_neighbor_lists(points, 1).tolist() == [[1], [0], [1]]

    def test_k_equals_all_other_points(self):
        points = np.random.default_rng(0).random((6, 3))
        assert sorted(build_neighbor_lists(points, 5)[2].tolist()) == [0, 1, 3, 4, 5]

    def test_never_own_neighbor(self):
        points = np.random.default_rng(1).random((10, 2))
        # duplicate rows sit at distance 0 from each other as from themselves
        points[7] = points[3]
        neighbors = build_neighbor_lists(points, 4)
        for q in range(10):
            assert q not in neighbors[q]
        assert neighbors[3, 0] == 7 and neighbors[7, 0] == 3

    def test_matches_brute_force_on_random_points(self):
        rng = np.random.default_rng(2)
        points = rng.random((200, 5))
        neighbors = build_neighbor_lists(points, 7)
        assert neighbors.shape == (200, 7)
        for q in range(200):
            assert neighbors[q].tolist() == brute_force_neighbors(points, q, 7)

    # 40 rows of 3 columns: blocks of 21 query rows (the last one short), of
    # 3 rows, and of less than one row, which still takes one; the re-rank
    # takes 280, 40 and 1 pairs at a time
    @pytest.mark.parametrize("block", [7 * 120, 120, 1])
    def test_block_boundaries_match_brute_force(self, monkeypatch, block):
        monkeypatch.setattr(skn, "_DIFF_BLOCK", block)
        points = np.random.default_rng(3).random((40, 3))
        points[30:] = points[:10]
        neighbors = build_neighbor_lists(points, 5)
        for q in range(40):
            assert neighbors[q].tolist() == brute_force_neighbors(points, q, 5)

    @settings(max_examples=150, deadline=None)
    @given(neighbor_classes(), st.data())
    def test_matches_brute_force_on_drawn_classes(self, drawn, data):
        points, k = drawn
        n = len(points)
        expected = [brute_force_neighbors(points, q, k) for q in range(n)]
        # one query row and one pair per block, then blocks that end inside
        # the class and re-rank chunks that end inside a row's pairs
        edge = data.draw(st.integers(1, n)) * n + data.draw(st.integers(0, n - 1))
        for block in (1, edge, skn._DIFF_BLOCK):
            with mock.patch.object(skn, "_DIFF_BLOCK", block):
                assert build_neighbor_lists(points, k).tolist() == expected, block

    def test_squared_norms_past_the_limit_rerank_every_pair(self):
        points = np.random.default_rng(13).random((30, 6)) * 2.0 ** 510
        assert np.einsum("ij,ij->i", points, points).max() > skn._NORM_LIMIT
        neighbors = build_neighbor_lists(points, 4)
        for q in range(30):
            assert neighbors[q].tolist() == brute_force_neighbors(points, q, 4)

    @pytest.mark.parametrize("n, dim, nan, block", [
        (4000, 78, False, skn._DIFF_BLOCK),
        # a NaN sends every pair to the re-rank
        (1000, 3, True, 1 << 15)])
    def test_scratch_is_bounded_by_the_block(self, monkeypatch, n, dim, nan, block):
        # all n x n distances would take 8 * n * n bytes: 128 MB, then 8 MB
        monkeypatch.setattr(skn, "_DIFF_BLOCK", block)
        points = np.random.default_rng(12).random((n, dim))
        if nan:
            points[5, 0] = np.nan
        tracemalloc.start()
        try:
            build_neighbor_lists(points, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a shortlisting block holds its distances, their partition and the
        # mask; a re-rank of every pair holds about eight n-wide arrays
        assert peak <= (3 if not nan else 8) * 8 * block + 64 * n

    def test_tie_break_by_ascending_index(self):
        # three points at identical distance from the query
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert build_neighbor_lists(points, 3)[0].tolist() == [1, 2, 3]

    def test_k_clamped_with_warning(self):
        points = np.random.default_rng(3).random((4, 2))
        with pytest.warns(UserWarning, match="using k=3"):
            out = skn_synthesize(points, 8, SknConfig(k=10, seed=3))
        assert np.array_equal(out, brute_force_synthesize(points, 8, 10, 3))


class TestSynthesize:
    def test_lambda_zero_reproduces_sources(self):
        points = np.random.default_rng(4).random((5, 3))
        out = skn_synthesize(points, 5, SknConfig(k=2), rng=_ForcedLambda(0.0))
        assert np.array_equal(out, points)

    def test_lambda_one_reproduces_neighbors(self):
        points = np.random.default_rng(5).random((6, 3))
        out = skn_synthesize(points, 6, SknConfig(k=3), rng=_ForcedLambda(1.0, inner_seed=1))
        for row in out:
            assert any(np.array_equal(row, p) for p in points)

    def test_interpolation_arithmetic(self):
        points = np.array([[0.0], [2.0]])
        out = skn_synthesize(points, 1, SknConfig(k=1), rng=_ForcedLambda(0.25))
        assert out[0, 0] == pytest.approx(0.5)

    def test_exact_row_count(self):
        points = np.random.default_rng(6).random((7, 4))
        for n_new in (0, 1, 13, 40):
            assert skn_synthesize(points, n_new, SknConfig()).shape == (n_new, 4)

    def test_bit_identical_to_independent_implementation(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(2, 12))
            dim = int(rng.integers(1, 6))
            points = np.random.default_rng(100 + trial).random((n, dim))
            n_new = int(rng.integers(1, 25))
            seed = int(rng.integers(0, 2**31))
            ours = skn_synthesize(points, n_new, SknConfig(k=3, seed=seed))
            theirs = brute_force_synthesize(points, n_new, 3, seed)
            assert np.array_equal(ours, theirs)

    def test_single_sample_class_falls_back_to_jitter(self):
        point = np.array([[0.5, 0.0, 1.0]])
        with pytest.warns(UserWarning, match="single sample"):
            out = skn_synthesize(point, 50, SknConfig(seed=8))
        assert out.shape == (50, 3)
        assert np.abs(out - point).max() <= 1e-3
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_empty_class_rejected(self):
        with pytest.raises(DataError):
            skn_synthesize(np.empty((0, 3)), 5, SknConfig())

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            skn_synthesize(np.ones((3, 2)), -1, SknConfig())

    def test_deterministic_per_seed(self):
        points = np.random.default_rng(9).random((8, 3))
        a = skn_synthesize(points, 20, SknConfig(seed=77))
        b = skn_synthesize(points, 20, SknConfig(seed=77))
        assert np.array_equal(a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 15), st.integers(1, 5), st.integers(1, 60), st.integers(0, 2**31))
    def test_convexity_and_bounding_box(self, n, dim, n_new, seed):
        points = np.random.default_rng(seed).random((n, dim))
        out = skn_synthesize(points, n_new, SknConfig(k=4, seed=seed))
        lo, hi = points.min(axis=0), points.max(axis=0)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)
        # every row sits on a segment between its round-robin source and some
        # point of the class: the recovered per-feature lambda is consistent
        for t, row in enumerate(out):
            source = points[t % n]
            on_segment = False
            for candidate in points:
                diff = candidate - source
                lam = None
                consistent = True
                for f in range(dim):
                    if abs(diff[f]) > 1e-12:
                        this = (row[f] - source[f]) / diff[f]
                        if lam is None:
                            lam = this
                        elif abs(this - lam) > 1e-9:
                            consistent = False
                            break
                    elif abs(row[f] - source[f]) > 1e-9:
                        consistent = False
                        break
                if consistent and (lam is None or -1e-9 <= lam <= 1 + 1e-9):
                    on_segment = True
                    break
            assert on_segment
