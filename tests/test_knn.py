"""Exactness of the spatial index against an independent brute-force oracle."""

import numpy as np
import pytest

from bdmbc.data import Dataset, _rng
from bdmbc.knn import (
    _PARALLEL_MIN_NEIGHBORS,
    _TIE_PAD,
    SpatialIndex,
    build_index,
    k_distance,
    k_distances,
    knn_query,
)


def brute_knn(points, x, k, exclude_index=None):
    """Oracle: full scan sorted by (distance, index)."""
    dist = np.linalg.norm(points - np.asarray(x, dtype=np.float64), axis=1)
    order = sorted(range(len(points)), key=lambda i: (dist[i], i))
    if exclude_index is not None:
        order = [i for i in order if i != exclude_index]
    idx = order[:k]
    return np.array(idx), dist[idx]


def test_single_point_index():
    idx = build_index(Dataset(np.array([[1.0, 2.0]])))
    nl = knn_query(idx, [0.0, 0.0], 1)
    assert list(nl) == [(0, pytest.approx(np.sqrt(5.0)))]


def test_line_example():
    idx = SpatialIndex(np.array([[0.0], [1.0], [3.0]]))
    nl = knn_query(idx, [0.0], 2, exclude_index=0)
    assert np.array_equal(nl.indices, [1, 2])
    assert np.array_equal(nl.distances, [1.0, 3.0])
    assert k_distance(idx, 0, 1) == 1.0


def test_equidistant_tie_prefers_lower_index():
    idx = SpatialIndex(np.array([[1.0, 0.0], [0.0, 1.0]]))
    nl = knn_query(idx, [0.0, 0.0], 2)
    assert np.array_equal(nl.indices, [0, 1])


def test_duplicate_points_ordered_by_index():
    pts = np.array([[0.5, 0.5], [0.0, 0.0], [0.5, 0.5]])
    idx = SpatialIndex(pts)
    nl = knn_query(idx, [0.5, 0.5], 3)
    assert np.array_equal(nl.indices, [0, 2, 1])
    assert nl.distances[0] == 0.0 and nl.distances[1] == 0.0
    assert k_distance(idx, 0, 1) == 0.0


def test_k_out_of_range():
    idx = SpatialIndex(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        idx.query_bulk(np.zeros((1, 2)), 4)
    with pytest.raises(ValueError):
        k_distance(idx, 0, 3)  # self excluded, max k is 2


@pytest.mark.parametrize("seed", range(6))
def test_query_matches_brute_force(seed):
    rng = _rng(seed, 101)
    n = int(rng.integers(5, 400))
    d = int(rng.integers(1, 11))
    # quantized coordinates force plenty of exact distance ties
    pts = np.round(rng.random((n, d)) * 4) / 4
    idx = SpatialIndex(pts)
    k = int(rng.integers(1, n + 1))
    queries = np.round(rng.random((50, d)) * 4) / 4
    got_idx, got_dist = idx.query_bulk(queries, k)
    for qi in range(len(queries)):
        oi, od = brute_knn(pts, queries[qi], k)
        assert np.array_equal(got_idx[qi], oi), (seed, qi)
        assert np.array_equal(got_dist[qi], od), (seed, qi)


@pytest.mark.parametrize("seed", range(4))
def test_self_excluded_queries_match_brute_force(seed):
    rng = _rng(seed, 102)
    n = int(rng.integers(5, 300))
    d = int(rng.integers(1, 6))
    pts = np.round(rng.random((n, d)) * 8) / 8
    idx = SpatialIndex(pts)
    k = int(rng.integers(1, n))
    got_idx, got_dist = idx.query_bulk(pts, k, exclude=np.arange(n))
    for i in range(n):
        oi, od = brute_knn(pts, pts[i], k, exclude_index=i)
        assert np.array_equal(got_idx[i], oi), (seed, i)
        assert np.array_equal(got_dist[i], od)
    # bulk k-distances equal the last oracle column
    kd = k_distances(idx, k)
    assert np.array_equal(kd, got_dist[:, -1])


def test_k_distance_monotone_in_k():
    rng = _rng(3, 103)
    pts = rng.random((60, 3))
    idx = SpatialIndex(pts)
    for i in range(0, 60, 7):
        vals = [k_distance(idx, i, k) for k in range(1, 60)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_permutation_covariance():
    rng = _rng(5, 104)
    pts = rng.random((80, 2))
    perm = rng.permutation(80)
    idx_a = SpatialIndex(pts)
    idx_b = SpatialIndex(pts[perm])
    inv = np.empty(80, dtype=np.int64)
    inv[perm] = np.arange(80)
    q = rng.random((20, 2))
    ia, da = idx_a.query_bulk(q, 5)
    ib, db = idx_b.query_bulk(q, 5)
    # distances generic (no ties), so neighbor sets map through the permutation
    assert np.array_equal(inv[ia], ib)
    assert np.allclose(da, db)


def test_3mix_k_distance_against_brute():
    from bdmbc.data import GaussianMixture, gen_mixture

    mix = GaussianMixture(means=[[0.20], [0.32], [0.65]],
                          covs=[0.001, 0.002, 0.007], weights=[1 / 3] * 3)
    ds = gen_mixture(mix, 2000, seed=0)
    idx = SpatialIndex(ds.points)
    kd = k_distances(idx, 300)
    for i in (0, 500, 1999):
        dist = np.linalg.norm(ds.points - ds.points[i], axis=1)
        dist[i] = np.inf
        assert kd[i] == np.sort(dist)[299]


@pytest.mark.parametrize("quantized", [False, True])
def test_wide_query_prefix_equals_narrow_query(quantized, monkeypatch):
    # The first k columns of a K-list are the k-list, whatever the thread count.
    pts = 4.0 * _rng(9, 105).random((1200, 2))
    if quantized:
        pts = np.round(pts / 0.25) * 0.25
    wide_k = 40
    # large enough that the wide query runs on worker threads
    assert len(pts) * (wide_k + 1 + _TIE_PAD) >= _PARALLEL_MIN_NEIGHBORS
    exclude = np.arange(len(pts))
    brute = SpatialIndex._brute_rows
    brute_rows = []

    def counting_brute_rows(self, queries, k, exc):
        brute_rows.append(len(queries))
        return brute(self, queries, k, exc)

    monkeypatch.setattr(SpatialIndex, "_brute_rows", counting_brute_rows)
    idx = SpatialIndex(pts)
    tables = []
    for threads in ("1", "2"):
        monkeypatch.setenv("BDMBC_THREADS", threads)
        wide_idx, wide_dist = idx.query_bulk(pts, wide_k, exclude=exclude)
        for k in (1, 5, 15, 39):
            nbr, dist = idx.query_bulk(pts, k, exclude=exclude)
            assert np.array_equal(wide_idx[:, :k], nbr), (threads, k)
            assert np.array_equal(wide_dist[:, :k], dist), (threads, k)
        tables.append((wide_idx, wide_dist))
    assert np.array_equal(tables[0][0], tables[1][0])
    assert np.array_equal(tables[0][1], tables[1][1])
    # the tie fallback is exercised on the quantized grid
    assert (sum(brute_rows) > 0) == quantized
