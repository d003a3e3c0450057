"""Exactness of the spatial index against an independent brute-force oracle."""

import threading
import time
import tracemalloc

import numpy as np
import pytest

from bdmbc import knn
from bdmbc.data import _rng
from bdmbc.knn import (
    _PARALLEL_MIN_NEIGHBORS,
    _ROW_CHUNK,
    _TIE_PAD,
    SpatialIndex,
    ordered_map,
)
from oracles import hostile_set, k_distances, pairwise_order


def brute_knn(points, x, k, exclude_index=None):
    """Oracle: full scan sorted by (distance, index)."""
    dist = np.linalg.norm(points - np.asarray(x, dtype=np.float64), axis=1)
    order = sorted(range(len(points)), key=lambda i: (dist[i], i))
    if exclude_index is not None:
        order = [i for i in order if i != exclude_index]
    idx = order[:k]
    return np.array(idx), dist[idx]


def test_single_point_index():
    idx = SpatialIndex(np.array([[1.0, 2.0]]))
    nbr, dist = idx.query_bulk([0.0, 0.0], 1)
    assert nbr.tolist() == [[0]]
    assert dist[0, 0] == pytest.approx(np.sqrt(5.0))


def test_line_example():
    idx = SpatialIndex(np.array([[0.0], [1.0], [3.0]]))
    nbr, dist = idx.query_bulk([[0.0]], 2, exclude=[0])
    assert np.array_equal(nbr, [[1, 2]])
    assert np.array_equal(dist, [[1.0, 3.0]])
    assert k_distances(idx, 1)[0] == 1.0


def test_equidistant_tie_prefers_lower_index():
    idx = SpatialIndex(np.array([[1.0, 0.0], [0.0, 1.0]]))
    nbr, _ = idx.query_bulk([0.0, 0.0], 2)
    assert np.array_equal(nbr, [[0, 1]])


def test_duplicate_points_ordered_by_index():
    pts = np.array([[0.5, 0.5], [0.0, 0.0], [0.5, 0.5]])
    idx = SpatialIndex(pts)
    nbr, dist = idx.query_bulk([0.5, 0.5], 3)
    assert np.array_equal(nbr, [[0, 2, 1]])
    assert dist[0, 0] == 0.0 and dist[0, 1] == 0.0
    assert k_distances(idx, 1)[0] == 0.0


def test_k_out_of_range():
    idx = SpatialIndex(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        idx.query_bulk(np.zeros((1, 2)), 4)
    with pytest.raises(ValueError):
        k_distances(idx, 3)  # self excluded, max k is 2


def test_exclude_needs_one_entry_per_row():
    idx = SpatialIndex(np.arange(10.0)[:, None])
    queries = np.zeros((4, 1))
    for bad in (0, [0, 1, 2], np.arange(5), np.zeros((4, 1), dtype=np.int64)):
        with pytest.raises(ValueError, match="one entry per query row"):
            idx.query_bulk(queries, 2, exclude=bad)
    # entries outside [0, n) exclude nothing
    nbr, _ = idx.query_bulk(queries, 2, exclude=[-1, 10, 0, 99])
    assert nbr.tolist() == [[0, 1], [0, 1], [1, 2], [0, 1]]


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


@pytest.mark.parametrize("exclude", [False, True])
def test_indices_only_query_writes_no_distances(exclude):
    # int32 indices, equal to those of the query that writes distances, on
    # data with duplicate and tied points, in a narrow and a whole window
    rng = _rng(4, 117)
    pts = np.round(rng.random((400, 3)) * 4) / 4
    n = len(pts)
    idx = SpatialIndex(pts)
    for k in (5, 200):
        excl = np.arange(n) if exclude else None
        nbr, dist = idx.query_bulk(pts, k, exclude=excl)
        only, none = idx.query_bulk(pts, k, exclude=excl, distances=False)
        assert none is None and dist.dtype == np.float64
        assert nbr.dtype == only.dtype == np.int32
        assert np.array_equal(only, nbr)


@pytest.mark.parametrize("d, n, k", [(784, 100, 10), (10, 600, 200)])
def test_blocks_of_several_difference_slices_match_brute_force(d, n, k):
    # a block's differences span several _DIFF_ELEMENTS slices: at d=784
    # in a tree window, at d=10 in a window of every location (kq = n)
    pts = _rng(d, 118).standard_normal((n, d))
    kq = k + 1 + _TIE_PAD if d == 784 else n
    block = _ROW_CHUNK * min(kq, knn._BLOCK_WINDOW) * min(d, knn._BLOCK_DIMS) // (kq * d)
    assert block > 2 * (knn._DIFF_ELEMENTS // (kq * d))
    order, sorted_dist = pairwise_order(pts)
    nbr, dist = SpatialIndex(pts).query_bulk(pts, k, exclude=np.arange(n))
    assert np.array_equal(nbr, order[:, :k])
    assert np.array_equal(dist.view(np.uint64), sorted_dist[:, :k].view(np.uint64))


def test_k_distance_monotone_in_k():
    rng = _rng(3, 103)
    pts = rng.random((60, 3))
    idx = SpatialIndex(pts)
    rows = np.arange(0, 60, 7)
    _, dist = idx.query_bulk(pts[rows], 59, exclude=rows)
    for k in range(1, 60):
        assert np.array_equal(k_distances(idx, k)[rows], dist[:, k - 1])
    assert np.all(np.diff(dist, axis=1) >= 0)


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


def with_copies(rng, n, d, hubs, copies):
    """n quantized points plus `copies` copies of `hubs` of them, shuffled."""
    base = np.round(rng.random((n, d)) * 8) / 8
    extra = base[rng.integers(hubs, size=copies)]
    pts = np.concatenate([base, extra])
    return pts[rng.permutation(len(pts))]


@pytest.mark.parametrize("seed", range(4))
def test_heavy_duplicates_match_brute_force(seed):
    # A few locations hold most points, the rest are near-distinct; rows at
    # one location share a list and each drops only its own index.
    rng = _rng(seed, 108)
    d = int(rng.integers(1, 4))
    pts = with_copies(rng, int(rng.integers(20, 150)), d, 3, int(rng.integers(50, 400)))
    n = len(pts)
    idx = SpatialIndex(pts)
    for k in (1, int(rng.integers(2, 60)), n - 1):
        got_idx, got_dist = idx.query_bulk(pts, k, exclude=np.arange(n))
        plain_idx, plain_dist = idx.query_bulk(pts, k)
        for i in range(n):
            oi, od = brute_knn(pts, pts[i], k, exclude_index=i)
            assert np.array_equal(got_idx[i], oi), (seed, k, i)
            assert np.array_equal(got_dist[i], od), (seed, k, i)
            oi, od = brute_knn(pts, pts[i], k)
            assert np.array_equal(plain_idx[i], oi), (seed, k, i)
            assert np.array_equal(plain_dist[i], od), (seed, k, i)


@pytest.mark.parametrize("near", [False, True])
def test_tied_single_points_beside_duplicates(near):
    # A shuffled lattice of single points with one corner repeated: short
    # lists cut through shells of single points at equal distance, which
    # must come in index order, whether or not the rows queried together
    # reach the repeated corner.
    rng = _rng(6, 111)
    lattice = np.indices((12, 12)).reshape(2, -1).T.astype(np.float64)
    pts = np.concatenate([lattice, np.repeat(lattice[:1], 5, axis=0)])
    pts = pts[rng.permutation(len(pts))]
    rows = np.arange(len(pts)) if near else np.flatnonzero(pts.sum(axis=1) >= 8)
    idx = SpatialIndex(pts)
    for k in (1, 2, 3, 6):
        got_idx, got_dist = idx.query_bulk(pts[rows], k, exclude=rows)
        plain_idx, plain_dist = idx.query_bulk(pts[rows] + 0.5, k)
        for j, i in enumerate(rows):
            oi, od = brute_knn(pts, pts[i], k, exclude_index=i)
            assert np.array_equal(got_idx[j], oi), (k, i)
            assert np.array_equal(got_dist[j], od), (k, i)
            oi, od = brute_knn(pts, pts[i] + 0.5, k)
            assert np.array_equal(plain_idx[j], oi), (k, i)
            assert np.array_equal(plain_dist[j], od), (k, i)


@pytest.mark.parametrize("seed", range(3))
def test_queries_off_the_index_match_brute_force(seed):
    # Query rows that are not index points, repeated among themselves, each
    # excluding an arbitrary index (outside [0, n) excludes nothing).
    rng = _rng(seed, 109)
    pts = with_copies(rng, 200, 2, 5, 300)
    n = len(pts)
    off = np.round(rng.random((40, 2)) * 16) / 16 + 1 / 32
    queries = np.concatenate([off, off[rng.integers(40, size=60)], pts[:20]])
    exclude = rng.integers(-3, n + 3, size=len(queries))
    idx = SpatialIndex(pts)
    for k in (1, 9, 120, n - 1):
        got_idx, got_dist = idx.query_bulk(queries, k, exclude=exclude)
        plain_idx, plain_dist = idx.query_bulk(queries, k)
        for i, q in enumerate(queries):
            excluded = exclude[i] if 0 <= exclude[i] < n else None
            oi, od = brute_knn(pts, q, k, exclude_index=excluded)
            assert np.array_equal(got_idx[i], oi), (seed, k, i)
            assert np.array_equal(got_dist[i], od), (seed, k, i)
            oi, od = brute_knn(pts, q, k)
            assert np.array_equal(plain_idx[i], oi), (seed, k, i)
            assert np.array_equal(plain_dist[i], od), (seed, k, i)


def test_subsample_coordinate_exclusion_matches_brute_force():
    # As a bagging round queries it: every point against an index over a
    # subsample, excluding the point's own subsample position, or nothing
    # (-1) when the point is not in the subsample.
    rng = _rng(2, 110)
    points = with_copies(rng, 300, 2, 4, 500)
    n = len(points)
    sub = np.sort(rng.choice(n, 250, replace=False))
    pos = np.full(n, -1, dtype=np.int64)
    pos[sub] = np.arange(len(sub))
    idx = SpatialIndex(points[sub])
    for k in (1, 10, len(sub) - 1):
        got_idx, got_dist = idx.query_bulk(points, k, exclude=pos)
        for i in range(0, n, 3):
            excluded = pos[i] if pos[i] >= 0 else None
            oi, od = brute_knn(points[sub], points[i], k, exclude_index=excluded)
            assert np.array_equal(got_idx[i], oi), (k, i)
            assert np.array_equal(got_dist[i], od), (k, i)


def test_signed_zero_locations_share_distances():
    # +0.0 and -0.0 are keyed apart but lie at one place: their copies
    # interleave by index exactly as brute force orders them.
    pts = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [1.0, 1.0], [-0.0, 1.0]])
    idx = SpatialIndex(pts)
    for k in (1, 3, 4):
        got_idx, got_dist = idx.query_bulk(pts, k, exclude=np.arange(5))
        for i in range(5):
            oi, od = brute_knn(pts, pts[i], k, exclude_index=i)
            assert np.array_equal(got_idx[i], oi), (k, i)
            assert np.array_equal(got_dist[i], od), (k, i)


def test_hash_collision_only_splits_locations():
    # Rows are grouped by a hash of their bytes.  Rows a and b share a hash,
    # so the copies of a, interleaved with b, land in separate locations;
    # that must not change any list.
    mult = np.array([0x9E3779B97F4A7C15], dtype=np.uint64)
    one = np.array([1.0]).view(np.uint64)
    a = [1.0, 1.0]
    b = [np.nextafter(1.0, 2.0), (one - mult).view(np.float64)[0]]
    pts = np.array([a, b, a, b, a, [0.5, 0.5], b, a])
    n = len(pts)
    idx = SpatialIndex(pts)
    for k in range(1, n):
        got_idx, got_dist = idx.query_bulk(pts, k, exclude=np.arange(n))
        for i in range(n):
            oi, od = brute_knn(pts, pts[i], k, exclude_index=i)
            assert np.array_equal(got_idx[i], oi), (k, i)
            assert np.array_equal(got_dist[i], od), (k, i)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises(bad):
    pts = np.zeros((6, 2))
    pts[3, 1] = bad
    with pytest.raises(ValueError):
        SpatialIndex(pts)
    idx = SpatialIndex(np.zeros((6, 2)))
    with pytest.raises(ValueError):
        idx.query_bulk(pts, 2, exclude=np.arange(6))
    # k = n - 1 over six locations: a window of all of them skips the tree,
    # which would otherwise reject the row
    idx = SpatialIndex(np.arange(12.0).reshape(6, 2))
    with pytest.raises(ValueError):
        idx.query_bulk(pts, 5, exclude=np.arange(6))


def oracle_table(points, queries, k, exclude):
    """Oracle: each query row's k nearest points by (distance, index), with
    distances formed as the index forms them, its excluded index (if in
    range) left out."""
    diff = points[None, :, :] - queries[:, None, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    if exclude is not None:
        rows = np.flatnonzero((exclude >= 0) & (exclude < len(points)))
        dist[rows, exclude[rows]] = np.inf
    order = np.lexsort((np.broadcast_to(np.arange(len(points)), dist.shape), dist))[:, :k]
    return order, np.take_along_axis(dist, order, axis=1)


def test_query_fuzz_against_brute_force(monkeypatch):
    # seeded hostile sets, k from 1 to the largest allowed: every list and
    # every distance bit for bit equal to the (distance, index) oracle,
    # through tree windows (first and widened) and windows of every location.
    # Odd cases walk the tree for any first window short of every location,
    # as small sets would otherwise mostly skip it
    rng = _rng(14, 113)
    windows = record_windows(monkeypatch)
    full = []
    share = knn._WHOLE_WINDOW_SHARE
    for case in range(150):
        monkeypatch.setattr(knn, "_WHOLE_WINDOW_SHARE", 1.0 if case % 2 else share)
        kind = ("continuous", "duplicates", "signed-zero", "lattice", "offset")[case % 5]
        n = int(rng.integers(2, 90))
        d = int(rng.integers(1, 5))
        pts = hostile_set(rng, kind, n, d)
        idx = SpatialIndex(pts)
        off = hostile_set(rng, kind, int(rng.integers(1, 40)), d)
        for queries, exclude in ((pts, np.arange(n)), (pts, None), (off, None),
                                 (off, rng.integers(-1, n + 1, len(off)))):
            limit = n - (exclude is not None)
            if limit < 1:
                continue
            for k in {1, limit, *rng.integers(1, limit + 1, 3).tolist()}:
                windows.clear()
                got = idx.query_bulk(queries, k, exclude=exclude)
                want = oracle_table(pts, queries, k, exclude)
                label = (case, kind, n, d, k, exclude is not None)
                assert np.array_equal(got[0], want[0]), label
                assert np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64)), label
                full += [kq == idx._lowest.size for _, kq, _ in windows]
    assert any(full) and not all(full)


def test_full_window_skips_the_tree():
    # k = n - 1 needs every location, and a first window of at least a
    # quarter of them (kq = k + 1 + _TIE_PAD = 150 of 600 with exclusion,
    # k + _TIE_PAD without) takes them all as well: the window, here in
    # several blocks, takes every location without walking the index's tree
    pts = _rng(15, 114).random((600, 1))
    n = len(pts)
    off = _rng(17, 115).random((50, 1))
    idx = SpatialIndex(pts)

    class NoWalk:
        indices = idx._tree.indices  # the leaf order of the blocks

        def query(self, *args, **kwargs):
            raise AssertionError("the tree was walked")

    idx._tree = NoWalk()
    for queries, k, exclude in ((idx.points, n - 1, np.arange(n)),
                                (idx.points, n // 4 - 1 - _TIE_PAD, np.arange(n)),
                                (off, n // 4 - _TIE_PAD, None)):
        got = idx.query_bulk(queries, k, exclude=exclude)
        want = oracle_table(pts, queries, k, exclude)
        assert np.array_equal(got[0], want[0]), k
        assert np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64)), k


@pytest.mark.parametrize("locations, first", [(238, 59), (236, 236)])
def test_quantized_ties_shape_keeps_its_tree_window(locations, first, monkeypatch):
    # the quantized-ties fit's k=50 table query, over 238 locations: its
    # first window of kq = 50 + 1 + _TIE_PAD = 59 holds less than a quarter
    # of them (4 * 59 = 236), so it walks the tree; over 236 it would not
    rng = _rng(18, 116)
    sites = np.unique(np.round(rng.random((4 * locations, 2)) * 40) / 4, axis=0)[:locations]
    assert len(sites) == locations
    pts = sites[rng.integers(locations, size=1000)]
    pts[:locations] = sites  # every site holds a point
    n = len(pts)
    windows = record_windows(monkeypatch)
    idx = SpatialIndex(pts)
    got = idx.query_bulk(idx.points, 50, exclude=np.arange(n))
    assert windows[0][:2] == (51, first)
    want = oracle_table(pts, pts, 50, np.arange(n))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64))


def record_windows(monkeypatch):
    """Log (list length, window width in locations, thread) of every
    window, first windows and retries."""
    query_window = SpatialIndex._query_window
    windows = []

    def logged_query_window(self, queries, kk, kq):
        windows.append((kk, kq, threading.get_ident()))
        return query_window(self, queries, kk, kq)

    monkeypatch.setattr(SpatialIndex, "_query_window", logged_query_window)
    return windows


def distinct_rows(pts):
    return len(np.unique(pts, axis=0))


@pytest.mark.parametrize("quantized", [False, True])
def test_wide_query_prefix_equals_narrow_query(quantized, monkeypatch):
    # The first k columns of a K-list are the k-list, whatever the thread count.
    pts = 4.0 * _rng(9, 105).random((1200, 3))
    if quantized:
        pts = np.round(pts / 0.25) * 0.25
    wide_k = 40
    # enough distinct rows that the wide query runs on worker threads
    assert distinct_rows(pts) * (wide_k + 1 + _TIE_PAD) >= _PARALLEL_MIN_NEIGHBORS
    exclude = np.arange(len(pts))
    windows = record_windows(monkeypatch)
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
    # widened retries run on the quantized grid and never on continuous data
    retries = sum(kq > kk + _TIE_PAD for kk, kq, _ in windows)
    assert (retries > 0) == quantized


def test_pool_blocks_are_deterministic_across_thread_counts(monkeypatch):
    # A full 16^3 lattice on a 0.25 grid plus 1000 copies of its points: an
    # interior row's 41st neighbor lies in the 24-point shell at distance
    # sqrt(5)/4, which also holds the 49th location, so most rows widen once.
    # Both passes span several blocks above the parallel floor, so retries
    # also run on pool threads.
    k = 40
    lattice = 0.25 * np.indices((16, 16, 16)).reshape(3, -1).T.astype(np.float64)
    rng = _rng(12, 107)
    pts = np.concatenate([lattice, lattice[rng.integers(len(lattice), size=1000)]])
    pts = pts[rng.permutation(len(pts))]
    n = len(pts)
    assert distinct_rows(pts) > 3 * _ROW_CHUNK  # at least three blocks in the first pass
    assert distinct_rows(pts) * (k + 1 + _TIE_PAD) >= _PARALLEL_MIN_NEIGHBORS
    calls = record_windows(monkeypatch)
    idx = SpatialIndex(pts)
    exclude = np.arange(n)
    caller = threading.get_ident()
    tables = {}
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("BDMBC_THREADS", threads)
        calls.clear()
        tables[threads] = idx.query_bulk(pts, k, exclude=exclude)
        idents = {ident for _, _, ident in calls}
        retry_idents = {ident for kk, kq, ident in calls if kq > kk + _TIE_PAD}
        if threads == "1":
            assert idents == {caller}
        else:
            assert len(idents) > 1 and caller not in idents
            assert len(retry_idents) > 1
        # a pass below the floor runs inline on the calling thread
        calls.clear()
        idx.query_bulk(pts[:100], 5)
        assert {ident for _, _, ident in calls} == {caller}
    for threads in ("2", "3"):
        assert np.array_equal(tables[threads][0], tables["1"][0]), threads
        assert np.array_equal(tables[threads][1], tables["1"][1]), threads
    got_idx, got_dist = tables["1"]
    for i in range(0, n, 97):
        oi, od = brute_knn(pts, pts[i], k, exclude_index=i)
        assert np.array_equal(got_idx[i], oi), i
        assert np.array_equal(got_dist[i], od), i


@pytest.mark.parametrize("lattice", [False, True])
def test_block_order_does_not_change_results(lattice, monkeypatch):
    # Blocks are formed from the query sites in k-d leaf order, so permuting
    # the query rows changes which rows share a block.  Each row's list must
    # not change: the permuted query returns the same rows, permuted.
    rng = _rng(13, 112)
    if lattice:
        # the 16^3 lattice on a 0.25 grid plus 1000 copies of its points
        grid = 0.25 * np.indices((16, 16, 16)).reshape(3, -1).T.astype(np.float64)
        pts = np.concatenate([grid, grid[rng.integers(len(grid), size=1000)]])
        k = 40
    else:
        pts = rng.standard_normal((4000, 10))
        k = 20
    n = len(pts)
    assert distinct_rows(pts) > 3 * _ROW_CHUNK  # at least three blocks in the first pass
    assert distinct_rows(pts) * (k + 1 + _TIE_PAD) >= _PARALLEL_MIN_NEIGHBORS
    idx = SpatialIndex(pts)
    perm = rng.permutation(n)
    for threads in ("1", "2"):
        monkeypatch.setenv("BDMBC_THREADS", threads)
        got_idx, got_dist = idx.query_bulk(pts, k, exclude=np.arange(n))
        perm_idx, perm_dist = idx.query_bulk(pts[perm], k, exclude=perm)
        assert np.array_equal(perm_idx, got_idx[perm]), threads
        assert np.array_equal(perm_dist, got_dist[perm]), threads
    # the oracle's norm rounds 10-D distances its own way
    for i in range(0, n, 211):
        oi, od = brute_knn(pts, pts[i], k, exclude_index=i)
        assert np.array_equal(got_idx[i], oi), i
        assert np.allclose(got_dist[i], od, rtol=1e-14, atol=0), i


def test_tied_locations_from_the_tree_in_descending_order():
    # Around the origin the tree returns each pair of equal distances with
    # the higher location first; the unstable sort by distance may keep that
    # order, so the rows holding equal distances are re-sorted by index.
    pts = np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0])[:, None]
    idx = SpatialIndex(pts)
    tree_dist, cand = idx._tree.query([[0.0]], len(pts))
    assert np.any((tree_dist[0, 1:] == tree_dist[0, :-1]) & (cand[0, 1:] < cand[0, :-1]))
    for k in range(1, len(pts) + 1):
        got_idx, got_dist = idx.query_bulk([[0.0]], k)
        oi, od = brute_knn(pts, [0.0], k)
        assert np.array_equal(got_idx[0], oi), k
        assert np.array_equal(got_dist[0], od), k


@pytest.mark.parametrize("values", [[0.5], [0.0, 1.0]])
def test_window_widens_to_all_points(values, monkeypatch):
    # All-identical and two-valued sets: a k-th neighbor at the largest
    # distance ties with points outside every window short of all distinct
    # locations, so every window holds them all.
    rng = _rng(4, 106)
    n = 300
    pts = np.repeat(rng.choice(np.array(values), size=(n, 1)), 3, axis=1)
    idx = SpatialIndex(pts)
    windows = record_windows(monkeypatch)
    for k in (1, 7, 200, n - 1):
        got_idx, got_dist = idx.query_bulk(pts, k, exclude=np.arange(n))
        plain_idx, plain_dist = idx.query_bulk(pts, k)
        assert {kq for _, kq, _ in windows} == {len(values)}, k
        windows.clear()
        for i in range(0, n, 13):
            oi, od = brute_knn(pts, pts[i], k, exclude_index=i)
            assert np.array_equal(got_idx[i], oi), (k, i)
            assert np.array_equal(got_dist[i], od), (k, i)
            oi, od = brute_knn(pts, pts[i], k)
            assert np.array_equal(plain_idx[i], oi), (k, i)
            assert np.array_equal(plain_dist[i], od), (k, i)


def test_identical_points_widen_in_bounded_memory():
    # An all-identical set is one location whose list every row shares, so
    # memory stays near one window's instead of rows x n x d per chunk.
    n, k = 2500, 5
    pts = np.full((n, 2), 0.5)
    tracemalloc.start()
    try:
        nbr, dist = SpatialIndex(pts).query_bulk(pts, k, exclude=np.arange(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # all distances tie at 0, so each row takes the lowest indices but its own
    expected = np.array([[j for j in range(k + 1) if j != i][:k] for i in range(n)])
    assert np.array_equal(nbr, expected)
    assert np.all(dist == 0.0)
    assert peak < 128 * 2**20, f"peak {peak / 2**20:.0f} MiB"


def test_high_dimensional_blocks_in_bounded_memory():
    # blocks are budgeted in (rows, kq, d) elements, not rows: 1024-row
    # blocks of this self-query peaked at 1463 MiB
    n, k, d = 4000, 50, 784
    pts = _rng(0, 110).standard_normal((n, d))
    tracemalloc.start()
    try:
        nbr, dist = SpatialIndex(pts).query_bulk(pts, k, exclude=np.arange(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for i in (0, 1234, n - 1):
        expected, expected_dist = brute_knn(pts, pts[i], k, exclude_index=i)
        assert np.array_equal(nbr[i], expected)
        assert np.allclose(dist[i], expected_dist, rtol=1e-12)
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MiB"


@pytest.mark.parametrize("quantized", [False, True])
def test_wide_windows_in_bounded_memory(quantized, monkeypatch):
    # k = n - 1 of 2000 1-D points: blocks of 1024 rows of the whole window
    # held 156 MiB beside the output, and 1024 rows of 2000-entry lists
    # written at once held 69 MiB on 201 locations
    monkeypatch.setenv("BDMBC_THREADS", "2")
    pts = _rng(3, 115).random((2000, 1))
    if quantized:
        pts = np.round(pts * 200) / 200
    n = len(pts)
    idx = SpatialIndex(pts)
    tracemalloc.start()
    try:
        nbr, dist = idx.query_bulk(idx.points, n - 1, exclude=np.arange(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for i in (0, 777, n - 1):
        oi, od = brute_knn(pts, pts[i], n - 1, exclude_index=i)
        assert np.array_equal(nbr[i], oi), i
        assert np.array_equal(dist[i], od), i
    extra = peak - nbr.nbytes - dist.nbytes
    assert extra < 40 * 2**20, f"{extra / 2**20:.0f} MiB beside the output"


def test_exact_distances_hold_one_difference_array():
    # the gathered candidates are the difference array, not a second copy,
    # and it is formed in slices of at most _DIFF_ELEMENTS elements: beside
    # the output, the peak stays under one slice and a half
    rows, kq, d = 1024, 59, 10
    rng = _rng(1, 111)
    points = rng.random((2000, d))
    queries = rng.random((rows, d))
    locations = rng.integers(0, 2000, (rows, kq))
    tracemalloc.start()
    try:
        dist = knn.exact_distances(points, queries, locations)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    diff = points[locations] - queries[:, None, :]
    assert np.array_equal(dist, np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))
    extra = peak - dist.nbytes
    assert extra < 1.5 * 8 * knn._DIFF_ELEMENTS, f"{extra / 2**20:.2f} MiB beside the output"


@pytest.mark.parametrize("kind", ["continuous", "duplicated", "quantized"])
def test_self_query_reuses_the_index(kind, monkeypatch):
    # querying the index's own points takes its locations and its tree as
    # the leaf order: the same lists bit for bit, and no second tree
    rng = _rng(2, 112)
    pts = rng.random((3000, 2))
    if kind == "duplicated":
        pts = pts[rng.integers(0, 1500, 3000)]
    elif kind == "quantized":
        pts = np.round(pts * 40) / 40
    # several blocks, so a query of other rows builds a leaf-order tree
    assert distinct_rows(pts) > _ROW_CHUNK
    builds = []
    tree = knn.cKDTree

    def counted(*args, **kwargs):
        builds.append(len(args[0]))
        return tree(*args, **kwargs)

    monkeypatch.setattr(knn, "cKDTree", counted)
    idx = SpatialIndex(pts)
    exclude = np.arange(len(pts))
    for k, excl in ((1, None), (7, exclude), (30, exclude)):
        builds.clear()
        own = idx.query_bulk(idx.points, k, exclude=excl)
        assert builds == [], (k, builds)
        other = idx.query_bulk(idx.points.copy(), k, exclude=excl)
        assert len(builds) == 1, k
        assert np.array_equal(own[0], other[0]), k
        assert np.array_equal(own[1].view(np.uint64), other[1].view(np.uint64)), k


def test_identical_points_cost_one_location():
    # 20k copies of one point form a single location: the query is solved
    # once and shared, not re-walked per copy (quadratic before: 3000
    # copies took about 2 s at k=5).
    n, k = 20000, 5
    pts = np.full((n, 2), 0.5)
    t0 = time.perf_counter()
    nbr, dist = SpatialIndex(pts).query_bulk(pts, k, exclude=np.arange(n))
    elapsed = time.perf_counter() - t0
    # each row takes the lowest indices but its own
    expected = np.tile(np.arange(k), (n, 1))
    for i in range(k):
        expected[i] = [j for j in range(k + 1) if j != i]
    assert np.array_equal(nbr, expected)
    assert np.all(dist == 0.0)
    assert elapsed < 2.0, f"{elapsed:.2f} s"


# ------------------------------------------------------------- ordered_map


def test_ordered_map_yields_in_item_order():
    # early items take longest, so later ones finish first; results still
    # come back in item order, from pool threads
    threads = set()

    def slow_square(i):
        time.sleep(0.002 * (12 - i % 12))
        threads.add(threading.get_ident())
        return i * i

    assert list(ordered_map(slow_square, range(30), workers=3)) == [i * i for i in range(30)]
    assert len(threads) > 1 and threading.get_ident() not in threads


@pytest.mark.parametrize("workers", [2, 3])
def test_ordered_map_bounds_pending_calls(monkeypatch, workers):
    # a slow reader never has more than 2 x workers calls submitted and unread
    submitted = []

    class CountingPool(knn.ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(knn, "ThreadPoolExecutor", CountingPool)
    ahead = []
    for read, value in enumerate(ordered_map(lambda i: i, range(40), workers=workers)):
        assert value == read
        ahead.append(len(submitted) - read)  # this call and the ones behind it
        time.sleep(0.001)
    assert len(submitted) == 40
    assert workers < max(ahead) <= 2 * workers, ahead


def test_ordered_map_runs_inline_with_one_worker_or_item(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(knn, "ThreadPoolExecutor", no_pool)
    caller = threading.get_ident()

    def where(i):
        return i, threading.get_ident()

    assert list(ordered_map(where, range(5), workers=1)) == [(i, caller) for i in range(5)]
    assert list(ordered_map(where, [7], workers=4)) == [(7, caller)]
    assert list(ordered_map(where, [], workers=4)) == []
    monkeypatch.setenv("BDMBC_THREADS", "1")
    assert list(ordered_map(where, range(3))) == [(i, caller) for i in range(3)]


def test_ordered_map_raises_the_first_failure_in_item_order():
    def fail_at(i):
        if i in (5, 9):
            time.sleep(0.01 * (i == 5))  # item 9 fails first
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="item 5"):
        list(ordered_map(fail_at, range(20), workers=3))
