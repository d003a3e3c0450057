"""Exact k-nearest-neighbor queries with deterministic tie-breaking.

The index holds distinct locations, not points: copies of one coordinate
row share a location, whose members are kept in ascending index order.
Candidate locations come from a k-d tree over the locations; final
distances are recomputed with numpy and every neighbor list is ordered by
the composite key (Euclidean distance, point index).  All members of a
location lie at one distance, so a candidate location contributes at most
as many of its lowest members as the list holds.  A row whose k-th
neighbor ties at the edge of its candidate window is queried again with a
window of twice as many locations, until the window certifies it or holds
every location, so results always agree with brute force and cost grows
with the tied shell of locations, not with n.  A window of every location
skips the tree walk: its candidates are all locations, so a query for
k = n - 1 is the (distance, index) order of every pair.  A query whose
first window would hold at least a quarter of the locations
(_WHOLE_WINDOW_SHARE) takes that whole window from the start, where
sorting every location beats the walk.

Query rows are grouped the same way.  Rows with equal coordinates share
one list, solved once (for k + 1 members when rows exclude an index, each
row then dropping its own), so query cost grows with distinct locations,
not with copies.  A query of the index's own point matrix takes the
index's locations as its groups.

Each window pass runs in blocks of query locations, sized in elements of
the (rows, candidates, d) differences (_BLOCK_DIMS) and of the (rows,
candidates) distance arrays (_BLOCK_WINDOW), so memory grows neither with
dimension nor with the window.  A block forms its differences in row
slices of at most _DIFF_ELEMENTS elements (exact_distances), so each
block in flight holds about 1 MiB of them.  A query whose first pass
spans several blocks forms them from the locations in k-d leaf order, so
the rows of one block walk the same branches of the tree; a self-query
reads that order from the index's own tree instead of building a second
one.  Large passes
hand whole blocks (tree query, exact distances, sort, tie test and the
writes of the block's rows) to ordered_map, the package's one thread pool;
every block writes only its own rows, and a row's result never depends on
its block, so the output is identical for any thread count and block order.

Both trees hold 64 points per leaf (_LEAF_SIZE), not scipy's 16: a wider
leaf scans more points but visits fewer nodes, which pays in the 10-D
self-queries that dominate a large fit; 1-D and 2-D queries lose up to
about 10% (sweep beside the constant).
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.spatial import cKDTree

# Tree candidates per row beyond k in the first window; rows whose k-th
# neighbor ties at its edge retry with the window doubled.
_TIE_PAD = 8
_ROW_CHUNK = 1024
# A block holds _ROW_CHUNK rows of the query's first window of kq
# locations while kq <= _BLOCK_WINDOW and d <= _BLOCK_DIMS, and fewer rows
# above either or in wider retries, so its (rows, kq, d) differences
# number at most _ROW_CHUNK x min(kq, _BLOCK_WINDOW) x _BLOCK_DIMS
# and its (rows, kq) arrays, and the lists it writes, at most _ROW_CHUNK x
# _BLOCK_WINDOW.  With _ROW_CHUNK rows at any d, a self-query of 4000
# standard-normal points at d=784, k=50 peaked at 1463 MiB (tracemalloc);
# at any window, a grid search over 2000 1-D points, whose table query
# then read all n - 1 neighbors, peaked at 320-326 MB RSS instead of 160 MB.
_BLOCK_DIMS = 16
_BLOCK_WINDOW = 128
# Elements of one (rows, kq, d) difference array (1 MiB): exact_distances
# forms a block's differences in row slices of at most this many, so the
# blocks in flight hold a few MiB of them, not tens.  The 20k x 10 blobs
# fit at k_d=100, s == n, peaked at 36.7 MiB (tracemalloc, three threads)
# with a whole block's differences at once and at 19.7 MiB in slices.
# Self-query time, one thread, median of 5 interleaved runs, 2-core
# x86_64, in slices of 2^15 / 2^16 / 2^17 / 2^18 elements / whole blocks:
#   20k 10-D blobs, k=100              1.09  1.17  1.14  1.23  1.19 s
#   20k 10-D blobs, k=15               0.73  0.59  0.55  0.60  0.58 s
#   2k normal points, d=784, k=50      1.97  1.82  1.99  2.18  2.15 s
_DIFF_ELEMENTS = 1 << 17
# Points per k-d tree leaf, for the index's tree and for the tree that puts
# query sites in leaf order.  Self-query at k=50 of 20k 10-D blobs (ten
# clusters, sd 0.3), 2-core x86_64: leaf size 16 took 0.60 s, 32 took
# 0.54 s, 64 took 0.47 s, 128 took 0.48 s.  20k standard-normal points at
# d=4, k=30: 0.19 s at 16, 0.16 s at 64.  At d <= 2, 64 ran from 16%
# faster to 2% slower on a 20k self-query at k=15 (two runs), and about 10%
# slower for 1-NN of 2k 1-D points against a subset and for 20k points
# against a 2k subsample at k=15.
_LEAF_SIZE = 64
# A query whose first window would hold at least this share of the
# locations takes a window of every location instead: past it, walking the
# tree for that many candidates costs more than sorting them all.  Tree time
# over whole-window time, self-query of standard-normal points with kq at a
# share of the n locations, one thread, min of 3-5 runs, 2-core x86_64:
#   share         0.10  0.15  0.20  0.25  0.30  0.40  0.60
#   d=1,  n=500   0.31  0.51  0.68  0.83  0.93  1.32  1.31
#   d=1,  n=2000  0.50  0.64  0.88  1.09  1.22  1.55  2.70
#   d=2,  n=500   0.39  0.58  0.67  1.12  0.72  1.24  2.47
#   d=2,  n=2000  0.41  0.52  0.77  0.96  0.93  1.41  1.72
#   d=10, n=500   0.58  0.65  0.88  1.10  1.30  1.51  1.89
#   d=10, n=2000  0.64  0.74  1.14  1.30  1.41  1.59  2.07
_WHOLE_WINDOW_SHARE = 0.25
# Window passes below this many candidates (rows x candidates per row) run
# their blocks inline on the calling thread: starting pool threads costs
# about 0.2 ms a call, more than small batches such as the grid's per-cell
# 1-NN assignments gain from them.
_PARALLEL_MIN_NEIGHBORS = 1 << 15


def worker_count():
    """Parallelism cap from BDMBC_THREADS (0 or unset = the CPUs this
    process may run on)."""
    raw = os.environ.get("BDMBC_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return value


def ordered_map(fn, items, workers=None):
    """Yield fn(item) for each item of a sequence, in item order: inline with
    one worker or one item, else on a pool of workers threads (default
    worker_count()) with at most 2 x workers calls pending or unread."""
    workers = workers or worker_count()
    if workers == 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        for item in items:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()


def _group_rows(x):
    """Distinct rows of a C-contiguous float64 matrix, keyed by their bytes
    and numbered in order of first occurrence.

    Returns (first row of each location, all rows grouped by location in
    ascending order within each group, start of each group, group sizes).
    Rows are sorted by a hash of their bytes, and neighbors in that order
    share a location when their bytes are equal.  Two locations may then
    hold equal rows (a hash collision, or +0.0 against -0.0); that only
    costs a second list for the same answer.
    """
    n = x.shape[0]
    bits = x.view(np.uint64)
    key = bits[:, 0]
    for column in range(1, bits.shape[1]):
        key = key * np.uint64(0x9E3779B97F4A7C15) + bits[:, column]
    order = np.argsort(key, kind="stable")
    key = key[order]
    same = np.flatnonzero(key[1:] == key[:-1])
    same = same[np.all(bits[order[same]] == bits[order[same + 1]], axis=1)]
    if same.size == 0:
        # every row is its own location
        ident = np.arange(n)
        return ident, ident, ident, np.ones_like(ident)
    new = np.ones(n, dtype=bool)
    new[same + 1] = False
    starts = np.flatnonzero(new)
    sizes = np.diff(starts, append=n)
    by_first = np.argsort(order[starts])
    starts, sizes = starts[by_first], sizes[by_first]
    return order[starts], order[_ranges(starts, sizes)], np.cumsum(sizes) - sizes, sizes


def _ranges(starts, sizes):
    """Concatenation of the ranges starts[i] .. starts[i] + sizes[i] - 1."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + sizes, sizes)


def exact_distances(points, queries, targets=None):
    """(m, kq) Euclidean distances from each query row to the rows of
    points that its row of targets names, default every row of points.

    The (rows, kq, d) differences are formed in row slices of at most
    _DIFF_ELEMENTS elements.  A distance is the same IEEE expression on the
    same operands whatever the slice, the shape of targets or the caller,
    so a distance recomputed from an index equals the k-NN query's own bit
    for bit.
    """
    kq = points.shape[0] if targets is None else targets.shape[1]
    out = np.empty((queries.shape[0], kq))
    step = max(_DIFF_ELEMENTS // (kq * points.shape[1]), 1)
    for lo in range(0, queries.shape[0], step):
        rows = queries[lo : lo + step, None, :]
        if targets is None:
            diff = points - rows
        else:
            # the gather is a fresh array, so subtracting in place leaves
            # one temporary instead of two
            diff = points[targets[lo : lo + step]]
            diff -= rows
        np.sqrt(np.einsum("ijk,ijk->ij", diff, diff), out=out[lo : lo + step])
        del diff  # before the next slice is formed beside it
    return out


class SpatialIndex:
    """Immutable exact k-NN index over a point matrix.

    Safe for concurrent queries after construction.
    """

    def __init__(self, points):
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("index requires an (n, d) matrix with n >= 1")
        self.points = pts
        self.n, self.d = pts.shape
        # locations are numbered by their lowest member; without duplicates
        # they are the points themselves
        self._lowest, self._members, self._starts, self._sizes = _group_rows(pts)
        self._locations = pts if self._lowest.size == self.n else pts[self._lowest]
        self._tree = cKDTree(self._locations, leafsize=_LEAF_SIZE)

    def query_bulk(self, queries, k, exclude=None, distances=True):
        """Exact k nearest neighbors for each query row.

        exclude: optional vector of dataset indices, one per query row,
        each omitted from its own row's list (self-exclusion by exact
        index); an entry outside [0, n) excludes nothing.
        Returns (indices, distances), each (m, k), ordered by the
        (distance, index) key.  Indices are int32 when n < 2**31, else
        int64; distances are float64.  With distances=False no distance
        array is kept or written, and the second entry is None.
        """
        self_query = queries is self.points
        queries = np.ascontiguousarray(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
        if not np.all(np.isfinite(queries)):
            raise ValueError("query rows contain NaN or Inf")
        m = queries.shape[0]
        limit = self.n - (1 if exclude is not None else 0)
        if not 1 <= k <= limit:
            raise ValueError(f"k={k} out of range [1, {limit}]")
        if exclude is not None:
            exclude = np.asarray(exclude, dtype=np.int64)
            if exclude.shape != (m,):
                raise ValueError(
                    f"exclude has shape {exclude.shape}, expected one entry per "
                    f"query row ({m},)"
                )
        # one list of kk members per distinct query location
        kk = k + (1 if exclude is not None else 0)
        if self_query:
            # the index's own locations are the query sites
            first, rows_by_loc, row_starts, row_sizes = (
                self._lowest, self._members, self._starts, self._sizes)
            sites = self._locations
        else:
            first, rows_by_loc, row_starts, row_sizes = _group_rows(queries)
            sites = queries if first.size == m else queries[first]
        kq = min(self._lowest.size, kk + _TIE_PAD)
        if kq >= _WHOLE_WINDOW_SHARE * self._lowest.size:
            kq = self._lowest.size
        # every window runs in blocks of at most budget (rows x kq x d)
        # elements, at most worker_count() blocks at a time
        budget = _ROW_CHUNK * min(kq, _BLOCK_WINDOW) * min(self.d, _BLOCK_DIMS)
        out_idx = np.empty((m, k), dtype=np.int32 if self.n < 2**31 else np.int64)
        out_dist = np.empty((m, k), dtype=np.float64) if distances else None

        def run_block(block):
            # one block of this pass's kq-wide window: writes only the rows at
            # its certified locations; returns the locations that must retry
            nbr, dist, tied = self._query_window(sites[block], kk, kq)
            done = block[~tied]
            rows = rows_by_loc[_ranges(row_starts[done], row_sizes[done])]
            owner = np.repeat(np.flatnonzero(~tied), row_sizes[done])
            chunk = max(_ROW_CHUNK * min(kk, _BLOCK_WINDOW) // kk, 1)
            for lo in range(0, rows.size, chunk):
                row, own = rows[lo : lo + chunk], owner[lo : lo + chunk]
                row_idx = nbr[own]
                keep = slice(None)
                if exclude is not None:
                    # each row drops its excluded index, or else the (k+1)-th
                    keep = row_idx != exclude[row, None]
                    keep[:, k] &= ~keep.all(axis=1)
                    row_idx = row_idx[keep].reshape(-1, k)
                out_idx[row] = row_idx
                if distances:
                    out_dist[row] = dist[own][keep].reshape(-1, k)
            return block[tied]

        pending = np.arange(first.size)
        if first.size * kq * self.d > budget:
            # the first pass spans several blocks: take the sites in k-d
            # leaf order, which the retries keep
            tree = self._tree if self_query else cKDTree(sites, leafsize=_LEAF_SIZE)
            pending = tree.indices
        while pending.size:
            step = max(budget // (kq * self.d), 1)
            blocks = [pending[lo : lo + step] for lo in range(0, pending.size, step)]
            workers = None if pending.size * kq >= _PARALLEL_MIN_NEIGHBORS else 1
            pending = np.concatenate(list(ordered_map(run_block, blocks, workers)))
            kq = min(self._lowest.size, 2 * kq)
        return out_idx, out_dist

    def _query_window(self, queries, kk, kq):
        """Exact kk-lists from a window of kq tree candidate locations per
        row, and the rows that must retry with a wider window.  A window of
        every location skips the tree walk."""
        whole = kq == self._lowest.size
        if not whole:
            edge, cand = self._tree.query(queries, kq)  # 1-D when kq == 1
            edge, cand = edge.reshape(len(queries), -1)[:, -1], cand.reshape(len(queries), -1)
            dist = exact_distances(self._locations, queries, cand)
        else:
            # a window of every location needs no tree walk, and its
            # candidates are the locations in order
            cand = np.broadcast_to(np.arange(kq), (len(queries), kq))
            edge = np.inf
            dist = exact_distances(self._locations, queries)
        # Locations are numbered in the order of their lowest members.  An
        # unstable sort by distance is exact unless a row holds equal
        # distances; only those rows need the (distance, location) sort, and
        # it leaves their sorted distances as they are.
        order = np.argsort(dist, axis=1)
        sorted_dist = np.take_along_axis(dist, order, axis=1)
        equal = np.flatnonzero(np.any(sorted_dist[:, 1:] == sorted_dist[:, :-1], axis=1))
        if equal.size:
            order[equal] = np.lexsort((cand[equal], dist[equal]))
        # a whole window's sorted candidates are the order itself
        cand = order if whole else np.take_along_axis(cand, order, axis=1)
        dist = sorted_dist
        # A row whose kk first locations by (distance, lowest member) are
        # single points takes them as its list: every other member sorts
        # after its location's lowest.  Without duplicates every row does.
        # When kq < kk the window holds all locations, fewer than n, so one
        # of them has copies and every row expands.
        multi = np.flatnonzero(np.any(self._sizes[cand[:, :kk]] > 1, axis=1))
        if multi.size < len(cand):
            nbr, head = self._lowest[cand[:, :kk]], dist[:, :kk]
            if multi.size:
                nbr[multi], head[multi] = self._expand(cand[multi], dist[multi], kk)
        else:
            nbr, head = self._expand(cand, dist, kk)
        # Locations outside the window are no closer than the tree's kq-th
        # distance (up to rounding); a kk-th neighbor that reaches it may tie
        # with a lower-index point outside, unless the window holds every
        # location.
        tied = head[:, kk - 1] >= edge * (1.0 - 1e-12)
        return nbr, head, tied & (not whole)

    def _expand(self, cand, dist, kk):
        """kk-lists of members from candidate locations sorted by (distance,
        lowest member): a location gives at most kk members, its lowest, and
        the list reaches no location farther than the one holding its kk-th
        member."""
        take = np.minimum(self._sizes[cand], kk)
        reach = np.cumsum(take, axis=1)
        edge = np.minimum(np.sum(reach < kk, axis=1), cand.shape[1] - 1)
        edge_dist = np.take_along_axis(dist, edge[:, None], axis=1)
        take[dist > edge_dist] = 0
        slots = take.sum(axis=1)
        members = self._members[_ranges(self._starts[cand.ravel()], take.ravel())]
        filled = np.arange(max(slots.max(), kk)) < slots[:, None]
        # a window short of kk members pads with (inf, n) and retries
        nbr = np.full(filled.shape, self.n, dtype=np.int64)
        nbr[filled] = members
        padded = np.full(filled.shape, np.inf)
        padded[filled] = np.repeat(dist.ravel(), take.ravel())
        # distances already rise along each row, so the (distance, index)
        # order is index order within each run of equal distance
        key = np.zeros(filled.shape, dtype=np.int64)
        np.cumsum(padded[:, 1:] != padded[:, :-1], axis=1, out=key[:, 1:])
        order = np.argsort(key * (self.n + 1) + nbr, axis=1, kind="stable")[:, :kk]
        return np.take_along_axis(nbr, order, axis=1), np.take_along_axis(padded, order, axis=1)
