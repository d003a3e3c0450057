"""Exact k-nearest-neighbor queries with deterministic tie-breaking.

Candidate neighbors come from a k-d tree; final distances are recomputed
with numpy and every neighbor list is ordered by the composite key
(Euclidean distance, point index).  A row whose k-th neighbor ties at the
edge of its candidate window is queried again with a window twice as wide,
until the window certifies it or holds every point, so results always agree
with brute force and cost grows with the tied shell, not with n.

Each window pass runs in row blocks.  Large passes hand whole blocks (tree
query, exact distances, sort and tie test) to a thread pool of
worker_count() threads created for that query; every block writes only its
own rows, and a row's result never depends on its block, so the output is
identical for any thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.spatial import cKDTree

# Tree candidates per row beyond k in the first window; rows whose k-th
# neighbor ties at its edge retry with the window doubled.
_TIE_PAD = 8
_ROW_CHUNK = 1024
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
        self._tree = cKDTree(pts)

    def _exact_distances(self, queries, neighbor_idx):
        diff = self.points[neighbor_idx] - queries[:, None, :]
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    def query_bulk(self, queries, k, exclude=None):
        """Exact k nearest neighbors for each query row.

        exclude: optional vector of dataset indices, one per query row,
        each omitted from its own row's list (self-exclusion by exact
        index); an entry outside [0, n) excludes nothing.
        Returns (indices, distances), each (m, k), ordered by the
        (distance, index) key.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
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
        kq = min(self.n, k + (1 if exclude is not None else 0) + _TIE_PAD)
        # every window runs in row blocks within the first window's rows x kq,
        # at most worker_count() blocks at a time
        budget = _ROW_CHUNK * kq
        out_idx = np.empty((m, k), dtype=np.int64)
        out_dist = np.empty((m, k), dtype=np.float64)

        def run_block(block, kq):
            # writes only this block's rows; returns those that must retry
            exc = exclude[block] if exclude is not None else None
            out_idx[block], out_dist[block], tied = self._query_window(
                queries[block], k, exc, kq
            )
            return block[tied]

        rows = np.arange(m)
        pool = None
        try:
            while rows.size:
                step = max(budget // kq, 1)
                blocks = [rows[lo : lo + step] for lo in range(0, rows.size, step)]
                workers = worker_count() if rows.size * kq >= _PARALLEL_MIN_NEIGHBORS else 1
                if workers > 1 and len(blocks) > 1:
                    if pool is None:
                        pool = ThreadPoolExecutor(workers)
                    retry = list(pool.map(run_block, blocks, [kq] * len(blocks)))
                else:
                    retry = [run_block(block, kq) for block in blocks]
                rows = np.concatenate(retry)
                kq = min(self.n, 2 * kq)
        finally:
            if pool is not None:
                pool.shutdown()
        return out_idx, out_dist

    def _query_window(self, queries, k, exclude, kq):
        """Exact k-lists from a window of kq tree candidates per row, and
        the rows that must retry with a wider window."""
        tree_dist, cand = self._tree.query(queries, kq)
        if kq == 1:
            tree_dist = tree_dist[:, None]
            cand = cand[:, None]
        dist = self._exact_distances(queries, cand)
        if exclude is not None:
            dist[cand == exclude[:, None]] = np.inf
        order = np.lexsort((cand, dist))[:, :k]
        cand = np.take_along_axis(cand, order, axis=1)
        dist = np.take_along_axis(dist, order, axis=1)
        # Points outside the window are no closer than the tree's kq-th
        # distance (up to rounding); a k-th neighbor that reaches it may
        # tie with a lower-index point outside, unless the window holds all n.
        tied = dist[:, k - 1] >= tree_dist[:, -1] * (1.0 - 1e-12)
        return cand, dist, tied & (kq < self.n)


def k_distances(idx, k):
    """Vector of k-distances for every indexed point (self excluded)."""
    _, dist = idx.query_bulk(idx.points, k, exclude=np.arange(idx.n))
    return dist[:, -1].copy()
