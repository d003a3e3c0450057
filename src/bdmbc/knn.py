"""Exact k-nearest-neighbor queries with deterministic tie-breaking.

Candidate neighbors come from a k-d tree; final distances are recomputed
with numpy and every neighbor list is ordered by the composite key
(Euclidean distance, point index).  Rows whose candidate window cannot be
certified to contain the exact answer (boundary ties) fall back to a full
scan, so results always agree with brute force.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

_TIE_PAD = 8
_ROW_CHUNK = 4096
# Tree queries below this many candidates (rows x candidates per row) run
# on one thread: starting workers costs about 0.2 ms a call, more than small
# batches such as the grid's per-cell 1-NN assignments gain from them.
_PARALLEL_MIN_NEIGHBORS = 1 << 15


def worker_count():
    """Parallelism cap from BDMBC_THREADS (0 or unset = auto)."""
    raw = os.environ.get("BDMBC_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        return os.cpu_count() or 1
    return value


@dataclass(frozen=True)
class NeighborList:
    """Neighbors of one query, ascending by (distance, index)."""

    indices: np.ndarray
    distances: np.ndarray

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(zip(self.indices.tolist(), self.distances.tolist()))


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

    def _brute_rows(self, queries, k, exclude):
        """Full-scan fallback; exact under the (distance, index) tie rule."""
        diff = self.points[None, :, :] - queries[:, None, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        if exclude is not None:
            dist[np.arange(len(queries)), exclude] = np.inf
        order = np.lexsort((np.broadcast_to(np.arange(self.n), dist.shape), dist))
        idx = order[:, :k]
        return idx, np.take_along_axis(dist, idx, axis=1)

    def query_bulk(self, queries, k, exclude=None):
        """Exact k nearest neighbors for each query row.

        exclude: optional vector of dataset indices (one per row) omitted
        from their own neighbor lists (self-exclusion by exact index).
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
        out_idx = np.empty((m, k), dtype=np.int64)
        out_dist = np.empty((m, k), dtype=np.float64)
        for lo in range(0, m, _ROW_CHUNK):
            hi = min(lo + _ROW_CHUNK, m)
            exc = exclude[lo:hi] if exclude is not None else None
            idx, dist = self._query_chunk(queries[lo:hi], k, exc)
            out_idx[lo:hi] = idx
            out_dist[lo:hi] = dist
        return out_idx, out_dist

    def _query_chunk(self, queries, k, exclude):
        k_eff = k + (1 if exclude is not None else 0)
        kq = min(self.n, k_eff + _TIE_PAD)
        workers = worker_count() if len(queries) * kq >= _PARALLEL_MIN_NEIGHBORS else 1
        tree_dist, cand = self._tree.query(queries, kq, workers=workers)
        if kq == 1:
            tree_dist = tree_dist[:, None]
            cand = cand[:, None]
        dist = self._exact_distances(queries, cand)
        if exclude is not None:
            dist[cand == exclude[:, None]] = np.inf
        order = np.lexsort((cand, dist))
        cand = np.take_along_axis(cand, order, axis=1)
        dist = np.take_along_axis(dist, order, axis=1)
        if kq < self.n:
            # Points outside the window are no closer than the tree's kq-th
            # distance (up to rounding); ties there require a full scan.
            unsafe = dist[:, k - 1] >= tree_dist[:, -1] * (1.0 - 1e-12)
            if np.any(unsafe):
                rows = np.flatnonzero(unsafe)
                bidx, bdist = self._brute_rows(
                    queries[rows], k, exclude[rows] if exclude is not None else None
                )
                cand[rows, :k] = bidx
                dist[rows, :k] = bdist
        return cand[:, :k], dist[:, :k]


def build_index(ds):
    """Index a Dataset (or raw point matrix) for exact k-NN queries."""
    pts = ds.points if hasattr(ds, "points") else ds
    return SpatialIndex(pts)


def knn_query(idx, x, k, exclude_index=None):
    """k nearest neighbors of a single point under the tie rule.

    exclude_index identifies x as that dataset member and omits it.
    """
    exc = None if exclude_index is None else np.array([exclude_index], dtype=np.int64)
    nbr, dist = idx.query_bulk(np.asarray(x, dtype=np.float64)[None, :], k, exclude=exc)
    return NeighborList(nbr[0], dist[0])


def k_distance(idx, point_index, k):
    """Distance from a dataset member to its k-th nearest other point."""
    nl = knn_query(idx, idx.points[point_index], k, exclude_index=point_index)
    return float(nl.distances[-1])


def k_distances(idx, k):
    """Vector of k-distances for every indexed point (self excluded)."""
    _, dist = idx.query_bulk(idx.points, k, exclude=np.arange(idx.n))
    return dist[:, -1].copy()
