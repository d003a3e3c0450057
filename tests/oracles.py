"""Brute-force oracles and hostile inputs shared by the test modules."""

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix

from bdmbc.knn import SpatialIndex


def dmbc_plls(points, k_d, k_l):
    """Non-bagged scores: plain k_d-distances, each point scored against its
    k_l nearest others.  Every pairwise distance is formed as the package
    forms it, and each row is sorted by (distance, index), self last."""
    points = np.asarray(points, dtype=np.float64)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")
    kdist = dist[np.arange(len(points)), order[:, k_d - 1]]
    return (kdist[order[:, :k_l]] >= kdist[:, None]).sum(axis=1) / k_l


def edge_graph(edges, n):
    """The (n, n) CSR graph of an (m, 2) edge array, one entry per edge,
    as connected_components and spanning_forest take it."""
    edges = np.asarray(edges)
    return csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))


def k_distances(idx, k):
    """Vector of k-distances for every indexed point (self excluded)."""
    _, dist = idx.query_bulk(idx.points, k, exclude=np.arange(idx.n))
    return dist[:, -1].copy()


def contingency_by_add_at(true_labels, pred_labels):
    """(classes, clusters) int64 counts, one unbuffered np.add.at per point,
    classes and clusters numbered in ascending label order."""
    _, ti = np.unique(np.asarray(true_labels), return_inverse=True)
    _, pi = np.unique(np.asarray(pred_labels), return_inverse=True)
    counts = np.zeros((ti.max() + 1, pi.max() + 1), dtype=np.int64)
    np.add.at(counts, (ti, pi), 1)
    return counts


def kuhn_munkres_by_trials(cost):
    """kuhn_munkres by trial solves: fix each row in turn to the first free
    column (or to none) whose trial keeps the optimal total, re-solving the
    free rows and columns for every trial.  Up to r*c solves."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError("cost must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost entries must be finite")
    r, c = cost.shape
    free_rows = np.ones(r, dtype=bool)
    free_cols = np.ones(c, dtype=bool)
    fixed_total = 0.0
    assign = {}
    # a trial's total may overflow to inf; it then just fails the test
    with np.errstate(over="ignore"):
        optimum = cost[linear_sum_assignment(cost)].sum()
        if not np.isfinite(optimum):
            raise ValueError("the optimal total is past the float range")
        tol = 1e-9 * max(1.0, abs(optimum))
        for row in range(r):
            if not free_cols.any():
                break
            free_rows[row] = False
            for col in np.flatnonzero(free_cols):
                free_cols[col] = False
                sub = cost[np.ix_(free_rows, free_cols)]
                total = fixed_total + cost[row, col] + sub[linear_sum_assignment(sub)].sum()
                if abs(total - optimum) <= tol:
                    assign[row] = int(col)
                    fixed_total += cost[row, col]
                    break
                free_cols[col] = True
    return assign


def finalize_by_tree(points, provisional, core_mask, min_cluster_size):
    """finalize without a neighbor table: dissolve undersized components,
    then one 1-NN query of every non-core point against an index over the
    surviving core points (numbered in ascending index order, so ties go to
    the lower index)."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    labels = np.asarray(provisional).copy()
    core_mask = np.asarray(core_mask).copy()
    member = np.flatnonzero(labels >= 0)
    small = np.bincount(labels[member]) < min_cluster_size
    dissolved = member[small[labels[member]]]
    labels[dissolved] = -1
    core_mask[dissolved] = False
    core = np.flatnonzero(core_mask)
    if core.size == 0:
        return np.zeros(n, dtype=np.int64), core_mask, 1
    ids = np.unique(labels[core])
    labels[core] = np.searchsorted(ids, labels[core])
    non_core = np.flatnonzero(~core_mask)
    if non_core.size:
        nearest, _ = SpatialIndex(points[core]).query_bulk(points[non_core], 1)
        labels[non_core] = labels[core[nearest[:, 0]]]
    num = len(ids)
    sizes = np.bincount(labels, minlength=num)
    first_member = np.full(num, n, dtype=np.int64)
    np.minimum.at(first_member, labels, np.arange(n))
    order = np.lexsort((first_member, -sizes))
    rank = np.empty(num, dtype=np.int64)
    rank[order] = np.arange(num)
    return rank[labels], core_mask, num


def pairwise_order(points):
    """Oracle: (order, sorted_dist), both (n, n).  order[i] lists the points
    by (distance to point i, index), with i itself parked last at distance
    inf; sorted_dist[i] holds those distances."""
    n = points.shape[0]
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    order = np.lexsort((np.broadcast_to(np.arange(n), (n, n)), dist))
    return order, np.take_along_axis(dist, order, axis=1)


def hostile_set(rng, kind, n, d):
    """Seeded points full of exact ties: copies of a few rows, +0.0 beside
    -0.0, a 0.25 lattice, or that lattice at an offset of 1e7."""
    if kind == "duplicates":
        return rng.random((max(n // 4, 1), d))[rng.integers(max(n // 4, 1), size=n)]
    if kind == "signed-zero":
        return rng.choice(np.array([-0.0, 0.0, 0.5, 1.0]), size=(n, d))
    if kind == "lattice":
        return np.round(rng.random((n, d)) * 4) / 4
    if kind == "offset":
        return 1e7 + np.round(rng.random((n, d)) * 8) / 4
    return rng.random((n, d))
