"""Brute-force oracles shared by the test modules."""

import numpy as np

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
