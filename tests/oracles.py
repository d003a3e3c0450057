"""Brute-force oracles shared by the test modules."""

import numpy as np


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
