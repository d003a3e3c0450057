"""Empirical probability of localized level sets and mode extraction.

A point's score is the fraction of its k_L nearest other points whose
bagged k-distance is greater than or equal to its own, so every score is
an exact multiple of 1/k_L in [0, 1].  Ties count toward the score; the
comparison is purely ordinal, so any strictly increasing transform of the
distances leaves scores unchanged.
"""

from __future__ import annotations

import numpy as np

from .data import _points

_CHUNK = 8192


def empirical_plls(ds, idx, bagged, k_l):
    """Score each point against its k_l nearest others (self excluded)."""
    points = _points(ds)
    n = points.shape[0]
    if not 1 <= k_l <= n - 1:
        raise ValueError(f"k_l={k_l} out of range [1, {n - 1}]")
    bagged = np.asarray(bagged, dtype=np.float64)
    if bagged.shape != (n,):
        raise ValueError(f"bagged distances have length {bagged.shape}, expected {n}")
    nbr, _ = idx.query_bulk(points, k_l, exclude=np.arange(n))
    return plls_from_neighbors(bagged, nbr)


def plls_from_neighbors(bagged, nbr):
    """Scores from each point's neighbor rows, nearest first, self excluded.

    nbr may be the leading k_l columns of a wider exact neighbor table: under
    the (distance, index) rule they are exactly the k_l-lists.
    """
    n, k_l = nbr.shape
    counts = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        counts[lo:hi] = (bagged[nbr[lo:hi]] >= bagged[lo:hi, None]).sum(axis=1)
    return counts / k_l


def mode_set(scores):
    """Indices scoring exactly 1; never empty (the argmin distance scores 1)."""
    return np.flatnonzero(np.asarray(scores) == 1.0)

