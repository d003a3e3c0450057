"""Subsampled k-distance averaging and its exact infinite-round limit.

Each bagging round draws its subsample without replacement from an
independent Philox stream keyed (seed, round), so rounds are reproducible
and order-independent.  Rounds are averaged in fixed round order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .knn import SpatialIndex, k_distances

# Below this size a precomputed neighbor-rank table makes thousands of
# rounds cheap; above it, per-round trees respect the complexity budget.
_RANK_TABLE_MAX_N = 2048
# per-chunk element budget for the (n, rounds, s) rank block; keeping the
# block cache-resident beats fewer, larger gathers
_CHUNK_ELEMENTS = 5_000_000


@dataclass(frozen=True)
class BaggingPlan:
    """Rounds B, subsample size s, neighbor count k_d, and base seed."""

    b: int
    s: int
    k_d: int
    seed: int = 0

    def validate(self, n):
        if self.b < 1:
            raise ValueError("b must be >= 1")
        if not 1 <= self.s <= n:
            raise ValueError(f"s={self.s} out of range [1, {n}]")
        if not 1 <= self.k_d <= self.s - 1:
            raise ValueError(f"k_d={self.k_d} must satisfy 1 <= k_d < s={self.s}")


def _round_rng(seed, round_index):
    return np.random.Generator(np.random.Philox(key=[seed, round_index]))


def subsample(n, s, rng):
    """s distinct indices drawn uniformly without replacement."""
    if not 1 <= s <= n:
        raise ValueError(f"s={s} out of range [1, {n}]")
    return rng.choice(n, size=s, replace=False)


def _pairwise_order(points):
    """Per-point neighbor order, rank table, and sorted distances.

    rank[i, j] is the position of j in i's (distance, index)-sorted
    neighbor list; rank[i, i] is parked past every real neighbor.
    """
    n = points.shape[0]
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    order = np.lexsort((np.broadcast_to(np.arange(n), (n, n)), dist))
    sorted_dist = np.take_along_axis(dist, order, axis=1)
    rank = np.empty((n, n), dtype=np.int32)
    np.put_along_axis(rank, order, np.arange(n, dtype=np.int32)[None, :], axis=1)
    return sorted_dist, rank


def _bagged_rank_table(points, plan):
    """All rounds via the rank table; exact, vectorized over rounds."""
    n = points.shape[0]
    sorted_dist, rank = _pairwise_order(points)
    total = np.zeros(n)
    rows = np.arange(n)[:, None]
    chunk = min(max(_CHUNK_ELEMENTS // (n * plan.s), 1), 4000)
    for start in range(0, plan.b, chunk):
        stop = min(start + chunk, plan.b)
        subs = np.stack(
            [subsample(n, plan.s, _round_rng(plan.seed, b)) for b in range(start, stop)]
        )
        # (n, rounds, s) ranks of each subsample member in each point's order;
        # a point's own rank is n-1 (diagonal inf) so self-exclusion is free.
        r = rank[:, subs.reshape(-1)].reshape(n, stop - start, plan.s)
        kth = np.partition(r, plan.k_d - 1, axis=2)[:, :, plan.k_d - 1]
        total += sorted_dist[rows, kth].sum(axis=1)
    return total / plan.b


# Against subsamples this small, a dense distance matrix beats per-query
# tree traversal; only the k_d-th distance value is needed, so partitioning
# squared distances is exact (ties share the same distance).
_BRUTE_SUBSAMPLE_MAX_S = 1024
# Per-block budget of a brute-force round, in rows x s x d multiply-adds:
# the (rows, s) distance block stays cache-resident.
_BRUTE_BLOCK_FLOPS = 1 << 19


def _round_brute(points, sub, k_d):
    n = points.shape[0]
    sub_pts = points[sub]
    in_sub = np.full(n, -1, dtype=np.int64)
    in_sub[sub] = np.arange(len(sub))
    sq_sub = np.einsum("ij,ij->i", sub_pts, sub_pts)
    out = np.empty(n)
    chunk = max(_BRUTE_BLOCK_FLOPS // sub_pts.size, 2)
    bounds = list(range(0, n, chunk)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        # BLAS takes a one-row block through its matrix-vector product,
        # which rounds differently and would split duplicate points' values
        del bounds[-2]
    for lo, hi in zip(bounds, bounds[1:]):
        block = points[lo:hi]
        d2 = np.einsum("ij,ij->i", block, block)[:, None] + sq_sub[None, :]
        d2 -= 2.0 * (block @ sub_pts.T)
        np.maximum(d2, 0.0, out=d2)  # cancellation can leave tiny negatives
        pos = in_sub[lo:hi]
        has_self = pos >= 0
        d2[np.flatnonzero(has_self), pos[has_self]] = np.inf
        out[lo:hi] = np.partition(d2, k_d - 1, axis=1)[:, k_d - 1]
    return np.sqrt(out)


def _round_tree(points, sub, k_d):
    n = points.shape[0]
    s = len(sub)
    sub_index = SpatialIndex(points[sub])
    # Exclusion works in subsample coordinates: map each global point
    # to its subsample position, or to an unused slot if absent.
    pos = np.full(n, s, dtype=np.int64)
    pos[sub] = np.arange(s)
    k_eff = min(k_d + 1, s)
    idx, dist = sub_index.query_bulk(points, k_eff)
    is_self = idx == pos[:, None]
    dist = np.where(is_self, np.inf, dist)
    dist.sort(axis=1)
    return dist[:, k_d - 1]


def _bagged_per_round(points, plan):
    """One subsample scan per round; brute force when the subsample is small."""
    n = points.shape[0]
    one_round = _round_brute if plan.s <= _BRUTE_SUBSAMPLE_MAX_S else _round_tree
    total = np.zeros(n)
    for b in range(plan.b):
        sub = subsample(n, plan.s, _round_rng(plan.seed, b))
        total += one_round(points, sub, plan.k_d)
    return total / plan.b


def bagged_k_distance(ds, plan, index=None):
    """Average k_d-distance over B subsamples of size s (one value per point).

    A point inside a round's subsample is excluded from its own neighbor
    list there.  The degenerate plan (B=1, s=n) equals the plain
    k-distance bit for bit.
    """
    points = ds.points if hasattr(ds, "points") else np.asarray(ds, dtype=np.float64)
    n = points.shape[0]
    plan.validate(n)
    if plan.s == n:
        # Every round sees the full data, so the average is the plain
        # k-distance regardless of B.
        idx = index if index is not None else SpatialIndex(points)
        return k_distances(idx, plan.k_d)
    if n <= _RANK_TABLE_MAX_N:
        return _bagged_rank_table(points, plan)
    return _bagged_per_round(points, plan)


_LOG_FACT_DTYPE = np.longdouble
_log_fact_table = np.zeros(1, dtype=_LOG_FACT_DTYPE)


def _log_factorials(upto):
    """Cached [log 0!, ..., log upto!] in extended precision.

    A cumulative sum keeps the errors of nearby entries correlated, so the
    short-range differences in the weight formula stay accurate even for
    n around 1e6.
    """
    global _log_fact_table
    if len(_log_fact_table) <= upto:
        logs = np.log(np.arange(1, upto + 1, dtype=_LOG_FACT_DTYPE))
        _log_fact_table = np.concatenate(
            [np.zeros(1, dtype=_LOG_FACT_DTYPE), np.cumsum(logs)]
        )
    return _log_fact_table


def _weight_block(n, s, ks):
    """(len(ks), n-s+1) weights over the support ranks k..n-s+k per row."""
    lf = _log_factorials(n)
    ks = np.asarray(ks, dtype=np.int64)[:, None]
    i = ks + np.arange(n - s + 1, dtype=np.int64)[None, :]
    logp = (
        lf[i - 1] - lf[ks - 1] - lf[i - ks]
        + lf[n - i] - lf[s - ks] - lf[n - i - s + ks]
        - (lf[n] - lf[s] - lf[n - s])
    )
    return np.exp(logp).astype(np.float64)


def bagging_weights(n, s, k):
    """Probability that the rank-i overall neighbor is the subsample's k-th.

    Entry i-1 (zero-based) holds the weight of overall rank i; support is
    k <= i <= n-s+k.  Computed in log space from a cached log-factorial
    table, so it stays finite and normalized up to n ~ 1e6.
    """
    if not 1 <= k <= s <= n:
        raise ValueError(f"need 1 <= k <= s <= n, got k={k}, s={s}, n={n}")
    p = np.zeros(n)
    p[k - 1 : n - s + k] = _weight_block(n, s, [k])[0]
    return p


def bagging_weight_table(n, s, ks=None):
    """Weight vectors for several k at once, sharing one log-space pass.

    Returns (ks, matrix) where matrix[j] has length n-s+1 and holds the
    support k..n-s+k of bagging_weights(n, s, ks[j]).
    """
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    if ks is None:
        ks = np.arange(1, s + 1)
    ks = np.asarray(ks, dtype=np.int64)
    if ks.size == 0 or ks.min() < 1 or ks.max() > s:
        raise ValueError("every k must lie in [1, s]")
    return ks, _weight_block(n, s, ks)


def infinite_bagged_k_distance(ds, s, k):
    """Exact expectation of the bagged k-distance over all subsamples.

    Each point's value is the weight-averaged distance to its rank-i
    neighbors among the other n-1 points, with weights over population
    n-1 and sample size min(s, n-1) (self excluded).  O(n^2); intended
    for moderate n and as the Monte-Carlo oracle.
    """
    points = ds.points if hasattr(ds, "points") else np.asarray(ds, dtype=np.float64)
    n = points.shape[0]
    s_eff = min(s, n - 1)
    if not 1 <= k <= s_eff:
        raise ValueError(f"need 1 <= k <= min(s, n-1), got k={k}, s={s}, n={n}")
    sorted_dist, _ = _pairwise_order(points)
    w = bagging_weights(n - 1, s_eff, k)
    return sorted_dist[:, : n - 1] @ w


def unit_ball_volume(d):
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def hypothetical_density(ds, s, k, bagged):
    """Density values implied by bagged k-distances through the weighted
    k-NN formula; inversely monotone in the bagged distance."""
    points = ds.points if hasattr(ds, "points") else np.asarray(ds, dtype=np.float64)
    n, d = points.shape
    bagged = np.asarray(bagged, dtype=np.float64)
    zeros = np.flatnonzero(bagged <= 0)
    if zeros.size:
        raise ValueError(
            f"bagged distance is zero at point {zeros[0]} (coincident points); "
            "density is undefined there"
        )
    n_eff = n - 1
    s_eff = min(s, n_eff)
    w = bagging_weights(n_eff, s_eff, k)
    # Ranks run over the other points, but the expected-radius term keeps
    # the full-sample fraction i/n so the degenerate (s=n) case collapses
    # to the plain k-NN density k/n / (V_d R_k^d).
    i = np.arange(1, n_eff + 1)
    radius_term = float(w @ (i / n) ** (1.0 / d))
    return radius_term**d / (unit_ball_volume(d) * bagged**d)
