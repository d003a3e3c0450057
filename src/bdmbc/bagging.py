"""Subsampled k-distance averaging and its exact infinite-round limit.

Each bagging round draws its subsample without replacement from an
independent Philox stream keyed (seed, round), so rounds are reproducible
and order-independent.  Rounds are averaged in fixed round order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import _points, _rng
from .knn import SpatialIndex, k_distances

# Up to this size one exact (distance, index) order of every pair serves all
# bagging rounds, and its leading columns are the fit's neighbor table; above
# it, per-round scans respect the complexity budget.
_RANK_TABLE_MAX_N = 2048
# Element budget of _pairwise_order's (rows, n, d) difference blocks.  It
# also sets the groups in which rounds are summed, _CHUNK_ELEMENTS // (n * s)
# rounds (at most 4000): each group's total first, then the running total.
# The grouping fixes the floating-point order of the average.
_CHUNK_ELEMENTS = 5_000_000
# (point, round) member counters advanced together, over whole summing
# groups of rounds: few enough to stay cache-resident
_ROUND_BLOCK = 1 << 18


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
            raise ValueError(
                f"k_d must be smaller than subsample size (k_d={self.k_d}, s={self.s})"
            )


def subsample(n, s, rng):
    """s distinct indices drawn uniformly without replacement."""
    if not 1 <= s <= n:
        raise ValueError(f"s={s} out of range [1, {n}]")
    return rng.choice(n, size=s, replace=False)


def _pairwise_order(points):
    """Every point's neighbors in (distance, index) order, itself last.

    Returns (sorted_dist, order), both (n, n).  order[i] lists the points by
    distance to point i, ties by index, with i itself parked at position
    n-1 (distance inf); sorted_dist[i] holds those distances.  So
    order[:, :k] and sorted_dist[:, :k] are the exact self-excluded k-NN
    table, equal bit for bit to SpatialIndex.query_bulk(points, k,
    exclude=arange(n)), which computes its distances the same way.
    """
    n, d = points.shape
    dist = np.empty((n, n))
    step = max(_CHUNK_ELEMENTS // (n * d), 1)
    for lo in range(0, n, step):
        diff = points[lo : lo + step, None, :] - points[None, :, :]
        np.sqrt(np.einsum("ijk,ijk->ij", diff, diff), out=dist[lo : lo + step])
    np.fill_diagonal(dist, np.inf)
    # an unstable sort is several times faster than a stable one; only rows
    # holding equal distances need the stable sort's index order
    order = np.argsort(dist, axis=1)
    sorted_dist = np.take_along_axis(dist, order, axis=1)
    tied = np.flatnonzero(np.any(sorted_dist[:, 1:] == sorted_dist[:, :-1], axis=1))
    if tied.size:
        order[tied] = np.argsort(dist[tied], axis=1, kind="stable")
    return sorted_dist, order


def _rounds_order(points, sizes):
    """_pairwise_order(points) when bagging at one of the subsample sizes
    reads it (n <= _RANK_TABLE_MAX_N and s < n), else None."""
    n = points.shape[0]
    if n <= _RANK_TABLE_MAX_N and any(s < n for s in sizes):
        return _pairwise_order(points)
    return None


def _count_members(hits_at, positions, count, pos, k_d):
    """Advance member counts over order positions, in place.

    hits_at(j) flags, per counter, whether position j holds a subsample
    member; pos counts the positions passed before the k_d-th member.
    """
    for j in positions:
        count += hits_at(j)
        pos += count < k_d
        if j % 16 == 15 and count.min() >= k_d:
            break  # every counter is done: later positions add nothing


def _bagged_rank_table(pairwise, plan):
    """All rounds from one pairwise order; exact, vectorized over rounds.

    In a round, point i's k_d-distance is sorted_dist[i, p], where p is the
    position of the k_d-th subsample member along order[i] (i itself sits
    last, so it never counts).  Members are counted position by position for
    every (point, round) pair at once, over a short window of about twice
    the expected position; pairs still short of k_d members then continue
    alone up to position k_d + n - s, by which k_d members have passed,
    since only n - s points lie outside the subsample.
    """
    sorted_dist, order = pairwise
    n = order.shape[0]
    k_d = plan.k_d
    full = min(n - 1, k_d + n - plan.s)
    short = min(full, 2 * -(-k_d * n // plan.s) + 16)
    chunk = min(max(_CHUNK_ELEMENTS // (n * plan.s), 1), 4000)
    block = chunk * max(_ROUND_BLOCK // (n * chunk), 1)
    rows = np.arange(n)[:, None]
    total = np.zeros(n)
    for start in range(0, plan.b, block):
        stop = min(start + block, plan.b)
        # int16 like the counters (n < 2**15), so counts add without casting
        member = np.zeros((n, stop - start), dtype=np.int16)
        for b in range(start, stop):
            member[subsample(n, plan.s, _rng(plan.seed, b)), b - start] = 1
        count = np.zeros_like(member)
        pos = np.zeros_like(member)
        _count_members(lambda j: member[order[:, j]], range(short), count, pos, k_d)
        left, rounds = np.nonzero(count < k_d)
        if left.size:
            left_count, left_pos = count[left, rounds], pos[left, rounds]
            _count_members(lambda j: member[order[left, j], rounds],
                           range(short, full), left_count, left_pos, k_d)
            pos[left, rounds] = left_pos
        kth = sorted_dist[rows, pos]
        for lo in range(0, stop - start, chunk):
            # cumsum adds rounds in order; sum's order would follow the layout
            total += np.cumsum(kth[:, lo : lo + chunk], axis=1)[:, -1]
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
    # Exclusion works in subsample coordinates: each global point maps to
    # its subsample position, or to -1 (excluding nothing) if absent.
    pos = np.full(points.shape[0], -1, dtype=np.int64)
    pos[sub] = np.arange(len(sub))
    _, dist = SpatialIndex(points[sub]).query_bulk(points, k_d, exclude=pos)
    return dist[:, -1]


def _bagged_per_round(points, plan):
    """One subsample scan per round; brute force when the subsample is small."""
    n = points.shape[0]
    one_round = _round_brute if plan.s <= _BRUTE_SUBSAMPLE_MAX_S else _round_tree
    total = np.zeros(n)
    for b in range(plan.b):
        sub = subsample(n, plan.s, _rng(plan.seed, b))
        total += one_round(points, sub, plan.k_d)
    return total / plan.b


def bagged_k_distance(ds, plan, pairwise=None):
    """Average k_d-distance over B subsamples of size s (one value per point).

    A point inside a round's subsample is excluded from its own neighbor
    list there.  The degenerate plan (B=1, s=n) equals the plain
    k-distance bit for bit.  Where _rounds_order builds one, the rounds read
    the points' pairwise order: pass pairwise=_pairwise_order(points) to
    share one with other stages, or it is built here.
    """
    points = _points(ds)
    n = points.shape[0]
    plan.validate(n)
    if plan.s == n:
        # Every round sees the full data, so the average is the plain
        # k-distance regardless of B.
        if pairwise is not None:
            return pairwise[0][:, plan.k_d - 1].copy()
        return k_distances(SpatialIndex(points), plan.k_d)
    if pairwise is None:
        pairwise = _rounds_order(points, [plan.s])
    if pairwise is not None:
        return _bagged_rank_table(pairwise, plan)
    return _bagged_per_round(points, plan)


def _weight_block(n, s, ks):
    """(len(ks), n-s+1) weights over the support ranks k..n-s+k per row.

    Consecutive weights differ by w(i+1)/w(i) = i (n-i-s+k) / ((i-k+1) (n-i)),
    a ratio of integers exact in float64.  Its logs rise up to the row's mode
    and fall after it, so each log row is summed outward from the mode, which
    keeps the partial sums small where the weights are large; the row is then
    exponentiated and divided by its sum (exactly 1 in exact arithmetic).
    """
    k = np.asarray(ks, dtype=np.float64)[:, None]
    t = np.arange(n - s, dtype=np.float64)  # step from rank i = k+t to i+1
    step = np.log((k + t) * (n - s - t) / ((t + 1) * (n - k - t)))
    logw = np.zeros((k.shape[0], n - s + 1))
    logw[:, 1:] = np.cumsum(np.minimum(step, 0.0), axis=1)
    logw[:, :-1] -= np.cumsum(np.maximum(step, 0.0)[:, ::-1], axis=1)[:, ::-1]
    w = np.exp(logw)
    return w / w.sum(axis=1, keepdims=True)


def bagging_weights(n, s, k):
    """Probability that the rank-i overall neighbor is the subsample's k-th.

    Entry i-1 (zero-based) holds the weight of overall rank i; support is
    k <= i <= n-s+k.  Plain float64 recurrence (see _weight_block): finite
    and normalized up to n ~ 1e6, with about 1e-14 relative error in the
    bulk of the row on every platform.
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
    points = _points(ds)
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
    points = _points(ds)
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
