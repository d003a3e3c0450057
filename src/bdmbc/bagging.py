"""Subsampled k-distance averaging and its exact infinite-round limit.

Each bagging round draws its subsample without replacement from an
independent Philox stream keyed (seed, round), so rounds are reproducible
and order-independent.  Rounds are averaged in fixed round order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import _points, _rng
from .knn import SpatialIndex, worker_count

# Up to this size one exact self-excluded k-NN table of all n - 1 others
# serves all bagging rounds; above it, per-round scans respect the
# complexity budget.
_RANK_TABLE_MAX_N = 2048
# Rank-table rounds are summed in groups of _CHUNK_ELEMENTS // (n * s)
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
        if self.k_d < 1:
            raise ValueError(f"k_d must be >= 1 (k_d={self.k_d})")
        if self.k_d >= self.s:
            raise ValueError(
                f"k_d must be smaller than subsample size (k_d={self.k_d}, s={self.s})"
            )


def subsample(n, s, rng):
    """s distinct indices drawn uniformly without replacement."""
    if not 1 <= s <= n:
        raise ValueError(f"s={s} out of range [1, {n}]")
    return rng.choice(n, size=s, replace=False)


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


def _bagged_rank_table(table, plan):
    """All rounds from one k-NN table; exact, vectorized over rounds.

    table is the (indices, distances) of the self-excluded (n - 1)-NN
    query.  In a round, point i's k_d-distance is distances[i, p], where p
    is the position of the k_d-th subsample member along indices[i] (i
    itself is absent, so it never counts).  Members are counted position by
    position for every (point, round) pair at once, over a short window of
    about twice the expected position; pairs still short of k_d members then
    continue alone up to position k_d + n - s, by which k_d members have
    passed, since only n - s points lie outside the subsample.
    """
    order, sorted_dist = table
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
    sq_pts = np.einsum("ij,ij->i", points, points)
    sq_sub = np.einsum("ij,ij->i", sub_pts, sub_pts)
    out = np.empty(n)
    chunk = max(_BRUTE_BLOCK_FLOPS // sub_pts.size, 2)
    bounds = list(range(0, n, chunk)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        # BLAS takes a one-row block through its matrix-vector product,
        # which rounds differently and would split duplicate points' values
        del bounds[-2]
    # every block reuses one pair of buffers (the last block may hold
    # chunk + 1 rows); fresh ones cost more than the arithmetic
    d2_buf = np.empty((chunk + 1, len(sub)))
    prod_buf = np.empty_like(d2_buf)
    for lo, hi in zip(bounds, bounds[1:]):
        d2, prod = d2_buf[: hi - lo], prod_buf[: hi - lo]
        np.add(sq_pts[lo:hi, None], sq_sub[None, :], out=d2)
        np.matmul(points[lo:hi], sub_pts.T, out=prod)
        prod *= 2.0
        d2 -= prod
        pos = in_sub[lo:hi]
        has_self = pos >= 0
        d2[np.flatnonzero(has_self), pos[has_self]] = np.inf
        d2.partition(k_d - 1, axis=1)
        out[lo:hi] = d2[:, k_d - 1]
    # cancellation can leave tiny negatives; clamping keeps the order, so
    # clamping the selected value equals selecting among clamped ones
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out)


def _round_tree(points, sub, k_d):
    # Exclusion works in subsample coordinates: each global point maps to
    # its subsample position, or to -1 (excluding nothing) if absent.
    pos = np.full(points.shape[0], -1, dtype=np.int64)
    pos[sub] = np.arange(len(sub))
    _, dist = SpatialIndex(points[sub]).query_bulk(points, k_d, exclude=pos)
    return dist[:, -1]


def _bagged_per_round(points, plan):
    """One subsample scan per round; brute force when the subsample is small.

    Brute-force rounds run worker_count() at a time on a thread pool, and at
    most one wave of them is held at a time.  Tree rounds run on the calling
    thread: their query has a pool of its own, and on a pool thread here the
    quantized-ties fit took 2 MB more peak memory.  The total adds the
    rounds in round order.
    """
    n = points.shape[0]
    brute = plan.s <= _BRUTE_SUBSAMPLE_MAX_S
    one_round = _round_brute if brute else _round_tree
    if brute:
        # Brute rounds form |x|^2 + |y|^2 - 2 x.y, which cancels when the
        # coordinates are large next to neighbor distances: at an offset of
        # 1.7e9 every k-distance came out 0.  Centred, they match the tree
        # rounds on the offset data.
        points = points - points.mean(axis=0)

    def run(b):
        return one_round(points, subsample(n, plan.s, _rng(plan.seed, b)), plan.k_d)

    total = np.zeros(n)
    if brute:
        workers = worker_count()
        with ThreadPoolExecutor(workers) as pool:
            for lo in range(0, plan.b, workers):
                for values in pool.map(run, range(lo, min(lo + workers, plan.b))):
                    total += values
    else:
        for b in range(plan.b):
            total += run(b)
    return total / plan.b


def _table_width(n, plans):
    """Columns of the self-excluded k-NN table of n points that bagging
    reads for these plans: n - 1 for the rank table (n <=
    _RANK_TABLE_MAX_N, s < n), k_d at s == n, none for per-round scans."""
    return max((plan.k_d if plan.s == n else n - 1 if n <= _RANK_TABLE_MAX_N else 0
                for plan in plans), default=0)


def bagged_k_distance(ds, plan, table=None):
    """Average k_d-distance over B subsamples of size s (one value per point).

    A point inside a round's subsample is excluded from its own neighbor
    list there.  The degenerate plan (B=1, s=n) equals the plain
    k-distance bit for bit.  Where _table_width is nonzero the rounds read
    the points' self-excluded k-NN table, (indices, distances) at least that
    wide: pass table= to share one with other stages, or it is queried here.
    """
    points = _points(ds)
    n = points.shape[0]
    plan.validate(n)
    width = _table_width(n, [plan])
    if width == 0:
        return _bagged_per_round(points, plan)
    if table is None:
        idx = SpatialIndex(points)
        table = idx.query_bulk(idx.points, width, exclude=np.arange(n))
    if plan.s == n:
        # Every round sees the full data, so the average is the plain
        # k-distance regardless of B.
        return table[1][:, plan.k_d - 1].copy()
    return _bagged_rank_table(table, plan)


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
    idx = SpatialIndex(points)
    _, dist = idx.query_bulk(idx.points, n - 1, exclude=np.arange(n))
    return dist @ bagging_weights(n - 1, s_eff, k)


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
