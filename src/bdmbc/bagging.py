"""Subsampled k-distance averaging and its exact infinite-round limit.

Each bagging round draws its subsample without replacement from an
independent Philox stream keyed (seed, round), so rounds are reproducible
and order-independent.  The rank table, s == n and the tree rounds read
neighbor indices alone and recompute each k_d-th distance with
knn.exact_distances, as the k-NN query computes it.  A tree round's value
for a point depends only on its location and on whether it was drawn, so
each round queries every distinct location once, for its members of
ranks k_d and k_d + 1 alone and excluding none.  Every path adds its
rounds one at a time in round order, so the rank table and the tree
rounds agree bit for bit, at any thread count.  bagged_k_distance and
infinite_bagged_k_distance are scale-free: data scaled by a power of two
gives values scaled by that power, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import _points, _rng, _unit_scale
from .knn import (_DIFF_ELEMENTS, Ranks, SpatialIndex, _group_rows, _k_for, exact_distances,
                  ordered_map)

# Up to this size one exact self-excluded k-NN index table, as wide as the
# rank table reaches, serves all bagging rounds; above it, per-round scans
# respect the complexity budget.
_RANK_TABLE_MAX_N = 2048
# (point, round) member counters advanced together: few enough to stay
# cache-resident
_ROUND_BLOCK = 1 << 18


def check_integers(**values):
    """ValueError naming the first value that is not an int or a numpy
    integer; a bool is not one."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class BaggingPlan:
    """Rounds B, subsample size s, neighbor count k_d, and base seed."""

    b: int
    s: int
    k_d: int
    seed: int = 0

    def validate(self, n):
        check_integers(b=self.b, s=self.s, k_d=self.k_d, seed=self.seed)
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


def _rank_reach(n, plan):
    """Positions of a self-excluded neighbor row that the rank table reads:
    a round's k_d-th member lies among the first k_d + n - s, since only
    n - s points lie outside its subsample."""
    return min(n - 1, plan.k_d + n - plan.s)


def _bagged_rank_table(points, nbr, plan):
    """All rounds from one k-NN table; exact, vectorized over rounds.

    nbr is the index matrix of the self-excluded k-NN query, at least
    _rank_reach wide.  In a round, point i's k_d-th neighbor is nbr[i, p],
    where p is the position of the k_d-th subsample member along nbr[i] (i
    itself is absent, so it never counts).  Members are counted position
    by position for every (point, round) pair at once, up to the reach or
    until every pair holds k_d members.  Rounds are counted in blocks of
    _ROUND_BLOCK // n; each block's k_d-th distances are recomputed by
    exact_distances, as the query computed them, and added in round order.
    """
    n = nbr.shape[0]
    k_d = plan.k_d
    block = max(_ROUND_BLOCK // n, 1)
    total = np.zeros(n)
    for start in range(0, plan.b, block):
        stop = min(start + block, plan.b)
        # int16 like the counters (n < 2**15), so counts add without casting
        member = np.zeros((n, stop - start), dtype=np.int16)
        for b in range(start, stop):
            member[subsample(n, plan.s, _rng(plan.seed, b)), b - start] = 1
        # pos counts the positions passed before the k_d-th member
        count = np.zeros_like(member)
        pos = np.zeros_like(member)
        for j in range(_rank_reach(n, plan)):
            count += member[nbr[:, j]]
            pos += count < k_d
            if j % 16 == 15 and count.min() >= k_d:
                break  # every counter is done: later positions add nothing
        del count, member  # before the k_d-th indices and distances form
        kth = np.take_along_axis(nbr, pos, axis=1)
        for column in exact_distances(points, points, kth).T:
            total += column
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
    for lo, hi in zip(bounds, bounds[1:]):
        d2 = sq_pts[lo:hi, None] + sq_sub[None, :]
        d2 -= 2.0 * (points[lo:hi] @ sub_pts.T)
        pos = in_sub[lo:hi]
        has_self = pos >= 0
        d2[np.flatnonzero(has_self), pos[has_self]] = np.inf
        d2.partition(k_d - 1, axis=1)
        out[lo:hi] = d2[:, k_d - 1]
    # cancellation can leave tiny negatives; clamping keeps the order, so
    # clamping the selected value equals selecting among clamped ones
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out)


def _kth_distance(points, kth):
    """Each point's distance to points[kth[i]], its k-th neighbor: the
    distance column that the k-NN query found it by, bit for bit."""
    return exact_distances(points, points, kth[:, None])[:, 0]


def _round_tree(points, sites, site, sub, k_d):
    """One round's k_d-distances from one query of each distinct location
    (sites; point i lies at sites[site[i]]) for the subsample members of
    ranks k_d and k_d + 1, excluding none.  A drawn point's own copy lies
    at distance 0, no farther than any other member, so dropping it moves
    its k_d-th distance to rank k_d + 1 (column 1); an undrawn point reads
    rank k_d (column 0)."""
    drawn = np.zeros(points.shape[0], dtype=np.intp)
    drawn[sub] = 1
    nbr, _ = SpatialIndex(points[sub]).query_bulk(sites, Ranks((k_d, k_d + 1)),
                                                  distances=False)
    return _kth_distance(points, sub[nbr[site, drawn]])


def _bagged_per_round(points, plan):
    """One subsample scan per round; brute force when the subsample is small.

    Brute-force rounds fan out through ordered_map.  Tree rounds group the
    points by location once per pass and query each distinct location once
    a round, so their cost grows with the distinct locations, not with n.
    They run on the calling thread: their query fans out its own blocks,
    and on a pool here the quantized-ties fit peaked 1.3-2.0 MB higher.
    The total adds the rounds in round order.
    """
    n = points.shape[0]
    brute = plan.s <= _BRUTE_SUBSAMPLE_MAX_S
    if brute:
        # Brute rounds form |x|^2 + |y|^2 - 2 x.y, which cancels when the
        # coordinates are large next to neighbor distances: at an offset of
        # 1.7e9 every k-distance came out 0.  Centred, they match the tree
        # rounds on the offset data.
        one_round = partial(_round_brute, points - points.mean(axis=0), k_d=plan.k_d)
    else:
        first, rows, _, sizes = _group_rows(points)
        site = np.empty(n, dtype=np.intp)
        site[rows] = np.repeat(np.arange(first.size), sizes)
        sites = points if first.size == n else points[first]
        one_round = partial(_round_tree, points, sites, site, k_d=plan.k_d)

    def run(b):
        return one_round(subsample(n, plan.s, _rng(plan.seed, b)))

    total = np.zeros(n)
    for values in ordered_map(run, range(plan.b), None if brute else 1):
        total += values
    return total / plan.b


def _table_ranks(n, plans, lead=0):
    """The ascending 1-based ranks of the self-excluded k-NN table of n
    points that bagging reads for these plans, beside ranks 1..lead that
    other stages read: the rank table (s < n <= _RANK_TABLE_MAX_N) reads
    ranks 1 up to its reach, s == n reads rank k_d alone, and per-round
    scans read none.  Every path reads indices alone and recomputes its
    k_d-th distances with exact_distances.

    The grid's trimodal plan (n=2000, s=1800, k_d=300) reaches 500 of the
    1999 ranks, so its shared table is as wide as k_l = 750.  The full fit
    at k_d=100 beside k_l=50 reads ranks 1..50 and 100: 51 columns."""
    reach = max([_rank_reach(n, p) for p in plans if p.s < n <= _RANK_TABLE_MAX_N], default=0)
    return sorted({*range(1, max(lead, reach) + 1), *(p.k_d for p in plans if p.s == n)})


def _table_width(n, plans):
    """How wide a table that bagged_k_distance reads for these plans must
    be, 0 when it reads none: the highest of their _table_ranks."""
    return max(_table_ranks(n, plans), default=0)


def _read_columns(table, n, plan, width):
    """The columns of a table passed to bagged_k_distance that the plan's
    rounds read: the first width, or column k_d - 1 at s == n.

    ValueError unless table is an (n, >= width) integer matrix whose read
    columns and first column name points in [0, n), none in its own row.
    A query without exclusion lists each row's own point first, unless a
    lower-index copy shares its coordinates, so the first column catches
    most such tables at s == n too."""
    table = np.asarray(table)
    if (table.ndim != 2 or table.shape[0] != n or table.shape[1] < width
            or table.dtype.kind not in "iu"):
        raise ValueError(f"table must be an integer index matrix of shape ({n}, >= {width}), "
                         f"got {table.dtype} {table.shape}")
    read = table[:, [0, plan.k_d - 1]] if plan.s == n else table[:, :width]
    if read.min() < 0 or read.max() >= n:
        raise ValueError(f"table indices must lie in [0, {n})")
    step = max(_DIFF_ELEMENTS // read.shape[1], 1)
    for lo in range(0, n, step):
        if np.any(read[lo : lo + step] == np.arange(lo, min(lo + step, n))[:, None]):
            raise ValueError("table lists a point in its own row: it must come from a "
                             "query that excludes each row's own index")
    return read[:, -1] if plan.s == n else read


def bagged_k_distance(ds, plan, table=None):
    """Average k_d-distance over B subsamples of size s (one value per point).

    A point inside a round's subsample is excluded from its own neighbor
    list there.  The degenerate plan (B=1, s=n) equals the plain
    k-distance bit for bit.  Where _table_width is nonzero the rounds read
    indices of the points' self-excluded k-NN table and recompute each
    k_d-th distance as the query computes it.  Pass table= to share one
    with other stages, as the grid and the fit do: its column j must hold
    rank j + 1 up to _table_width (the rank table's reach, k_d + n - s, or
    k_d at s == n, where only column k_d - 1 is read), or ValueError.
    Else the ranks the rounds read (_table_ranks) are queried here.  Points
    of a large or small scale are scaled by a power of two first
    (data._unit_scale), and the values scaled back, so data scaled by 2**e
    gives the values times 2**e bit for bit.
    """
    points, e = _unit_scale(_points(ds))
    n = points.shape[0]
    plan.validate(n)
    width = _table_width(n, [plan])
    if width == 0:
        values = _bagged_per_round(points, plan)
    else:
        if table is None:
            idx = SpatialIndex(points)
            read, _ = idx.query_bulk(idx.points, _k_for(_table_ranks(n, [plan])),
                                     exclude=np.arange(n), distances=False)
            if plan.s == n:
                read = read[:, 0]  # rank k_d, the one queried
        else:
            read = _read_columns(table, n, plan, width)
        if plan.s == n:
            # Every round sees the full data, so the average is the plain
            # k-distance regardless of B.
            values = _kth_distance(points, read)
        else:
            values = _bagged_rank_table(points, read, plan)
    return np.ldexp(values, e)


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
    n-1 and sample size min(s, n-1) (self excluded).  O(n^2) time, for
    moderate n and as the Monte-Carlo oracle; the rows' distances are
    formed, sorted and weighted in blocks of at most knn._DIFF_ELEMENTS,
    so memory stays O(n).  Scale-free as bagged_k_distance is.
    """
    points, e = _unit_scale(_points(ds))
    n = points.shape[0]
    s_eff = min(s, n - 1)
    if not 1 <= k <= s_eff:
        raise ValueError(f"need 1 <= k <= min(s, n-1), got k={k}, s={s}, n={n}")
    weights = bagging_weights(n - 1, s_eff, k)
    out = np.empty(n)
    step = max(_DIFF_ELEMENTS // n, 1)
    for lo in range(0, n, step):
        dist = exact_distances(points, points[lo : lo + step])
        dist[np.arange(len(dist)), np.arange(lo, lo + len(dist))] = np.inf  # self sorts last
        dist.sort(axis=1)
        out[lo : lo + step] = dist[:, :-1] @ weights
    return np.ldexp(out, e)


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
