"""Bagged k-distances, exact weights, and the hypothetical density.

Oracles: per-round brute-force subsample sorting, exact rational weight
evaluation with Fraction arithmetic, and closed-form density checks.
"""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from bdmbc.bagging import (
    BaggingPlan,
    bagged_k_distance,
    bagging_weight_table,
    bagging_weights,
    hypothetical_density,
    infinite_bagged_k_distance,
    subsample,
    unit_ball_volume,
)
from bdmbc.data import Dataset, _rng, gen_multiblobs
from bdmbc.knn import SpatialIndex
from oracles import hostile_set, k_distances, pairwise_order, tree_round_by_rows


def exact_weights(n, s, k):
    """Oracle: Eq. weights as exact rationals."""
    out = []
    for i in range(1, n + 1):
        if k <= i <= n - s + k:
            out.append(Fraction(comb(i - 1, k - 1) * comb(n - i, s - k), comb(n, s)))
        else:
            out.append(Fraction(0))
    return out


def brute_bagged(points, plan):
    """Oracle: average of per-round k-distances via full sorting."""
    n = len(points)
    total = np.zeros(n)
    for b in range(plan.b):
        sub = subsample(n, plan.s, _rng(plan.seed, b))
        for i in range(n):
            dists = sorted(
                np.linalg.norm(points[j] - points[i]) for j in sub if j != i
            )
            total[i] += dists[plan.k_d - 1]
    return total / plan.b


# --------------------------------------------------------------- subsample


def test_subsample_full():
    rng = _rng(0, 1)
    assert sorted(subsample(5, 5, rng)) == [0, 1, 2, 3, 4]


def test_subsample_distinct_and_deterministic():
    got_a = subsample(50, 20, _rng(3, 7))
    got_b = subsample(50, 20, _rng(3, 7))
    assert np.array_equal(got_a, got_b)
    assert len(set(got_a.tolist())) == 20
    with pytest.raises(ValueError):
        subsample(5, 6, _rng(0))


def test_subsample_uniform_frequency():
    counts = np.zeros(2)
    for t in range(100_000):
        counts[subsample(2, 1, _rng(0, t))[0]] += 1
    assert abs(counts[0] / 100_000 - 0.5) < 0.01


# --------------------------------------------------------- bagging_weights


def test_weights_degenerate_full_sample():
    assert np.array_equal(bagging_weights(5, 5, 2), [0.0, 1.0, 0.0, 0.0, 0.0])


def test_weights_hand_example():
    p = bagging_weights(3, 2, 1)
    assert p[0] == pytest.approx(2 / 3, rel=1e-14)
    assert p[1] == pytest.approx(1 / 3, rel=1e-14)
    assert p[2] == 0.0


def test_weights_match_exact_rationals():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(1, 120))
        s = int(rng.integers(1, n + 1))
        k = int(rng.integers(1, s + 1))
        p = bagging_weights(n, s, k)
        oracle = exact_weights(n, s, k)
        for i in range(n):
            ex = float(oracle[i])
            if ex == 0.0:
                assert p[i] == 0.0
            else:
                assert abs(p[i] - ex) <= 1e-12 * ex
        assert abs(p.sum() - 1.0) <= 1e-12


def test_weights_exact_at_mode_for_large_n():
    # Past n ~ 1e4, a float64 log row summed up from its first weight can
    # drift past 1e-10 at the mode; summed outward from the mode it does not.
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(10**4, 10**5 + 1))
        s = int(rng.integers(1, n + 1))
        k = int(rng.integers(1, s + 1))
        p = bagging_weights(n, s, k)
        i = int(np.argmax(p)) + 1
        ex = float(Fraction(comb(i - 1, k - 1) * comb(n - i, s - k), comb(n, s)))
        assert abs(p[i - 1] - ex) <= 1e-10 * ex, (n, s, k)


@pytest.mark.parametrize("k", [200, 500])
def test_weights_finite_and_normalized_at_million(k):
    # (s/n)^k underflows here, so a row built up from its first weight
    # would be all zeros
    n, s = 10**6, 10**3
    p = bagging_weights(n, s, k)
    assert np.all(np.isfinite(p))
    assert abs(p.sum() - 1.0) <= 1e-9
    mean_rank = k * (n + 1) / (s + 1)
    assert abs(int(np.argmax(p)) + 1 - mean_rank) <= (n + 1) / (s + 1)


def test_weight_support_and_positivity():
    p = bagging_weights(20, 8, 3)
    inside = np.arange(1, 21)
    support = (inside >= 3) & (inside <= 20 - 8 + 3)
    assert np.all(p[support] > 0)
    assert np.all(p[~support] == 0)


def test_weight_table_matches_per_k():
    ks, table = bagging_weight_table(30, 12)
    assert np.array_equal(ks, np.arange(1, 13))
    for j, k in enumerate(ks):
        p = bagging_weights(30, 12, int(k))
        assert np.array_equal(table[j], p[k - 1 : 30 - 12 + k])
    with pytest.raises(ValueError):
        bagging_weight_table(10, 4, ks=[0])


def test_weights_parameter_errors():
    with pytest.raises(ValueError):
        bagging_weights(5, 6, 1)
    with pytest.raises(ValueError):
        bagging_weights(5, 3, 4)


# ------------------------------------------------------- bagged_k_distance


def test_degenerate_plan_is_bitwise_plain_k_distance():
    # at s == n the k_d-distance is recomputed from the table's index
    # column, bit for bit the query's own distance column, on plain,
    # 0.25-quantized and duplicate-heavy points
    for d in (1, 2, 3, 10, 64, 784):
        rng = _rng(1, 11)
        points = rng.random((150, d))
        sets = {"plain": points, "quantized": np.round(points * 4) / 4,
                "duplicated": points[rng.integers(0, 30, 150)]}
        for name, pts in sets.items():
            plain = k_distances(SpatialIndex(pts), 7)
            for b in (1, 4):
                bagged = bagged_k_distance(pts, BaggingPlan(b=b, s=150, k_d=7, seed=0))
                assert np.array_equal(bagged.view(np.uint64), plain.view(np.uint64)), (d, name)


# a 300-point probe, its rank-table plan (reach k_d + n - s = 155) and its
# s == n plan (column k_d - 1 = 6)
PROBE = gen_multiblobs(300, 2, 3, seed=28).points
PROBE_PLANS = [BaggingPlan(b=3, s=150, k_d=5, seed=0), BaggingPlan(b=1, s=300, k_d=7, seed=0)]


def probe_table(k, exclude=True):
    idx = SpatialIndex(PROBE)
    return idx.query_bulk(PROBE, k, exclude=np.arange(300) if exclude else None,
                          distances=False)[0]


@pytest.mark.parametrize("plan", PROBE_PLANS)
def test_shared_table_gives_the_values_of_an_own_query(plan):
    # a table as wide as bagging reads, wider, or (at s == n) a view that
    # repeats the column of rank k_d, as a fit shares it
    from bdmbc.bagging import _table_width

    width = _table_width(300, [plan])
    assert width == (155 if plan.s < 300 else 7)
    own = bagged_k_distance(PROBE, plan)
    tables = [probe_table(width), probe_table(299)]
    if plan.s == 300:
        column = probe_table(7)[:, 6:]
        tables.append(np.broadcast_to(column, (300, 7)))
    for table in tables:
        assert np.array_equal(bagged_k_distance(PROBE, plan, table=table), own)


@pytest.mark.parametrize("plan", PROBE_PLANS)
def test_narrow_table_raises(plan):
    from bdmbc.bagging import _table_width

    table = probe_table(_table_width(300, [plan]) - 1)
    with pytest.raises(ValueError, match="shape"):
        bagged_k_distance(PROBE, plan, table=table)


@pytest.mark.parametrize("plan", PROBE_PLANS)
def test_table_with_too_few_rows_raises(plan):
    table = probe_table(200)[:-1]
    with pytest.raises(ValueError, match="shape"):
        bagged_k_distance(PROBE, plan, table=table)


@pytest.mark.parametrize("plan", PROBE_PLANS)
def test_float_table_raises(plan):
    table = probe_table(200).astype(np.float64)
    with pytest.raises(ValueError, match="integer"):
        bagged_k_distance(PROBE, plan, table=table)


@pytest.mark.parametrize("plan", PROBE_PLANS)
def test_table_queried_without_exclusion_raises(plan):
    # each row lists its own point first; negative or too large indices are
    # no table either
    with pytest.raises(ValueError, match="own row"):
        bagged_k_distance(PROBE, plan, table=probe_table(200, exclude=False))
    for bad in (-1, 300):
        table = probe_table(200)
        table[5, 0] = bad
        with pytest.raises(ValueError, match=r"\[0, 300\)"):
            bagged_k_distance(PROBE, plan, table=table)


def test_identical_points_zero_distance():
    pts = np.zeros((2, 2))
    bagged = bagged_k_distance(pts, BaggingPlan(b=3, s=2, k_d=1, seed=0))
    assert np.array_equal(bagged, [0.0, 0.0])


@pytest.mark.parametrize("seed", range(4))
def test_bagged_matches_brute_force_rounds(seed):
    rng = _rng(seed, 12)
    n = int(rng.integers(10, 80))
    d = int(rng.integers(1, 4))
    pts = rng.random((n, d))
    s = int(rng.integers(2, n + 1))
    kd = int(rng.integers(1, s))
    plan = BaggingPlan(b=5, s=s, k_d=kd, seed=seed)
    got = bagged_k_distance(pts, plan)
    oracle = brute_bagged(pts, plan)
    assert np.allclose(got, oracle, rtol=1e-12, atol=1e-12)


def test_rank_table_and_per_round_paths_agree():
    # same plan through both internal paths must give the same values
    from bdmbc import bagging

    rng = _rng(9, 13)
    pts = rng.random((120, 2))
    plan = BaggingPlan(b=20, s=40, k_d=5, seed=2)
    via_table = bagging._bagged_rank_table(pts, knn_table(pts), plan)
    via_rounds = bagging._bagged_per_round(pts, plan)
    assert np.allclose(via_table, via_rounds, rtol=1e-9, atol=1e-12)


def knn_table(points):
    """The self-excluded (n - 1)-NN index matrix that the rank-table rounds
    read."""
    n = len(points)
    nbr, _ = SpatialIndex(points).query_bulk(points, n - 1, exclude=np.arange(n),
                                             distances=False)
    return nbr


def partition_rank_table(points, plan):
    """Oracle: every round's k_d-th member rank by partitioning a rank table.

    rank[i, j] is j's position in i's (distance, index) order, with i
    itself parked last; each round partitions its members' ranks per point.
    Rounds are added one at a time in round order.
    """
    n = points.shape[0]
    order, sorted_dist = pairwise_order(points)
    rank = np.empty((n, n), dtype=np.int32)
    np.put_along_axis(rank, order, np.arange(n, dtype=np.int32)[None, :], axis=1)
    total = np.zeros(n)
    rows = np.arange(n)
    for b in range(plan.b):
        r = rank[:, subsample(n, plan.s, _rng(plan.seed, b))]
        r.partition(plan.k_d - 1, axis=1)
        total += sorted_dist[rows, r[:, plan.k_d - 1]]
    return total / plan.b


def test_windowed_rounds_equal_partition_oracle():
    # bit for bit against the rank-table partition, on continuous and
    # quantized points, with b spanning several counter blocks, and with
    # k_d-th members far down the rows
    from bdmbc import bagging

    rng = _rng(5, 21)
    plans = []
    for trial in range(120):
        n = int(rng.integers(8, 160))
        d = int(rng.integers(1, 4))
        pts = rng.random((n, d))
        if trial % 3 == 0:
            pts = np.round(pts * 4) / 4
        s = int(rng.integers(2, n))
        kd = int(rng.integers(1, s))
        plans.append((pts, BaggingPlan(b=int(rng.integers(1, 40)), s=s, k_d=kd, seed=trial)))
    # several counter blocks
    pts = rng.random((150, 2))
    plans.append((pts, BaggingPlan(b=4000, s=140, k_d=3, seed=1)))
    plans.append((np.round(pts * 4) / 4, BaggingPlan(b=1500, s=100, k_d=7, seed=2)))
    # a small subsample puts the k_d-th member deep in the rows
    plans.append((rng.random((600, 2)), BaggingPlan(b=30, s=30, k_d=1, seed=3)))
    for pts, plan in plans:
        got = bagging._bagged_rank_table(pts, knn_table(pts), plan)
        assert np.array_equal(got, partition_rank_table(pts, plan)), plan
    assert plans[-3][1].b > 2 * (bagging._ROUND_BLOCK // 150)


def test_windowed_rounds_memory_bounded():
    # a small subsample puts the k_d-th member hundreds of positions deep;
    # the counters stay per (point, round), never per position
    import tracemalloc

    from bdmbc import bagging

    pts = _rng(6, 22).random((2048, 2))
    table = knn_table(pts)
    plan = BaggingPlan(b=200, s=20, k_d=5, seed=0)
    tracemalloc.start()
    try:
        bagging._bagged_rank_table(pts, table, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak


def tree_rounds(points, plan):
    """Oracle: per-round tree k_d-distances added in round order."""
    n = len(points)
    total = np.zeros(n)
    for b in range(plan.b):
        total += tree_round_by_rows(points, subsample(n, plan.s, _rng(plan.seed, b)),
                                    plan.k_d)
    return total / plan.b


def test_rank_table_fuzz_equals_tree_rounds(monkeypatch):
    # every plan bit for bit against the per-round tree path, over seeded
    # hostile sets at d from 1 to 30, with b spanning several counter
    # blocks in a third of the plans
    from bdmbc import bagging

    rng = _rng(13, 24)
    kinds = ("continuous", "duplicates", "signed-zero", "lattice", "offset")
    plans = []
    for case in range(150):
        n = int(rng.integers(3, 300))
        d = int(rng.integers(1, 31))
        s = int(rng.integers(2, n))
        plan = BaggingPlan(b=int(rng.integers(1, 13)), s=s, k_d=int(rng.integers(1, s)),
                           seed=case)
        plans.append((hostile_set(rng, kinds[case % 5], n, d), plan,
                      3 * n if case % 3 == 0 else bagging._ROUND_BLOCK))
    # a full-size counter block and part of the next
    pts = hostile_set(rng, "lattice", 2048, 2)
    plans.append((pts, BaggingPlan(b=bagging._ROUND_BLOCK // 2048 + 5, s=64, k_d=6,
                                   seed=150), bagging._ROUND_BLOCK))
    signed_zeros = 0
    for case, (pts, plan, block) in enumerate(plans):
        monkeypatch.setattr(bagging, "_ROUND_BLOCK", block)
        got = bagging._bagged_rank_table(pts, knn_table(pts), plan)
        want = tree_rounds(pts, plan)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (case, plan)
        zero = pts == 0
        signed_zeros += bool(np.any(zero & np.signbit(pts)) and np.any(zero & ~np.signbit(pts)))
    assert signed_zeros > 10


def test_rank_table_reads_only_its_reach(monkeypatch):
    # a table cut to _rank_reach gives the n - 1 table's values bit for bit:
    # on continuous and quantized points, at s = k_d + 1 (reach n - 1), at
    # s = n - 1 (reach k_d + 1) and between, with b over several counter
    # blocks in half of the plans
    from bdmbc import bagging

    rng = _rng(14, 25)
    for case in range(90):
        n = int(rng.integers(3, 200))
        pts = rng.random((n, int(rng.integers(1, 4))))
        if case % 2:
            pts = np.round(pts * 4) / 4
        k_d = int(rng.integers(1, n - 1))
        s = (k_d + 1, n - 1, int(rng.integers(k_d + 1, n)))[case % 3]
        plan = BaggingPlan(b=int(rng.integers(1, 13)), s=s, k_d=k_d, seed=case)
        monkeypatch.setattr(bagging, "_ROUND_BLOCK", 3 * n if case % 4 < 2 else 1 << 18)
        reach = bagging._rank_reach(n, plan)
        assert reach == min(n - 1, k_d + n - s)
        order = knn_table(pts)
        got = bagging._bagged_rank_table(pts, np.ascontiguousarray(order[:, :reach]), plan)
        want = bagging._bagged_rank_table(pts, order, plan)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (case, plan)


@pytest.mark.parametrize("d", [1, 2, 5, 60])
def test_pairwise_order_is_the_knn_table(d):
    # the k-NN table's leading columns are the (distance, index) order of
    # all pairs, bit for bit; k = n - 1 takes a window of every location
    # without the tree (in several blocks at d=60), as does every k on the
    # identical set and, at d <= 2, on the quantized one
    rng = _rng(d, 23)
    sets = {
        "continuous": rng.random((300, d)),
        "quantized": np.round(rng.random((300, d)) * 4) / 4,
        "identical": np.full((60, d), 0.5),
    }
    for name, pts in sets.items():
        n = len(pts)
        order, sorted_dist = pairwise_order(pts)
        for k in (1, 7, n // 2, n - 1):
            nbr, dist = SpatialIndex(pts).query_bulk(pts, k, exclude=np.arange(n))
            assert np.array_equal(order[:, :k], nbr), (name, k)
            assert np.array_equal(sorted_dist[:, :k].view(np.uint64),
                                  dist.view(np.uint64)), (name, k)


def test_tree_round_equals_brute_round_on_grid():
    # s > 1024 and n > 2048 send bagging through per-round trees; on a 0.25
    # grid both rounds' arithmetic is exact, so they agree bit for bit
    from bdmbc import bagging

    pts = np.round(24.0 * _rng(7, 16).random((3000, 2))) / 4
    plan = BaggingPlan(b=2, s=1500, k_d=5, seed=3)
    assert plan.s > bagging._BRUTE_SUBSAMPLE_MAX_S
    assert len(pts) > bagging._RANK_TABLE_MAX_N
    total = np.zeros(len(pts))
    for b in range(plan.b):
        sub = subsample(len(pts), plan.s, _rng(plan.seed, b))
        for k_d in (1, plan.k_d, 40):
            brute = bagging._round_brute(pts, sub, k_d)
            assert np.array_equal(tree_round_by_rows(pts, sub, k_d), brute), (b, k_d)
        total += bagging._round_brute(pts, sub, plan.k_d)
    assert np.array_equal(bagged_k_distance(pts, plan), total / plan.b)


def test_tree_rounds_equal_row_by_row_rounds(monkeypatch):
    # a tree round queries each distinct location once for k_d + 1 members,
    # excluding none; every k_d gives the row-by-row, self-excluding rounds'
    # total bit for bit on every hostile kind
    from bdmbc import bagging

    monkeypatch.setattr(bagging, "_BRUTE_SUBSAMPLE_MAX_S", 0)
    rng = _rng(15, 26)
    for kind in ("continuous", "duplicates", "signed-zero", "lattice", "offset"):
        for n, d, s in ((40, 1, 12), (90, 2, 30), (60, 5, 20)):
            pts = hostile_set(rng, kind, n, d)
            for k_d in range(1, s):
                plan = BaggingPlan(b=3, s=s, k_d=k_d, seed=k_d)
                got = bagging._bagged_per_round(pts, plan)
                assert np.array_equal(got, tree_rounds(pts, plan)), (kind, n, d, k_d)


def test_tree_rounds_query_each_location_once(monkeypatch):
    # every tree round queries the lattice's distinct rows, not all n, and
    # excludes nothing
    from bdmbc import bagging

    calls = []
    query_bulk = SpatialIndex.query_bulk

    def counting(self, queries, k, exclude=None, distances=True):
        calls.append((len(queries), exclude is None))
        return query_bulk(self, queries, k, exclude, distances)

    monkeypatch.setattr(SpatialIndex, "query_bulk", counting)
    pts = hostile_set(_rng(16, 27), "lattice", 3000, 2)
    assert not np.any(np.signbit(pts))
    plan = BaggingPlan(b=4, s=1200, k_d=5, seed=2)
    assert plan.s > bagging._BRUTE_SUBSAMPLE_MAX_S
    assert len(pts) > bagging._RANK_TABLE_MAX_N
    bagged_k_distance(pts, plan)
    distinct = len(np.unique(pts, axis=0))
    assert distinct < len(pts)
    assert calls == [(distinct, True)] * plan.b


def test_brute_rounds_on_a_pool_sum_in_round_order(monkeypatch):
    # brute-force rounds fan out through ordered_map; the total adds them in
    # round order, bit for bit, at any thread count
    from bdmbc import bagging

    pts = _rng(8, 17).random((3000, 3))
    plan = BaggingPlan(b=5, s=100, k_d=4, seed=1)
    assert len(pts) > bagging._RANK_TABLE_MAX_N
    assert plan.s <= bagging._BRUTE_SUBSAMPLE_MAX_S
    centred = pts - pts.mean(axis=0)  # as the brute path centres before its rounds
    total = np.zeros(len(pts))
    for b in range(plan.b):
        sub = subsample(len(pts), plan.s, _rng(plan.seed, b))
        total += bagging._round_brute(centred, sub, plan.k_d)
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("BDMBC_THREADS", threads)
        assert np.array_equal(bagged_k_distance(pts, plan), total / plan.b), threads


@pytest.mark.parametrize("offset", [1e7, 1.7e9])
def test_brute_rounds_exact_on_shifted_data(offset):
    # |x|^2 + |y|^2 - 2 x.y cancels at large offsets (every k-distance came
    # out 0 at 1.7e9); the brute path must match tree rounds on the same input
    from bdmbc import bagging

    pts = gen_multiblobs(5000, 2, 5, seed=1).points + offset
    plan = BaggingPlan(b=10, s=100, k_d=5, seed=0)
    assert len(pts) > bagging._RANK_TABLE_MAX_N
    assert plan.s <= bagging._BRUTE_SUBSAMPLE_MAX_S
    total = np.zeros(len(pts))
    for b in range(plan.b):
        total += tree_round_by_rows(pts, subsample(len(pts), plan.s, _rng(plan.seed, b)),
                                    plan.k_d)
    oracle = total / plan.b
    got = bagged_k_distance(pts, plan)
    assert np.max(np.abs(got - oracle) / oracle) < 1e-12


def test_bagged_scale_equivariance():
    rng = _rng(2, 14)
    pts = rng.random((100, 2))
    plan = BaggingPlan(b=8, s=50, k_d=4, seed=1)
    base = bagged_k_distance(pts, plan)
    scaled = bagged_k_distance(pts * 2.0, plan)  # power of two: exact
    assert np.array_equal(scaled, 2.0 * base)


@pytest.mark.parametrize("e", [-600, -300, 300, 600])
def test_distance_functions_do_not_depend_on_scale(e):
    # scaled by 2**e, every bagging path and the infinite limit give the
    # unscaled values times 2**e bit for bit; at 2**600 the squared
    # differences overflowed to inf, and at 2**-600 they underflowed to 0
    small = gen_multiblobs(600, 3, 4, seed=1).points
    large = gen_multiblobs(2100, 3, 4, seed=1).points
    runs = [(small, BaggingPlan(b=3, s=300, k_d=5, seed=1)),   # rank table
            (small, BaggingPlan(b=2, s=600, k_d=5)),           # s == n
            (large, BaggingPlan(b=2, s=200, k_d=5, seed=2)),   # brute rounds
            (large, BaggingPlan(b=2, s=1100, k_d=5, seed=3))]  # tree rounds
    for pts, plan in runs:
        want = np.ldexp(bagged_k_distance(pts, plan), e)
        assert np.array_equal(bagged_k_distance(np.ldexp(pts, e), plan), want), plan
    want = np.ldexp(infinite_bagged_k_distance(small, s=300, k=5), e)
    assert np.array_equal(infinite_bagged_k_distance(np.ldexp(small, e), s=300, k=5), want)


def test_invalid_plan():
    pts = np.zeros((10, 2))
    with pytest.raises(ValueError):
        bagged_k_distance(pts, BaggingPlan(b=0, s=5, k_d=2, seed=0))
    with pytest.raises(ValueError):
        bagged_k_distance(pts, BaggingPlan(b=1, s=11, k_d=2, seed=0))
    with pytest.raises(ValueError):
        bagged_k_distance(pts, BaggingPlan(b=1, s=5, k_d=5, seed=0))


# ---------------------------------------------- infinite_bagged_k_distance


def test_infinite_bagging_degenerate_weights():
    rng = _rng(4, 15)
    pts = rng.random((30, 2))
    idx = SpatialIndex(pts)
    # s = n-1 over the other points makes rank k certain
    for k in (1, 3, 9):
        exact = infinite_bagged_k_distance(pts, s=29, k=k)
        assert np.allclose(exact, k_distances(idx, k), rtol=1e-12)


def test_infinite_bagging_hand_example():
    pts = np.array([[0.0], [1.0], [3.0]])
    vals = infinite_bagged_k_distance(pts, s=2, k=1)
    # point 0: neighbors (1, 3) at distances (1, 2); weights over n'=2, s=2,
    # k=1 are (1, 0)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(1.0)
    assert vals[2] == pytest.approx(2.0)


def test_infinite_bagging_memory_bounded():
    # the rows' distances are formed, sorted and weighted a block at a time;
    # one (n, n - 1) distance query peaked at 193 MiB here
    import tracemalloc

    pts = _rng(7, 15).standard_normal((4000, 3))
    tracemalloc.start()
    try:
        infinite_bagged_k_distance(pts, s=400, k=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_monte_carlo_deviation_shrinks_with_b():
    deviations = {b: [] for b in (10, 100, 1000, 10000)}
    for seed in range(10):
        pts = _rng(seed, 16).random((60, 1))
        exact = infinite_bagged_k_distance(pts, s=30, k=3)
        for b in deviations:
            mc = bagged_k_distance(pts, BaggingPlan(b=b, s=30, k_d=3, seed=seed))
            deviations[b].append(np.max(np.abs(mc - exact)))
    means = [np.mean(deviations[b]) for b in (10, 100, 1000, 10000)]
    assert all(a >= b for a, b in zip(means, means[1:]))


# ----------------------------------------------------- hypothetical_density


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert unit_ball_volume(2) == pytest.approx(np.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0, rel=1e-14)


def test_density_degenerate_reduces_to_knn_estimator():
    rng = _rng(6, 17)
    pts = rng.random((200, 2))
    idx = SpatialIndex(pts)
    k = 10
    bagged = bagged_k_distance(pts, BaggingPlan(b=1, s=200, k_d=k, seed=0))
    dens = hypothetical_density(pts, s=200, k=k, bagged=bagged)
    expected = (k / 200) / (np.pi * bagged**2)
    assert np.allclose(dens, expected, rtol=1e-12)


def test_density_uniform_sanity():
    pts = _rng(8, 18).random((10_000, 1))
    idx = SpatialIndex(pts)
    bagged = k_distances(idx, 50)
    dens = hypothetical_density(pts, s=10_000, k=50, bagged=bagged)
    interior = (pts[:, 0] > 0.1) & (pts[:, 0] < 0.9)
    assert 0.9 <= dens[interior].mean() <= 1.1


def test_density_rejects_zero_distance():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError, match="point 0"):
        hypothetical_density(pts, s=3, k=1, bagged=np.zeros(3))


def test_density_scale_covariance():
    rng = _rng(10, 19)
    pts = rng.random((150, 3))
    plan = BaggingPlan(b=5, s=60, k_d=4, seed=0)
    bagged = bagged_k_distance(pts, plan)
    dens = hypothetical_density(pts, s=60, k=4, bagged=bagged)
    bagged2 = bagged_k_distance(pts * 2.0, plan)
    dens2 = hypothetical_density(pts * 2.0, s=60, k=4, bagged=bagged2)
    assert np.allclose(dens2, dens / 8.0, rtol=1e-12)


def test_density_preserves_distance_ordering():
    rng = _rng(11, 20)
    pts = rng.random((80, 2))
    bagged = bagged_k_distance(pts, BaggingPlan(b=6, s=40, k_d=3, seed=1))
    dens = hypothetical_density(pts, s=40, k=3, bagged=bagged)
    order_by_dist = np.argsort(bagged)
    order_by_dens = np.argsort(-dens)
    assert np.array_equal(np.sort(bagged[order_by_dist]), bagged[order_by_dist])
    # strict inversion: larger distance <=> smaller density
    a, b = np.triu_indices(80, 1)
    assert np.all((bagged[a] < bagged[b]) == (dens[a] > dens[b]))


def test_brute_round_independent_of_block_size(monkeypatch):
    # a one-row last block must round like the others, so duplicates stay tied
    from bdmbc import bagging

    sub = np.arange(1, 300, 3)  # neither duplicate below is in the subsample
    for seed in range(6):
        pts = _rng(seed, 15).random((301, 10))
        pts[300] = pts[0]
        monkeypatch.setattr(bagging, "_BRUTE_BLOCK_FLOPS", 1 << 19)
        whole = bagging._round_brute(pts, sub, 5)
        # blocks of 50 rows with one row left over
        monkeypatch.setattr(bagging, "_BRUTE_BLOCK_FLOPS", 50 * sub.size * 10)
        blocked = bagging._round_brute(pts, sub, 5)
        assert blocked[300] == blocked[0], seed
        assert np.array_equal(blocked, whole), seed
