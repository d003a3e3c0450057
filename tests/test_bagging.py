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
    _round_rng,
)
from bdmbc.data import Dataset, _rng
from bdmbc.knn import SpatialIndex, k_distances


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
        sub = subsample(n, plan.s, _round_rng(plan.seed, b))
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
    got_a = subsample(50, 20, _round_rng(3, 7))
    got_b = subsample(50, 20, _round_rng(3, 7))
    assert np.array_equal(got_a, got_b)
    assert len(set(got_a.tolist())) == 20
    with pytest.raises(ValueError):
        subsample(5, 6, _rng(0))


def test_subsample_uniform_frequency():
    counts = np.zeros(2)
    for t in range(100_000):
        counts[subsample(2, 1, _round_rng(0, t))[0]] += 1
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
    rng = _rng(1, 11)
    pts = rng.random((150, 3))
    idx = SpatialIndex(pts)
    plain = k_distances(idx, 7)
    for b in (1, 4):
        bagged = bagged_k_distance(pts, BaggingPlan(b=b, s=150, k_d=7, seed=0))
        assert np.array_equal(bagged, plain)


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
    via_table = bagging._bagged_rank_table(pts, plan)
    via_rounds = bagging._bagged_per_round(pts, plan)
    assert np.allclose(via_table, via_rounds, rtol=1e-9, atol=1e-12)


def test_bagged_scale_equivariance():
    rng = _rng(2, 14)
    pts = rng.random((100, 2))
    plan = BaggingPlan(b=8, s=50, k_d=4, seed=1)
    base = bagged_k_distance(pts, plan)
    scaled = bagged_k_distance(pts * 2.0, plan)  # power of two: exact
    assert np.array_equal(scaled, 2.0 * base)


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
