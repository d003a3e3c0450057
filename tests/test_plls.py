"""Empirical score computation against a literal double-loop oracle."""

import numpy as np
import pytest

from bdmbc.bagging import BaggingPlan, bagged_k_distance
from bdmbc.data import Dataset, GaussianMixture, _rng, gen_mixture
from bdmbc.knn import SpatialIndex, k_distances
from bdmbc.plls import empirical_plls, mode_set
from oracles import dmbc_plls


def brute_plls(points, bagged, k_l):
    """Oracle: per-point loop with explicit (distance, index) neighbor sort."""
    n = len(points)
    out = np.empty(n)
    for i in range(n):
        dist = np.linalg.norm(points - points[i], axis=1)
        order = sorted((j for j in range(n) if j != i), key=lambda j: (dist[j], j))
        nbrs = order[:k_l]
        out[i] = sum(1 for j in nbrs if bagged[j] >= bagged[i]) / k_l
    return out


def test_unique_minimum_scores_one():
    pts = np.array([[0.0], [1.0], [2.0], [5.0]])
    idx = SpatialIndex(pts)
    bagged = np.array([1.0, 2.0, 3.0, 4.0])
    scores = empirical_plls(pts, idx, bagged, 3)
    assert scores[0] == 1.0


def test_strict_maximum_scores_zero():
    pts = np.array([[0.0], [1.0], [2.0], [3.0]])
    idx = SpatialIndex(pts)
    bagged = np.array([1.0, 1.0, 1.0, 9.0])
    scores = empirical_plls(pts, idx, bagged, 3)
    assert scores[3] == 0.0


def test_tie_semantics_on_even_grid():
    # evenly spaced grid: all interior k-distances equal, and the >= rule
    # makes every interior point score 1
    pts = np.arange(20.0)[:, None]
    idx = SpatialIndex(pts)
    bagged = k_distances(idx, 1)  # all ones except nothing: spacing is 1
    scores = empirical_plls(pts, idx, bagged, 5)
    assert np.all(scores == 1.0)


def test_score_granularity():
    rng = _rng(0, 21)
    pts = rng.random((70, 2))
    idx = SpatialIndex(pts)
    bagged = k_distances(idx, 5)
    for k_l in (1, 7, 23):
        scores = empirical_plls(pts, idx, bagged, k_l)
        assert np.all((scores >= 0) & (scores <= 1))
        scaled = scores * k_l
        assert np.allclose(scaled, np.round(scaled), atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_matches_double_loop_oracle(seed):
    rng = _rng(seed, 22)
    n = int(rng.integers(10, 200))
    d = int(rng.integers(1, 4))
    pts = np.round(rng.random((n, d)) * 8) / 8  # provoke distance ties
    idx = SpatialIndex(pts)
    bagged = bagged_k_distance(
        pts, BaggingPlan(b=3, s=max(2, n // 2), k_d=1, seed=seed)
    )
    k_l = int(rng.integers(1, n))
    got = empirical_plls(pts, idx, bagged, k_l)
    assert np.array_equal(got, brute_plls(pts, bagged, k_l))


def test_monotone_transform_invariance():
    rng = _rng(3, 23)
    pts = rng.random((90, 2))
    idx = SpatialIndex(pts)
    bagged = k_distances(idx, 6)
    base = empirical_plls(pts, idx, bagged, 15)
    warped = empirical_plls(pts, idx, np.exp(3.0 * bagged), 15)
    assert np.array_equal(base, warped)


def test_rigid_motion_invariance():
    rng = _rng(4, 24)
    pts = rng.random((80, 2))
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = pts @ rot.T + np.array([3.0, -1.0])
    plan = BaggingPlan(b=5, s=40, k_d=4, seed=0)
    s_a = empirical_plls(pts, SpatialIndex(pts), bagged_k_distance(pts, plan), 12)
    s_b = empirical_plls(moved, SpatialIndex(moved), bagged_k_distance(moved, plan), 12)
    assert np.array_equal(s_a, s_b)


def test_mode_set_nonempty_and_exact():
    rng = _rng(5, 25)
    pts = rng.random((100, 2))
    idx = SpatialIndex(pts)
    scores = empirical_plls(pts, idx, k_distances(idx, 8), 20)
    modes = mode_set(scores)
    assert len(modes) >= 1
    assert np.all(scores[modes] == 1.0)
    non_modes = np.setdiff1d(np.arange(100), modes)
    assert np.all(scores[non_modes] < 1.0)


def test_all_equal_bagged_all_modes():
    pts = _rng(6, 26).random((30, 2))
    idx = SpatialIndex(pts)
    scores = empirical_plls(pts, idx, np.ones(30), 10)
    assert np.array_equal(mode_set(scores), np.arange(30))


def test_strictly_monotone_distances_single_mode():
    # strictly increasing bagged distances along a 1-D line: every point
    # except the first has a nearer neighbor with a smaller value, so the
    # mode set is exactly the first point
    pts = np.arange(15.0)[:, None]
    idx = SpatialIndex(pts)
    bagged = np.arange(1.0, 16.0)
    scores = empirical_plls(pts, idx, bagged, 5)
    assert np.array_equal(scores, brute_plls(pts, bagged, 5))
    assert np.array_equal(mode_set(scores), [0])


def test_hand_example_three_collinear():
    pts = np.array([[0.0], [1.0], [10.0]])
    scores = dmbc_plls(pts, k_d=1, k_l=2)
    # k-distances: (1, 1, 9); scores by hand: p0 = (1>=1) + (9>=1) over 2 = 1,
    # p1 = 1, p2 = (1>=9)+(1>=9) over 2 = 0
    assert np.array_equal(scores, [1.0, 1.0, 0.0])


def test_dmbc_equals_degenerate_bagging():
    rng = _rng(7, 27)
    pts = rng.random((120, 2))
    idx = SpatialIndex(pts)
    direct = dmbc_plls(pts, k_d=9, k_l=30)
    via_bagging = empirical_plls(
        pts, idx, bagged_k_distance(pts, BaggingPlan(b=1, s=120, k_d=9, seed=0)), 30
    )
    assert np.array_equal(direct, via_bagging)


def test_dmbc_single_gaussian_mode_location():
    # with n=1000 the empirical density peak sits within a few tenths of a
    # standard deviation of the true mean; a wide scoring neighborhood
    # leaves only modes near that peak
    mix = GaussianMixture(means=[[0.0]], covs=[1.0], weights=[1.0])
    for seed in range(3):
        ds = gen_mixture(mix, 1000, seed=seed)
        scores = dmbc_plls(ds.points, k_d=150, k_l=500)
        modes = mode_set(scores)
        assert len(modes) >= 1
        assert np.all(np.abs(ds.points[modes, 0]) < 0.5)


def test_parameter_errors():
    pts = np.zeros((5, 1))
    idx = SpatialIndex(np.arange(5.0)[:, None])
    with pytest.raises(ValueError):
        empirical_plls(idx.points, idx, np.ones(5), 5)
    with pytest.raises(ValueError):
        empirical_plls(idx.points, idx, np.ones(4), 2)
    with pytest.raises(ValueError):  # the plain k_d-distance needs k_d <= n - 1
        bagged_k_distance(idx.points, BaggingPlan(b=1, s=5, k_d=5))
