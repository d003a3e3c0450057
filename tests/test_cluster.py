"""Graph construction, components, finalization, and the full pipeline.

Oracles: brute-force edge enumeration and BFS component labeling.
"""

import json
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bdmbc.bagging import BaggingPlan, bagged_k_distance
from bdmbc.cluster import (
    BdmbcConfig,
    bdmbc_fit,
    build_kg_graph,
    connected_components,
    core_subgraph,
    finalize,
    first_scoring,
    graph_from_neighbors,
    nearest_core,
    spanning_forest,
)
from bdmbc.data import Dataset, _rng, gen_multiblobs
from bdmbc.knn import SpatialIndex
from bdmbc.plls import empirical_plls, mode_set
from oracles import dmbc_plls, edge_graph, finalize_by_tree, hostile_set, pairwise_order


def brute_edges(points, k_g):
    """Oracle: union-symmetrized k_g-NN edge set via full sort."""
    n = len(points)
    edges = set()
    for i in range(n):
        dist = np.linalg.norm(points - points[i], axis=1)
        order = sorted((j for j in range(n) if j != i), key=lambda j: (dist[j], j))
        for j in order[:k_g]:
            edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def bfs_components(n, edges, mask):
    """Oracle: BFS labels on masked nodes, IDs by smallest member."""
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        if mask[a] and mask[b]:
            adj[a].append(b)
            adj[b].append(a)
    labels = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for start in range(n):
        if not mask[start] or labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = next_id
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if labels[v] < 0:
                    labels[v] = next_id
                    stack.append(v)
        next_id += 1
    return labels


# ---------------------------------------------------------- build_kg_graph


def test_two_points_single_edge():
    g = build_kg_graph(SpatialIndex(np.array([[0.0], [1.0]])), 1)
    assert np.array_equal(g, [[0, 1]])


def test_two_pairs_two_edges():
    g = build_kg_graph(SpatialIndex(np.array([[0.0], [1.0], [10.0], [11.0]])), 1)
    assert np.array_equal(g, [[0, 1], [2, 3]])


@pytest.mark.parametrize("seed", range(4))
def test_graph_matches_brute_force(seed):
    rng = _rng(seed, 31)
    n = int(rng.integers(5, 300))
    pts = np.round(rng.random((n, 2)) * 8) / 8
    k_g = int(rng.integers(1, min(n, 12)))
    g = build_kg_graph(SpatialIndex(pts), k_g)
    assert [tuple(e) for e in g] == brute_edges(pts, k_g)


def test_graph_no_self_loops_and_range():
    g = build_kg_graph(SpatialIndex(_rng(1, 32).random((50, 2))), 5)
    assert np.all(g[:, 0] < g[:, 1])
    with pytest.raises(ValueError):
        build_kg_graph(SpatialIndex(np.zeros((3, 1))), 3)


# ---------------------------------------------------------- core_subgraph


def test_core_subgraph_thresholds():
    pts = _rng(2, 33).random((40, 2))
    idx = SpatialIndex(pts)
    g = build_kg_graph(idx, 4)
    scores = dmbc_plls(pts, 3, 10)
    full_mask, full_edges = core_subgraph(g, scores, 0.0)
    assert np.all(full_mask)
    assert np.array_equal(full_edges, g)
    top_mask, _ = core_subgraph(g, scores, 1.0)
    assert np.array_equal(np.flatnonzero(top_mask),
                          np.flatnonzero(scores == 1.0))
    # just above a plateau value excludes points scoring exactly that value
    v = 0.5
    eps = 1.0 / (2 * 10)  # the scores' k_l is 10
    above_mask, _ = core_subgraph(g, scores, v + eps)
    assert not np.any(scores[above_mask] <= v)


def test_threshold_monotonicity():
    pts = _rng(3, 34).random((60, 2))
    idx = SpatialIndex(pts)
    g = build_kg_graph(idx, 5)
    scores = dmbc_plls(pts, 4, 15)
    prev = np.ones(60, dtype=bool)
    for lam in np.linspace(0.0, 1.0, 11):
        mask, _ = core_subgraph(g, scores, lam)
        assert np.all(mask <= prev)
        prev = mask


# --------------------------------------------------- connected_components


def test_path_graph_one_component():
    labels = connected_components(np.ones(5, dtype=bool),
                                  edge_graph([[0, 1], [1, 2], [2, 3], [3, 4]], 5))
    assert np.array_equal(labels, np.zeros(5, dtype=np.int64))


def test_empty_edges_singletons():
    edges = np.empty((0, 2), dtype=np.int64)
    labels = connected_components(np.ones(3, dtype=bool), edge_graph(edges, 3))
    assert np.array_equal(labels, [0, 1, 2])


def test_an_edge_array_is_not_a_graph():
    # read as a dense adjacency matrix, this (2, 2) edge array would be a
    # valid graph on 2 points with the wrong meaning; it must raise instead
    edges = np.array([[0, 1], [1, 0]])
    with pytest.raises(AttributeError):
        connected_components(np.ones(2, dtype=bool), edges)
    with pytest.raises(AttributeError):
        spanning_forest(edges, np.ones(2))


@pytest.mark.parametrize("seed", range(4))
def test_components_match_bfs_oracle(seed):
    rng = _rng(seed, 35)
    n = int(rng.integers(5, 200))
    pts = rng.random((n, 2))
    idx = SpatialIndex(pts)
    g = build_kg_graph(idx, 3)
    scores = dmbc_plls(pts, 2, min(10, n - 1))
    mask, edges = core_subgraph(g, scores, 0.6)
    got = connected_components(mask, edge_graph(edges, n))
    oracle = bfs_components(n, [tuple(e) for e in edges], mask)
    assert np.array_equal(got, oracle)


def test_spanning_forest_keeps_every_lambdas_components():
    # random directed k-NN graphs with tied scores (multiples of 1/k_l): at
    # every lambda, from 0 to above the top score, the forest's core
    # subgraph has the components of the full edge list's
    rng = _rng(7, 37)
    for case in range(60):
        n = int(rng.integers(2, 150))
        pts = rng.random((n, int(rng.integers(1, 4))))
        if case % 2:
            pts = np.round(pts * 4) / 4
        k_g = int(rng.integers(1, min(n - 1, 12) + 1))
        nbr, _ = SpatialIndex(pts).query_bulk(pts, k_g, exclude=np.arange(n))
        edges = np.column_stack([np.repeat(np.arange(n), k_g), nbr.reshape(-1)])
        graph = graph_from_neighbors(nbr)
        # the graph's column indices are the table's own int32 indices
        assert graph.indices.dtype == nbr.dtype == np.int32, case
        assert np.shares_memory(graph.indices, nbr), case
        k_l = int(rng.integers(1, 20))
        scores = rng.integers(0, k_l + 1, n) / k_l
        forest = spanning_forest(graph, scores)
        # an int64 table spans the same forest
        wide = spanning_forest(graph_from_neighbors(nbr.astype(np.int64)), scores)
        assert (wide != forest).nnz == 0, case
        components = connected_components(np.ones(n, dtype=bool), graph).max() + 1
        assert forest.nnz == n - components, case
        levels = np.unique(scores)
        for lam in (0.0, *levels, *(levels[:-1] + levels[1:]) / 2, levels[-1] + 1 / k_l):
            mask, cut = core_subgraph(edges, scores, lam)
            want = connected_components(mask, edge_graph(cut, n))
            got = connected_components(mask, forest)
            assert np.array_equal(got, want), (case, lam)


def test_stacked_components_equal_each_lambdas_own():
    # random k-NN graphs and their forests, scores tied at multiples of
    # 1/k_l: one call on a stack of lambda masks over the uncut graph
    # gives, row by row, the one-lambda labels of the cut core subgraph
    # and the BFS oracle's; lambdas at 0, on a level, between levels and
    # above the top score (no core point), and stacks of one row.  A graph
    # with int64 index arrays gives equal labels
    rng = _rng(8, 38)
    for case in range(60):
        n = int(rng.integers(2, 150))
        pts = rng.random((n, int(rng.integers(1, 4))))
        if case % 2:
            pts = np.round(pts * 4) / 4
        k_g = int(rng.integers(1, min(n - 1, 12) + 1))
        nbr, _ = SpatialIndex(pts).query_bulk(pts, k_g, exclude=np.arange(n))
        k_l = int(rng.integers(1, 20))
        scores = rng.integers(0, k_l + 1, n) / k_l
        graph = graph_from_neighbors(nbr)
        levels = np.unique(scores)
        lams = np.array([0.0, *levels, *(levels[:-1] + levels[1:]) / 2, levels[-1] + 1 / k_l])
        rng.shuffle(lams)
        if case % 5 == 0:
            lams = lams[:1]
        masks = scores >= lams[:, None]
        for g in (graph, spanning_forest(graph, scores)):
            edges = np.column_stack(g.nonzero())
            got = connected_components(masks, g)
            assert got.shape == (len(lams), n) and got.dtype == np.int64, case
            wide = g.copy()
            wide.indices, wide.indptr = wide.indices.astype(np.int64), wide.indptr.astype(np.int64)
            assert np.array_equal(connected_components(masks, wide), got), case
            for j, lam in enumerate(lams):
                mask, cut = core_subgraph(edges, scores, lam)
                want = connected_components(mask, edge_graph(cut, n))
                assert np.array_equal(got[j], want), (case, lam)
                assert np.array_equal(got[j], bfs_components(n, edges, masks[j])), (case, lam)
            assert np.all(got[lams > levels[-1]] == -1), case


# ---------------------------------------------------------------- finalize


def table(points, width=None):
    """The exact self-excluded neighbor table finalize reads (default: every
    other point)."""
    n = len(points)
    nbr, _ = SpatialIndex(points).query_bulk(points, width or n - 1, exclude=np.arange(n))
    return nbr


def finalize_on(points, provisional, core_mask, min_cluster_size):
    """finalize on the table of every other point, with each row's first
    core point taken from core_mask as a 0/1 score vector at lambda 1."""
    nbr = table(points)
    first = first_scoring(np.asarray(core_mask, dtype=np.float64), nbr, [1.0])[:, 0]
    return finalize(provisional, core_mask, min_cluster_size,
                    lambda core: nearest_core(points, first, core))


def test_first_scoring_is_the_first_neighbor_at_or_above_lambda():
    rng = _rng(5, 0)
    scores = np.round(rng.random(300) * 8) / 8  # tied scores, lambdas on ties
    nbr = rng.permuted(np.tile(np.arange(300), (300, 1)), axis=1)[:, :7]
    lams = [0.0, 0.375, 0.5, 0.875, 1.0, 1.5]
    first = first_scoring(scores, nbr, lams)
    assert first.shape == (300, 6) and first.dtype == np.int64
    for i in range(300):
        for j, lam in enumerate(lams):
            hits = [p for p in nbr[i] if scores[p] >= lam]
            assert first[i, j] == (hits[0] if hits else -1), (i, lam)
    assert np.array_equal(first[:, 0], nbr[:, 0])
    assert np.all(first[:, 5] == -1)
    assert np.any(first[:, 3] == -1) and np.any(first[:, 3] >= 0)


def test_finalize_all_core_unchanged():
    pts = np.array([[0.0], [1.0], [10.0], [11.0]])
    provisional = np.array([0, 0, 1, 1])
    labels, core, num = finalize_on(pts, provisional, np.ones(4, dtype=bool), 2)
    assert num == 2
    assert np.array_equal(labels, [0, 0, 1, 1])
    assert np.all(core)


def test_finalize_tie_goes_to_lower_index_core():
    pts = np.array([[0.0], [2.0], [1.0]])  # point 2 equidistant from 0 and 1
    provisional = np.array([0, 1, -1])
    labels, _, num = finalize_on(pts, provisional, np.array([True, True, False]), 1)
    assert num == 2
    assert labels[2] == labels[0]


def test_finalize_dissolves_small_component():
    # cores {0,1,2} clustered, singleton core 3 dissolved and reassigned
    pts = np.array([[0.0], [0.1], [0.2], [5.0]])
    provisional = np.array([0, 0, 0, 1])
    labels, core, num = finalize_on(pts, provisional, np.ones(4, dtype=bool), 2)
    assert num == 1
    assert np.array_equal(labels, [0, 0, 0, 0])
    assert not core[3]


def test_finalize_no_core_single_cluster():
    pts = np.arange(4.0)[:, None]
    labels, core, num = finalize_on(pts, np.full(4, -1), np.zeros(4, dtype=bool), 2)
    assert num == 1
    assert np.array_equal(labels, np.zeros(4, dtype=np.int64))


def test_finalize_orders_labels_by_size():
    # big cluster second in index order must still get label 0
    pts = np.concatenate([np.zeros((2, 1)), np.full((5, 1), 10.0) + np.arange(5)[:, None] * 0.1])
    provisional = np.array([0, 0, 1, 1, 1, 1, 1])
    labels, _, num = finalize_on(pts, provisional, np.ones(7, dtype=bool), 2)
    assert num == 2
    assert np.array_equal(labels, [1, 1, 0, 0, 0, 0, 0])


def finalize_cases():
    """(name, points, scores, cells) on blobs, 0.25-quantized blobs (core
    points tied at equal distance), and all-core and no-core sets.  Each
    cell is (lambda, provisional, core mask, min cluster size) on the one
    score vector; the larger sizes dissolve components into non-core rows."""
    blobs = gen_multiblobs(1500, 2, 4, seed=11).points
    quantized = np.round(blobs / 0.25) * 0.25
    for name, pts in (("blobs", blobs), ("quantized", quantized)):
        scores = dmbc_plls(pts, 10, 40)
        graph = build_kg_graph(SpatialIndex(pts), 10)
        cells = []
        for lam in (0.3, 0.5, 0.8):
            mask, edges = core_subgraph(graph, scores, lam)
            provisional = connected_components(mask, edge_graph(edges, len(pts)))
            cells += [(lam, provisional, mask, min_size) for min_size in (30, 60)]
        yield name, pts, scores, cells
    n = len(blobs)
    yield "all-core", blobs, np.ones(n), [
        (0.5, np.repeat(np.arange(4), n // 4 + 1)[:n], np.ones(n, dtype=bool), 1)]
    yield "no-core", blobs, np.zeros(n), [
        (0.5, np.full(n, -1), np.zeros(n, dtype=bool), 1)]


@pytest.mark.parametrize("width", [1, 15, 100])
def test_finalize_reads_table_like_the_tree_oracle(width, monkeypatch):
    # a non-core row takes its first point scoring >= lambda if that point
    # survived dissolution, and is queried against a core index if that
    # point was dissolved or the row holds none; the index is built only then
    built = []
    init = SpatialIndex.__init__

    def record(self, points):
        built.append(len(points))
        init(self, points)

    direct = queried = 0
    for name, pts, scores, cells in finalize_cases():
        nbr = table(pts, width)
        lams = [lam for lam, *_ in cells]
        first = first_scoring(scores, nbr, lams)
        for lam, provisional, mask, min_size in cells:
            col = first[:, lams.index(lam)]
            expected = finalize_by_tree(pts, provisional, mask, min_size)
            monkeypatch.setattr(SpatialIndex, "__init__", record)
            built.clear()
            got = finalize(provisional, mask, min_size,
                           lambda core: nearest_core(pts, col, core))
            monkeypatch.undo()
            case = (name, width, lam, min_size)
            assert np.array_equal(got[0], expected[0]), case
            assert np.array_equal(got[1], expected[1]), case
            assert got[2] == expected[2], case
            core = expected[1]
            rows = np.flatnonzero(~core)
            hit = col[rows] >= 0
            survived = hit & core[np.where(hit, col[rows], 0)]
            query = np.count_nonzero(~survived) * bool(np.any(core))
            assert len(built) == int(query > 0), case
            direct += np.count_nonzero(survived)
            queried += query
    assert direct > 0
    assert queried > 0


def test_nearest_core_equals_brute_force_oracle():
    # first is each point's nearest other point of a random superset of the
    # core mask, or -1: rows whose first point was dropped from the superset,
    # rows of a table too narrow to hold one, and an all -1 column; on
    # continuous, lattice and duplicate points
    rng = _rng(9, 0)
    kinds = {"first kept": 0, "first dropped": 0, "no first": 0}
    for trial in range(60):
        n = int(rng.integers(2, 120))
        pts = hostile_set(rng, ("continuous", "lattice", "duplicates")[trial % 3], n,
                          int(rng.integers(1, 4)))
        order, _ = pairwise_order(pts)  # self parked last
        superset = rng.random(n) < rng.random()
        superset[rng.integers(n)] = True
        core = superset & (rng.random(n) < rng.random())
        core[rng.choice(np.flatnonzero(superset))] = True
        width = int(rng.integers(1, n))
        first = first_scoring(superset.astype(np.float64), order[:, :width], [1.0])[:, 0]
        if trial % 10 == 9:
            first[:] = -1
        got = nearest_core(pts, first, core)
        expected = [i if core[i] else next(j for j in order[i] if core[j]) for i in range(n)]
        assert np.array_equal(got, expected), trial
        hit = np.flatnonzero(~core & (first >= 0))
        kinds["first kept"] += np.count_nonzero(core[first[hit]])
        kinds["first dropped"] += np.count_nonzero(~core[first[hit]])
        kinds["no first"] += np.count_nonzero(~core & (first < 0))
    assert min(kinds.values()) > 0, kinds


# --------------------------------------------------------------- bdmbc_fit


def test_config_validation_messages():
    pts = _rng(0, 36).random((50, 2))
    with pytest.raises(ValueError, match="k_d must be smaller than subsample size"):
        bdmbc_fit(pts, BdmbcConfig(k_d=25, k_l=10, b=2, rho=0.5, k_g=5))
    with pytest.raises(ValueError, match="k_d must be >= 1"):
        bdmbc_fit(pts, BdmbcConfig(k_d=0, k_l=10, rho=0.5, k_g=5))
    with pytest.raises(ValueError, match="k_l"):
        bdmbc_fit(pts, BdmbcConfig(k_d=5, k_l=50, b=1, rho=1.0, k_g=5))
    with pytest.raises(ValueError, match="lambda"):
        bdmbc_fit(pts, BdmbcConfig(k_d=5, k_l=10, b=1, rho=1.0, k_g=5, lam=1.5))
    with pytest.raises(ValueError, match="rho"):
        bdmbc_fit(pts, BdmbcConfig(k_d=5, k_l=10, b=1, rho=0.0, k_g=5))


@pytest.mark.parametrize("name", ["k_d", "k_l", "b", "s", "k_g", "min_cluster_size", "seed"])
def test_config_rejects_non_integers(name):
    # 5.7 and 5.0 used to be truncated or fail deep inside a stage, and True
    # ran as 1; numpy integers stay accepted
    pts = _rng(1, 36).random((50, 2))
    base = dict(k_d=3, k_l=10, b=2, s=25, k_g=5, min_cluster_size=4, seed=1)
    # None is the default of s and min_cluster_size, so only the others
    # reject it
    nones = () if name in ("s", "min_cluster_size") else (None,)
    for bad in (5.7, 5.0, True, np.bool_(True), "5", *nones):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            bdmbc_fit(pts, BdmbcConfig(**{**base, name: bad}))
    want = bdmbc_fit(pts, BdmbcConfig(**base))
    got = bdmbc_fit(pts, BdmbcConfig(**{**base, name: np.int64(base[name])}))
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.plls, want.plls)
    plan = dict(b=2, s=25, k_d=3, seed=1)
    if name in plan:
        for bad in (5.7, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                BaggingPlan(**{**plan, name: bad}).validate(50)
        BaggingPlan(**{**plan, name: np.int32(plan[name])}).validate(50)


def test_single_point_degenerate():
    res = bdmbc_fit(np.zeros((1, 3)), BdmbcConfig(k_d=1, k_l=1))
    assert res.num_clusters == 1
    assert np.array_equal(res.labels, [0])


def test_single_point_fit_checks_its_config():
    # a one-point fit returned before any check, so it took and reported
    # kd 5.7, kl True and b 2.5
    bad = [dict(k_d=5.7, k_l=True, b=2.5), dict(k_d=1, k_l=1, seed=0.5),
           dict(k_d=1, k_l=1, s=np.bool_(True)), dict(k_d=0, k_l=1), dict(k_d=1, k_l=0),
           dict(k_d=1, k_l=1, b=0), dict(k_d=1, k_l=1, k_g=0),
           dict(k_d=1, k_l=1, min_cluster_size=0), dict(k_d=1, k_l=1, lam=1.5),
           dict(k_d=1, k_l=1, rho=0.0), dict(k_d=1, k_l=1, rho=float("nan")),
           dict(k_d=1, k_l=1, lam=True), dict(k_d=1, k_l=1, rho="0.5")]
    for fields in bad:
        with pytest.raises(ValueError):
            bdmbc_fit(np.zeros((1, 2)), BdmbcConfig(**fields))
    # checks that need n > 1 do not run: kd 5 >= s = 1 and kl 5 > n - 1
    res = bdmbc_fit(np.zeros((1, 2)), BdmbcConfig(k_d=5, k_l=5))
    assert res.config["s"] == 1 and res.num_clusters == 1


@pytest.mark.parametrize("s", [None, 40])
@pytest.mark.parametrize("min_cluster_size", [None, 7])
def test_config_dict_round_trip(s, min_cluster_size):
    c = BdmbcConfig(k_d=6, k_l=25, b=3, rho=0.35, s=s, k_g=9, lam=0.45,
                    min_cluster_size=min_cluster_size, seed=11)
    for n in (None, 120):
        d = c.to_dict(n)
        assert BdmbcConfig.from_dict(d).to_dict(n) == d
        assert json.loads(json.dumps(d)) == d  # JSON names and values
    # without n, to_dict leaves s unset when it was, and from_dict keeps
    # every field
    if s is not None:
        assert BdmbcConfig.from_dict(c.to_dict()) == replace(
            c, min_cluster_size=c.effective_min_cluster_size())
    # a parameter left out keeps the dataclass default
    assert BdmbcConfig.from_dict({"kd": 6, "kl": 25}) == BdmbcConfig(k_d=6, k_l=25)
    assert BdmbcConfig.from_dict({"kd": 5.0, "kl": 25, "s": None}) == BdmbcConfig(k_d=5, k_l=25)


def test_fit_result_contract():
    ds = gen_multiblobs(400, 2, 3, seed=5)
    cfg = BdmbcConfig(k_d=10, k_l=40, b=5, rho=0.5, k_g=10, lam=0.5, seed=0)
    res = bdmbc_fit(ds, cfg)
    # label totality and contiguity
    assert res.labels.shape == (400,)
    assert set(np.unique(res.labels)) == set(range(res.num_clusters))
    # modes are core points with score exactly 1
    assert np.all(res.core_mask[res.modes])
    assert np.all(res.plls[res.modes] == 1.0)
    # config echo includes the resolved subsample size
    assert res.config["s"] == 200
    assert set(res.timings) == {"index", "bagged_kdist", "plls", "graph",
                                "components", "finalize"}


def test_fit_builds_an_index_only_when_it_queries_one(monkeypatch):
    # whichever way bagging runs (rank table at n <= 2048 with s < n, plain
    # k-distance at s == n, brute-force or tree rounds above 2048 points),
    # a fit indexes its n points once, queries them once, without
    # distances, and times that as "index"; tree rounds index only their
    # subsamples
    built, queried = [], []
    init, query_bulk = SpatialIndex.__init__, SpatialIndex.query_bulk

    def record_init(self, points):
        init(self, points)
        built.append(self.n)

    def record_query(self, queries, k, exclude=None, distances=True):
        queried.append((self.n, len(queries), distances))
        return query_bulk(self, queries, k, exclude=exclude, distances=distances)

    monkeypatch.setattr(SpatialIndex, "__init__", record_init)
    monkeypatch.setattr(SpatialIndex, "query_bulk", record_query)
    small = gen_multiblobs(400, 2, 3, seed=5)
    large = gen_multiblobs(2100, 2, 3, seed=5)
    runs = [
        (small, BdmbcConfig(k_d=10, k_l=40, b=5, rho=0.5, k_g=10)),
        (small, BdmbcConfig(k_d=10, k_l=40, b=1, rho=1.0, k_g=10)),
        (large, BdmbcConfig(k_d=5, k_l=20, b=2, rho=0.1, k_g=10)),
        (large, BdmbcConfig(k_d=5, k_l=20, b=2, s=1100, k_g=10)),
    ]
    for ds, cfg in runs:
        built.clear()
        queried.clear()
        res = bdmbc_fit(ds, cfg)
        assert built.count(ds.n) == 1, built
        assert [q for q in queried if q[0] == ds.n] == [(ds.n, ds.n, False)], queried
        assert "index" in res.timings


def test_full_fit_peak_memory():
    # an s == n fit reads the neighbor table's indices alone, int32, and
    # its k-NN blocks form their differences in 1 MiB slices; with int64
    # indices, float64 distances and whole-block differences this fit
    # peaked at 43.1 MiB at one thread and 55.3 MiB at three
    ds = gen_multiblobs(20000, 10, 10, seed=3)
    tracemalloc.start()
    try:
        bdmbc_fit(ds, BdmbcConfig(k_d=100, k_l=50, b=1, rho=1.0, k_g=15))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_fit_queries_only_the_ranks_it_reads(monkeypatch):
    # An s == n fit reads ranks 1..max(k_l, k_g) and rank k_d, so with k_d
    # beyond both its table is max(k_l, k_g) + 1 wide; bagging alone at
    # s == n asks for rank k_d; each tree round asks for ranks k_d and
    # k_d + 1, once per distinct location.  (nearest_core's 1-NN queries
    # against the core points are left out.)
    queried = []
    query_bulk = SpatialIndex.query_bulk

    def record_query(self, queries, k, exclude=None, distances=True):
        out = query_bulk(self, queries, k, exclude=exclude, distances=distances)
        if self.n in (400, 1100, 2100):
            queried.append((self.n, list(k) if np.ndim(k) else k, out[0].shape))
        return out

    monkeypatch.setattr(SpatialIndex, "query_bulk", record_query)
    small = gen_multiblobs(400, 2, 3, seed=5)
    bdmbc_fit(small, BdmbcConfig(k_d=60, k_l=40, b=1, rho=1.0, k_g=10))
    assert queried == [(400, [*range(1, 41), 60], (400, 41))]
    queried.clear()
    bdmbc_fit(small, BdmbcConfig(k_d=30, k_l=40, b=1, rho=1.0, k_g=10))
    assert queried == [(400, 40, (400, 40))]
    queried.clear()
    bagged_k_distance(small, BaggingPlan(b=1, s=400, k_d=60))
    assert queried == [(400, [60], (400, 1))]
    queried.clear()
    large = gen_multiblobs(2100, 2, 3, seed=5)
    bdmbc_fit(large, BdmbcConfig(k_d=5, k_l=20, b=2, s=1100, k_g=10))
    assert queried == [(2100, 20, (2100, 20))] + [(1100, [5, 6], (2100, 2))] * 2


def test_full_fit_peak_memory_at_three_threads(monkeypatch):
    # the s == n fit's table holds ranks 1..50 and 100 (3.9 MiB), not all
    # 100 (7.6 MiB), and each worker's tree-window block at most
    # knn._TREE_WINDOW (rows, kq) elements; with both it peaked at 19.9 MiB
    monkeypatch.setenv("BDMBC_THREADS", "3")
    ds = gen_multiblobs(20000, 10, 10, seed=3)
    tracemalloc.start()
    try:
        bdmbc_fit(ds, BdmbcConfig(k_d=100, k_l=50, b=1, rho=1.0, k_g=15))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("e", [-600, -300, 300, 600])
def test_fit_and_grid_do_not_depend_on_scale(e):
    # scaled by 2**e, a fit on each bagging path (rank table, s == n,
    # brute-force and tree rounds) and a grid give the unscaled result JSON
    # byte for byte; at 2**+-600 the squared differences overflowed or
    # underflowed and the first fit found 1 cluster instead of 4
    from bdmbc.grid import grid_search

    small = gen_multiblobs(600, 3, 4, seed=1)
    large = gen_multiblobs(2100, 3, 4, seed=1)
    runs = [(small, BdmbcConfig(k_d=5, k_l=30, rho=0.5)),
            (small, BdmbcConfig(k_d=5, k_l=30, b=1, rho=1.0)),
            (large, BdmbcConfig(k_d=5, k_l=30, b=2, rho=0.1)),
            (large, BdmbcConfig(k_d=5, k_l=30, b=2, s=1100))]
    for ds, cfg in runs:
        want = json.dumps(bdmbc_fit(ds, cfg).to_json_dict())
        assert json.dumps(bdmbc_fit(ds.points * 2.0**e, cfg).to_json_dict()) == want, cfg
    grid = {"b": [2], "rho": [0.5], "kd": [5], "kl": [20, 30], "kg": [5, 10],
            "lambda": [0.3, 0.6]}
    scaled = Dataset(small.points * 2.0**e, small.labels)
    assert grid_search(scaled, grid) == grid_search(small, grid)


def test_fit_deterministic():
    ds = gen_multiblobs(300, 3, 4, seed=1)
    cfg = BdmbcConfig(k_d=8, k_l=30, b=4, rho=0.4, k_g=8, lam=0.5, seed=9)
    a = bdmbc_fit(ds, cfg)
    b = bdmbc_fit(ds, cfg)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.plls, b.plls)
    assert np.array_equal(a.modes, b.modes)


def test_fit_permutation_equivariance():
    rng = _rng(12, 37)
    ds = gen_multiblobs(250, 2, 3, seed=2)
    # all pairwise distances distinct with overwhelming probability here
    perm = rng.permutation(250)
    cfg = BdmbcConfig(k_d=6, k_l=25, b=1, rho=1.0, k_g=8, lam=0.5, seed=0)
    a = bdmbc_fit(ds, cfg)
    b = bdmbc_fit(Dataset(ds.points[perm]), cfg)
    # partitions equal as set-of-sets
    def partition(labels):
        return {frozenset(np.flatnonzero(labels == c).tolist())
                for c in np.unique(labels)}

    inv = np.empty(250, dtype=np.int64)
    inv[perm] = np.arange(250)
    assert partition(a.labels) == partition(b.labels[inv])


def test_lambda_one_clusters_mode_set_only():
    pts = _rng(13, 38).random((100, 2))
    cfg = BdmbcConfig(k_d=5, k_l=20, b=1, rho=1.0, k_g=10, lam=1.0,
                      min_cluster_size=1, seed=0)
    res = bdmbc_fit(pts, cfg)
    scores = dmbc_plls(pts, 5, 20)
    assert np.array_equal(np.flatnonzero(res.core_mask),
                          np.flatnonzero(scores == 1.0))


@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize("bagged", [True, False])
def test_fit_equals_public_stage_composition(quantized, bagged):
    # bdmbc_fit slices one neighbor table; the public stages query their own.
    pts = gen_multiblobs(600, 2, 3, seed=7).points
    if quantized:
        pts = np.round(pts / 0.25) * 0.25
    if bagged:
        cfg = BdmbcConfig(k_d=6, k_l=30, b=4, rho=0.3, k_g=8, lam=0.5, seed=3)
    else:
        cfg = BdmbcConfig(k_d=40, k_l=30, b=1, rho=1.0, k_g=8, lam=0.5, seed=3)
    res = bdmbc_fit(pts, cfg)

    idx = SpatialIndex(pts)
    plan = BaggingPlan(b=cfg.b, s=cfg.subsample_size(600), k_d=cfg.k_d, seed=cfg.seed)
    scores = empirical_plls(pts, idx, bagged_k_distance(pts, plan), cfg.k_l)
    mask, edges = core_subgraph(build_kg_graph(idx, cfg.k_g), scores, cfg.lam)
    nbr, _ = idx.query_bulk(pts, cfg.k_g, exclude=np.arange(600))
    first = first_scoring(scores, nbr, [cfg.lam])[:, 0]
    labels, core, num = finalize(connected_components(mask, edge_graph(edges, 600)), mask,
                                 cfg.effective_min_cluster_size(),
                                 lambda core: nearest_core(pts, first, core))
    modes = mode_set(scores)
    assert np.array_equal(res.plls, scores)
    assert np.array_equal(res.labels, labels)
    assert np.array_equal(res.core_mask, core)
    assert res.num_clusters == num
    assert np.array_equal(res.modes, modes[core[modes]])


def test_quantized_fit_memory_and_time_bounded():
    # On a 1/8 grid nearly every k-NN row ties at the edge of its candidate
    # window; resolving those ties must cost memory and time in proportion
    # to the tied shell, not to n for every row.
    pts = np.round(gen_multiblobs(n=20000, d=2, clusters=6, seed=5).points * 8) / 8
    cfg = BdmbcConfig(k_d=10, k_l=50, b=5, rho=0.25, k_g=15, lam=0.5, seed=0)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        res = bdmbc_fit(pts, cfg)
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.labels.shape == (20000,)
    assert peak < 256 * 2**20, f"peak {peak / 2**20:.0f} MiB"
    assert elapsed < 60.0, f"{elapsed:.1f} s"


def test_quantized_100k_fit_time_bounded():
    # 100k blobs on a 0.25 grid hold only 330 distinct locations; the k-NN
    # solves each once, so the fit takes about 1 s (71 s when every copy
    # re-walked its tied shell).
    pts = np.round(gen_multiblobs(n=100000, d=2, clusters=6, seed=5).points / 0.25) * 0.25
    cfg = BdmbcConfig(k_d=10, k_l=50, b=5, rho=0.25, k_g=15, lam=0.5, seed=0)
    t0 = time.perf_counter()
    res = bdmbc_fit(pts, cfg)
    elapsed = time.perf_counter() - t0
    assert res.labels.shape == (100000,)
    assert elapsed < 15.0, f"{elapsed:.1f} s"


def test_quantized_100k_fit_peak_memory():
    # when most points are core, the components stage sets the fit's peak:
    # the k_g graph is the neighbor table's CSR view and its components
    # come from the subgraph the core points induce; an edge-list copy,
    # layered node ids and a COO matrix peaked at 114.8 MiB on this fit
    pts = np.round(gen_multiblobs(n=100000, d=2, clusters=6, seed=5).points / 0.25) * 0.25
    cfg = BdmbcConfig(k_d=10, k_l=50, b=5, rho=0.25, k_g=15, lam=0.5, seed=0)
    tracemalloc.start()
    try:
        bdmbc_fit(pts, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 90 * 2**20, f"peak {peak / 2**20:.1f} MiB"
