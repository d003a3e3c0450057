"""Grid search behavior and the command-line front end."""

import csv
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from bdmbc.cli import main
from bdmbc.data import Dataset, GaussianMixture, gen_mixture, gen_multiblobs
from bdmbc.grid import GRID_COLUMNS, METRICS, grid_search
from bdmbc.knn import worker_count
from bdmbc.metrics import metric_report
from bdmbc.cluster import BdmbcConfig, bdmbc_fit


def write_dataset(path, ds):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row, lab in zip(ds.points, ds.labels):
            w.writerow([repr(float(v)) for v in row] + [int(lab)])


@pytest.fixture()
def blob_csv(tmp_path):
    ds = gen_multiblobs(300, 2, 3, seed=4)
    path = tmp_path / "blobs.csv"
    write_dataset(path, ds)
    return path, ds


# ------------------------------------------------------------- grid_search


def test_grid_rows_and_ordering(blob_csv):
    _, ds = blob_csv
    grid = {"b": [2], "rho": [0.5], "kd": [5, 10], "kl": [30],
            "kg": [5, 10], "lambda": [0.3, 0.6]}
    rows = grid_search(ds, grid, metric="ari", seed=0)
    assert len(rows) == 8
    metrics = [r["ari"] for r in rows]
    assert metrics == sorted(metrics, reverse=True)
    for row in rows:
        assert set(GRID_COLUMNS) <= set(row)


def test_grid_best_row_matches_single_fit(blob_csv):
    _, ds = blob_csv
    grid = {"b": [2], "rho": [0.5], "kd": [5, 10], "kl": [30],
            "kg": [5, 10], "lambda": [0.3, 0.6]}
    rows = grid_search(ds, grid, metric="ari", seed=0)
    best = rows[0]
    cfg = BdmbcConfig(k_d=best["kd"], k_l=best["kl"], b=best["b"],
                      rho=best["rho"], k_g=best["kg"], lam=best["lambda"], seed=0)
    res = bdmbc_fit(ds, cfg)
    rep = metric_report(ds.labels, res.labels)
    for key, value in rep.items():
        assert best[key] == pytest.approx(value, abs=1e-12)
    assert best["num_clusters"] == res.num_clusters


def test_every_grid_row_equals_its_own_fit():
    # 0.25-quantized blobs (tied distances and scores), a rank-table plan
    # (s < n <= 2048) and an s == n plan, and a minimum size that dissolves
    # components: every row is its cell's fit, scored by metric_report
    blobs = gen_multiblobs(300, 2, 3, seed=4)
    ds = Dataset(np.round(blobs.points / 0.25) * 0.25, blobs.labels)
    grid = {"b": [2], "rho": [0.5, 1.0], "kd": [5], "kl": [30],
            "kg": [5, 10], "lambda": [0.3, 0.5, 0.8]}
    rows = grid_search(ds, grid, seed=0, min_cluster_size=10)
    assert len(rows) == 12
    dissolved = 0
    for row in rows:
        cfg = BdmbcConfig(k_d=row["kd"], k_l=row["kl"], b=row["b"], rho=row["rho"],
                          k_g=row["kg"], lam=row["lambda"], min_cluster_size=10, seed=0)
        res = bdmbc_fit(ds, cfg)
        expected = {**metric_report(ds.labels, res.labels), "num_clusters": res.num_clusters}
        assert {key: row[key] for key in (*METRICS, "num_clusters")} == expected, row
        dissolved += np.count_nonzero((res.plls >= cfg.lam) & ~res.core_mask)
    assert dissolved > 0


def test_grid_cells_share_their_threshold_stage(monkeypatch):
    # 0.25-quantized blobs, 3 k_g x 4 lambda cells on one score vector and a
    # minimum size that dissolves components (all of them in one cell):
    # every row is its own fit, the nearest-core step runs once per distinct
    # (lambda, nonempty surviving core set), fewer times than there are
    # cells, and threads change no row
    import bdmbc.cluster

    blobs = gen_multiblobs(300, 2, 3, seed=4)
    ds = Dataset(np.round(blobs.points / 0.25) * 0.25, blobs.labels)
    grid = {"b": [2], "rho": [0.5], "kd": [5], "kl": [30],
            "kg": [5, 10, 15], "lambda": [0.2, 0.4, 0.6, 0.8]}
    calls, rows = {}, {}
    nearest_core = bdmbc.cluster.nearest_core
    for threads in ("1", "3"):
        def counted(points, first, core_mask, into=calls.setdefault(threads, [])):
            into.append(core_mask.tobytes())
            return nearest_core(points, first, core_mask)

        monkeypatch.setattr(bdmbc.cluster, "nearest_core", counted)
        monkeypatch.setenv("BDMBC_THREADS", threads)
        rows[threads] = grid_search(ds, grid, seed=0, min_cluster_size=15)
    monkeypatch.undo()  # the fits below run nearest_core too
    assert rows["1"] == rows["3"]
    assert len(rows["1"]) == 12
    surviving, dissolved = set(), 0
    for row in rows["1"]:
        cfg = BdmbcConfig(k_d=5, k_l=30, b=2, rho=0.5, k_g=row["kg"], lam=row["lambda"],
                          min_cluster_size=15, seed=0)
        res = bdmbc_fit(ds, cfg)
        expected = {**metric_report(ds.labels, res.labels), "num_clusters": res.num_clusters}
        assert {key: row[key] for key in (*METRICS, "num_clusters")} == expected, row
        if res.core_mask.any():  # else every point joins one cluster
            surviving.add((cfg.lam, res.core_mask.tobytes()))
        dissolved += np.count_nonzero((res.plls >= cfg.lam) & ~res.core_mask)
    assert dissolved > 0
    assert len(surviving) < len(rows["1"])
    for threads in ("1", "3"):
        assert sorted(calls[threads]) == sorted(core for _, core in surviving), threads


def test_only_a_score_vector_with_several_lambdas_builds_forests(monkeypatch):
    # a spanning forest costs more to build than one components call on the
    # k_g graph, so only one call that labels several lambdas runs on it: a
    # fit and a one-lambda grid build none, a 4-lambda grid one per (score
    # vector, k_g), and every row is still its own fit
    import bdmbc.cluster

    ds = gen_multiblobs(300, 2, 3, seed=4)
    built = []
    spanning_forest = bdmbc.cluster.spanning_forest

    def counted(edges, scores):
        built.append(len(edges))
        return spanning_forest(edges, scores)

    monkeypatch.setattr(bdmbc.cluster, "spanning_forest", counted)
    base = {"b": [2], "rho": [0.5], "kd": [5], "kl": [20, 30], "kg": [5, 10, 15]}
    for lams, forests in (([0.5], 0), ([0.2, 0.4, 0.6, 0.8], 2 * 3)):
        built.clear()
        rows = grid_search(ds, {**base, "lambda": lams}, seed=0)
        assert len(rows) == 2 * 3 * len(lams)
        assert len(built) == forests, lams
        for row in rows:
            res = bdmbc_fit(ds, BdmbcConfig(k_d=5, k_l=row["kl"], b=2, rho=0.5, k_g=row["kg"],
                                            lam=row["lambda"], seed=0))
            expected = {**metric_report(ds.labels, res.labels), "num_clusters": res.num_clusters}
            assert {key: row[key] for key in (*METRICS, "num_clusters")} == expected, row
        assert len(built) == forests  # the fits built none


def test_grid_skips_invalid_cells(blob_csv):
    _, ds = blob_csv
    # kd=200 >= s=150 for rho=0.5 must be skipped, not raised
    rows = grid_search(ds, {"b": [1], "rho": [0.5], "kd": [200, 5],
                            "kl": [20], "kg": [5], "lambda": [0.5]}, seed=0)
    assert len(rows) == 1 and rows[0]["kd"] == 5


def test_grid_requires_labels_and_lists(blob_csv):
    _, ds = blob_csv
    from bdmbc.data import Dataset

    unlabeled = Dataset(ds.points)
    with pytest.raises(ValueError):
        grid_search(unlabeled, {"kd": [5], "kl": [20]})
    with pytest.raises(ValueError):
        grid_search(ds, {"kd": [], "kl": [20]})
    with pytest.raises(ValueError):
        grid_search(ds, {"kd": [5], "kl": [20]}, metric="silhouette")
    for kg in (0, 300):  # k_g must lie in [1, n - 1]
        with pytest.raises(ValueError, match="k_g"):
            grid_search(ds, {"b": [1], "rho": [0.5], "kd": [5], "kl": [20], "kg": [kg]})


def test_grid_rejects_rho_and_b_before_any_cell(tmp_path, blob_csv, monkeypatch):
    path, ds = blob_csv

    def no_bagging(*args, **kwargs):
        raise AssertionError("a cell ran before the grid was validated")

    monkeypatch.setattr("bdmbc.cluster.bagged_k_distance", no_bagging)
    base = {"b": [1], "rho": [0.5], "kd": [5], "kl": [20], "kg": [5]}
    # rho <= 0 used to skip every cell, and rho > 1 to raise only after
    # the earlier rho values' cells had run
    for rho in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
            grid_search(ds, {**base, "rho": [0.5, rho]})
    with pytest.raises(ValueError, match="b must be >= 1"):
        grid_search(ds, {**base, "b": [2, 0]})
    # a grid rejects every value a single fit rejects
    for lam in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            grid_search(ds, {**base, "lambda": [0.5, lam]})
    with pytest.raises(ValueError, match="min_cluster_size must be >= 1"):
        grid_search(ds, base, min_cluster_size=0)
    with pytest.raises(ValueError, match="k_d must be >= 1"):
        grid_search(ds, {**base, "kd": [5, 0]})
    gridspec = tmp_path / "grid.json"
    gridspec.write_text(json.dumps({**base, "rho": [0.0]}))
    out = tmp_path / "grid.csv"
    code = main(["grid", str(path), "--label-column", "2",
                 "--grid", str(gridspec), "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_grid_without_valid_cell_is_rejected(tmp_path, blob_csv, monkeypatch):
    path, ds = blob_csv

    def no_bagging(*args, **kwargs):
        raise AssertionError("a cell ran before the grid was validated")

    monkeypatch.setattr("bdmbc.cluster.bagged_k_distance", no_bagging)
    base = {"b": [1], "rho": [0.5], "kd": [5], "kl": [20], "kg": [5]}
    # 300 points: s = ceil(0.001 * 300) = 1 <= kd, and k_l = 400 > n - 1;
    # both used to skip every cell and return no rows
    for bad, match in (({"rho": [0.001], "kd": [5]}, "kd < s"),
                       ({"rho": [0.001, 0.01], "kd": [3, 5]}, "kd < s"),
                       ({"kl": [400]}, "k_l <= n - 1")):
        with pytest.raises(ValueError, match=match):
            grid_search(ds, {**base, **bad})
        gridspec = tmp_path / "grid.json"
        gridspec.write_text(json.dumps({**base, **bad}))
        out = tmp_path / "grid.csv"
        code = main(["grid", str(path), "--label-column", "2",
                     "--grid", str(gridspec), "--out", str(out)])
        assert code == 2
        assert not out.exists()


def test_grid_cells_with_equal_plans_share_one_bagging_pass(blob_csv, monkeypatch):
    import bdmbc.cluster

    _, ds = blob_csv
    plans = []
    bagged_k_distance = bdmbc.cluster.bagged_k_distance

    def record(points, plan, **kwargs):
        plans.append(plan)
        return bagged_k_distance(points, plan, **kwargs)

    monkeypatch.setattr(bdmbc.cluster, "bagged_k_distance", record)
    # on 300 points rho 0.5 and 0.499 both give s = 150
    rows = grid_search(ds, {"b": [2], "rho": [0.5, 0.499], "kd": [5], "kl": [30],
                            "kg": [10], "lambda": [0.5]}, seed=0)
    assert [plan.s for plan in plans] == [150]
    low, high = sorted(rows, key=lambda r: r["rho"])
    assert {**low, "rho": 0.5} == high


def test_grid_thread_invariance(blob_csv, monkeypatch):
    _, ds = blob_csv
    grid = {"b": [2], "rho": [0.5], "kd": [5], "kl": [30],
            "kg": [5, 10], "lambda": [0.3, 0.5, 0.7]}
    monkeypatch.setenv("BDMBC_THREADS", "1")
    rows_1 = grid_search(ds, grid, seed=0)
    monkeypatch.setenv("BDMBC_THREADS", "8")
    rows_8 = grid_search(ds, grid, seed=0)
    assert rows_1 == rows_8


def test_one_thread_starts_no_thread(blob_csv, monkeypatch):
    # at BDMBC_THREADS=1 a fit with brute-force bagging rounds and grids run
    # every k-NN block, round and cell on the calling thread; at 2 threads
    # the fit and a grid with brute-force rounds start pools, and give the
    # same results.  A grid's cells always run on the calling thread, so the
    # 300-point grid (one k-NN block, rank-table bagging) starts none
    import threading

    from bdmbc import bagging, knn

    _, small = blob_csv
    ds = gen_multiblobs(3000, 2, 3, seed=5)
    config = BdmbcConfig(k_d=5, k_l=30, b=3, rho=0.1, seed=0)
    assert ds.n > bagging._RANK_TABLE_MAX_N
    assert config.subsample_size(ds.n) <= bagging._BRUTE_SUBSAMPLE_MAX_S
    grid = {"b": [2], "rho": [0.5], "kd": [5], "kl": [30],
            "kg": [5, 10], "lambda": [0.3, 0.5]}
    pools = []
    pool_class = knn.ThreadPoolExecutor

    def counted_pool(*args, **kwargs):
        pools.append(args)
        return pool_class(*args, **kwargs)

    monkeypatch.setattr(knn, "ThreadPoolExecutor", counted_pool)
    monkeypatch.setenv("BDMBC_THREADS", "2")
    labels = bdmbc_fit(ds, config).labels
    fit_pools = len(pools)
    rows = grid_search(small, grid, seed=0)
    assert fit_pools > 0 and len(pools) == fit_pools
    brute_grid = {**grid, "rho": [0.1]}
    brute_rows = grid_search(ds, brute_grid, seed=0)
    assert len(pools) > fit_pools

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    def no_start(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(knn, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(threading.Thread, "start", no_start)
    monkeypatch.setenv("BDMBC_THREADS", "1")
    assert np.array_equal(bdmbc_fit(ds, config).labels, labels)
    assert grid_search(small, grid, seed=0) == rows
    assert grid_search(ds, brute_grid, seed=0) == brute_rows


def test_grid_table_from_pairwise_order_equals_query(monkeypatch):
    # the grid indexes its n points once and queries them once, as wide as
    # the rank table reaches, k_d + n - s = 9 + 300 - 120 = 189 columns at
    # rho=0.4, kd=9; a table sliced from the brute-force pairwise order
    # gives the same rows.  A 0.25 grid makes ties, and rho=1 adds cells at
    # s == n, whose k-distances are then recomputed from columns of the one
    # query; that query writes no distances
    from bdmbc.knn import SpatialIndex
    from oracles import pairwise_order

    blobs = gen_multiblobs(300, 2, 3, seed=4)
    ds = Dataset(np.round(blobs.points / 0.25) * 0.25, blobs.labels)
    grid = {"b": [3], "rho": [0.4, 1.0], "kd": [4, 9], "kl": [25],
            "kg": [4, 12], "lambda": [0.3, 0.6]}
    built, full_queries = [], []
    init, query_bulk = SpatialIndex.__init__, SpatialIndex.query_bulk

    def record_init(self, points):
        init(self, points)
        built.append(self.n)

    def record_query(self, queries, k, exclude=None, distances=True):
        if self.n == ds.n:
            full_queries.append((len(queries), k, distances))
        return query_bulk(self, queries, k, exclude=exclude, distances=distances)

    monkeypatch.setattr(SpatialIndex, "__init__", record_init)
    monkeypatch.setattr(SpatialIndex, "query_bulk", record_query)
    queried = grid_search(ds, grid, seed=1)
    assert built.count(ds.n) == 1, built
    assert full_queries == [(ds.n, 189, False)]

    order, sorted_dist = pairwise_order(ds.points)

    def sliced_query(self, queries, k, exclude=None, distances=True):
        if self.n == ds.n:
            return order[:, :k], sorted_dist[:, :k] if distances else None
        return query_bulk(self, queries, k, exclude=exclude, distances=distances)

    monkeypatch.setattr(SpatialIndex, "query_bulk", sliced_query)
    sliced = grid_search(ds, grid, seed=1)
    assert len(sliced) == 16
    assert sliced == queried


def test_grid_peak_memory():
    # acceptance 01's grid: its shared table holds int32 indices and no
    # distances, and PLLS and first_scoring gather its rows in slices of
    # at most 2**17 elements; with a 2000 x 750 float64 distance table and
    # whole-table gathers it peaked at 20.6 MiB at one thread and 26.8 MiB
    # at three
    mix = GaussianMixture(means=[[0.20], [0.32], [0.65]], covs=[0.001, 0.002, 0.007],
                          weights=[1 / 3, 1 / 3, 1 / 3])
    ds = gen_mixture(mix, 2000, seed=0)
    grid = {"b": [25], "rho": [0.9], "kd": [300], "kl": [750], "kg": list(range(5, 21)),
            "lambda": [round(0.1 + 0.05 * i, 2) for i in range(17)]}
    tracemalloc.start()
    try:
        rows = grid_search(ds, grid, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 16 * 17
    assert peak < 18 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_worker_count(monkeypatch):
    monkeypatch.setenv("BDMBC_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("BDMBC_THREADS", "0")
    assert worker_count() >= 1
    monkeypatch.setenv("BDMBC_THREADS", "junk")
    assert worker_count() >= 1
    # auto mode counts only the CPUs this process may run on
    monkeypatch.setenv("BDMBC_THREADS", "0")
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count() == 1


# --------------------------------------------------------------------- CLI


def test_cli_gen_cluster_eval_roundtrip(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"kind": "multiblobs", "n": 300, "d": 2, "clusters": 3, "seed": 4}))
    data = tmp_path / "data.csv"
    assert main(["gen", str(spec), "--out", str(data)]) == 0

    out = tmp_path / "result"
    code = main(["cluster", str(data), "--label-column", "2",
                 "--b", "2", "--rho", "0.5", "--kd", "5", "--kl", "30",
                 "--kg", "10", "--lambda", "0.5", "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    result = json.loads((tmp_path / "result.json").read_text())
    assert set(result) == {"labels", "modes", "core", "num_clusters", "plls", "config"}
    assert len(result["labels"]) == 300

    with open(tmp_path / "result.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "label", "core", "plls"]
    assert len(rows) == 301

    pred = tmp_path / "pred.txt"
    pred.write_text("\n".join(str(v) for v in result["labels"]))
    assert main(["eval", str(pred), str(pred)]) == 0


@pytest.mark.parametrize("spec, bad", [
    ({"kind": "moons", "n": 300.7, "seed": True}, "n=300.7 is not an integer"),
    ({"kind": "moons", "n": "300"}, "n='300' is not an integer"),
    ({"kind": "multiblobs", "n": 300, "clusters": 2.9}, "clusters=2.9 is not an integer"),
    ({"kind": "moons", "n": 300, "noise": True}, "noise=True is not a number"),
    ({"kind": "multiblobs", "n": 300, "d": [2]}, "d=[2] is not an integer"),
    ({"kind": "moons", "n": 300, "seed": True}, "seed=True is not an integer"),
    ({"kind": "multiblobs", "n": 300, "std": "0.3"}, "std='0.3' is not a number"),
    # the last four exited 4, 0, 0 and 0: 2**64 does not fit a Philox key
    # word, -1 aliased 2**64 - 1, and NaN noise drew the noise-free points
    ({"kind": "moons", "n": 50, "seed": 2**64}, "seed=18446744073709551616 out of range"),
    ({"kind": "moons", "n": 50, "seed": -1}, "seed=-1 out of range"),
    ({"kind": "moons", "n": 50, "noise": math.nan}, "noise=nan must be >= 0"),
    ({"kind": "multiblobs", "n": 50, "std": -0.3}, "std=-0.3 must be >= 0"),
])
def test_cli_gen_rejects_non_numeric_spec_values(tmp_path, capsys, spec, bad):
    # gen reads every number of its spec as the fit's configs are read:
    # fractions, bools, strings and lists are errors, not truncated values
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "data.csv"
    assert main(["gen", str(path), "--out", str(out)]) == 2
    assert bad in capsys.readouterr().err
    assert not out.exists()
    # an integral float is an integer
    path.write_text(json.dumps({"kind": "multiblobs", "n": 300.0, "d": 3.0, "seed": 4}))
    assert main(["gen", str(path), "--out", str(out)]) == 0


def test_cli_cluster_requires_kd_kl(tmp_path, blob_csv):
    path, _ = blob_csv
    out = tmp_path / "r"
    assert main(["cluster", str(path), "--out", str(out)]) == 2


def test_cli_validation_exit_codes(tmp_path, blob_csv, capsys):
    path, _ = blob_csv
    out = tmp_path / "r"
    # k_d >= s
    code = main(["cluster", str(path), "--b", "1", "--rho", "0.5",
                 "--kd", "200", "--kl", "30", "--out", str(out)])
    assert code == 2
    # rho is checked before s = ceil(rho * n), which has no int value here
    for rho in ("inf", "nan"):
        capsys.readouterr()
        code = main(["cluster", str(path), "--rho", rho,
                     "--kd", "5", "--kl", "30", "--out", str(out)])
        assert code == 2
        assert f"rho={rho} must lie in (0, 1]" in capsys.readouterr().err
    # a seed outside [0, 2**64), which a cluster at rho 0.5 exited 4 on (or
    # aliased, for -1) and a grid rejects before any cell runs
    gridspec = tmp_path / "grid.json"
    gridspec.write_text(json.dumps({"kd": [5], "kl": [30], "rho": [0.5]}))
    for seed in (str(2**64), "-1"):
        capsys.readouterr()
        code = main(["cluster", str(path), "--rho", "0.5", "--kd", "5", "--kl", "30",
                     f"--seed={seed}", "--out", str(out)])
        assert code == 2
        assert f"seed={seed} out of range" in capsys.readouterr().err
        code = main(["grid", str(path), "--label-column", "2", "--grid", str(gridspec),
                     f"--seed={seed}", "--out", str(tmp_path / "g.csv")])
        assert code == 2
        assert f"seed={seed} out of range" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()
    # missing file
    code = main(["cluster", str(tmp_path / "nope.csv"),
                 "--kd", "5", "--kl", "30", "--out", str(out)])
    assert code == 2  # surfaced as a data error with the path named
    # bad generator kind
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"kind": "swirl", "n": 5}))
    assert main(["gen", str(spec), "--out", str(tmp_path / "x.csv")]) == 2


def test_cli_eval_mismatch(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0\n1\n")
    b.write_text("0\n")
    assert main(["eval", str(a), str(b)]) == 2


@pytest.mark.parametrize("bad", ["1.5", "inf", "nan", "1e300", "x"])
def test_cli_eval_rejects_bad_labels(tmp_path, capsys, bad):
    # 1.5 was truncated to 1 (ARI 1.0 against 0,1,1), and inf and 1e300
    # exited 4 as internal errors
    truth, pred = tmp_path / "truth.txt", tmp_path / "pred.txt"
    truth.write_text(f"0\n1\n{bad}\n")
    pred.write_text("0\n1\n1\n")
    assert main(["eval", str(truth), str(pred)]) == 2
    assert "truth.txt line 3: " in capsys.readouterr().err
    truth.write_text("0\n1.0\n\n2\n")
    pred.write_text("0\n1\n2\n")
    assert main(["eval", str(truth), str(pred)]) == 0


def test_cli_rejects_json_that_is_not_an_object_of_lists(tmp_path, blob_csv, capsys):
    # these exited 4 as internal errors; like gen, they are usage errors
    path, _ = blob_csv
    spec = tmp_path / "spec.json"
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"kd": 5, "kl": 30, "b": 2, "rho": 0.5}))
    grid = ["grid", str(path), "--label-column", "2", "--grid", str(spec),
            "--out", str(tmp_path / "g.csv")]
    for bad, message in (([1, 2], "grid spec must be a JSON object"),
                         ({"kd": 1, "kl": [30]}, "'kd' needs a list of numbers"),
                         ({"kd": "5", "kl": [30]}, "'kd' needs a list of numbers"),
                         ({"kd": [5], "kl": [[30]]}, "'kl' needs a list of numbers"),
                         ({"kd": [5], "kl": [30], "lambda": [None]},
                          "'lambda' needs a list of numbers")):
        spec.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(grid) == 2, bad
        assert message in capsys.readouterr().err, bad
    for bad in ([1, 2], "kd", None):
        spec.write_text(json.dumps(bad))
        for configs in ((spec, good), (good, spec)):
            capsys.readouterr()
            code = main(["bench", str(path), "--config-a", str(configs[0]),
                         "--config-b", str(configs[1]), "--out", str(tmp_path / "b.json")])
            assert code == 2, bad
            assert "config must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists() and not (tmp_path / "b.json").exists()


def test_cli_rejects_non_integer_hyperparameters(tmp_path, blob_csv, capsys):
    # a bench config kd of 5.7 fitted as 5 and a grid kd of [5.7] ran as
    # kd=5, both exiting 0; a bench config kd of [5] exited 4
    path, _ = blob_csv
    spec = tmp_path / "spec.json"
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"kd": 5, "kl": 30, "b": 2, "rho": 0.5}))
    for bad, message in (({"kd": 5.7, "kl": 30}, "kd=5.7 is not an integer"),
                         ({"kd": [5], "kl": 30}, "kd=[5] is not an integer"),
                         ({"kd": 5, "kl": 30, "b": True}, "b=True is not an integer"),
                         ({"kd": 5, "kl": 30, "seed": 0.5}, "seed=0.5 is not an integer"),
                         ({"kd": 5, "kl": 30, "rho": [0.5]}, "rho=[0.5] is not a number"),
                         # the first two fitted at rho 1.0 and lambda 1.0
                         ({"kd": 5, "kl": 30, "rho": True}, "rho=True is not a number"),
                         ({"kd": 5, "kl": 30, "lambda": True}, "lambda=True is not a number"),
                         ({"kd": 5, "kl": 30, "lambda": [True]}, "lambda=[True] is not a number"),
                         ({"kd": 5, "kl": 30, "rho": ["0.5"]}, "rho=['0.5'] is not a number"),
                         # float() of an int this large raised OverflowError: exit 4
                         ({"kd": 5, "kl": 30, "rho": 10**400}, "is out of range")):
        spec.write_text(json.dumps(bad))
        capsys.readouterr()
        code = main(["bench", str(path), "--config-a", str(spec),
                     "--config-b", str(good), "--out", str(tmp_path / "b.json")])
        assert code == 2, bad
        assert message in capsys.readouterr().err, bad
    grid = ["grid", str(path), "--label-column", "2", "--grid", str(spec),
            "--out", str(tmp_path / "g.csv")]
    for bad, message in (({"kd": [5.7], "kl": [30]}, "kd=5.7 is not an integer"),
                         ({"kd": [5], "kl": [30], "kg": [False]}, "kg=False is not an integer"),
                         ({"kd": [5], "kl": [30], "b": ["2"]}, "b='2' is not an integer"),
                         # the last three ran their cells at lambda 1.0, rho 1.0
                         # and rho 0.5
                         ({"kd": [5], "kl": [30], "rho": True}, "'rho' needs a list of numbers"),
                         ({"kd": [5], "kl": [30], "lambda": [True]}, "lambda=True is not a number"),
                         ({"kd": [5], "kl": [30], "rho": [True]}, "rho=True is not a number"),
                         ({"kd": [5], "kl": [30], "rho": ["0.5"]}, "rho='0.5' is not a number")):
        spec.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(grid) == 2, bad
        assert message in capsys.readouterr().err, bad
    assert not (tmp_path / "g.csv").exists() and not (tmp_path / "b.json").exists()
    # an integral float is still the integer it names
    spec.write_text(json.dumps({"kd": 5.0, "kl": 30.0, "b": 2, "rho": 0.5}))
    assert main(["bench", str(path), "--config-a", str(spec), "--config-b", str(good),
                 "--out", str(tmp_path / "b.json")]) == 0
    report = json.loads((tmp_path / "b.json").read_text())
    assert report["a"]["config"] == report["b"]["config"]


def test_misspelled_hyperparameters_are_rejected(blob_csv):
    # a config or a grid with "lamda" ran at lambda 0.5, and a grid's
    # "seed" list ran at seed 0
    _, ds = blob_csv
    with pytest.raises(ValueError, match="unknown config parameter 'lamda'"):
        BdmbcConfig.from_dict({"kd": 5, "kl": 20, "lamda": 0.9})
    with pytest.raises(ValueError, match="unknown grid parameter 'lamda'"):
        grid_search(ds, {"kd": [5], "kl": [20], "lamda": [0.3, 0.9], "seed": [7]})
    for name in ("seed", "min_cluster_size"):
        with pytest.raises(ValueError, match=f"{name!r} is shared by every cell"):
            grid_search(ds, {"kd": [5], "kl": [20], name: [7]})


def test_cli_rejects_misspelled_hyperparameters(tmp_path, blob_csv, capsys):
    # each of these exited 0 after running at lambda 0.5 and seed 0
    path, _ = blob_csv
    spec = tmp_path / "spec.json"
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"kd": 5, "kl": 30}))
    grid = ["grid", str(path), "--label-column", "2", "--grid", str(spec),
            "--out", str(tmp_path / "g.csv")]
    for bad, message in (({"kd": [5], "kl": [20], "lamda": [0.3, 0.9], "seed": [7]},
                          "unknown grid parameter 'lamda'"),
                         ({"kd": [5], "kl": [20], "seed": [7]}, "--seed"),
                         ({"kd": [5], "kl": [20], "min_cluster_size": [7]},
                          "--min-cluster-size")):
        spec.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(grid) == 2, bad
        assert message in capsys.readouterr().err, bad
    spec.write_text(json.dumps({"kd": 5, "kl": 30, "lamda": 0.9}))
    for configs in ((spec, good), (good, spec)):
        code = main(["bench", str(path), "--config-a", str(configs[0]),
                     "--config-b", str(configs[1]), "--out", str(tmp_path / "b.json")])
        assert code == 2
        assert "unknown config parameter 'lamda'" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists() and not (tmp_path / "b.json").exists()


def test_every_front_end_keeps_the_config_defaults(tmp_path, blob_csv):
    # flags, bench configs and grid specs that give only kd and kl build
    # BdmbcConfig's defaults for the rest
    path, ds = blob_csv
    want = BdmbcConfig(k_d=5, k_l=30).to_dict(ds.n)
    assert main(["cluster", str(path), "--kd", "5", "--kl", "30",
                 "--out", str(tmp_path / "r")]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["config"] == want
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"kd": 5, "kl": 30}))
    assert main(["bench", str(path), "--config-a", str(config), "--config-b", str(config),
                 "--out", str(tmp_path / "b.json")]) == 0
    assert json.loads((tmp_path / "b.json").read_text())["a"]["config"] == want
    (row,) = grid_search(ds, {"kd": [5], "kl": [30]})
    assert {c: row[c] for c in ("b", "rho", "kd", "kl", "kg", "lambda")} == {
        c: want[c] for c in ("b", "rho", "kd", "kl", "kg", "lambda")}
    with pytest.raises(TypeError, match="shares only"):
        grid_search(ds, {"kd": [5], "kl": [30]}, sed=1)


def test_cli_grid(tmp_path, blob_csv):
    path, ds = blob_csv
    gridspec = tmp_path / "grid.json"
    gridspec.write_text(json.dumps({
        "metric": "ari", "b": [2], "rho": [0.5], "kd": [5, 10],
        "kl": [30], "kg": [10], "lambda": [0.4, 0.6]}))
    out = tmp_path / "grid.csv"
    code = main(["grid", str(path), "--label-column", "2",
                 "--grid", str(gridspec), "--seed", "0", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(GRID_COLUMNS)
    assert len(rows) == 5
    # best row consistency against a direct fit + eval
    best = dict(zip(GRID_COLUMNS, rows[1]))
    cfg = BdmbcConfig(k_d=int(best["kd"]), k_l=int(best["kl"]), b=int(best["b"]),
                      rho=float(best["rho"]), k_g=int(best["kg"]),
                      lam=float(best["lambda"]), seed=0)
    res = bdmbc_fit(ds, cfg)
    rep = metric_report(ds.labels, res.labels)
    assert float(best["ari"]) == pytest.approx(rep["ari"], abs=1e-12)


def test_cli_grid_needs_labels(tmp_path, blob_csv):
    path, _ = blob_csv
    gridspec = tmp_path / "grid.json"
    gridspec.write_text(json.dumps({"kd": [5], "kl": [30]}))
    code = main(["grid", str(path), "--grid", str(gridspec),
                 "--out", str(tmp_path / "g.csv")])
    assert code == 2


def test_cli_bench(tmp_path, blob_csv):
    path, _ = blob_csv
    ca = tmp_path / "a.json"
    cb = tmp_path / "b.json"
    ca.write_text(json.dumps({"kd": 5, "kl": 30, "b": 2, "rho": 0.5}))
    cb.write_text(json.dumps({"kd": 5, "kl": 30, "b": 1, "rho": 1.0}))
    out = tmp_path / "bench.json"
    code = main(["bench", str(path), "--label-column", "2",
                 "--config-a", str(ca), "--config-b", str(cb),
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report) == {"a", "b", "kdist_time_ratio_a_over_b"}
    for side in ("a", "b"):
        assert "metrics" in report[side]
        assert "bagged_kdist" in report[side]["timings"]


def test_cli_bench_rejects_one_point(tmp_path, capsys):
    # cluster accepts a one-point file; bench has no stage timings to compare
    data = tmp_path / "one.csv"
    data.write_text("0.5,1.5\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"kd": 5, "kl": 30}))
    assert main(["cluster", str(data), "--kd", "5", "--kl", "30",
                 "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    code = main(["bench", str(data), "--config-a", str(config),
                 "--config-b", str(config), "--out", str(tmp_path / "bench.json")])
    assert code == 2
    assert "bench needs at least 2 points, got 1" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


def test_cli_deterministic_output(tmp_path, blob_csv):
    path, _ = blob_csv
    args = ["cluster", str(path), "--label-column", "2",
            "--b", "2", "--rho", "0.5", "--kd", "5", "--kl", "30",
            "--seed", "3"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


def test_cli_version_and_usage(capsys):
    with pytest.raises(SystemExit):
        main(["--version"])
    with pytest.raises(SystemExit):
        main([])
