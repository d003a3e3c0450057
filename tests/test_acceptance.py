"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s or check
captured output).  Criteria and tolerances are fixed; do not loosen.
"""

import itertools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import bdmbc
from bdmbc import (
    BaggingPlan,
    BdmbcConfig,
    Dataset,
    GaussianMixture,
    ari,
    bagged_k_distance,
    bagging_weight_table,
    bagging_weights,
    bdmbc_fit,
    empirical_plls,
    gen_mixture,
    gen_multiblobs,
    grid_search,
    infinite_bagged_k_distance,
    kuhn_munkres,
    nmi,
    scale_minmax,
)
from bdmbc.data import _rng
from bdmbc.knn import SpatialIndex
from oracles import dmbc_plls, k_distances


def report(name, ok, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def trimix():
    return GaussianMixture(
        means=[[0.20], [0.32], [0.65]],
        covs=[0.001, 0.002, 0.007],
        weights=[1 / 3, 1 / 3, 1 / 3],
    )


def test_01_trimodal_grid_reproduction(monkeypatch):
    monkeypatch.setenv("BDMBC_THREADS", "1")
    t0 = time.perf_counter()
    ds = gen_mixture(trimix(), 2000, seed=0)
    grid = {
        "b": [25],
        "rho": [0.9],
        "kd": [300],
        "kl": [750],
        "kg": list(range(5, 21)),
        "lambda": [round(0.1 + 0.05 * i, 2) for i in range(17)],
    }
    rows = grid_search(ds, grid, metric="ari", seed=0)
    elapsed = time.perf_counter() - t0
    best = rows[0]["ari"]
    report("01 trimodal-grid", best >= 0.95 and elapsed < 60.0,
           f"best ARI {best:.4f} >= 0.95, {elapsed:.1f}s < 60s")


def test_02_mode_coverage_five_components():
    t0 = time.perf_counter()
    mix = GaussianMixture(
        means=[[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0], [2.5, 2.5]],
        covs=[
            [[0.20, 0.00], [0.00, 0.10]],
            [[0.10, 0.03], [0.03, 0.30]],
            [[0.30, 0.10], [0.10, 0.20]],
            [[0.15, 0.00], [0.00, 0.15]],
            [[0.05, 0.00], [0.00, 0.05]],
        ],
        weights=[0.2] * 5,
    )
    ds = gen_mixture(mix, 3000, seed=1)
    cfg = BdmbcConfig(k_d=60, k_l=300, b=10, rho=0.5, k_g=15, lam=0.5, seed=0)
    res = bdmbc_fit(ds, cfg)
    sigmas = [math.sqrt(np.linalg.eigvalsh(c).max()) for c in mix.covs]
    covered = all(
        any(np.linalg.norm(ds.points[m] - mean) <= 3 * sig for m in res.modes)
        for mean, sig in zip(mix.means, sigmas)
    )
    elapsed = time.perf_counter() - t0
    report("02 mode-coverage",
           res.num_clusters == 5 and covered and elapsed < 60.0,
           f"clusters {res.num_clusters} == 5, all means within 3 sigma of a "
           f"mode: {covered}, {elapsed:.1f}s < 60s")


def test_03_weight_exactness():
    t0 = time.perf_counter()
    nmax = 200
    comb_f = np.zeros((nmax + 1, nmax + 1))
    for nn in range(nmax + 1):
        for kk in range(nn + 1):
            comb_f[nn, kk] = float(math.comb(nn, kk))
    worst_rel = 0.0
    worst_sum = 0.0
    for n in range(1, nmax + 1):
        for s in range(1, n + 1):
            ks, table = bagging_weight_table(n, s)
            i = ks[:, None] + np.arange(n - s + 1)[None, :]
            exact = (comb_f[i - 1, ks[:, None] - 1]
                     * comb_f[n - i, s - ks[:, None]] / comb_f[n, s])
            worst_rel = max(worst_rel, np.max(np.abs(table - exact) / exact))
            worst_sum = max(worst_sum, np.max(np.abs(table.sum(axis=1) - 1.0)))
    # the float comb table rounds above C(n, k) ~ 2^53, so guard the oracle
    # itself by re-checking a random slice against exact rationals
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, nmax + 1))
        s = int(rng.integers(1, n + 1))
        k = int(rng.integers(1, s + 1))
        i = int(rng.integers(k, n - s + k + 1))
        ex = Fraction(math.comb(i - 1, k - 1) * math.comb(n - i, s - k),
                      math.comb(n, s))
        got = bagging_weights(n, s, k)[i - 1]
        assert abs(got - float(ex)) <= 1e-10 * float(ex)
    big = bagging_weights(10**6, 10**3, 10)
    big_ok = bool(np.all(np.isfinite(big))) and abs(big.sum() - 1.0) <= 1e-9
    elapsed = time.perf_counter() - t0
    report("03 weight-exactness",
           worst_rel <= 1e-10 and worst_sum <= 1e-12 and big_ok and elapsed < 10.0,
           f"rel err {worst_rel:.2e} <= 1e-10, sum err {worst_sum:.2e} <= 1e-12, "
           f"n=1e6 finite+normalized {big_ok}, {elapsed:.1f}s < 10s")


def test_04_infinite_bagging_consistency():
    t0 = time.perf_counter()
    errs = []
    for seed in range(10):
        pts = _rng(seed, 7).random((200, 1))
        exact = infinite_bagged_k_distance(pts, s=100, k=5)
        mc = bagged_k_distance(pts, BaggingPlan(b=20000, s=100, k_d=5, seed=seed))
        errs.append(np.max(np.abs(mc - exact) / exact))
    mean_err = float(np.mean(errs))
    elapsed = time.perf_counter() - t0
    report("04 infinite-bagging",
           mean_err <= 0.02 and elapsed < 30.0,
           f"mean max rel err {mean_err:.4f} <= 0.02, {elapsed:.1f}s < 30s")


def test_05_degenerate_equivalence():
    mismatches = []
    for seed in range(20):
        rng = _rng(seed, 41)
        n = int(rng.integers(30, 150))
        d = int(rng.integers(1, 5))
        pts = np.round(rng.random((n, d)) * 16) / 16
        kd = int(rng.integers(1, min(n - 1, 20)))
        kl = int(rng.integers(1, n))
        kg = int(rng.integers(1, min(n - 1, 12)))
        lam = float(rng.choice([0.3, 0.5, 0.8]))
        cfg = BdmbcConfig(k_d=kd, k_l=kl, b=1, rho=1.0, k_g=kg, lam=lam, seed=seed)
        bagged_res = bdmbc_fit(pts, cfg)
        # dedicated DMBC path: plain k-distance scores through the same tail
        idx = SpatialIndex(pts)
        scores = dmbc_plls(pts, kd, kl)
        from bdmbc.cluster import (build_kg_graph, connected_components,
                                   core_subgraph, finalize, first_scoring,
                                   nearest_core)

        graph = build_kg_graph(idx, kg)
        mask, edges = core_subgraph(graph, scores, lam)
        prov = connected_components(mask, edges)
        nbr, _ = idx.query_bulk(pts, kg, exclude=np.arange(n))
        first = first_scoring(scores, nbr, [lam])[:, 0]
        labels, core, num = finalize(prov, mask, cfg.effective_min_cluster_size(),
                                     lambda core: nearest_core(pts, first, core))
        same = (np.array_equal(bagged_res.labels, labels)
                and np.array_equal(bagged_res.plls, scores)
                and np.array_equal(bagged_res.core_mask, core)
                and bagged_res.num_clusters == num)
        if not same:
            mismatches.append(seed)
    report("05 degenerate-equivalence", not mismatches,
           f"20 datasets, mismatched seeds: {mismatches or 'none'}")


def test_06_plls_brute_force():
    bad = []
    for seed in range(50):
        rng = _rng(seed, 42)
        n = int(rng.integers(5, 301))
        d = int(rng.integers(1, 4))
        pts = np.round(rng.random((n, d)) * 8) / 8
        idx = SpatialIndex(pts)
        s = int(rng.integers(2, n + 1))
        kd = int(rng.integers(1, s))
        kl = int(rng.integers(1, n))
        bagged = bagged_k_distance(pts, BaggingPlan(b=3, s=s, k_d=kd, seed=seed))
        got = empirical_plls(pts, idx, bagged, kl)
        # oracle: literal double loop with (distance, index) neighbor order
        oracle = np.empty(n)
        for i in range(n):
            dist = np.linalg.norm(pts - pts[i], axis=1)
            order = sorted((j for j in range(n) if j != i),
                           key=lambda j: (dist[j], j))
            oracle[i] = sum(1 for j in order[:kl] if bagged[j] >= bagged[i]) / kl
        if not np.array_equal(got, oracle):
            bad.append(seed)
    report("06 plls-brute-force", not bad,
           f"50 datasets, mismatched seeds: {bad or 'none'}")


def test_07_metric_oracles():
    def set_partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in set_partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
            yield [[first]] + part

    def labels_of(partition, n):
        out = np.empty(n, dtype=np.int64)
        for cid, block in enumerate(partition):
            for i in block:
                out[i] = cid
        return out

    def ari_oracle(a, b):
        n = len(a)
        pairs = list(itertools.combinations(range(n), 2))
        sa = {p for p in pairs if a[p[0]] == a[p[1]]}
        sb = {p for p in pairs if b[p[0]] == b[p[1]]}
        expected = len(sa) * len(sb) / len(pairs)
        max_index = (len(sa) + len(sb)) / 2
        if max_index == expected:
            return 1.0
        return (len(sa & sb) - expected) / (max_index - expected)

    def nmi_oracle(a, b):
        n = len(a)
        ca, cb = sorted(set(a)), sorted(set(b))
        if len(ca) == 1 and len(cb) == 1:
            return 1.0
        if len(ca) == 1 or len(cb) == 1:
            return 0.0
        mi = ha = hb = 0.0
        for x in ca:
            px = sum(1 for v in a if v == x) / n
            ha -= px * math.log(px)
            for y in cb:
                pxy = sum(1 for i in range(n) if a[i] == x and b[i] == y) / n
                if pxy:
                    py = sum(1 for v in b if v == y) / n
                    mi += pxy * math.log(pxy / (px * py))
        for y in cb:
            py = sum(1 for v in b if v == y) / n
            hb -= py * math.log(py)
        return min(max(mi / math.sqrt(ha * hb), 0.0), 1.0)

    worst = 0.0
    for n in range(2, 7):
        parts = [labels_of(p, n) for p in set_partitions(list(range(n)))]
        for la in parts:
            for lb in parts:
                worst = max(worst, abs(ari(la, lb) - ari_oracle(la, lb)))
                worst = max(worst, abs(nmi(la, lb) - nmi_oracle(la, lb)))
    km_ok = True
    rng = np.random.default_rng(1)
    for _ in range(60):
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        cost = np.round(rng.random((r, c)) * 4) / 4
        got = kuhn_munkres(cost)
        total = sum(cost[i, j] for i, j in got.items())
        k = min(r, c)
        brute = min(
            sum(cost[i, j] for i, j in zip(rows, cols))
            for rows in itertools.combinations(range(r), k)
            for cols in itertools.permutations(range(c), k)
        )
        if abs(total - brute) > 1e-9:
            km_ok = False
    report("07 metric-oracles", worst <= 1e-12 and km_ok,
           f"ARI/NMI max abs err {worst:.2e} <= 1e-12 on partitions of n<=6, "
           f"assignment optimal on all matrices <= 6x6: {km_ok}")


def test_08_real_data_spot_checks():
    sklearn_datasets = pytest.importorskip(
        "sklearn.datasets", reason="bundled iris/wine unavailable; criteria 1-7 govern"
    )
    t0 = time.perf_counter()
    grid = {
        "b": [1, 10],
        "rho": [1.0, 0.5],
        "kd": [5, 10, 20, 40],
        "kl": [20, 40, 60, 100],
        "kg": [5, 10, 15],
        "lambda": [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
    }
    results = {}
    for name, loader in (("iris", sklearn_datasets.load_iris),
                         ("wine", sklearn_datasets.load_wine)):
        raw = loader()
        ds = scale_minmax(Dataset(raw.data, raw.target))
        rows = grid_search(ds, grid, metric="ari", seed=0)
        results[name] = rows[0]["ari"]
    elapsed = time.perf_counter() - t0
    ok = all(v >= 0.85 for v in results.values()) and elapsed < 300.0
    report("08 real-data", ok,
           f"iris ARI {results['iris']:.4f}, wine ARI {results['wine']:.4f} "
           f">= 0.85, {elapsed:.1f}s < 300s")


def test_09_scalability_trend():
    t0 = time.perf_counter()
    ds = gen_multiblobs(100_000, 10, 10, seed=3)
    cfg_bag = BdmbcConfig(k_d=5, k_l=50, b=10, rho=0.001, k_g=15, lam=0.5, seed=0)
    cfg_full = BdmbcConfig(k_d=100, k_l=50, b=1, rho=1.0, k_g=15, lam=0.5, seed=0)
    res_bag = bdmbc_fit(ds, cfg_bag)
    res_full = bdmbc_fit(ds, cfg_full)
    ari_bag = ari(ds.labels, res_bag.labels)
    ari_full = ari(ds.labels, res_full.labels)
    ratio = res_full.timings["bagged_kdist"] / res_bag.timings["bagged_kdist"]
    delta = abs(ari_bag - ari_full)
    elapsed = time.perf_counter() - t0
    report("09 scalability",
           ratio >= 10.0 and delta <= 0.02 and elapsed < 900.0,
           f"k-distance speedup {ratio:.1f}x >= 10x, |dARI| {delta:.4f} <= 0.02 "
           f"(bagged {ari_bag:.4f}, full {ari_full:.4f}), {elapsed:.0f}s < 900s")


def test_10_determinism_across_thread_counts(tmp_path):
    ds = gen_multiblobs(500, 3, 4, seed=6)
    data = tmp_path / "data.csv"
    with open(data, "w") as fh:
        for row, lab in zip(ds.points, ds.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(lab)}\n")
    # the CLI runs on the bdmbc this test imported, installed or not
    pkg_root = os.path.dirname(os.path.dirname(bdmbc.__file__))
    path = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    outputs = []
    for run, threads in (("r1", "1"), ("r2", "8"), ("r3", "1"), ("r4", "8")):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "bdmbc.cli", "cluster", str(data),
             "--label-column", "3", "--b", "3", "--rho", "0.4",
             "--kd", "6", "--kl", "40", "--seed", "2", "--out", str(out)],
            env={**os.environ, "BDMBC_THREADS": threads, "PYTHONPATH": path},
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append((tmp_path / f"{run}.json").read_bytes())
    ok = all(o == outputs[0] for o in outputs[1:])
    report("10 determinism", ok,
           f"4 runs over thread counts {{1,8}}: byte-identical JSON {ok}")
