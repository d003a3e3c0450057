"""Cartesian hyperparameter grid evaluation with stage-level caching.

One exact neighbor table, as wide as the largest k_l or k_g in the grid,
serves every cell by slicing.  For n <= _RANK_TABLE_MAX_N with a cell at
s < n, the table is the leading columns of the one pairwise
(distance, index) order that every bagging pass reads; otherwise it is one
query.  Bagged distances are reused across (k_l, k_g, lambda)
combinations, scores across (k_g, lambda), and graphs across lambda, so
dense grids over the cheap parameters cost little more than a single fit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .bagging import BaggingPlan, _rounds_order, bagged_k_distance
# build_kg_graph and empirical_plls stay importable from this module, where
# the benchmark's tracer wraps the stages; grid_search slices one table.
from .cluster import (  # noqa: F401
    build_kg_graph,
    connected_components,
    core_subgraph,
    finalize,
    graph_from_neighbors,
)
from .knn import SpatialIndex, worker_count
from .metrics import metric_report
from .plls import empirical_plls, plls_from_neighbors  # noqa: F401

METRICS = ("ari", "nmi", "f1", "acc")
GRID_COLUMNS = ("b", "rho", "kd", "kl", "kg", "lambda",
                "ari", "nmi", "f1", "acc", "num_clusters")


def _evaluate_threshold(points, graph, scores, lam, min_cluster_size, true_labels):
    sub = core_subgraph(graph, scores, lam)
    provisional = connected_components(sub)
    labels, _, num = finalize(points, provisional, sub.node_mask, min_cluster_size)
    report = metric_report(true_labels, labels)
    report["num_clusters"] = num
    return report


def grid_search(ds, grid, metric="ari", seed=0, min_cluster_size=None):
    """Evaluate every grid combination; returns rows sorted by the metric.

    grid: dict with value lists under any of 'b', 'rho', 'kd', 'kl',
    'kg', 'lambda' (missing keys use single defaults).  Requires ground
    truth labels on the dataset.  Deterministic ordering: descending
    metric, ties by lexicographic parameter tuple.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if ds.labels is None:
        raise ValueError(f"metric {metric!r} requires ground-truth labels")
    points = ds.points
    n = points.shape[0]
    bs = [int(v) for v in grid.get("b", [10])]
    rhos = [float(v) for v in grid.get("rho", [0.1])]
    kds = [int(v) for v in grid.get("kd", [])]
    kls = [int(v) for v in grid.get("kl", [])]
    kgs = [int(v) for v in grid.get("kg", [15])]
    lams = [float(v) for v in grid.get("lambda", [0.5])]
    if not kds or not kls:
        raise ValueError("grid must supply kd and kl value lists")
    for name, values in (("b", bs), ("rho", rhos), ("kd", kds),
                         ("kl", kls), ("kg", kgs), ("lambda", lams)):
        if not values:
            raise ValueError(f"empty value list for grid parameter {name!r}")
    if min(bs) < 1:
        raise ValueError("b must be >= 1")
    for rho in rhos:
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"rho={rho} must lie in (0, 1]")
    # cells with kd >= s or k_l > n - 1 are skipped, but not all of them
    if min(kds) >= int(np.ceil(max(rhos) * n)):
        raise ValueError(f"no grid cell has kd < s = ceil(rho * n) for n={n}")
    kls = [kl for kl in kls if kl <= n - 1]
    if not kls:
        raise ValueError(f"no grid cell has k_l <= n - 1 = {n - 1}")
    for name, values in (("k_l", kls), ("k_g", kgs)):
        for k in values:
            if not 1 <= k <= n - 1:
                raise ValueError(f"{name}={k} out of range [1, {n - 1}]")
    width = max(kls + kgs)
    idx = nbr = None
    sizes = [int(np.ceil(rho * n)) for rho in rhos]
    pairwise = _rounds_order(points, [s for s in sizes if s > min(kds)])
    if pairwise is not None:
        nbr = pairwise[1][:, :width]
    else:
        idx = SpatialIndex(points)
    graphs = {}
    rows = []
    pool = ThreadPoolExecutor(max_workers=worker_count())
    try:
        for b in bs:
            for rho in rhos:
                s = int(np.ceil(rho * n))
                for kd in kds:
                    if kd >= s:
                        continue  # invalid cell, skip silently in grids
                    bagged = bagged_k_distance(
                        points, BaggingPlan(b=b, s=s, k_d=kd, seed=seed),
                        index=idx, pairwise=pairwise,
                    )
                    if nbr is None:
                        # after the first bagging pass, so as not to add to its peak memory
                        nbr, _ = idx.query_bulk(points, width, exclude=np.arange(n))
                    for kl in kls:
                        scores = plls_from_neighbors(bagged, nbr[:, :kl])
                        futures = []
                        for kg in kgs:
                            if kg not in graphs:
                                graphs[kg] = graph_from_neighbors(nbr[:, :kg])
                            mcs = min_cluster_size if min_cluster_size is not None else 2 * kg
                            for lam in lams:
                                futures.append((
                                    (b, rho, kd, kl, kg, lam),
                                    pool.submit(_evaluate_threshold, points, graphs[kg],
                                                scores, lam, mcs, ds.labels),
                                ))
                        for params, fut in futures:
                            report = fut.result()
                            row = dict(zip(("b", "rho", "kd", "kl", "kg", "lambda"), params))
                            row.update(report)
                            rows.append(row)
    finally:
        pool.shutdown()
    rows.sort(key=lambda r: (-r[metric], r["b"], r["rho"], r["kd"],
                             r["kl"], r["kg"], r["lambda"]))
    return rows
