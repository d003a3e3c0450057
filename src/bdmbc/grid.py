"""Cartesian hyperparameter grid evaluation with stage-level caching.

Every grid cell is one BdmbcConfig, run as a fit runs it.  One exact
neighbor table, at least as wide as the largest k_l or k_g, serves every
cell and every bagging pass, and cells with equal (b, s, kd) share one
pass (see cluster._bagged_and_table).
Scores are reused across (k_g, lambda) and graphs across every cell, so
dense grids over the cheap parameters cost little more than a single fit.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor

# bagged_k_distance, build_kg_graph, empirical_plls, core_subgraph,
# connected_components and finalize stay importable from this module, where
# the benchmark's tracer wraps the stages.
from .cluster import (  # noqa: F401
    BdmbcConfig,
    _bagged_and_table,
    _threshold,
    bagged_k_distance,
    build_kg_graph,
    connected_components,
    core_subgraph,
    finalize,
    graph_from_neighbors,
)
from .knn import worker_count
from .metrics import metric_report
from .plls import empirical_plls, plls_from_neighbors  # noqa: F401

METRICS = ("ari", "nmi", "f1", "acc")
GRID_COLUMNS = ("b", "rho", "kd", "kl", "kg", "lambda",
                "ari", "nmi", "f1", "acc", "num_clusters")


def _cell_report(points, nbr, edges, scores, config, true_labels):
    labels, _, num = _threshold(points, nbr, edges, scores, config, {})
    report = metric_report(true_labels, labels)
    report["num_clusters"] = num
    return report


def grid_search(ds, grid, metric="ari", seed=0, min_cluster_size=None):
    """Evaluate every grid combination; returns rows sorted by the metric.

    grid: dict with value lists under any of 'b', 'rho', 'kd', 'kl',
    'kg', 'lambda' (missing keys use single defaults).  Requires ground
    truth labels on the dataset.  Cells with kd >= s or k_l > n - 1 are
    skipped; any other value a single fit rejects raises before any cell
    runs.  Deterministic ordering: descending metric, ties by lexicographic
    parameter tuple.
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
    configs = [BdmbcConfig(k_d=kd, k_l=kl, b=b, rho=rho, k_g=kg, lam=lam,
                           min_cluster_size=min_cluster_size, seed=seed)
               for b, rho, kd, kl, kg, lam in itertools.product(bs, rhos, kds, kls, kgs, lams)]
    # cells with kd >= s or k_l > n - 1 are skipped, but not all of them
    configs = [c for c in configs if c.k_d < c.subsample_size(n)]
    if not configs:
        raise ValueError(f"no grid cell has kd < s = ceil(rho * n) for n={n}")
    configs = [c for c in configs if c.k_l <= n - 1]
    if not configs:
        raise ValueError(f"no grid cell has k_l <= n - 1 = {n - 1}")
    by_scores = {}  # the cells that share one score vector
    for c in configs:
        c.validate(n)
        by_scores.setdefault((c.plan(n), c.k_l), []).append(c)
    plans = list(dict.fromkeys(plan for plan, _ in by_scores))
    width = max(max(c.k_l, c.k_g) for c in configs)
    bagged, nbr = _bagged_and_table(points, plans, width, {})
    bagged = dict(zip(plans, bagged))
    graphs = {kg: graph_from_neighbors(nbr[:, :kg]) for kg in kgs}
    rows = []
    pool = ThreadPoolExecutor(max_workers=worker_count())
    try:
        for (plan, kl), cells in by_scores.items():
            scores = plls_from_neighbors(bagged[plan], nbr[:, :kl])
            futures = [(c, pool.submit(_cell_report, points, nbr, graphs[c.k_g],
                                       scores, c, ds.labels))
                       for c in cells]
            rows += [{"b": c.b, "rho": c.rho, "kd": c.k_d, "kl": c.k_l, "kg": c.k_g,
                      "lambda": c.lam, **fut.result()} for c, fut in futures]
    finally:
        pool.shutdown()
    rows.sort(key=lambda r: (-r[metric], r["b"], r["rho"], r["kd"],
                             r["kl"], r["kg"], r["lambda"]))
    return rows
