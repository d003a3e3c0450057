"""Cartesian hyperparameter grid evaluation with stage-level caching.

Every grid cell is one BdmbcConfig, run as a fit runs it.  One exact
neighbor table, as wide as the largest k_l or k_g or as the columns the
bagging rounds reach, serves every cell and every bagging pass, and cells
with equal (b, s, kd) share one pass (see cluster._bagged_and_table).
Each of the rest is built once and shared: one score vector per (plan,
k_l), one first_scoring table per score vector over its lambdas, and one
spanning_forest of the k_g graph per (score vector, k_g), whose edges at
or above each lambda join that lambda's components.  One
connected_components call per forest labels every lambda at once.  Then
one pool item per lambda finishes that lambda's cells: nearest_core runs
once per distinct surviving core set and metric_report once per distinct
labeling.  So dense grids over the cheap parameters (k_g, lambda) cost
little more than a single fit.
"""

from __future__ import annotations

import itertools

import numpy as np

# bagged_k_distance, build_kg_graph, empirical_plls, core_subgraph and
# finalize stay importable from this module, where the benchmark's tracer
# wraps the stages.
from .cluster import (  # noqa: F401
    PARAMETERS,
    BdmbcConfig,
    _bagged_and_table,
    _finalize,
    bagged_k_distance,
    build_kg_graph,
    connected_components,
    core_subgraph,
    finalize,
    first_scoring,
    graph_from_neighbors,
    nearest_core,
    spanning_forest,
)
from .data import parse_number
from .knn import ordered_map
from .metrics import metric_report
from .plls import empirical_plls, plls_from_neighbors  # noqa: F401

METRICS = ("ari", "nmi", "f1", "acc")
# the parameters a grid spec sweeps, in the rows' tie-breaking order, and
# the ones every cell shares (bdmbc grid's flags); cluster.PARAMETERS
# parses both
SWEPT = ("b", "rho", "kd", "kl", "kg", "lambda")
SHARED = ("seed", "min_cluster_size")
GRID_COLUMNS = SWEPT + METRICS + ("num_clusters",)


def _values(grid, name):
    """One swept parameter's values, parsed as cluster.PARAMETERS says;
    ValueError unless they form a nonempty list of such numbers."""
    values = grid[name]
    reason = ""
    try:
        if not isinstance(values, (str, dict)):
            values = [parse_number(v, name, PARAMETERS[name][1]) for v in values]
            if values:
                return values
            reason = ": it is empty"
    except (TypeError, ValueError) as exc:
        reason = f": {exc}"
    raise ValueError(f"grid parameter {name!r} needs a list of numbers, got {values!r}{reason}")


def grid_search(ds, grid, metric="ari", **shared):
    """Evaluate every grid combination; returns rows sorted by the metric.

    grid: dict with value lists under any of SWEPT (kd and kl are
    required); shared: values of any of SHARED for every cell.  A parameter
    given neither way keeps BdmbcConfig's default.  Requires ground truth
    labels on the dataset.  Cells with kd >= s or k_l > n - 1 are skipped;
    any other value a single fit rejects raises before any cell runs.
    Deterministic ordering: descending metric, ties by lexicographic
    parameter tuple.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if ds.labels is None:
        raise ValueError(f"metric {metric!r} requires ground-truth labels")
    if not shared.keys() <= set(SHARED):
        raise TypeError(f"grid_search() shares only {SHARED} among cells, got {sorted(shared)}")
    points = ds.points
    n = points.shape[0]
    swept = {name: _values(grid, name) for name in SWEPT if name in grid}
    configs = [BdmbcConfig.from_dict({**shared, **dict(zip(swept, cell))})
               for cell in itertools.product(*swept.values())]
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

    def level(item):
        """The rows of one lambda's cells, each a (config, provisional
        labels) pair: nearest_core runs once per distinct surviving core
        set and metric_report once per distinct labeling."""
        first, mask, cells = item
        nearest, reports, out = {}, {}, []

        def nearest_once(core):
            key = core.tobytes()
            if key not in nearest:
                nearest[key] = nearest_core(points, nbr, first, core)
            return nearest[key]

        for c, provisional in cells:
            labels, _, num = _finalize(provisional, mask, c.effective_min_cluster_size(),
                                       nearest_once)
            key = labels.tobytes()
            if key not in reports:
                reports[key] = metric_report(ds.labels, labels)
            out.append({**{k: v for k, v in c.to_dict().items() if k in SWEPT},
                        **reports[key], "num_clusters": num})
        return out

    rows = []
    for (plan, kl), cells in by_scores.items():
        scores = plls_from_neighbors(bagged[plan], nbr[:, :kl])
        lams = list(dict.fromkeys(c.lam for c in cells))
        first = first_scoring(scores, nbr, lams)
        masks = scores >= np.array(lams)[:, None]
        # every lambda's components from one call per k_g forest
        provisional = {kg: connected_components(
                           masks, spanning_forest(graph_from_neighbors(nbr[:, :kg]), scores))
                       for kg in dict.fromkeys(c.k_g for c in cells)}
        items = [(first[:, j], masks[j],
                  [(c, provisional[c.k_g][j]) for c in cells if c.lam == lam])
                 for j, lam in enumerate(lams)]
        for out in ordered_map(level, items):
            rows += out
    rows.sort(key=lambda r: (-r[metric], *(r[name] for name in SWEPT)))
    return rows
