"""Cartesian hyperparameter grid evaluation.

Every grid cell is one BdmbcConfig, and the cells run the fit's own path,
cluster._fits, which builds each stage's input once for all the cells
that share it: one neighbor table for every cell, one bagging pass per
plan, one score vector per (plan, k_l), and one components call per
(score vector, k_g) for every lambda.  metric_report then runs once per
distinct labeling.  So dense grids over the cheap parameters (k_g,
lambda) cost little more than a single fit.
"""

from __future__ import annotations

import itertools

# bagged_k_distance, build_kg_graph, connected_components, core_subgraph,
# empirical_plls and finalize stay importable from this module, where the
# benchmark's tracer wraps the stages.
from .cluster import (  # noqa: F401
    PARAMETERS,
    BdmbcConfig,
    _fits,
    bagged_k_distance,
    build_kg_graph,
    connected_components,
    core_subgraph,
    finalize,
)
from .data import parse_number
from .metrics import metric_report
from .plls import empirical_plls  # noqa: F401

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
    required) and no other key; shared: values of any of SHARED for every
    cell.  A parameter given neither way keeps BdmbcConfig's default.
    Requires ground truth labels on the dataset.  Cells with kd >= s or
    k_l > n - 1 are skipped; any other value a single fit rejects raises
    before any cell runs.
    Deterministic ordering: descending metric, ties by lexicographic
    parameter tuple.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if ds.labels is None:
        raise ValueError(f"metric {metric!r} requires ground-truth labels")
    if not shared.keys() <= set(SHARED):
        raise TypeError(f"grid_search() shares only {SHARED} among cells, got {sorted(shared)}")
    for name in grid:
        if name in SHARED:
            raise ValueError(f"grid parameter {name!r} is shared by every cell, not swept: "
                             f"pass {name}= (bdmbc grid --{name.replace('_', '-')})")
        if name not in SWEPT:
            raise ValueError(f"unknown grid parameter {name!r}: a grid sweeps {', '.join(SWEPT)}")
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
    for c in configs:
        c.validate(n)
    reports, rows = {}, []
    for c, labels, _, num, _ in _fits(points, configs, {}):
        key = labels.tobytes()
        if key not in reports:
            reports[key] = metric_report(ds.labels, labels)
        rows.append({**{k: v for k, v in c.to_dict().items() if k in SWEPT},
                     **reports[key], "num_clusters": num})
    rows.sort(key=lambda r: (-r[metric], *(r[name] for name in SWEPT)))
    return rows
