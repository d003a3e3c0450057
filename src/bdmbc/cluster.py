"""Level-set graph clustering on PLLS scores.

Pipeline: k_G-NN graph over all points, node-induced subgraph on
scores >= lambda, weakly connected components (the components of the
union-symmetrized graph), dissolution of undersized components, then each
remaining point joins its nearest surviving core point.  That is the
first point along its row of the shared neighbor table that scores >=
lambda (first_scoring, built once per score vector for every lambda), if
it survived dissolution; else the first surviving core point along the
row; for a row holding none, the answer of a 1-NN query against the core
points.
Everything is deterministic for a fixed seed; component IDs follow each
component's smallest member index and final labels are ordered by
descending cluster size.
"""

from __future__ import annotations

import time
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _cc
from scipy.sparse.csgraph import minimum_spanning_tree

from .bagging import BaggingPlan, _table_width, bagged_k_distance, check_integers
from .data import DataError, _points, parse_number
from .knn import SpatialIndex
from .plls import mode_set, plls_from_neighbors
# empirical_plls stays importable from this module, where the benchmark's
# tracer wraps the stages; bdmbc_fit slices one neighbor table instead.
from .plls import empirical_plls  # noqa: F401


# Every hyperparameter of a config: JSON name -> (BdmbcConfig field,
# integer?).  to_dict, from_dict, the CLI's flags and the grid's value
# lists all read it.
PARAMETERS = {
    "b": ("b", True),
    "rho": ("rho", False),
    "s": ("s", True),
    "kd": ("k_d", True),
    "kl": ("k_l", True),
    "kg": ("k_g", True),
    "lambda": ("lam", False),
    "min_cluster_size": ("min_cluster_size", True),
    "seed": ("seed", True),
}


@dataclass(frozen=True)
class BdmbcConfig:
    """The six hyperparameters plus seed and minimum cluster size.

    Subsample size comes from rho (s = ceil(rho * n)) unless s is given
    explicitly.  min_cluster_size defaults to 2 * k_g.
    """

    k_d: int
    k_l: int
    b: int = 10
    rho: float = 0.1
    s: int | None = None
    k_g: int = 15
    lam: float = 0.5
    min_cluster_size: int | None = None
    seed: int = 0

    def subsample_size(self, n):
        if self.s is not None:
            return self.s
        # before the product, which would not fit an int for rho = inf or nan
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho={self.rho} must lie in (0, 1]")
        return int(np.ceil(self.rho * n))

    def effective_min_cluster_size(self):
        return self.min_cluster_size if self.min_cluster_size is not None else 2 * self.k_g

    def plan(self, n):
        """The bagging rounds this config runs on n points."""
        return BaggingPlan(b=self.b, s=self.subsample_size(n), k_d=self.k_d, seed=self.seed)

    def validate(self, n=None):
        """ValueError for the first invalid hyperparameter.  Without n, only
        the checks that hold for any number of points run."""
        for name, (f, integer) in PARAMETERS.items():
            if not integer:  # check_integers below also rejects a 5.0
                parse_number(getattr(self, f), name, False)
        mcs = self.effective_min_cluster_size()
        # subsample_size checks rho, unless s is given
        check_integers(b=self.b, s=self.subsample_size(1), k_d=self.k_d, k_l=self.k_l,
                       k_g=self.k_g, min_cluster_size=mcs, seed=self.seed)
        for name, value in (("b", self.b), ("k_d", self.k_d), ("k_l", self.k_l),
                            ("k_g", self.k_g), ("min_cluster_size", mcs)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1 ({name}={value})")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda={self.lam} must lie in [0, 1]")
        if n is None:
            return
        self.plan(n).validate(n)
        if self.k_l > n - 1:
            raise ValueError(f"k_l={self.k_l} out of range [1, {n - 1}]")
        if self.k_g > n - 1:
            raise ValueError(f"k_g={self.k_g} out of range [1, {n - 1}]")

    def to_dict(self, n=None):
        """The config by JSON name, with s resolved on n points (if given)
        and min_cluster_size resolved."""
        s = self.subsample_size(n) if n else self.s
        resolved = replace(self, s=s, min_cluster_size=self.effective_min_cluster_size())
        return {name: getattr(resolved, f) for name, (f, _) in PARAMETERS.items()}

    @classmethod
    def from_dict(cls, m):
        """The config a JSON object describes (to_dict's inverse), each value
        parsed by data.parse_number.  A parameter left out, or null where its
        default is null, keeps its default; other keys are ignored."""
        if not isinstance(m, dict):
            raise DataError(f"config must be a JSON object, got {m!r}")
        defaults = {f.name: f.default for f in fields(cls)}
        values = {f: parse_number(m[name], name, integer)
                  for name, (f, integer) in PARAMETERS.items()
                  if name in m and not (m[name] is None and defaults[f] is None)}
        missing = [name for name, (f, _) in PARAMETERS.items()
                   if f not in values and defaults[f] is MISSING]
        if missing:
            raise DataError(f"config needs {' and '.join(missing)}: no default")
        return cls(**values)


@dataclass(frozen=True)
class ClusterResult:
    labels: np.ndarray
    core_mask: np.ndarray
    modes: np.ndarray
    num_clusters: int
    plls: np.ndarray
    config: dict
    timings: dict = field(default_factory=dict)

    def to_json_dict(self):
        """The stable on-disk schema (timings stay out on purpose)."""
        return {
            "labels": self.labels.tolist(),
            "modes": self.modes.tolist(),
            "core": self.core_mask.astype(int).tolist(),
            "num_clusters": int(self.num_clusters),
            "plls": self.plls.tolist(),
            "config": self.config,
        }


def graph_from_neighbors(nbr):
    """Directed k-NN graph: the (m, 2) int64 edges (i, nbr[i, j]), row by row.

    nbr may be the leading k_g columns of a wider exact neighbor table: under
    the (distance, index) rule they are exactly the k_g-lists.
    """
    n, k = nbr.shape
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    return np.column_stack([src, nbr.reshape(-1)])


def build_kg_graph(idx, k_g):
    """Union-symmetrized k_g-NN graph under the (distance, index) tie rule:
    edges (i, j) with i < j, lexicographically sorted and unique.  It has
    the weak components of graph_from_neighbors' directed edges."""
    n = idx.n
    if not 1 <= k_g <= n - 1:
        raise ValueError(f"k_g={k_g} out of range [1, {n - 1}]")
    nbr, _ = idx.query_bulk(idx.points, k_g, exclude=np.arange(n))
    return np.unique(np.sort(graph_from_neighbors(nbr), axis=1), axis=0)


def core_subgraph(edges, scores, lam):
    """(mask, core_edges): the points scoring >= lam and the edges between them."""
    mask = np.asarray(scores) >= lam
    return mask, edges[mask[edges[:, 0]] & mask[edges[:, 1]]]


def spanning_forest(edges, scores):
    """A maximum spanning forest of distinct directed edges, each weighted by
    its lower endpoint score: (m, 2) int64 edges, m < n.

    At every lambda, the forest's edges whose endpoints both score >= lambda
    join the same components as all such edges (the cycle property: an edge
    left out closes a cycle of forest edges scoring no lower).  So one forest
    per score vector and graph serves core_subgraph at every lambda.
    """
    scores = np.asarray(scores)
    n = len(scores)
    # scipy's minimum forest on 2 - lower score: the weights lie in [1, 2],
    # so none is the zero that scipy drops, and PLLS scores, multiples of
    # 1 / k_l, keep distinct weights
    weight = 2.0 - np.minimum(scores[edges[:, 0]], scores[edges[:, 1]])
    forest = minimum_spanning_tree(
        coo_matrix((weight, (edges[:, 0], edges[:, 1])), shape=(n, n))).tocoo()
    return np.column_stack([forest.row, forest.col]).astype(np.int64)


def connected_components(mask, edges):
    """Provisional labels on the masked (core) points; -1 elsewhere.

    edges join core points only.  They are read as directed and components
    as weakly connected, so a directed k-NN edge list and its symmetrized
    form give the same labels.  Component IDs are assigned in order of each
    component's smallest member index.
    """
    n = len(mask)
    core = np.flatnonzero(mask)
    labels = np.full(n, -1, dtype=np.int64)
    if core.size == 0:
        return labels
    remap = np.full(n, -1, dtype=np.int64)
    remap[core] = np.arange(core.size)
    e = remap[edges]
    adj = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(core.size, core.size))
    _, comp = _cc(adj, directed=True, connection="weak")
    # relabel so that component IDs follow smallest member (core is sorted
    # ascending, so first occurrence order is smallest-index order)
    _, first = np.unique(comp, return_index=True)
    order = np.argsort(first)
    new_id = np.empty_like(order)
    new_id[order] = np.arange(len(order))
    labels[core] = new_id[comp]
    return labels


# Rows of the neighbor table that first_scoring and finalize scan at a
# time: gathering every row at once adds to the fit's peak memory.
_FINALIZE_ROWS = 1024


def first_scoring(scores, nbr, lams):
    """(n, len(lams)) int64: for each row of the neighbor table nbr and each
    lambda, the first neighbor along the row that scores >= lambda, or -1."""
    n = nbr.shape[0]
    first = np.full((n, len(lams)), -1, dtype=np.int64)
    for lo in range(0, n, _FINALIZE_ROWS):
        rows = nbr[lo : lo + _FINALIZE_ROWS]
        row_scores = scores[rows]
        at = np.arange(len(rows))
        for j, lam in enumerate(lams):
            hit = row_scores >= lam
            pos = np.argmax(hit, axis=1)
            first[lo : lo + len(rows), j] = np.where(hit[at, pos], rows[at, pos], -1)
    return first


def finalize(ds, provisional, core_mask, min_cluster_size, nbr, first):
    """Dissolve undersized components and give each non-core point the
    label of its nearest surviving core point.

    nbr is an exact self-excluded neighbor table of the points, any width,
    ordered by (distance, index), and first is each row's first neighbor
    along it inside core_mask (before dissolution), or -1: a column of
    first_scoring when core_mask is scores >= lambda.  A non-core point's
    nearest core point is its first one if that survived dissolution; a
    row whose first one was dissolved is scanned for its first surviving
    core point; only rows left without one are queried against an index
    over the core points, which numbers them in ascending index order and
    so breaks ties the same way.
    Returns (labels, final_core_mask, num_clusters) with labels reordered
    by descending cluster size (ties by smallest member index).
    """
    points = _points(ds)
    n = points.shape[0]
    labels = np.asarray(provisional).copy()
    core_mask = np.asarray(core_mask).copy()
    member = np.flatnonzero(labels >= 0)
    small = np.bincount(labels[member]) < min_cluster_size
    dissolved = member[small[labels[member]]]
    labels[dissolved] = -1
    core_mask[dissolved] = False
    core = np.flatnonzero(core_mask)
    if core.size == 0:
        return np.zeros(n, dtype=np.int64), core_mask, 1
    # compact surviving IDs, then reorder by (descending size, smallest member)
    ids = np.unique(labels[core])
    labels[core] = np.searchsorted(ids, labels[core])
    non_core = np.flatnonzero(~core_mask)
    nearest = np.asarray(first)[non_core]
    rescan = np.flatnonzero(nearest >= 0)
    rescan = rescan[~core_mask[nearest[rescan]]]
    for lo in range(0, rescan.size, _FINALIZE_ROWS):
        at = rescan[lo : lo + _FINALIZE_ROWS]
        rows = nbr[non_core[at]]
        hit = core_mask[rows]
        pos = np.arange(len(rows)), np.argmax(hit, axis=1)
        nearest[at] = np.where(hit[pos], rows[pos], -1)
    missing = np.flatnonzero(nearest < 0)
    if missing.size:
        found, _ = SpatialIndex(points[core]).query_bulk(points[non_core[missing]], 1)
        nearest[missing] = core[found[:, 0]]
    labels[non_core] = labels[nearest]
    num = len(ids)
    sizes = np.bincount(labels, minlength=num)
    first_member = np.full(num, n, dtype=np.int64)
    np.minimum.at(first_member, labels, np.arange(n))
    order = np.lexsort((first_member, -sizes))
    rank = np.empty(num, dtype=np.int64)
    rank[order] = np.arange(num)
    return rank[labels], core_mask, num


def _bagged_and_table(points, plans, width, timings):
    """Each plan's bagged k-distances, and the one exact neighbor table,
    at least width columns wide, that every later stage slices.

    One index and one self-query serve every stage: the query is widened to
    the columns that bagging reads (bagging._table_width), and every plan's
    rounds read it.  timings gets "index" for the index build,
    "bagged_kdist" for the rounds and for the query if they read it, and
    "plls" for a query that no plan reads.
    """
    n = points.shape[0]
    t0 = time.perf_counter()
    idx = SpatialIndex(points)
    t1 = time.perf_counter()
    read = _table_width(n, plans)
    table = idx.query_bulk(idx.points, max(width, read), exclude=np.arange(n))
    t2 = time.perf_counter()
    bagged = [bagged_k_distance(points, plan, table=table) for plan in plans]
    t3 = time.perf_counter()
    timings["index"] = t1 - t0
    if read:
        timings["bagged_kdist"] = t3 - t1
    else:
        timings["bagged_kdist"], timings["plls"] = t3 - t2, t2 - t1
    return bagged, table[0][:, :width]


def _threshold(points, nbr, first, edges, scores, config, timings):
    """finalize's (labels, final_core_mask, num_clusters) at config.lam: the
    threshold stage of a fit and of every grid cell, on the neighbor table
    nbr that the edges were sliced from (a grid cell passes their
    spanning_forest); first is nbr's first_scoring column at config.lam.
    timings gets "components" (core subgraph and its components) and adds
    to "finalize"."""
    t0 = time.perf_counter()
    mask, core_edges = core_subgraph(edges, scores, config.lam)
    provisional = connected_components(mask, core_edges)
    timings["components"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    out = finalize(points, provisional, mask, config.effective_min_cluster_size(), nbr, first)
    timings["finalize"] = timings.get("finalize", 0.0) + time.perf_counter() - t0
    return out


def bdmbc_fit(ds, config):
    """Run the full pipeline on a dataset; deterministic for a fixed seed.

    One exact neighbor table (see _bagged_and_table) serves every stage:
    PLLS reads its first k_l columns, the graph its first k_g, and
    first_scoring and finalize all of it.  timings["finalize"] includes
    first_scoring.
    """
    points = _points(ds)
    n = points.shape[0]
    if n == 1:
        config.validate()  # every check that holds for any n
        return ClusterResult(
            labels=np.zeros(1, dtype=np.int64),
            core_mask=np.zeros(1, dtype=bool),
            modes=np.zeros(0, dtype=np.int64),
            num_clusters=1,
            plls=np.ones(1),
            config=config.to_dict(n),
            timings={},
        )
    config.validate(n)
    timings = {}
    (bagged,), nbr = _bagged_and_table(
        points, [config.plan(n)], max(config.k_l, config.k_g), timings
    )

    t0 = time.perf_counter()
    scores = plls_from_neighbors(bagged, nbr[:, : config.k_l])
    timings["plls"] = timings.get("plls", 0.0) + time.perf_counter() - t0

    t0 = time.perf_counter()
    edges = graph_from_neighbors(nbr[:, : config.k_g])
    timings["graph"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    first = first_scoring(scores, nbr, [config.lam])[:, 0]
    timings["finalize"] = time.perf_counter() - t0
    labels, final_core, num = _threshold(points, nbr, first, edges, scores, config, timings)
    modes = mode_set(scores)
    modes = modes[final_core[modes]]  # modes in dissolved components drop out
    return ClusterResult(
        labels=labels,
        core_mask=final_core,
        modes=modes,
        num_clusters=num,
        plls=scores,
        config=config.to_dict(n),
        timings=timings,
    )
