"""Level-set graph clustering on PLLS scores.

Pipeline: k_G-NN graph over all points, node-induced subgraph on
scores >= lambda, weakly connected components (the components of the
union-symmetrized graph), dissolution of undersized components, then 1-NN
assignment of the remaining points to the nearest surviving core point.
Everything is deterministic for a fixed seed; component IDs follow each
component's smallest member index and final labels are ordered by
descending cluster size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _cc

from .bagging import BaggingPlan, _rounds_order, bagged_k_distance
from .knn import SpatialIndex
from .plls import PllsScores, mode_set, plls_from_neighbors
# empirical_plls stays importable from this module, where the benchmark's
# tracer wraps the stages; bdmbc_fit slices one neighbor table instead.
from .plls import empirical_plls  # noqa: F401


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
        return int(np.ceil(self.rho * n))

    def effective_min_cluster_size(self):
        return self.min_cluster_size if self.min_cluster_size is not None else 2 * self.k_g

    def validate(self, n):
        s = self.subsample_size(n)
        if self.b < 1:
            raise ValueError("b must be >= 1")
        if self.s is None and not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho={self.rho} must lie in (0, 1]")
        if not 1 <= s <= n:
            raise ValueError(f"subsample size s={s} out of range [1, {n}]")
        if not 1 <= self.k_d < s:
            raise ValueError(f"k_d must be smaller than subsample size (k_d={self.k_d}, s={s})")
        if not 1 <= self.k_l <= n - 1:
            raise ValueError(f"k_l={self.k_l} out of range [1, {n - 1}]")
        if not 1 <= self.k_g <= n - 1:
            raise ValueError(f"k_g={self.k_g} out of range [1, {n - 1}]")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda={self.lam} must lie in [0, 1]")
        if self.effective_min_cluster_size() < 1:
            raise ValueError("min_cluster_size must be >= 1")

    def to_dict(self, n=None):
        d = {
            "b": self.b,
            "rho": self.rho,
            "s": self.s if self.s is not None else (self.subsample_size(n) if n else None),
            "kd": self.k_d,
            "kl": self.k_l,
            "kg": self.k_g,
            "lambda": self.lam,
            "min_cluster_size": self.effective_min_cluster_size(),
            "seed": self.seed,
        }
        return d


@dataclass(frozen=True)
class NeighborGraph:
    """k_G-NN graph as an (m, 2) int64 edge list.

    build_kg_graph gives the union-symmetrized form: edges (i, j) with
    i < j, lexicographically sorted and unique.  graph_from_neighbors keeps
    the directed rows (i, nbr[i, j]); both have the same weak components.
    """

    n: int
    edges: np.ndarray


@dataclass(frozen=True)
class CoreSubgraph:
    """Node-induced subgraph on the core mask."""

    node_mask: np.ndarray
    edges: np.ndarray


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
    """Directed k-NN graph with edges (i, nbr[i, j]), row by row.

    nbr may be the leading k_g columns of a wider exact neighbor table: under
    the (distance, index) rule they are exactly the k_g-lists.
    """
    n, k = nbr.shape
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    return NeighborGraph(n, np.column_stack([src, nbr.reshape(-1)]))


def build_kg_graph(idx, k_g):
    """Union-symmetrized k_g-NN graph under the (distance, index) tie rule."""
    n = idx.n
    if not 1 <= k_g <= n - 1:
        raise ValueError(f"k_g={k_g} out of range [1, {n - 1}]")
    nbr, _ = idx.query_bulk(idx.points, k_g, exclude=np.arange(n))
    directed = graph_from_neighbors(nbr)
    return NeighborGraph(n, np.unique(np.sort(directed.edges, axis=1), axis=0))


def core_subgraph(graph, scores, lam):
    """Subgraph induced on points with score >= lam."""
    values = scores.values if isinstance(scores, PllsScores) else np.asarray(scores)
    if values.shape[0] != graph.n:
        raise ValueError("scores length must match graph size")
    mask = values >= lam
    if graph.edges.size:
        keep = mask[graph.edges[:, 0]] & mask[graph.edges[:, 1]]
        edges = graph.edges[keep]
    else:
        edges = graph.edges
    return CoreSubgraph(mask, edges)


def connected_components(sub):
    """Provisional labels on core points; -1 elsewhere.

    Edges are read as directed and components as weakly connected, so a
    directed k-NN edge list and its symmetrized form give the same labels.
    Component IDs are assigned in order of each component's smallest
    member index.
    """
    n = len(sub.node_mask)
    core = np.flatnonzero(sub.node_mask)
    labels = np.full(n, -1, dtype=np.int64)
    if core.size == 0:
        return labels
    remap = np.full(n, -1, dtype=np.int64)
    remap[core] = np.arange(core.size)
    if sub.edges.size:
        e = remap[sub.edges]
        adj = coo_matrix(
            (np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(core.size, core.size)
        )
    else:
        adj = coo_matrix((core.size, core.size))
    _, comp = _cc(adj, directed=True, connection="weak")
    # relabel so that component IDs follow smallest member (core is sorted
    # ascending, so first occurrence order is smallest-index order)
    _, first = np.unique(comp, return_index=True)
    order = np.argsort(first)
    new_id = np.empty_like(order)
    new_id[order] = np.arange(len(order))
    labels[core] = new_id[comp]
    return labels


def finalize(ds, provisional, core_mask, min_cluster_size):
    """Dissolve undersized components and 1-NN-assign non-core points.

    Returns (labels, final_core_mask, num_clusters) with labels reordered
    by descending cluster size (ties by smallest member index).
    """
    points = ds.points if hasattr(ds, "points") else np.asarray(ds, dtype=np.float64)
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
    if non_core.size:
        # core indices are ascending, so subsample-local tie order equals
        # the global index tie rule
        core_index = SpatialIndex(points[core])
        nearest, _ = core_index.query_bulk(points[non_core], 1)
        labels[non_core] = labels[core[nearest[:, 0]]]
    num = len(ids)
    sizes = np.bincount(labels, minlength=num)
    first_member = np.full(num, n, dtype=np.int64)
    np.minimum.at(first_member, labels, np.arange(n))
    order = np.lexsort((first_member, -sizes))
    rank = np.empty(num, dtype=np.int64)
    rank[order] = np.arange(num)
    return rank[labels], core_mask, num


def bdmbc_fit(ds, config):
    """Run the full pipeline on a dataset; deterministic for a fixed seed.

    One exact neighbor table of width max(k_l, k_g, and k_d when s == n)
    serves every stage: the plain k-distance (s == n) is its k_d-th column,
    PLLS reads its first k_l columns and the graph its first k_g.  For
    n <= _RANK_TABLE_MAX_N with s < n the table is the leading columns of
    the pairwise order that the bagging rounds read; otherwise it is one
    query.  Its cost is timed under the first stage that builds it:
    timings["bagged_kdist"] for the pairwise order or when s == n, else
    timings["plls"].
    """
    points = ds.points if hasattr(ds, "points") else np.asarray(ds, dtype=np.float64)
    n = points.shape[0]
    if n == 1:
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
    s = config.subsample_size(n)
    width = max(config.k_l, config.k_g, config.k_d if s == n else 1)
    timings = {}
    t0 = time.perf_counter()
    idx = SpatialIndex(points)
    timings["index"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    nbr = None
    if s == n:
        # Every round sees the full data, so the average is the plain
        # k-distance regardless of B.
        nbr, dist = idx.query_bulk(points, width, exclude=np.arange(n))
        bagged = dist[:, config.k_d - 1].copy()
        del dist
    else:
        plan = BaggingPlan(b=config.b, s=s, k_d=config.k_d, seed=config.seed)
        pairwise = _rounds_order(points, [s])
        if pairwise is not None:
            nbr = pairwise[1][:, :width]
        bagged = bagged_k_distance(points, plan, pairwise=pairwise)
        del pairwise  # frees the sorted distances; nbr keeps the order
    timings["bagged_kdist"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if nbr is None:
        nbr, _ = idx.query_bulk(points, width, exclude=np.arange(n))
    scores = plls_from_neighbors(bagged, nbr[:, : config.k_l])
    timings["plls"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    graph = graph_from_neighbors(nbr[:, : config.k_g])
    timings["graph"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sub = core_subgraph(graph, scores, config.lam)
    provisional = connected_components(sub)
    timings["components"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    labels, final_core, num = finalize(
        points, provisional, sub.node_mask, config.effective_min_cluster_size()
    )
    timings["finalize"] = time.perf_counter() - t0

    modes = mode_set(scores)
    modes = modes[final_core[modes]]  # modes in dissolved components drop out
    return ClusterResult(
        labels=labels,
        core_mask=final_core,
        modes=modes,
        num_clusters=num,
        plls=scores.values,
        config=config.to_dict(n),
        timings=timings,
    )
