"""Level-set graph clustering on PLLS scores.

Pipeline: k_G-NN graph over all points, node-induced subgraph on
scores >= lambda, weakly connected components (the components of the
union-symmetrized graph), dissolution of undersized components, then each
remaining point joins its nearest surviving core point (nearest_core).
One generator, _fits, runs it for a fit's one config and for a grid's
many, building each stage's input once for every config that shares it.
connected_components labels a score vector's stack of lambda masks in one
call per graph, the neighbor table's CSR view or its spanning forest.  A
point's nearest core point is the first point along its row
of the shared neighbor table that scores >= lambda (first_scoring, built
once per score vector for every lambda), if it survived dissolution; else
the answer of a 1-NN query against the surviving core points.  It depends
only on that column and the surviving core set, which configs at one
lambda share.
This threshold stage runs on the calling thread, one lambda at a time;
only the k-NN blocks and brute-force bagging rounds reach the thread pool.
Everything is deterministic for a fixed seed; component IDs follow each
component's smallest member index and final labels are ordered by
descending cluster size.
"""

from __future__ import annotations

import time
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np
from scipy.sparse import csr_matrix, identity, kron
from scipy.sparse.csgraph import connected_components as _cc
from scipy.sparse.csgraph import minimum_spanning_tree

from .bagging import (BaggingPlan, _table_ranks, _table_width, bagged_k_distance,
                      check_integers)
from .data import DataError, _points, _unit_scale, check_seed, parse_number
from .knn import _DIFF_ELEMENTS, SpatialIndex, _k_for
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
        check_seed(self.seed)
        for name, value in (("b", self.b), ("k_d", self.k_d), ("k_l", self.k_l),
                            ("k_g", self.k_g), ("min_cluster_size", mcs)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1 ({name}={value})")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda={self.lam} must lie in [0, 1]")
        if n is None:
            return
        self.plan(n).validate(n)
        for name, value in (("k_l", self.k_l), ("k_g", self.k_g)):
            if value > n - 1:
                raise ValueError(f"{name}={value} out of range [1, {n - 1}]")

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
        default is null, keeps its default; any other key is a DataError."""
        if not isinstance(m, dict):
            raise DataError(f"config must be a JSON object, got {m!r}")
        unknown = [name for name in m if name not in PARAMETERS]
        if unknown:
            raise DataError(f"unknown config parameter {unknown[0]!r}: "
                            f"a config takes {', '.join(PARAMETERS)}")
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
    """Directed k-NN graph: the table's (n, n) CSR view, whose row i has an
    edge to each nbr[i, j]; its column indices are the table's own (int32
    from a query of fewer than 2**31 points), its entries one-byte bools.

    nbr may be the leading k_g columns of a wider exact neighbor table: under
    the (distance, index) rule they are exactly the k_g-lists.
    """
    n, k = nbr.shape
    return csr_matrix((np.ones(n * k, dtype=bool), nbr.reshape(-1),
                       np.arange(0, n * k + 1, k)), shape=(n, n))


def build_kg_graph(idx, k_g):
    """Union-symmetrized k_g-NN graph under the (distance, index) tie rule:
    edges (i, j) with i < j, lexicographically sorted and unique.  It has
    the weak components of graph_from_neighbors' directed graph."""
    n = idx.n
    if not 1 <= k_g <= n - 1:
        raise ValueError(f"k_g={k_g} out of range [1, {n - 1}]")
    nbr, _ = idx.query_bulk(idx.points, k_g, exclude=np.arange(n), distances=False)
    edges = np.column_stack([np.repeat(np.arange(n), k_g), nbr.reshape(-1)])
    return np.unique(np.sort(edges, axis=1), axis=0)


def core_subgraph(edges, scores, lam):
    """(mask, core_edges): the points scoring >= lam and the edges between them."""
    mask = np.asarray(scores) >= lam
    return mask, edges[mask[edges[:, 0]] & mask[edges[:, 1]]]


def spanning_forest(graph, scores):
    """A maximum spanning forest of an (n, n) CSR graph, each edge weighted
    by its lower endpoint score: minimum_spanning_tree's CSR output, m < n.

    At every lambda, the forest's edges whose endpoints both score >= lambda
    join the same components as all such edges (the cycle property: an edge
    left out closes a cycle of forest edges scoring no lower).  So one forest
    per score vector and graph serves connected_components at every lambda.
    """
    scores = np.asarray(scores)
    # scipy's minimum forest on 2 - lower score: the weights lie in [1, 2],
    # so none is the zero that scipy drops, and PLLS scores, multiples of
    # 1 / k_l, keep distinct weights
    weight = 2.0 - np.minimum(np.repeat(scores, np.diff(graph.indptr)), scores[graph.indices])
    return minimum_spanning_tree(csr_matrix((weight, graph.indices, graph.indptr),
                                            shape=graph.shape))


def connected_components(masks, graph):
    """Provisional labels at each lambda: for each row of masks (the points
    scoring >= that lambda), the components of the (n, n) sparse graph's
    edges between its points, numbered from 0 on its points and -1 elsewhere.

    Edges are read as directed and components as weakly connected, so a
    directed k-NN graph, its symmetrized form and its spanning_forest give
    the same labels.  One scipy call labels every row, on the subgraph that
    the stacked core points induce in the block-diagonal kron(identity(rows),
    graph), where node j * n + i is point i at row j.  Component IDs go, row
    by row, in order of each component's smallest member index.  Returns
    (rows, n) int64 labels, or (n,) for a 1-D mask.
    """
    graph = graph.tocsr()  # an (m, 2) edge array has no tocsr: it is not a graph
    masks = np.asarray(masks, dtype=bool)
    stack = np.atleast_2d(masks)
    rows, n = stack.shape
    labels = np.full(stack.shape, -1, dtype=np.int64)
    core = np.flatnonzero(stack)  # by row, then by ascending index
    if core.size:
        if rows > 1:
            graph = kron(identity(rows), graph, format="csr")
        _, comp = _cc(graph[core][:, core], directed=True, connection="weak")
        # a component's first occurrence in core is its smallest member;
        # rank components in that order, then count from 0 within each row
        _, first, comp = np.unique(comp, return_index=True, return_inverse=True)
        order = np.argsort(first)
        row_of = core[first[order]] // n  # ascending
        new_id = np.empty_like(order)
        new_id[order] = np.arange(len(order)) - np.searchsorted(row_of, row_of)
        labels.reshape(-1)[core] = new_id[comp]
    return labels if masks.ndim == 2 else labels[0]


def first_scoring(scores, nbr, lams):
    """(n, len(lams)) int64: for each row of the neighbor table nbr and each
    lambda, the first neighbor along the row that scores >= lambda, or -1.
    The rows' scores are gathered in slices of at most knn._DIFF_ELEMENTS."""
    n, k = nbr.shape
    first = np.full((n, len(lams)), -1, dtype=np.int64)
    step = max(_DIFF_ELEMENTS // k, 1)
    for lo in range(0, n, step):
        rows = nbr[lo : lo + step]
        row_scores = scores[rows]
        at = np.arange(len(rows))
        for j, lam in enumerate(lams):
            hit = row_scores >= lam
            pos = np.argmax(hit, axis=1)
            first[lo : lo + len(rows), j] = np.where(hit[at, pos], rows[at, pos], -1)
    return first


def nearest_core(points, first, core_mask):
    """Each point's nearest point of core_mask under the (distance, index)
    rule, itself for a core point; core_mask must hold a point.

    first is each point's nearest other point, under the same rule, inside
    a superset of core_mask, or -1 where it is not known: a column of
    first_scoring when core_mask is what survived dissolution at that
    lambda.  A point takes its first one if that is in core_mask, since no
    point of the subset lies nearer.  Every other point is queried against
    an index over the core points, which numbers them in ascending index
    order and so breaks ties the same way.
    """
    nearest = np.where(core_mask, np.arange(len(core_mask)), first)
    # a -1 reads core_mask's last entry, but is missing either way
    missing = np.flatnonzero((nearest < 0) | ~core_mask[nearest])
    if missing.size:
        core = np.flatnonzero(core_mask)
        found, _ = SpatialIndex(points[core]).query_bulk(points[missing], 1, distances=False)
        nearest[missing] = core[found[:, 0]]
    return nearest


def finalize(provisional, core_mask, min_cluster_size, nearest):
    """Dissolve undersized components and give each non-core point the
    label of its nearest surviving core point, nearest(final_core_mask):
    nearest_core's answer, which the configs of one lambda share for each
    surviving core set.

    Returns (labels, final_core_mask, num_clusters) with labels reordered
    by descending cluster size (ties by smallest member index).
    """
    labels = np.asarray(provisional).copy()
    core_mask = np.asarray(core_mask).copy()
    n = len(labels)
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
    labels = labels[nearest(core_mask)]
    num = len(ids)
    sizes = np.bincount(labels, minlength=num)
    first_member = np.full(num, n, dtype=np.int64)
    np.minimum.at(first_member, labels, np.arange(n))
    order = np.lexsort((first_member, -sizes))
    rank = np.empty(num, dtype=np.int64)
    rank[order] = np.arange(num)
    return rank[labels], core_mask, num


def _fits(points, configs, timings):
    """Yield (config, labels, final core mask, num_clusters, scores) for
    each config, valid on these n >= 2 points, one lambda's configs at a
    time: bdmbc_fit runs one config, grid_search a grid's.

    Points of a large or small scale are first scaled by a power of two
    (data._unit_scale): exact, so no output changes, while the squared
    differences stay clear of overflow and underflow.

    One index and one exact self-query serve every stage.  It holds the
    ranks some stage reads and no others (bagging._table_ranks): 1 up to
    the largest k_l or k_g, or up to the rank table's reach, plus k_d for
    each s == n plan, which reads that column alone.  So the full fit at
    k_d=100 beside k_l=50 keeps 51 columns, not 100.  It holds int32
    indices and no distances: every stage reads indices alone, and
    bagging recomputes the k_d-th distances it needs.  Configs
    with equal plans share one bagging pass; with equal (plan, k_l), one
    score vector, one first_scoring table over their lambdas and, per k_g,
    one connected_components call that labels every lambda on the k_g
    graph, the table's CSR view, or with several lambdas on its
    spanning_forest, which costs more to build than one call on the graph.
    The lambdas then run one at a time on the calling thread, each running
    nearest_core once per distinct surviving core set: the first_scoring
    column answers each non-core row whose first point survived, an index
    over the surviving core points every other one.  finalize runs once per
    config and is looked up by name, so the benchmark's tracer sees every
    call.

    timings gets "index" for the index build, "bagged_kdist" for the
    rounds and for the query if they read it, "plls" for the scores and
    for a query that no plan reads, "graph", "components", and "finalize",
    which includes first_scoring.
    """
    points, _ = _unit_scale(points)
    n = points.shape[0]
    groups = {}  # plan -> k_l -> the configs that share one score vector
    for c in configs:
        groups.setdefault(c.plan(n), {}).setdefault(c.k_l, []).append(c)
    width = max(max(c.k_l, c.k_g) for c in configs)
    t0 = time.perf_counter()
    idx = SpatialIndex(points)
    t1 = time.perf_counter()
    read = _table_width(n, groups)
    ranks = _table_ranks(n, groups, width)
    table, _ = idx.query_bulk(idx.points, _k_for(ranks), exclude=np.arange(n),
                              distances=False)
    t2 = time.perf_counter()

    def shared(plan):
        # an s == n plan reads column k_d - 1 alone: hand it a view that
        # repeats the column of rank k_d that wide
        if plan.s < n:
            return table
        return np.broadcast_to(table[:, ranks.index(plan.k_d), None], (n, plan.k_d))

    bagged = {plan: bagged_k_distance(points, plan, table=shared(plan)) for plan in groups}
    t3 = time.perf_counter()
    timings.update(index=t1 - t0, bagged_kdist=t3 - (t1 if read else t2),
                   plls=0.0 if read else t2 - t1, graph=0.0, components=0.0, finalize=0.0)
    nbr = table[:, :width]
    del idx, table  # later stages read only nbr: free the tree
    for plan, by_kl in groups.items():
        for kl, cells in by_kl.items():
            t0 = time.perf_counter()
            scores = plls_from_neighbors(bagged[plan], nbr[:, :kl])
            t1 = time.perf_counter()
            lams = list(dict.fromkeys(c.lam for c in cells))
            # before the graphs, which are built one at a time: either other
            # order raises a grid's peak memory
            first = first_scoring(scores, nbr, lams)
            t2 = time.perf_counter()
            timings["plls"] += t1 - t0
            timings["finalize"] += t2 - t1
            masks = scores >= np.array(lams)[:, None]
            provisional = {}
            for kg in dict.fromkeys(c.k_g for c in cells):
                t0 = time.perf_counter()
                graph = graph_from_neighbors(nbr[:, :kg])
                if len(lams) > 1:
                    graph = spanning_forest(graph, scores)
                t1 = time.perf_counter()
                provisional[kg] = connected_components(masks, graph)
                timings["graph"] += t1 - t0
                timings["components"] += time.perf_counter() - t1
            for j, lam in enumerate(lams):
                memo = {}  # surviving core mask -> nearest_core's answer

                def nearest(core):
                    key = core.tobytes()
                    if key not in memo:
                        memo[key] = nearest_core(points, first[:, j], core)
                    return memo[key]

                for c in cells:
                    if c.lam == lam:
                        t0 = time.perf_counter()
                        row = finalize(provisional[c.k_g][j], masks[j],
                                       c.effective_min_cluster_size(), nearest)
                        timings["finalize"] += time.perf_counter() - t0
                        yield (c, *row, scores)


def bdmbc_fit(ds, config):
    """Run the full pipeline on a dataset; deterministic for a fixed seed.

    A fit is _fits on its one config, which says what timings holds.
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
        )
    config.validate(n)
    timings = {}
    ((_, labels, final_core, num, scores),) = _fits(points, [config], timings)
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
