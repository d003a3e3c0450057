"""Outside-in layer tracing for the benchmark.

The public functions of each bdmbc module are wrapped where their callers
look them up, so nothing under src/ changes.  Every call becomes a span
(layer, start, end, parent span, thread, attributes) kept in memory; the
per-layer self times and work counts are derived from the spans after the
operation ends.

A layer's self time is its span duration minus the time its child spans
cover.  Parents are tracked per thread, because grid_search runs finalize
and metric_report in a thread pool: a span opened on a pool thread has no
parent there, and its time is not subtracted from the main thread.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

import numpy as np

# Time metrics are self times summed over every span of the layer.
TIME_METRICS = {
    "knn.build_s": "knn.build",
    "knn.query_s": "knn.query",
    "bagging.kdist_s": "bagging.kdist",
    "plls.score_s": "plls.score",
    "cluster.graph_s": "cluster.graph",
    "cluster.components_s": "cluster.components",
    "cluster.finalize_s": "cluster.finalize",
    "cluster.fit_overhead_s": "cluster.fit",
    "grid.search_self_s": "grid.search",
    "metrics.report_s": "metrics.report",
    "metrics.assign_s": "metrics.assign",
}

# Count metrics are (layer, attribute) pairs: the attribute summed over the
# layer's spans, or the number of spans when the attribute is None.
COUNT_METRICS = {
    "knn.build_calls": ("knn.build", None),
    "knn.query_calls": ("knn.query", None),
    "knn.query_rows": ("knn.query", "rows"),
    "knn.query_neighbors": ("knn.query", "neighbors"),
    "bagging.rounds": ("bagging.kdist", "rounds"),
    "plls.modes": ("plls.score", "modes"),
    "cluster.graph_edges": ("cluster.graph", "edges"),
    "cluster.core_points": ("cluster.components", "core_points"),
    "cluster.components": ("cluster.components", "components"),
    "cluster.clusters": ("cluster.finalize", "clusters"),
    "grid.cells": ("grid.search", "cells"),
    "grid.graph_builds": ("cluster.graph", "from_grid"),
    "metrics.report_calls": ("metrics.report", None),
}


class Tracer:
    """Collects spans from the wrapped functions of one process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, name, layer, before=None, after=None):
        """Replace owner.name with a span-recording wrapper.

        before(args, kwargs) and after(result) return attribute dicts taken
        from the call's arguments and result.
        """
        fn = getattr(owner, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {
                "id": next(self._ids),
                "parent": stack[-1]["id"] if stack else None,
                "layer": layer,
                "thread": threading.get_ident(),
                "attrs": before(args, kwargs) if before else {},
            }
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if after:
                span["attrs"].update(after(result))
            return result

        setattr(owner, name, traced)

    def install(self):
        """Wrap every traced entry point of bdmbc."""
        import bdmbc.cluster
        import bdmbc.grid
        import bdmbc.metrics
        from bdmbc.knn import SpatialIndex

        def query_attrs(args, kwargs):
            queries, k = args[1], args[2]
            rows = int(np.atleast_2d(queries).shape[0])
            return {"k": int(k), "rows": rows, "neighbors": rows * int(k)}

        def kdist_attrs(args, kwargs):
            return {"rounds": int(args[1].b)}

        def graph_after(graph):
            return {"edges": int(len(graph.edges))}

        def components_after(labels):
            return {"core_points": int(np.count_nonzero(labels >= 0)),
                    "components": int(labels.max() + 1) if labels.size else 0}

        self.wrap(SpatialIndex, "__init__", "knn.build")
        self.wrap(SpatialIndex, "query_bulk", "knn.query", before=query_attrs)
        self.wrap(bdmbc.metrics, "kuhn_munkres", "metrics.assign")
        self.wrap(bdmbc.cluster, "bdmbc_fit", "cluster.fit")
        self.wrap(bdmbc.grid, "grid_search", "grid.search",
                  after=lambda rows: {"cells": len(rows)})
        for module, from_grid in ((bdmbc.cluster, 0), (bdmbc.grid, 1)):
            self.wrap(module, "bagged_k_distance", "bagging.kdist", before=kdist_attrs)
            self.wrap(module, "empirical_plls", "plls.score",
                      after=lambda s: {"modes": int(np.count_nonzero(s.values == 1.0))})
            self.wrap(module, "build_kg_graph", "cluster.graph",
                      before=lambda args, kwargs, g=from_grid: {"from_grid": g},
                      after=graph_after)
            self.wrap(module, "core_subgraph", "cluster.components")
            self.wrap(module, "connected_components", "cluster.components",
                      after=components_after)
            self.wrap(module, "finalize", "cluster.finalize",
                      after=lambda out: {"clusters": int(out[2])})
        self.wrap(bdmbc.grid, "metric_report", "metrics.report")

    def layer_metrics(self):
        """Per-layer self times (seconds) and work counts from the spans."""
        child_time = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] = (
                    child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
                )
        self_time = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            self_time[span["layer"]] = self_time.get(span["layer"], 0.0) + own
        out = {name: self_time.get(layer, 0.0) for name, layer in TIME_METRICS.items()}
        for name, (layer, attr) in COUNT_METRICS.items():
            spans = [s for s in self.spans if s["layer"] == layer]
            out[name] = len(spans) if attr is None else sum(s["attrs"].get(attr, 0) for s in spans)
        return out

