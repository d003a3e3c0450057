"""Multi-density mode-based clustering from bagged k-NN distances."""

from .bagging import (
    BaggingPlan,
    bagged_k_distance,
    bagging_weight_table,
    bagging_weights,
    hypothetical_density,
    infinite_bagged_k_distance,
    subsample,
)
from .cluster import (
    BdmbcConfig,
    ClusterResult,
    NeighborGraph,
    bdmbc_fit,
    build_kg_graph,
    connected_components,
    core_subgraph,
    finalize,
)
from .data import (
    Dataset,
    GaussianMixture,
    gen_mixture,
    gen_multiblobs,
    gen_shape,
    load_csv,
    mixture_pdf,
    scale_minmax,
)
from .grid import grid_search
from .knn import SpatialIndex, k_distances
from .metrics import ari, contingency, kuhn_munkres, matched_f1_accuracy, metric_report, nmi
from .plls import PllsScores, dmbc_plls, empirical_plls, mode_set

__version__ = "0.1.0"

__all__ = [
    "BaggingPlan",
    "BdmbcConfig",
    "ClusterResult",
    "Dataset",
    "GaussianMixture",
    "NeighborGraph",
    "PllsScores",
    "SpatialIndex",
    "ari",
    "bagged_k_distance",
    "bagging_weight_table",
    "bagging_weights",
    "bdmbc_fit",
    "build_kg_graph",
    "connected_components",
    "contingency",
    "core_subgraph",
    "dmbc_plls",
    "empirical_plls",
    "finalize",
    "gen_mixture",
    "gen_multiblobs",
    "gen_shape",
    "grid_search",
    "hypothetical_density",
    "infinite_bagged_k_distance",
    "k_distances",
    "kuhn_munkres",
    "load_csv",
    "matched_f1_accuracy",
    "metric_report",
    "mixture_pdf",
    "mode_set",
    "nmi",
    "scale_minmax",
    "subsample",
]
