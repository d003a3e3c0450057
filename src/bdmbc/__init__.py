"""Multi-density mode-based clustering from bagged k-NN distances.

The package exports the README entry points; every stage function stays
importable from its own module.
"""

from .bagging import (
    BaggingPlan,
    bagged_k_distance,
    bagging_weight_table,
    bagging_weights,
    hypothetical_density,
    infinite_bagged_k_distance,
)
from .cluster import BdmbcConfig, ClusterResult, bdmbc_fit
from .data import Dataset, GaussianMixture, gen_mixture, gen_multiblobs, scale_minmax
from .grid import grid_search
from .metrics import ari, kuhn_munkres, matched_f1_accuracy, metric_report, nmi
from .plls import empirical_plls, mode_set

__version__ = "0.1.0"

__all__ = [
    "BaggingPlan",
    "BdmbcConfig",
    "ClusterResult",
    "Dataset",
    "GaussianMixture",
    "ari",
    "bagged_k_distance",
    "bagging_weight_table",
    "bagging_weights",
    "bdmbc_fit",
    "empirical_plls",
    "gen_mixture",
    "gen_multiblobs",
    "grid_search",
    "hypothetical_density",
    "infinite_bagged_k_distance",
    "kuhn_munkres",
    "matched_f1_accuracy",
    "metric_report",
    "mode_set",
    "nmi",
    "scale_minmax",
]
