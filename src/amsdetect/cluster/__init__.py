"""Four from-scratch 2-cluster algorithms over a shared model type.

The paper splits observations into two groups, normal and anomalous, so
every fitter returns exactly two clusters in canonical order.
"""

from .birch import fit_birch
from .gmm import VAR_FLOOR, fit_gmm
from .kmeans import fit_kmeans, lloyd
from .model import (MODEL_FORMAT, MODEL_VERSION, ClusterModel, as_matrix,
                    assign_many, canonical_labels, cluster_stats, load_model,
                    member_stats, save_model)
from .spectral import fit_spectral, spectral_embedding

__all__ = [
    "MODEL_FORMAT",
    "MODEL_VERSION",
    "VAR_FLOOR",
    "ClusterModel",
    "as_matrix",
    "assign_many",
    "canonical_labels",
    "cluster_stats",
    "fit_birch",
    "fit_gmm",
    "fit_kmeans",
    "fit_spectral",
    "lloyd",
    "load_model",
    "member_stats",
    "save_model",
    "spectral_embedding",
]
