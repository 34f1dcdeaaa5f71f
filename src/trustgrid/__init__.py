"""Distributed trust propagation and trust-aware recommendation."""

from .model import (Dataset, TrustgridError,
                    NoRatingsError, UnknownItemError, UnknownUserError)
from .propagation import (NetworkState, PropagationConfig, init_network,
                          propagate, query_trust, run_round)
from .recommender import Recommendation, confidence, neighborhood_raters, recommend

__all__ = [
    "Dataset", "TrustgridError", "NoRatingsError",
    "UnknownItemError", "UnknownUserError",
    "NetworkState", "PropagationConfig", "init_network", "propagate",
    "query_trust", "run_round",
    "Recommendation", "confidence", "neighborhood_raters", "recommend",
]
