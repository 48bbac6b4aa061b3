"""Attack-finding algorithms: brute force, greedy, weighted greedy."""

from repro.search.base import SearchAlgorithm, TypeContext
from repro.search.brute import BruteForceSearch
from repro.search.greedy import GreedySearch
from repro.search.hunt import HuntResult, hunt
from repro.search.results import AttackFinding, SearchReport
from repro.search.weighted import (DEFAULT_WEIGHTS, ClusterWeights,
                                   WeightedGreedySearch)

__all__ = [
    "SearchAlgorithm", "TypeContext", "BruteForceSearch", "GreedySearch",
    "HuntResult", "hunt",
    "AttackFinding", "SearchReport", "DEFAULT_WEIGHTS",
    "ClusterWeights", "WeightedGreedySearch",
]
