"""Monte-Carlo graph queries evaluated over possible worlds.

The four queries of the paper's section 6.3 — pagerank (PR), shortest
path distance (SP), reliability (RL), clustering coefficient (CC) — plus
connectivity (the introductory example) and degrees (test oracle).
Every query evaluates a whole world ensemble with ``evaluate_batch``.
"""

from repro.queries.base import Query, evaluate_query_batch
from repro.queries.clustering import ClusteringCoefficientQuery
from repro.queries.connectivity import ComponentCountQuery, ConnectivityQuery
from repro.queries.degree import DegreeQuery
from repro.queries.knn import (
    SourceDistanceQuery,
    k_nearest_neighbors,
    majority_distances,
    median_distances,
)
from repro.queries.pagerank import PageRankQuery, batch_pagerank
from repro.queries.reliability import ReliabilityQuery
from repro.queries.shortest_path import ShortestPathQuery, sample_vertex_pairs

__all__ = [
    "ClusteringCoefficientQuery",
    "ComponentCountQuery",
    "ConnectivityQuery",
    "DegreeQuery",
    "PageRankQuery",
    "Query",
    "ReliabilityQuery",
    "ShortestPathQuery",
    "SourceDistanceQuery",
    "batch_pagerank",
    "evaluate_query_batch",
    "k_nearest_neighbors",
    "majority_distances",
    "median_distances",
    "sample_vertex_pairs",
]
