"""Shared query construction for the query-quality experiments (6.3)."""

from __future__ import annotations

from repro.core.uncertain_graph import UncertainGraph
from repro.experiments.common import ExperimentScale
from repro.queries import (
    ClusteringCoefficientQuery,
    PageRankQuery,
    ReliabilityQuery,
    ShortestPathQuery,
    sample_vertex_pairs,
)
from repro.sampling import MonteCarloEstimator

QUERY_NAMES = ("PR", "SP", "RL", "CC")

#: Full registry, including the weighted most-probable-path distance
#: (paper's ``-log p`` spanner transform, query WSP) — pass a subset of
#: these to any query-quality driver (fig10/fig11/fig12) as
#: ``query_names``.
ALL_QUERY_NAMES = QUERY_NAMES + ("WSP",)


def make_estimator(
    graph: UncertainGraph,
    scale: ExperimentScale,
    n_samples: int | None = None,
) -> MonteCarloEstimator:
    """Estimator honouring the scale's world budget and chunk size.

    Every query experiment builds its estimators through this helper so
    one scale object configures the whole pipeline.
    """
    return MonteCarloEstimator(
        graph,
        n_samples=scale.mc_samples if n_samples is None else n_samples,
        batch_size=scale.mc_batch_size,
    )


def build_queries(
    graph: UncertainGraph,
    scale: ExperimentScale,
    seed: int = 41,
    names: tuple[str, ...] = QUERY_NAMES,
) -> dict[str, object]:
    """The paper's four queries (plus weighted SP) for one dataset.

    PR and CC are evaluated on all vertices; SP, WSP and RL on
    ``scale.query_pairs`` random vertex pairs — the paper's protocol
    (section 6.3) at configurable scale.  WSP is the weighted
    most-probable-path variant of SP (``-log p`` transform) and shares
    SP's pair sample so the two are directly comparable.
    """
    n = graph.number_of_vertices()
    queries: dict[str, object] = {}
    if {"SP", "RL", "WSP"} & set(names):
        pairs = sample_vertex_pairs(graph, scale.query_pairs, rng=seed)
    if "PR" in names:
        queries["PR"] = PageRankQuery(n)
    if "SP" in names:
        queries["SP"] = ShortestPathQuery(pairs)
    if "WSP" in names:
        queries["WSP"] = ShortestPathQuery(pairs, weighted=True)
    if "RL" in names:
        queries["RL"] = ReliabilityQuery(pairs)
    if "CC" in names:
        queries["CC"] = ClusteringCoefficientQuery(n)
    return queries
