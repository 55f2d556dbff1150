"""Random Monte-Carlo sparsifier (sanity baseline).

Samples edges proportionally to their probabilities until the budget is
met and keeps the original probabilities — the "simple approach" the
paper dismisses at the start of section 3.3 (no connectivity guarantee,
no probability redistribution).  Useful as a floor in ablations.
"""

from __future__ import annotations

import numpy as np

from repro.core.backbone import build_backbone
from repro.core.uncertain_graph import UncertainGraph


def random_sparsify(
    graph: UncertainGraph,
    alpha: float,
    rng: "int | np.random.Generator | None" = None,
    name: str = "",
) -> UncertainGraph:
    """Keep ``alpha |E|`` MC-sampled edges at their original probabilities."""
    chosen = build_backbone(graph, alpha, method="random", rng=rng)
    edge_list = graph.edge_list()
    probabilities = graph.probability_array()
    edges = [
        (edge_list[eid][0], edge_list[eid][1], float(probabilities[eid]))
        for eid in chosen
    ]
    label = name or f"RANDOM@{alpha:g}({graph.name})"
    return graph.subgraph_with_edges(edges, name=label)
