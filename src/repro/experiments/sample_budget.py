"""Sample-budget experiment: measured N' vs N (the §6.3 payoff).

The paper argues that the sparsified graph's lower entropy translates
into fewer Monte-Carlo samples for the same confidence width
(``N'/N = (sigma'/sigma)^2``).  Figs. 12's variance ratios *predict*
this; here we *measure* it with the adaptive estimator: run sequential
MC on ``G`` and on each method's ``G'`` until a target 95% CI width, and
report the sample counts and their ratio next to the variance-ratio
prediction.
"""

from __future__ import annotations

from repro.core import sparsify
from repro.experiments.common import (
    ExperimentScale,
    ResultTable,
    SMALL,
    make_twitter_proxy,
)
from repro.experiments.fig06 import COMPARISON_METHODS
from repro.queries import ReliabilityQuery, sample_vertex_pairs
from repro.sampling import adaptive_estimate


def run_sample_budget(
    scale: ExperimentScale = SMALL,
    alpha: float = 0.16,
    target_width: float = 0.04,
    seed: int = 61,
    max_samples: int = 8000,
) -> ResultTable:
    """Measured samples-to-width for RL on G and every method's G'."""
    graph = make_twitter_proxy(scale, seed=seed)
    pairs = sample_vertex_pairs(graph, scale.query_pairs, rng=seed)
    query = ReliabilityQuery(pairs)

    table = ResultTable(
        title=(
            f"Sample budget — worlds to reach CI width {target_width} "
            f"on RL (alpha={alpha:.0%}, {graph.name})"
        ),
        headers=["graph", "samples", "estimate", "ci_width", "vs_original"],
        notes="paper 6.3: N'/N = (sigma'/sigma)^2 — sparsified needs fewer",
    )
    base = adaptive_estimate(
        graph, query, target_width, rng=seed, max_samples=max_samples,
    )
    table.add_row(
        "original", base.samples_used, base.estimate, base.confidence_width, 1.0
    )
    for method in COMPARISON_METHODS:
        sparsified = sparsify(graph, alpha, variant=method, rng=seed)
        result = adaptive_estimate(
            sparsified, query, target_width, rng=seed, max_samples=max_samples,
        )
        table.add_row(
            method,
            result.samples_used,
            result.estimate,
            result.confidence_width,
            result.samples_used / max(base.samples_used, 1),
        )
    return table


if __name__ == "__main__":
    print(run_sample_budget())
