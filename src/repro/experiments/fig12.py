"""Fig. 12 — relative variance of the MC estimator versus alpha.

The paper's systems argument: GDB/EMD cut the estimator variance by
orders of magnitude (their aggressive redistribution drives many edges
to probability 1, shrinking entropy), while NI/SP often *increase* it
above the original graph's.  Reported per query (PR, SP, RL, CC) as
``sigma-hat(G') / sigma-hat(G)`` from the repeated-runs protocol.
"""

from __future__ import annotations

from repro.core import sparsify
from repro.core.uncertain_graph import UncertainGraph
from repro.experiments.common import (
    ExperimentScale,
    ResultTable,
    SMALL,
    make_flickr_proxy,
    make_twitter_proxy,
)
from repro.experiments.fig06 import COMPARISON_METHODS
from repro.experiments.queries_common import QUERY_NAMES, build_queries
from repro.sampling import repeated_estimates, unbiased_variance


def variance_tables(
    graph: UncertainGraph,
    scale: ExperimentScale,
    methods: tuple[str, ...] = COMPARISON_METHODS,
    query_names: tuple[str, ...] = QUERY_NAMES,
    alphas: tuple[float, ...] | None = None,
    seed: int = 47,
) -> dict[str, ResultTable]:
    """One relative-variance table per query for one dataset."""
    alphas = alphas or scale.alphas
    queries = build_queries(graph, scale, seed=seed, names=query_names)
    tables = {
        name: ResultTable(
            title=f"Fig. 12 — relative variance of {name} ({graph.name})",
            headers=["method"] + [f"{int(a * 100)}%" for a in alphas],
            notes="expect GDB/EMD << 1; NI/SP around or above 1",
        )
        for name in queries
    }
    # The original graph's estimator variance is the shared denominator:
    # compute it once per query.
    baseline_variance = {
        name: unbiased_variance(
            repeated_estimates(
                graph, query, runs=scale.variance_runs,
                n_samples=scale.variance_samples, rng=seed,
                batch_size=scale.mc_batch_size,
            )
        )
        for name, query in queries.items()
    }
    for method in methods:
        rows = {name: [method] for name in queries}
        for alpha in alphas:
            sparsified = sparsify(graph, alpha, variant=method, rng=seed)
            for name, query in queries.items():
                variance = unbiased_variance(
                    repeated_estimates(
                        sparsified, query, runs=scale.variance_runs,
                        n_samples=scale.variance_samples, rng=seed + 1,
                        batch_size=scale.mc_batch_size,
                    )
                )
                denominator = baseline_variance[name]
                if denominator <= 0.0:
                    rows[name].append(float("inf") if variance > 0 else 1.0)
                else:
                    rows[name].append(variance / denominator)
        for name in queries:
            tables[name].rows.append(rows[name])
    return tables


def run_fig12(
    scale: ExperimentScale = SMALL,
    seed: int = 47,
    query_names: tuple[str, ...] = QUERY_NAMES,
    alphas: tuple[float, ...] | None = None,
) -> dict[str, dict[str, ResultTable]]:
    """Both datasets' relative-variance tables."""
    return {
        "flickr": variance_tables(
            make_flickr_proxy(scale), scale, query_names=query_names,
            alphas=alphas, seed=seed,
        ),
        "twitter": variance_tables(
            make_twitter_proxy(scale), scale, query_names=query_names,
            alphas=alphas, seed=seed,
        ),
    }


if __name__ == "__main__":
    for dataset, tables in run_fig12().items():
        for table in tables.values():
            print(table)
            print()
