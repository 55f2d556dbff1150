"""Fig. 9 — running time on the real proxies.

Two sweeps share the figure's shape:

- :func:`runtime_table` — wall-clock seconds of the *sparsifiers* (NI,
  GDB, EMD) versus alpha.  Expected shape: the proposed methods scale
  linearly in ``alpha |E|`` and NI is more than an order of magnitude
  slower (SP is omitted in the paper's figure because it takes hours;
  here it is optional).
- :func:`estimation_runtime_table` — wall-clock seconds of the
  Monte-Carlo *query estimation* per query (hop SP next to the
  weighted WSP kernel), through the full ``repeated_estimates``
  protocol, with the scale's ``mc_batch_size`` chunking.
"""

from __future__ import annotations

from repro.core import sparsify
from repro.core.uncertain_graph import UncertainGraph
from repro.experiments.common import (
    REPRESENTATIVE_EMD,
    REPRESENTATIVE_GDB,
    ExperimentScale,
    ResultTable,
    SMALL,
    make_flickr_proxy,
    make_twitter_proxy,
    timed,
)
from repro.experiments.queries_common import build_queries
from repro.sampling import repeated_estimates

TIMED_METHODS = ("NI", REPRESENTATIVE_GDB, REPRESENTATIVE_EMD)

#: Queries timed by the estimation sweep: hop BFS next to the weighted
#: delta-stepping kernel on the same pair sample.
ESTIMATION_QUERY_NAMES = ("SP", "WSP", "RL")


def runtime_table(
    graph: UncertainGraph,
    scale: ExperimentScale,
    methods: tuple[str, ...] = TIMED_METHODS,
    seed: int = 37,
) -> ResultTable:
    """Seconds per method per alpha for one dataset."""
    table = ResultTable(
        title=f"Fig. 9 — sparsification time, seconds ({graph.name})",
        headers=["method"] + [f"{int(a * 100)}%" for a in scale.alphas],
        notes="expect NI >> EMD > GDB; linear growth in alpha",
    )
    for method in methods:
        row: list = [method]
        for alpha in scale.alphas:
            _, seconds = timed(sparsify, graph, alpha, variant=method, rng=seed)
            row.append(seconds)
        table.rows.append(row)
    return table


def estimation_runtime_table(
    graph: UncertainGraph,
    scale: ExperimentScale,
    query_names: tuple[str, ...] = ESTIMATION_QUERY_NAMES,
    seed: int = 37,
    runs: int | None = None,
) -> ResultTable:
    """Seconds of the repeated-estimates protocol per query.

    The scale's ``mc_batch_size`` bounds the chunk working set; it
    cannot change the estimates (the determinism contract), only the
    clock.
    """
    runs = max(2, scale.variance_runs // 4) if runs is None else runs
    queries = build_queries(graph, scale, seed=seed, names=query_names)
    table = ResultTable(
        title=f"Fig. 9 — MC estimation time, seconds ({graph.name})",
        headers=["query", "runs", "samples", "seconds"],
        notes="WSP = weighted most-probable-path distances (-log p)",
    )
    for name, query in queries.items():
        _, seconds = timed(
            repeated_estimates, graph, query, runs=runs,
            n_samples=scale.variance_samples, rng=seed,
            batch_size=scale.mc_batch_size,
        )
        table.add_row(name, runs, scale.variance_samples, seconds)
    return table


def run_fig09(
    scale: ExperimentScale = SMALL, seed: int = 37
) -> dict[str, ResultTable]:
    """Timing tables for both real proxies."""
    return {
        "flickr": runtime_table(make_flickr_proxy(scale), scale, seed=seed),
        "twitter": runtime_table(make_twitter_proxy(scale), scale, seed=seed),
    }


def run_fig09_estimation(
    scale: ExperimentScale = SMALL, seed: int = 37
) -> dict[str, ResultTable]:
    """Estimation-time tables for both real proxies."""
    return {
        "flickr": estimation_runtime_table(
            make_flickr_proxy(scale), scale, seed=seed
        ),
        "twitter": estimation_runtime_table(
            make_twitter_proxy(scale), scale, seed=seed
        ),
    }


if __name__ == "__main__":
    for tables in (run_fig09(), run_fig09_estimation()):
        for table in tables.values():
            print(table)
            print()
