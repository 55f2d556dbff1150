"""Fig. 6 — structural comparison against the benchmarks (real proxies).

Degree-discrepancy MAE and sampled-cut MAE of NI, SP, GDB (= GDB^A) and
EMD (= EMD^R-t) versus alpha on the Flickr and Twitter proxies.  The
paper's shape: the proposed methods beat both benchmarks everywhere,
usually by orders of magnitude; NI is closest to competitive on Twitter
(high edge probabilities saturate the backbone).
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
)
from repro.metrics import (
    degree_discrepancy_mae,
    sample_cut_sets,
    sampled_cut_discrepancy_mae,
)

COMPARISON_METHODS = ("NI", "SP", REPRESENTATIVE_GDB, REPRESENTATIVE_EMD)


def structural_comparison(
    graph: UncertainGraph,
    scale: ExperimentScale,
    methods: tuple[str, ...] = COMPARISON_METHODS,
    seed: int = 23,
) -> tuple[ResultTable, ResultTable]:
    """Degree-MAE and cut-MAE tables (method x alpha) for one dataset."""
    n = graph.number_of_vertices()
    cut_sets = sample_cut_sets(n, samples_per_k=scale.cut_samples_per_k, rng=seed)
    degree = ResultTable(
        title=f"Fig. 6 — MAE of delta_A(u) ({graph.name})",
        headers=["method"] + [f"{int(a * 100)}%" for a in scale.alphas],
    )
    cuts = ResultTable(
        title=f"Fig. 6 — MAE of delta_A(S) ({graph.name})",
        headers=["method"] + [f"{int(a * 100)}%" for a in scale.alphas],
    )
    for method in methods:
        degree_row: list = [method]
        cut_row: list = [method]
        for alpha in scale.alphas:
            sparsified = sparsify(graph, alpha, variant=method, rng=seed)
            degree_row.append(degree_discrepancy_mae(graph, sparsified))
            cut_row.append(
                sampled_cut_discrepancy_mae(graph, sparsified, cut_sets=cut_sets)
            )
        degree.rows.append(degree_row)
        cuts.rows.append(cut_row)
    return degree, cuts


def run_fig06(
    scale: ExperimentScale = SMALL,
    seed: int = 23,
) -> dict[str, tuple[ResultTable, ResultTable]]:
    """Both datasets' structural comparisons, keyed by dataset name."""
    return {
        "flickr": structural_comparison(
            make_flickr_proxy(scale), scale, seed=seed,
        ),
        "twitter": structural_comparison(
            make_twitter_proxy(scale), scale, seed=seed,
        ),
    }


if __name__ == "__main__":
    for name, (degree, cuts) in run_fig06().items():
        print(degree)
        print()
        print(cuts)
        print()
