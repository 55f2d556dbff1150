"""Fig. 8 — relative entropy of the sparsified graphs.

``H(G')/H(G)`` for NI, SP, GDB, EMD: (a)/(b) versus alpha on the real
proxies, (c) versus density on the synthetic sweep at alpha = 16%.
Expected shape: GDB/EMD at least an order of magnitude below NI/SP at
small alpha; ratio increases with alpha but stays below 1; roughly flat
across density.
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
from repro.experiments.fig07 import make_density_sweep
from repro.metrics import relative_entropy


def entropy_vs_alpha(
    graph: UncertainGraph, scale: ExperimentScale, seed: int = 31,
) -> ResultTable:
    """Relative entropy per method per alpha for one dataset."""
    table = ResultTable(
        title=f"Fig. 8 — relative entropy H(G')/H(G) ({graph.name})",
        headers=["method"] + [f"{int(a * 100)}%" for a in scale.alphas],
    )
    for method in COMPARISON_METHODS:
        row: list = [method]
        for alpha in scale.alphas:
            sparsified = sparsify(graph, alpha, variant=method, rng=seed)
            row.append(relative_entropy(sparsified, graph))
        table.rows.append(row)
    return table


def entropy_vs_density(
    scale: ExperimentScale, alpha: float = 0.16, seed: int = 31,
) -> ResultTable:
    """Relative entropy per method per density (Fig. 8c)."""
    graphs = make_density_sweep(scale, seed=seed)
    table = ResultTable(
        title=f"Fig. 8(c) — relative entropy vs density (alpha={alpha:.0%})",
        headers=["method"] + [f"{int(d * 100)}%" for d in scale.densities],
        notes="paper: roughly constant across density",
    )
    for method in COMPARISON_METHODS:
        row: list = [method]
        for density, graph in graphs.items():
            sparsified = sparsify(graph, alpha, variant=method, rng=seed)
            row.append(relative_entropy(sparsified, graph))
        table.rows.append(row)
    return table


def run_fig08(
    scale: ExperimentScale = SMALL, seed: int = 31,
) -> dict[str, ResultTable]:
    """All three panels keyed 'flickr' / 'twitter' / 'density'."""
    return {
        "flickr": entropy_vs_alpha(make_flickr_proxy(scale), scale, seed=seed),
        "twitter": entropy_vs_alpha(make_twitter_proxy(scale), scale, seed=seed),
        "density": entropy_vs_density(scale, seed=seed),
    }


if __name__ == "__main__":
    for table in run_fig08().values():
        print(table)
        print()
