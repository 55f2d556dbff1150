"""Fig. 7 — structural error versus graph density (synthetic sweep).

Reproduces the paper's synthetic construction: a base induced subgraph
densified with uniform-random edges to 15/30/50/90% of the complete
graph, alpha fixed at 16%.  Every method's error grows with density
(the analysis in 6.2: without redistribution
``MAE ~ p(1 - alpha)|E| / |V|`` is linear in ``|E|``), and EMD grows the
slowest.
"""

from __future__ import annotations

from repro.core import sparsify
from repro.datasets import densify, flickr_like
from repro.experiments.common import ExperimentScale, ResultTable, SMALL
from repro.experiments.fig06 import COMPARISON_METHODS
from repro.metrics import (
    degree_discrepancy_mae,
    sample_cut_sets,
    sampled_cut_discrepancy_mae,
)


def make_density_sweep(scale: ExperimentScale, seed: int = 29):
    """The paper's synthetic datasets: one graph per density level."""
    base = flickr_like(n=scale.density_base_n, avg_degree=8, seed=seed)
    return {
        density: densify(base, density, rng=seed, name=f"synthetic({density:.0%})")
        for density in scale.densities
    }


def run_fig07(
    scale: ExperimentScale = SMALL,
    alpha: float = 0.16,
    seed: int = 29,
) -> tuple[ResultTable, ResultTable]:
    """Degree-MAE and cut-MAE vs density at fixed alpha (Fig. 7)."""
    graphs = make_density_sweep(scale, seed=seed)
    headers = ["method"] + [f"{int(d * 100)}%" for d in scale.densities]
    degree = ResultTable(
        title=f"Fig. 7 — MAE of delta_A(u) vs density (alpha={alpha:.0%})",
        headers=headers,
    )
    cuts = ResultTable(
        title=f"Fig. 7 — MAE of delta_A(S) vs density (alpha={alpha:.0%})",
        headers=headers,
    )
    cut_sets_by_density = {
        d: sample_cut_sets(
            g.number_of_vertices(), samples_per_k=scale.cut_samples_per_k, rng=seed
        )
        for d, g in graphs.items()
    }
    for method in COMPARISON_METHODS:
        degree_row: list = [method]
        cut_row: list = [method]
        for density, graph in graphs.items():
            sparsified = sparsify(graph, alpha, variant=method, rng=seed)
            degree_row.append(degree_discrepancy_mae(graph, sparsified))
            cut_row.append(
                sampled_cut_discrepancy_mae(
                    graph, sparsified, cut_sets=cut_sets_by_density[density]
                )
            )
        degree.rows.append(degree_row)
        cuts.rows.append(cut_row)
    return degree, cuts


if __name__ == "__main__":
    for table in run_fig07():
        print(table)
        print()
