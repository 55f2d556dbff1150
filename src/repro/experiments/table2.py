"""Table 2 — MAE of absolute degree discrepancy across variants.

Sweeps the proposed method variants (LP, GDB^A, GDB^R, GDB^A_2, GDB^A_n,
EMD^A, EMD^R, each with random and BGI ``-t`` backbones) over the
paper's sparsification ratios on the "Flickr reduced" dataset (Forest
Fire sample).  The paper's qualitative findings to check:

- GDB^A_n is worst by far for alpha > E[p];
- BGI (``-t``) backbones help all variants at moderate/large alpha;
- EMD variants beat the corresponding GDB at alpha > 8%;
- EMD^R-t is the best overall; GDB wins at alpha = 8%.
"""

from __future__ import annotations

from repro.core import sparsify
from repro.experiments.common import (
    ExperimentScale,
    ResultTable,
    SMALL,
    make_flickr_reduced,
)
from repro.metrics import degree_discrepancy_mae

#: Table 2's row order.
TABLE2_VARIANTS = (
    "LP", "GDB^A", "GDB^R", "GDB^A_2", "GDB^A_n", "EMD^A", "EMD^R",
    "LP-t", "GDB^A-t", "GDB^R-t", "EMD^A-t", "EMD^R-t",
)


def run_table2(
    scale: ExperimentScale = SMALL,
    variants: tuple[str, ...] = TABLE2_VARIANTS,
    seed: int = 13,
) -> ResultTable:
    """MAE of ``delta_A(u)`` for every variant x alpha (Table 2)."""
    graph = make_flickr_reduced(scale, seed=seed)
    table = ResultTable(
        title=(
            f"Table 2 — MAE of degree discrepancy delta_A(u) "
            f"({graph.name}: |V|={graph.number_of_vertices()}, "
            f"|E|={graph.number_of_edges()})"
        ),
        headers=["variant"] + [f"{int(a * 100)}%" for a in scale.alphas],
    )
    for variant in variants:
        row: list = [variant]
        for alpha in scale.alphas:
            sparsified = sparsify(graph, alpha, variant=variant, rng=seed)
            row.append(degree_discrepancy_mae(graph, sparsified))
        table.rows.append(row)
    return table


if __name__ == "__main__":
    print(run_table2())
