"""Fig. 5 — effect of the entropy parameter ``h`` on GDB.

Sweeps ``h in {0, 0.01, 0.05, 0.1, 0.5, 1}``:

(a) MAE of the degree discrepancy vs alpha — ``h = 0`` is worst (every
    entropy-raising move is vetoed), ``h = 1`` is best;
(b) relative entropy ``H(G')/H(G)`` vs alpha — the ordering flips.

The paper picks ``h = 0.05`` as the balanced default.

The sweep runs through :func:`repro.core.grid.gdb_grid`, which builds
the CSR state once and uses the graph's
:class:`~repro.core.backbone.BackbonePlan` for the whole grid — the
maximum-spanning-forest peels are shared
across *alphas*, each alpha's backbone is a peel-prefix slice plus its
seeded top-up, and one backbone + sweep plan per alpha is shared across
every ``h`` — instead of rebuilding everything per grid point.
"""

from __future__ import annotations

from repro.core.grid import gdb_grid
from repro.experiments.common import (
    ExperimentScale,
    ResultTable,
    SMALL,
    make_flickr_reduced,
)
from repro.metrics import degree_discrepancy_mae, relative_entropy

H_VALUES = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0)


def run_fig05(
    scale: ExperimentScale = SMALL,
    h_values: tuple[float, ...] = H_VALUES,
    seed: int = 19,
) -> tuple[ResultTable, ResultTable]:
    """Returns ``(mae_table, entropy_table)`` for the h sweep."""
    graph = make_flickr_reduced(scale, seed=seed)
    mae = ResultTable(
        title=f"Fig. 5(a) — GDB degree-MAE vs h ({graph.name})",
        headers=["h"] + [f"{int(a * 100)}%" for a in scale.alphas],
    )
    entropy = ResultTable(
        title=f"Fig. 5(b) — relative entropy H(G')/H(G) vs h ({graph.name})",
        headers=["h"] + [f"{int(a * 100)}%" for a in scale.alphas],
        notes="larger h -> better MAE but higher entropy; paper picks h=0.05",
    )
    # One state + one backbone plan for the grid, one backbone + sweep
    # plan per alpha, shared across h values so the sweep isolates h.
    # Cells are reduced to their two metrics on the spot, so only one
    # materialised graph is alive at a time.
    def to_metrics(cell):
        return (
            degree_discrepancy_mae(graph, cell.graph),
            relative_entropy(cell.graph, graph),
        )

    metrics = gdb_grid(
        graph,
        alphas=scale.alphas,
        h_values=h_values,
        rng=seed,
        consume=to_metrics,
    )
    for h in h_values:
        mae_row: list = [h]
        entropy_row: list = [h]
        for alpha in scale.alphas:
            cell_mae, cell_entropy = metrics[(alpha, h)]
            mae_row.append(cell_mae)
            entropy_row.append(cell_entropy)
        mae.rows.append(mae_row)
        entropy.rows.append(entropy_row)
    return mae, entropy


if __name__ == "__main__":
    for table in run_fig05():
        print(table)
        print()
