"""Fig. 4 — cut-size discrepancy MAE and LP/GDB/EMD running time.

(a) MAE of the cut discrepancy ``delta_A(S)`` over sampled vertex sets
    for the main variants, versus alpha (Flickr reduced).
(b) Execution time of LP vs GDB vs EMD versus alpha — GDB < EMD << LP.

Both panels share the graph's :class:`~repro.core.backbone.BackbonePlan`:
the ``-t`` variants of a given alpha use the *same* BGI backbone (and
the ``-t``-less ones the same random backbone), so the plan memoises
each ``(method, alpha, seed)`` backbone instead of re-running Kruskal +
top-up once per variant.  Panel (b) therefore times the optimisation
cores over identical seed backbones; building them is reported
separately in its table notes.
"""

from __future__ import annotations

from repro.core import sparsify
from repro.core.backbone import BackbonePlan
from repro.experiments.common import (
    ExperimentScale,
    ResultTable,
    SMALL,
    make_flickr_reduced,
    timed,
)
from repro.metrics import sample_cut_sets, sampled_cut_discrepancy_mae

FIG4A_VARIANTS = ("EMD^R-t", "EMD^A", "GDB^R-t", "GDB^A", "GDB^A_2", "GDB^A_n")


def run_fig04a(
    scale: ExperimentScale = SMALL,
    variants: tuple[str, ...] = FIG4A_VARIANTS,
    seed: int = 17,
    graph=None,
) -> ResultTable:
    """MAE of ``delta_A(S)`` over sampled k-cuts vs alpha (Fig. 4a)."""
    if graph is None:
        graph = make_flickr_reduced(scale, seed=seed)
    n = graph.number_of_vertices()
    cut_sets = sample_cut_sets(n, samples_per_k=scale.cut_samples_per_k, rng=seed)
    table = ResultTable(
        title=f"Fig. 4(a) — MAE of cut discrepancy delta_A(S) ({graph.name})",
        headers=["variant"] + [f"{int(a * 100)}%" for a in scale.alphas],
        notes=f"{len(cut_sets)} sampled cuts across cardinality ladder; "
        f"one backbone plan shared across all variants",
    )
    for variant in variants:
        row: list = [variant]
        for alpha in scale.alphas:
            sparsified = sparsify(graph, alpha, variant=variant, rng=seed)
            row.append(
                sampled_cut_discrepancy_mae(graph, sparsified, cut_sets=cut_sets)
            )
        table.rows.append(row)
    return table


def run_fig04b(
    scale: ExperimentScale = SMALL,
    seed: int = 17,
    graph=None,
) -> ResultTable:
    """Wall-clock seconds of LP vs GDB vs EMD vs alpha (Fig. 4b)."""
    if graph is None:
        graph = make_flickr_reduced(scale, seed=seed)
    plan = BackbonePlan.of(graph)
    # Warm the per-alpha BGI backbones up front so the timed loop
    # measures the optimisation cores over identical seed backbones.
    _, plan_seconds = timed(
        lambda: [plan.backbone(a, rng=seed) for a in scale.alphas]
    )
    table = ResultTable(
        title=f"Fig. 4(b) — sparsification time, seconds ({graph.name})",
        headers=["method"] + [f"{int(a * 100)}%" for a in scale.alphas],
        notes=f"expect LP >> EMD > GDB at every alpha; shared backbone "
        f"plan built once in {plan_seconds:.3f}s (excluded from rows)",
    )
    for variant in ("LP-t", "GDB^A-t", "EMD^A-t"):
        row: list = [variant]
        for alpha in scale.alphas:
            _, seconds = timed(
                sparsify, graph, alpha, variant=variant, rng=seed
            )
            row.append(seconds)
        table.rows.append(row)
    return table


def run_fig04(
    scale: ExperimentScale = SMALL,
    seed: int = 17,
) -> tuple[ResultTable, ResultTable]:
    """Both panels on one graph, so they share its backbone plan."""
    graph = make_flickr_reduced(scale, seed=seed)
    return (
        run_fig04a(scale, seed=seed, graph=graph),
        run_fig04b(scale, seed=seed, graph=graph),
    )


if __name__ == "__main__":
    for table in run_fig04():
        print(table)
        print()
