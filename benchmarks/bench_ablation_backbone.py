"""Ablation: backbone construction methods under the same GDB refinement.

DESIGN.md calls out the backbone choice (Algorithm 1's spanning forests
vs alternatives the paper mentions: random MC sampling, Local Degree
[24], t-bundle [21]).  This benchmark seeds GDB with each backbone at
equal budget and compares degree MAE, cut MAE and connectivity.
"""

from repro.core import GDBConfig, gdb
from repro.core.backbone import build_backbone
from repro.experiments.common import ResultTable, make_flickr_proxy
from repro.metrics import (
    degree_discrepancy_mae,
    sample_cut_sets,
    sampled_cut_discrepancy_mae,
)

BACKBONES = ("bgi", "random", "local_degree", "t_bundle")


def run_backbone_ablation(scale, alpha: float = 0.3, seed: int = 51) -> ResultTable:
    graph = make_flickr_proxy(scale, seed=seed)
    cut_sets = sample_cut_sets(
        graph.number_of_vertices(), samples_per_k=scale.cut_samples_per_k, rng=seed
    )
    table = ResultTable(
        title=f"Ablation — backbone methods + GDB (alpha={alpha:.0%}, {graph.name})",
        headers=["backbone", "degree_MAE", "cut_MAE", "largest_component"],
    )
    for method in BACKBONES:
        ids = build_backbone(graph, alpha, method=method, rng=seed)
        sparsified = gdb(graph, backbone_ids=ids, config=GDBConfig())
        components = sparsified.connected_components()
        table.add_row(
            method,
            degree_discrepancy_mae(graph, sparsified),
            sampled_cut_discrepancy_mae(graph, sparsified, cut_sets=cut_sets),
            max(len(c) for c in components) / graph.number_of_vertices(),
        )
    return table


def test_backbone_ablation(benchmark, bench_scale, emit):
    table = benchmark.pedantic(
        run_backbone_ablation, args=(bench_scale,), rounds=1, iterations=1
    )
    emit("ablation_backbone", table)
    # BGI guarantees connectivity.
    assert table.cell("bgi", "largest_component") == 1.0
    # Spanning-structure backbones (BGI, t-bundle) let GDB reach
    # near-zero degree error.
    assert table.cell("bgi", "degree_MAE") < 1e-2
    assert table.cell("t_bundle", "degree_MAE") < 1e-2
    # Local Degree hoards edges at hubs and starves the rest — the
    # paper's section 2.3 argument for why it cannot be adapted to
    # uncertain graphs; it must be the worst seed by a wide margin.
    assert table.cell("local_degree", "degree_MAE") == max(
        table.column("degree_MAE")
    )
