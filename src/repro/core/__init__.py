"""Core contribution: uncertain graphs and the paper's sparsifiers.

Public surface:

- :class:`~repro.core.uncertain_graph.UncertainGraph` — the data model,
- :func:`~repro.core.sparsify.sparsify` — one-call variant dispatch,
- :func:`~repro.core.gdb.gdb` / :func:`~repro.core.emd_sparsifier.emd` /
  :func:`~repro.core.lp.lp_sparsify` — the individual algorithms,
- :func:`~repro.core.backbone.bgi_backbone` — Algorithm 1,
- :func:`~repro.core.grid.gdb_grid` — the ``(alpha, h)`` grid driver,
  one in-process loop sharing a CSR state and a backbone plan,
- entropy / discrepancy helpers.
"""

from repro.core.backbone import (
    BackbonePlan,
    bgi_backbone,
    build_backbone,
    target_edge_count,
)
from repro.core.delta import AppliedDelta, EdgeDeltaBatch, apply_delta
from repro.core.diagnostics import SparsificationReport, analyze_sparsification
from repro.core.discrepancy import (
    SparsificationState,
    cut_discrepancy,
    d1_objective,
    degree_discrepancy_vector,
    delta_1,
)
from repro.core.emd_sparsifier import EMDConfig, emd
from repro.core.entropy import (
    edge_entropy,
    entropy_array,
    entropy_increases,
    graph_entropy,
    relative_entropy,
)
from repro.core.gdb import GDBConfig, gdb, gdb_refine, gdb_refine_warm
from repro.core.grid import GridCell, gdb_grid, objective_rows
from repro.core.lp import lp_assign_probabilities, lp_sparsify
from repro.core.maintain import IncrementalSparsifier, MaintenanceReport
from repro.core.sweep import SweepPlan, build_sweep_plan, greedy_edge_coloring
from repro.core.sparsify import (
    VariantSpec,
    available_variants,
    check_budget,
    parse_variant,
    sparsify,
)
from repro.core.uncertain_graph import UncertainGraph

__all__ = [
    "AppliedDelta",
    "BackbonePlan",
    "EMDConfig",
    "EdgeDeltaBatch",
    "IncrementalSparsifier",
    "MaintenanceReport",
    "SparsificationReport",
    "analyze_sparsification",
    "apply_delta",
    "GDBConfig",
    "GridCell",
    "SparsificationState",
    "SweepPlan",
    "UncertainGraph",
    "VariantSpec",
    "available_variants",
    "bgi_backbone",
    "build_backbone",
    "build_sweep_plan",
    "check_budget",
    "cut_discrepancy",
    "d1_objective",
    "degree_discrepancy_vector",
    "delta_1",
    "edge_entropy",
    "emd",
    "entropy_array",
    "entropy_increases",
    "gdb",
    "gdb_grid",
    "gdb_refine",
    "gdb_refine_warm",
    "graph_entropy",
    "greedy_edge_coloring",
    "lp_assign_probabilities",
    "lp_sparsify",
    "objective_rows",
    "parse_variant",
    "relative_entropy",
    "sparsify",
    "target_edge_count",
]
