"""Grid-sweep driver: one CSR state and one backbone plan across an
(alpha, h) parameter grid.

The fig. 4/5-style experiments sweep GDB over a grid of sparsification
ratios and entropy parameters.  Naively each cell pays for the full
setup again — edge views, ``SparsificationState`` construction (CSR
incidence), backbone building (a fresh Kruskal per cell), and the sweep
plan (greedy coloring).  None of that depends on ``h``, and everything
except the backbone prefix length and sweep plan is independent of
``alpha`` too, so this driver builds each exactly once:

- one :class:`SparsificationState` per graph (CSR incidence shared by
  every cell),
- the graph's :class:`~repro.core.backbone.BackbonePlan` (a single
  stable argsort + nested Kruskal peels shared by every *alpha*; each
  alpha's backbone is a peel-prefix slice plus its seeded MC top-up),
- one backbone + seeded-state snapshot + :class:`SweepPlan` per alpha,
- per ``h``: restore the snapshot, run :func:`gdb_refine` with the
  shared plan, and record the converged objective (optionally the
  materialised graph).

``rng`` follows :func:`repro.core.backbone.build_backbone` semantics: an
int seed re-seeds per alpha (matching the historical fig05 protocol of
building each backbone from the same seed), a generator draws
sequentially.  Either way each cell's backbone is bit-identical to an
independent ``build_backbone`` call under the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.backbone import BackbonePlan
from repro.core.discrepancy import SparsificationState
from repro.core.gdb import GDBConfig, _colored_eligible, gdb_refine
from repro.core.sweep import build_sweep_plan
from repro.core.uncertain_graph import UncertainGraph


@dataclass(frozen=True)
class GridCell:
    """Result of one (alpha, h) grid cell.

    ``objective`` is the converged ``D_1`` (relative variant when the
    grid ran with ``relative=True``); ``graph`` is ``None`` when the
    driver ran with ``build_graphs=False`` (objective-only sweeps skip
    materialisation entirely).  ``backbone`` is the cell's backbone
    edge-id array (read-only; shared across the cell's ``h`` row), so
    ``consume`` hooks that need the seed edge set — e.g. fig04's
    cuts-vs-time reduction — don't rebuild it.
    """

    alpha: float
    h: float
    objective: float
    sweeps: int
    graph: "UncertainGraph | None"
    backbone: "np.ndarray | None" = None


def objective_rows(results: dict) -> list[dict]:
    """Flatten a :func:`gdb_grid` result into JSON-ready objective rows.

    The artifact shape the server's ``grid`` endpoint (and any report
    writer) serialises: one ``{alpha, h, objective, sweeps}`` dict per
    cell, ordered by ``(alpha, h)``.  Works on objective-only sweeps
    (``build_graphs=False``); cells replaced by a ``consume`` hook are
    skipped since their shape is caller-defined.
    """
    rows = []
    for (alpha, h) in sorted(results):
        cell = results[(alpha, h)]
        if not isinstance(cell, GridCell):
            continue
        rows.append({
            "alpha": cell.alpha,
            "h": cell.h,
            "objective": cell.objective,
            "sweeps": cell.sweeps,
        })
    return rows


def gdb_grid(
    graph: UncertainGraph,
    alphas,
    h_values,
    k: "int | str" = 1,
    relative: bool = False,
    tau: float = 1e-9,
    max_sweeps: int = 200,
    backbone_method: str = "bgi",
    rng: "int | np.random.Generator | None" = None,
    build_graphs: bool = True,
    name_prefix: str = "",
    consume=None,
) -> dict[tuple[float, float], "GridCell | object"]:
    """Run GDB over the full ``alphas x h_values`` grid, sharing setup.

    Returns a dict keyed ``(alpha, h)``.  Each cell is equivalent to an
    independent :func:`repro.core.gdb.gdb` call with the same backbone —
    the snapshot/restore resets probabilities exactly to the backbone
    seed between cells, and the graph's :class:`BackbonePlan` yields
    backbones bit-identical to per-cell ``build_backbone`` calls.

    ``consume``, if given, is called with each finished
    :class:`GridCell` (including its ``backbone`` edge ids) and its
    return value is stored instead of the cell; use it to reduce a cell
    to its metrics on the spot so the driver never holds more than one
    materialised graph at a time (``build_graphs=False`` skips
    materialisation altogether when only objectives are wanted).
    """
    alphas = list(alphas)
    h_values = list(h_values)
    backbone_plan = BackbonePlan.of(graph)
    state = SparsificationState(graph)
    empty = state.snapshot()
    colored = _colored_eligible(k, state.n)
    results: dict[tuple[float, float], GridCell] = {}
    for alpha in alphas:
        backbone = backbone_plan.backbone(alpha, method=backbone_method, rng=rng)
        state.select_edges(backbone)
        seeded = state.snapshot()
        plan = build_sweep_plan(state, sequential_only=not colored)
        for h in h_values:
            state.restore(seeded)
            config = GDBConfig(
                h=h, tau=tau, max_sweeps=max_sweeps, k=k, relative=relative
            )
            sweeps = gdb_refine(state, config, plan=plan)
            objective = float(state.d1(relative=relative))
            cell_graph = None
            if build_graphs:
                label = (
                    f"{name_prefix or 'gdb-grid'}"
                    f"[a={alpha:g},h={h:g}]({graph.name})"
                )
                cell_graph = state.build_graph(name=label)
            cell = GridCell(
                alpha=alpha, h=h, objective=objective,
                sweeps=sweeps, graph=cell_graph, backbone=backbone,
            )
            results[(alpha, h)] = cell if consume is None else consume(cell)
        state.restore(empty)
    return results
