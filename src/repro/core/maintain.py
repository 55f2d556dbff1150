"""Streaming sparsifier maintenance: delta in, refreshed sparsifier out.

:class:`IncrementalSparsifier` holds the long-lived triple the streaming
hot path needs — the mutable graph, its :class:`~repro.core.backbone.BackbonePlan`
and the converged :class:`~repro.core.discrepancy.SparsificationState` —
and turns each :class:`~repro.core.delta.EdgeDeltaBatch` into a repaired,
re-converged sparsifier without replanning from scratch:

1. :func:`~repro.core.delta.apply_delta` mutates the graph and yields the
   old-id → new-id map;
2. :meth:`BackbonePlan.repair` re-peels only the dirty forest ranks
   (lower ranks stay bit-identical);
3. :meth:`SparsificationState.apply_delta` re-keys the CSR state,
   carrying the previously-converged probabilities across;
4. the backbone is re-instantiated under the *same seed* (bit-identical
   to a fresh plan's, by the repair contract) and only the membership
   diff is re-seeded;
5. :func:`~repro.core.gdb.gdb_refine_warm` re-converges from the warm
   probabilities with extrapolated colored sweeps.

The maintained result matches a cold rebuild: same selected edge set
(same seed, equivalent plan) and converged ``D_1`` within the
coordinate-descent tolerance — ``benchmarks/bench_streaming.py`` gates
both along a drift stream, plus the >=5x latency win at small deltas.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.backbone import BackbonePlan
from repro.core.delta import EdgeDeltaBatch, apply_delta
from repro.core.discrepancy import SparsificationState
from repro.core.gdb import GDBConfig, _colored_eligible, gdb_refine, gdb_refine_warm
from repro.core.sparsify import parse_variant
from repro.core.sweep import build_sweep_plan, extend_sweep_plan
from repro.core.uncertain_graph import UncertainGraph
from repro.exceptions import SparsificationError


@dataclass(frozen=True)
class MaintenanceReport:
    """What one :meth:`IncrementalSparsifier.apply` call did.

    Attributes
    ----------
    batch_size:
        Updates + inserts + deletes in the applied batch.
    structural:
        Whether the batch changed the edge set (not just probabilities).
    removed / added:
        Backbone membership churn: edges that left / entered the
        selected set after the repaired plan re-instantiated.
    sweeps:
        GDB sweeps spent re-converging.
    d1:
        Converged objective after the batch.
    elapsed:
        Wall-clock seconds for the whole maintenance step.
    """

    batch_size: int
    structural: bool
    removed: int
    added: int
    sweeps: int
    d1: float
    elapsed: float


class IncrementalSparsifier:
    """Maintain a GDB sparsifier under a stream of edge-delta batches.

    Parameters
    ----------
    graph:
        The initial uncertain graph.  Batches are applied to it *in
        place* (pass a copy to keep the original); after each
        :meth:`apply`, :attr:`graph` is the current drifted graph.
    alpha:
        Sparsification ratio, fixed along the stream.
    variant:
        Paper-notation variant string; must be a GDB variant (the warm
        restart seeds converged probabilities, which only the
        coordinate-descent core consumes).
    rng:
        Non-negative integer seed for backbone instantiation.  A bare
        generator is rejected: the backbone's top-up replays under the
        *same* seed every batch, which is what keeps the maintained
        selection equal to a cold rebuild's.
    h / tau / max_sweeps:
        GDB entropy parameter, convergence threshold and sweep cap,
        shared by the initial build and every warm re-convergence.

    A ``-t`` variant tops its BGI backbone up with the plan's
    ``"stable"`` discipline: the weighted sample is drawn by seeded
    order statistics, so a small delta moves the selection by
    O(|delta|) edges and the warm restart stays warm (the
    permutation-based ``"mc"`` pass ``sparsify`` uses re-randomises the
    top-up wholesale on any change).  The maintained selection is
    bit-identical to a fresh plan's under the same seed.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        alpha: float,
        variant: str = "GDB^A-t",
        rng: int = 0,
        h: float = 0.05,
        tau: float = 1e-9,
        max_sweeps: int = 200,
    ) -> None:
        spec = parse_variant(variant)
        if spec.method != "gdb":
            raise SparsificationError(
                f"incremental maintenance requires a GDB variant, got "
                f"{spec.canonical_name!r} (warm restarts seed converged "
                f"probabilities into the coordinate-descent core)"
            )
        if isinstance(rng, bool) or not isinstance(rng, (int, np.integer)):
            raise ValueError(
                "IncrementalSparsifier needs an integer seed: the backbone "
                "top-up replays under the same seed every batch"
            )
        self.graph = graph
        self.alpha = float(alpha)
        self.spec = spec
        self.seed = int(rng)
        self.config = GDBConfig(h=h, tau=tau, max_sweeps=max_sweeps,
                                k=spec.k, relative=spec.relative)
        self.backbone_method = "bgi" if spec.bgi_backbone else "random"
        self.backbone_kwargs = (
            {"top_up": "stable"} if self.backbone_method == "bgi" else {}
        )

        self.plan = BackbonePlan(graph)
        self.state = SparsificationState(graph)
        ids = self.plan.backbone(
            self.alpha, method=self.backbone_method, rng=self.seed,
            **self.backbone_kwargs,
        )
        self.state.select_edges(ids)
        self._sweep_plan = None
        self._keep_plan = _colored_eligible(self.config.k, self.state.n)
        if self._keep_plan:
            self._sweep_plan = build_sweep_plan(self.state)
        self.sweeps = gdb_refine(self.state, self.config, plan=self._sweep_plan)
        self.batches_applied = 0

    # -- stream steps -----------------------------------------------------
    def apply(self, batch: EdgeDeltaBatch) -> MaintenanceReport:
        """Apply one delta batch and re-converge; returns a report."""
        start = time.perf_counter()
        applied = apply_delta(self.graph, batch, in_place=True)
        self.graph = applied.graph
        self.plan.repair(applied)
        self.state.apply_delta(applied)

        ids = self.plan.backbone(
            self.alpha, method=self.backbone_method, rng=self.seed,
            **self.backbone_kwargs,
        )
        new_sel = np.zeros(self.state.m, dtype=bool)
        new_sel[np.asarray(ids, dtype=np.int64)] = True
        removed = np.flatnonzero(self.state.selected & ~new_sel)
        added = np.flatnonzero(new_sel & ~self.state.selected)
        if len(removed):
            self.state.deselect_edges(removed)
        if len(added):
            self.state.select_edges(added)
        self._refresh_sweep_plan(applied, removed, added)
        sweeps = gdb_refine_warm(self.state, self.config, plan=self._sweep_plan)
        self.sweeps += sweeps
        self.batches_applied += 1
        return MaintenanceReport(
            batch_size=batch.size,
            structural=applied.structural,
            removed=int(len(removed)),
            added=int(len(added)),
            sweeps=sweeps,
            d1=self.state.d1(relative=self.config.relative),
            elapsed=time.perf_counter() - start,
        )

    def _refresh_sweep_plan(self, applied, removed, added) -> None:
        """Carry the greedy coloring across the delta instead of redoing it."""
        if not self._keep_plan:
            return
        if self._sweep_plan is None:
            self._sweep_plan = build_sweep_plan(self.state)
            return
        if not applied.structural and not len(removed) and not len(added):
            return  # same edge ids, same selection: coloring still valid
        eids = self._sweep_plan.eids
        colors = self._sweep_plan.colors
        if applied.structural:
            mapped = applied.id_map[eids]
            keep = mapped >= 0
            # id_map is monotone on survivors, so the remapped ids stay
            # ascending and aligned with their colors.
            eids = mapped[keep]
            colors = colors[keep]
        if len(removed):
            keep = ~np.isin(eids, removed)
            eids = eids[keep]
            colors = colors[keep]
        self._sweep_plan = extend_sweep_plan(self.state, eids, colors, added)

    # -- views ------------------------------------------------------------
    def d1(self) -> float:
        """Current converged objective (respecting the variant's mode)."""
        return self.state.d1(relative=self.config.relative)

    def sparsified(self, name: str = "") -> UncertainGraph:
        """Materialise the current sparsifier as an uncertain graph."""
        label = name or (
            f"{self.spec.canonical_name}@{self.alpha:g}"
            f"+{self.batches_applied}d({self.graph.name})"
        )
        return self.state.build_graph(name=label)
