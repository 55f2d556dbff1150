"""Degree / cut discrepancies and the sparsification objectives.

The paper measures how well a sparsified graph ``G'`` preserves the
structure of ``G`` through *discrepancies* (section 3.1):

- absolute discrepancy of a vertex set ``S``:
  ``delta_A(S) = C_G(S) - C_G'(S)`` (expected cut sizes),
- relative discrepancy ``delta_R(S) = delta_A(S) / C_G(S)``,
- the ``k``-discrepancy ``Delta_k = sum_{|S| = k} |delta(S)|``.

For ``k = 1`` the cut of a singleton is the vertex's expected degree, so
``Delta_1`` is the total expected-degree error.  GDB and EMD minimise the
squared surrogate ``D_1 = sum_u delta(u)^2`` (sections 4.2-4.3).

This module provides:

- pure functions computing discrepancy vectors between two graphs, and
- :class:`SparsificationState`, the incremental index-based bookkeeping
  structure that GDB / EMD mutate: current edge probabilities, per-vertex
  ``delta_A``, the global residual ``sum_e (p_e - phat_e)`` needed by the
  cut rules of section 5, and the ``D_1`` objective.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.uncertain_graph import UncertainGraph, Vertex
from repro.exceptions import GraphError


# ----------------------------------------------------------------------
# Whole-graph discrepancy functions (used by metrics and tests)
# ----------------------------------------------------------------------
def degree_discrepancy_vector(
    original: UncertainGraph,
    sparsified: UncertainGraph,
    relative: bool = False,
) -> np.ndarray:
    """Per-vertex discrepancy ``delta(u)`` between ``G`` and ``G'``.

    The vector is aligned with ``original.vertex_indexer()``.  With
    ``relative=True``, each entry is divided by the vertex's expected
    degree in ``G`` (vertices with zero expected degree get 0: they have
    nothing to preserve).

    Computed as indexer-aligned array ops: both graphs' expected
    degrees are scattered onto the original indexing with one
    ``np.add.at`` per endpoint column, so the cost is O(m + m') array
    work instead of a per-vertex Python loop over both adjacency maps.
    Accumulating both sides through the same edge-order scatter keeps
    identical graphs at exactly zero discrepancy.
    """
    if set(sparsified.vertices()) != set(original.vertices()):
        raise GraphError("sparsified graph must keep the original vertex set")
    n = original.number_of_vertices()

    def scattered_degrees(graph: UncertainGraph) -> np.ndarray:
        degrees = np.zeros(n, dtype=np.float64)
        if graph.number_of_edges() == 0:
            return degrees
        p = graph.probability_array()
        if graph is original or original.vertices() == graph.vertices():
            # Same insertion order (every sparsifier keeps it): the
            # graph's dense ids already align with the original's.
            endpoints = graph.edge_index_array()
        else:
            indexer = original.vertex_indexer()
            edge_list = graph.edge_list()
            endpoints = np.empty((len(edge_list), 2), dtype=np.int64)
            for i, (u, v) in enumerate(edge_list):
                endpoints[i, 0] = indexer[u]
                endpoints[i, 1] = indexer[v]
        np.add.at(degrees, endpoints[:, 0], p)
        np.add.at(degrees, endpoints[:, 1], p)
        return degrees

    d_orig = scattered_degrees(original)
    deltas = d_orig - scattered_degrees(sparsified)
    if relative:
        positive = d_orig > 0
        deltas = np.where(
            positive, deltas / np.where(positive, d_orig, 1.0), 0.0
        )
    return deltas


def cut_discrepancy(
    original: UncertainGraph,
    sparsified: UncertainGraph,
    subset: Iterable[Vertex],
    relative: bool = False,
) -> float:
    """Discrepancy ``delta(S)`` of a single vertex set (Definition 1)."""
    subset = list(subset)
    c_orig = original.expected_cut_size(subset)
    c_new = sparsified.expected_cut_size(subset)
    delta = c_orig - c_new
    if relative:
        return delta / c_orig if c_orig > 0 else 0.0
    return delta


def d1_objective(original: UncertainGraph, sparsified: UncertainGraph,
                 relative: bool = False) -> float:
    """The squared objective ``D_1 = sum_u delta(u)^2`` (section 4.2)."""
    deltas = degree_discrepancy_vector(original, sparsified, relative=relative)
    return float(np.sum(deltas * deltas))


def delta_1(original: UncertainGraph, sparsified: UncertainGraph,
            relative: bool = False) -> float:
    """The paper's ``Delta_1 = sum_u |delta(u)|`` (problem objective, k=1)."""
    deltas = degree_discrepancy_vector(original, sparsified, relative=relative)
    return float(np.abs(deltas).sum())


# ----------------------------------------------------------------------
# Incremental state for GDB / EMD
# ----------------------------------------------------------------------
class SparsificationState:
    """Index-based incremental bookkeeping for the iterative sparsifiers.

    The state is defined against the *original* graph's edge list: edge
    ``eid`` refers to position ``eid`` in ``original.edge_list()``.  Each
    edge has a current probability ``phat[eid]`` which is 0 for edges not
    presently in the sparsified edge set.

    Maintained invariants (O(1) per scalar update, O(batch) vectorised):

    - ``delta[u] = d_G(u) - sum_{e in E', e ~ u} phat[e]``  (absolute
      degree discrepancy of every vertex),
    - ``total_residual = sum_{e in E} (p[e] - phat[e])`` (the global term
      feeding the cut rules, Eq. 13-16),
    - ``selected`` — boolean membership of each edge in ``E'``.

    Edges are reached through ``edge_vertices`` only; the state keeps no
    vertex-to-edge incidence (no production pass reads one).

    The class is deliberately unaware of *which* rule updates
    probabilities; GDB / EMD drive it.
    """

    def __init__(self, original: UncertainGraph) -> None:
        self.graph = original
        self.n = original.number_of_vertices()
        self.edge_vertices = original.edge_index_array()  # (m, 2)
        self.p_original = np.array(original.probability_array(), dtype=np.float64)
        self.m = len(self.p_original)
        self.phat = np.zeros(self.m, dtype=np.float64)
        self.selected = np.zeros(self.m, dtype=bool)
        self.original_degrees = original.expected_degree_array()
        self.delta = self.original_degrees.copy()
        self.total_residual = float(self.p_original.sum())

    # -- membership -----------------------------------------------------
    def select_edge(self, eid: int, probability: float | None = None) -> None:
        """Put edge ``eid`` into the sparsified set.

        Defaults to the original probability (the seed graph of
        Algorithm 2 / 3 starts from ``phat = p``).
        """
        if self.selected[eid]:
            raise GraphError(f"edge {eid} already selected")
        self.selected[eid] = True
        p = self.p_original[eid] if probability is None else float(probability)
        self._apply_probability(eid, p)

    def deselect_edge(self, eid: int) -> float:
        """Remove edge ``eid`` from the sparsified set; returns its last phat."""
        if not self.selected[eid]:
            raise GraphError(f"edge {eid} not selected")
        old = float(self.phat[eid])
        self._apply_probability(eid, 0.0)
        self.selected[eid] = False
        return old

    def set_probability(self, eid: int, probability: float) -> None:
        """Change the current probability of a selected edge."""
        if not self.selected[eid]:
            raise GraphError(f"edge {eid} not selected")
        self._apply_probability(eid, float(probability))

    def _apply_probability(self, eid: int, new_p: float) -> None:
        change = new_p - self.phat[eid]
        if change == 0.0:
            self.phat[eid] = new_p
            return
        u, v = self.edge_vertices[eid]
        self.delta[u] -= change
        self.delta[v] -= change
        self.total_residual -= change
        self.phat[eid] = new_p

    # -- batched membership / probability updates --------------------------
    def select_edges(self, eids: np.ndarray,
                     probabilities: "np.ndarray | None" = None) -> None:
        """Put a batch of distinct edges into the sparsified set at once.

        Vectorised counterpart of looping :meth:`select_edge`; defaults
        to the original probabilities (the backbone seed of
        Algorithms 2 / 3).
        """
        eids = np.asarray(eids, dtype=np.int64)
        if np.any(self.selected[eids]):
            raise GraphError("edge already selected in batch select")
        if len(np.unique(eids)) != len(eids):
            raise GraphError("duplicate edge ids in batch select")
        new_ps = (
            self.p_original[eids] if probabilities is None
            else np.asarray(probabilities, dtype=np.float64)
        )
        if new_ps.shape != eids.shape:
            raise GraphError(
                f"probabilities shape {new_ps.shape} does not match "
                f"eids shape {eids.shape}"
            )
        self.selected[eids] = True
        self._scatter_probabilities(eids, new_ps)

    def deselect_edges(self, eids: np.ndarray) -> np.ndarray:
        """Remove a batch of distinct edges from the sparsified set.

        Vectorised counterpart of looping :meth:`deselect_edge`; returns
        the edges' last probabilities (aligned with ``eids``).
        """
        eids = np.asarray(eids, dtype=np.int64)
        if not np.all(self.selected[eids]):
            raise GraphError("deselect of an unselected edge in batch")
        if len(np.unique(eids)) != len(eids):
            raise GraphError("duplicate edge ids in batch deselect")
        old = self.phat[eids].copy()
        self._scatter_probabilities(eids, np.zeros(len(eids), dtype=np.float64))
        self.selected[eids] = False
        return old

    def _scatter_probabilities(self, eids: np.ndarray, new_ps: np.ndarray) -> None:
        """Unchecked batched update (callers have validated ``eids``)."""
        changes = new_ps - self.phat[eids]
        np.subtract.at(self.delta, self.edge_vertices[eids, 0], changes)
        np.subtract.at(self.delta, self.edge_vertices[eids, 1], changes)
        self.total_residual -= float(changes.sum())
        self.phat[eids] = new_ps

    # -- snapshots (grid sweeps re-anneal from a shared seed state) --------
    def snapshot(self) -> tuple:
        """O(m + n) copy of the mutable state (see :meth:`restore`)."""
        return (
            self.phat.copy(),
            self.selected.copy(),
            self.delta.copy(),
            self.total_residual,
        )

    def restore(self, snap: tuple) -> None:
        """Restore a :meth:`snapshot`; the grid driver's reset-per-cell."""
        phat, selected, delta, total_residual = snap
        self.phat[:] = phat
        self.selected[:] = selected
        self.delta[:] = delta
        self.total_residual = total_residual

    # -- streaming deltas --------------------------------------------------
    def apply_delta(self, applied) -> None:
        """Re-key the state after an applied edge-delta batch.

        ``applied`` is the :class:`repro.core.delta.AppliedDelta` of a
        batch already applied to the underlying graph.  Pure probability
        updates adjust ``p_original`` / ``original_degrees`` / ``delta``
        / ``total_residual`` in O(batch) (``phat`` and membership are
        untouched — re-refinement is the caller's move); structural
        batches rebuild the arrays in the new id space, carrying the
        surviving edges' ``phat`` and membership across ``id_map``
        (deleted selected edges drop out of ``E'`` with their mass).
        """
        batch = applied.batch
        if not applied.structural:
            eids = batch.update_eids
            if not len(eids):
                self.graph = applied.graph
                return
            dp = batch.update_ps - self.p_original[eids]
            for col in (0, 1):
                np.add.at(self.original_degrees, self.edge_vertices[eids, col], dp)
                np.add.at(self.delta, self.edge_vertices[eids, col], dp)
            self.total_residual += float(dp.sum())
            self.p_original[eids] = batch.update_ps
            self.graph = applied.graph
            return

        graph = applied.graph
        old_phat = self.phat
        old_selected = self.selected
        alive = applied.id_map >= 0
        self.graph = graph
        self.edge_vertices = graph.edge_index_array()
        self.p_original = np.array(graph.probability_array(), dtype=np.float64)
        self.m = len(self.p_original)
        self.phat = np.zeros(self.m, dtype=np.float64)
        self.selected = np.zeros(self.m, dtype=bool)
        self.phat[applied.id_map[alive]] = old_phat[alive]
        self.selected[applied.id_map[alive]] = old_selected[alive]
        self.original_degrees = graph.expected_degree_array()
        held = np.zeros(self.n, dtype=np.float64)
        sel = np.flatnonzero(self.selected)
        np.add.at(held, self.edge_vertices[sel, 0], self.phat[sel])
        np.add.at(held, self.edge_vertices[sel, 1], self.phat[sel])
        self.delta = self.original_degrees - held
        self.total_residual = float(self.p_original.sum() - self.phat.sum())

    # -- views ------------------------------------------------------------
    def selected_edge_ids(self) -> np.ndarray:
        """Array of edge ids currently in ``E'``."""
        return np.flatnonzero(self.selected)

    def edge_count(self) -> int:
        """Current ``|E'|``."""
        return int(self.selected.sum())

    # -- objectives -------------------------------------------------------
    def d1(self, relative: bool = False) -> float:
        """Current ``D_1 = sum_u delta(u)^2`` (or the relative variant)."""
        if not relative:
            return float(np.dot(self.delta, self.delta))
        scale = np.where(self.original_degrees > 0, self.original_degrees, 1.0)
        rel = np.where(self.original_degrees > 0, self.delta / scale, 0.0)
        return float(np.dot(rel, rel))

    # -- materialisation ----------------------------------------------------
    def build_graph(self, name: str = "") -> UncertainGraph:
        """Materialise the current state as an :class:`UncertainGraph`.

        Edges whose current probability has been driven to (numerically)
        zero are kept with a tiny positive probability so the edge budget
        ``|E'| = alpha |E|`` is verifiable on the output; callers that
        prefer dropping them can prune afterwards.
        """
        eids = np.flatnonzero(self.selected)
        return UncertainGraph.from_edge_arrays(
            self.graph.vertices(),
            self.edge_vertices[eids],
            np.maximum(self.phat[eids], 1e-9),
            name=name,
        )

    # -- invariant check (tests) -------------------------------------------
    def verify(self, tol: float = 1e-8) -> None:
        """Recompute delta / residual from scratch and compare.

        The scratch recompute is two ``np.add.at`` scatters instead of a
        per-edge Python loop, so property tests can afford to call it on
        every hypothesis example.
        """
        eids = np.flatnonzero(self.selected)
        degrees = np.zeros(self.n, dtype=np.float64)
        np.add.at(degrees, self.edge_vertices[eids, 0], self.phat[eids])
        np.add.at(degrees, self.edge_vertices[eids, 1], self.phat[eids])
        expected_delta = self.original_degrees - degrees
        if not np.allclose(expected_delta, self.delta, atol=tol):
            raise AssertionError("delta bookkeeping diverged")
        expected_residual = float((self.p_original - self.phat).sum())
        if abs(expected_residual - self.total_residual) > max(tol, 1e-6 * abs(expected_residual)):
            raise AssertionError("total residual bookkeeping diverged")
