"""Expectation-Maximization Degree (EMD) — paper Algorithm 3.

EMD alternates two phases until the degree objective
``D_1 = sum_u delta(u)^2`` stops improving:

- **E-phase** (edge swapping): walk over the current backbone edges; for
  each edge ``e``, tentatively remove it, look at the vertex ``v_H``
  with the *largest* absolute discrepancy ``|delta_A|``, and among the
  non-selected original edges adjacent to ``v_H`` — plus ``e`` itself —
  insert the edge with the highest *gain* (Eq. 10) at its rule-optimal
  probability (Eq. 9).  The edge budget is preserved: each removal is
  paired with one insert.
- **M-phase**: run GDB (:func:`repro.core.gdb.gdb_refine`) on the new
  backbone to re-optimise all probabilities.

One discipline fixes every discrete decision of the E-phase:

- ``v_H`` is the exact argmax of ``|delta|``, ties broken towards the
  smallest vertex id;
- gains are compared in the factored form of Eq. 10,
  ``2 w (delta_u + delta_v - w)``, and a candidate beats the incumbent
  only on a strict improvement, so the first maximal candidate in
  ascending edge-id order wins.

The E-phase runs in plain Python floats: ``delta``, ``phat`` and
``selected`` are pulled into lists once per E-phase and written back
once.  It keeps ``|delta|`` in a :class:`~repro.utils.heap.LazyMaxHeap`
held over the ``delta`` list: the endpoints touched by a removal and by
the preceding insertion are only marked, and the next peek refreshes
them together, so an E-phase costs ``O(alpha |E| log |V|)`` heap work
(section 4.3's complexity argument) without four eager sifts per swap.
The candidates at ``v_H`` are scanned from a per-vertex table built
once per :func:`emd` call (:func:`_candidate_table`: each incident
edge's other endpoint, the endpoints' original expected degrees, the
edge's input probability and its entropy-guard threshold, all static
for the graph).  The M-phase is one
:func:`~repro.core.gdb.gdb_refine` call on a sequential plan (edge-id
order), which runs its sweeps over lists pulled once per call.
Together they reproduce the scalar reference (a brute-force ``v_H``
scan, one candidate at a time, and the one-rule-call-per-edge GDB loop;
``tests/oracles/``) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.discrepancy import SparsificationState
from repro.core.gdb import (
    GDBConfig,
    _resolve_backbone,
    _validate_stopping,
    gdb_refine,
)
from repro.core.sweep import build_sweep_plan
from repro.core.uncertain_graph import UncertainGraph
from repro.utils.heap import LazyMaxHeap


@dataclass(frozen=True)
class EMDConfig:
    """Hyper-parameters of Algorithm 3.

    ``h`` / ``relative`` mirror :class:`GDBConfig`; ``tau`` bounds the
    outer (E+M) loop; ``max_iterations`` caps it; ``gdb`` configures the
    inner M-phase (defaults to matching ``h`` / ``relative``).
    """

    h: float = 0.05
    tau: float = 1e-9
    max_iterations: int = 25
    relative: bool = False
    gdb_max_sweeps: int = 50

    def __post_init__(self) -> None:
        if not (0.0 <= self.h <= 1.0):
            raise ValueError(f"entropy parameter h must be in [0, 1], got {self.h}")
        _validate_stopping(
            self.tau,
            max_iterations=self.max_iterations,
            gdb_max_sweeps=self.gdb_max_sweeps,
        )


def _candidate_table(state: SparsificationState) -> list:
    """Per-vertex rows of the E-phase candidate scan, static for a graph.

    ``table[t]`` lists, in ascending edge-id order, one tuple
    ``(c, w, pi_w, pi_t + pi_w, p_c, |p_c - 0.5|)`` per original edge
    ``c`` at vertex ``t``, where ``w`` is the edge's other endpoint,
    ``pi`` the original expected degrees and ``p_c`` the edge's input
    probability.  Built once per :func:`emd` call.  The two rows of an
    edge share their float objects and every row refers to one int
    object per vertex, which keeps the table about a third smaller than
    rows built from per-row array conversions.
    """
    pi = state.original_degrees.tolist()
    p = state.p_original.tolist()
    vertices = list(range(state.n))
    table = [[] for _ in vertices]
    for c, (u, v) in enumerate(state.edge_vertices.tolist()):
        u = vertices[u]  # the shared int object for this vertex id
        v = vertices[v]
        p_c = p[c]
        guard = abs(p_c - 0.5)
        pi_u = pi[u]
        pi_v = pi[v]
        denominator = pi_u + pi_v
        table[u].append((c, v, pi_v, denominator, p_c, guard))
        table[v].append((c, u, pi_u, denominator, p_c, guard))
    return table


def _e_phase_lazy(
    state: SparsificationState, config: EMDConfig, table: list
) -> int:
    """Edge swapping with deferred heap maintenance, in Python floats.

    One pass of Algorithm 3, lines 8-20, making exactly the decisions of
    the scalar reference (``tests/oracles/emd.py``).  Returns the number
    of structural swaps (edges replaced by a different edge); zero means
    the backbone has stabilised.  ``table`` is :func:`_candidate_table`
    of the state's graph.

    ``delta``, ``phat`` and ``selected`` are pulled into lists once and
    written back once.  The endpoint discrepancies dirtied by a removal
    (and by the previous iteration's insertion) are only *marked* with
    :meth:`LazyMaxHeap.defer`; the peek before the candidate scan
    refreshes them and returns the exact argmax of ``|delta|``, smallest
    id first — the reference's brute-force scan.

    The membership bookkeeping of ``deselect_edge`` / ``select_edge`` is
    inlined (same float operations).  Gains are Eq. 10 halved,
    ``w (delta_u + delta_v - w)``: the reference's factored gain is
    exactly twice that, so every comparison agrees.  Insertion
    probabilities follow Eq. 9 with the entropy guard of Algorithm 3
    line 15, which compares against ``p_e``, the edge's probability in
    the *input graph* (an edge re-entering ``E'`` is granted the entropy
    it carried in ``G``; measuring against the absent state would cap
    every insertion at ``h * stp`` and stall the E-phase).  Every
    candidate is unselected, so its unclamped optimum is the bare step.
    The removed edge itself may appear among the candidates, but its
    score there equals its incumbent rule-optimal score, so it never
    wins the strict comparison — the reference's skip.

    The scan walks ``v_H``'s table row with ``v_H = t`` and the other
    endpoint ``w``: ``d_t + d_w`` and ``pi_w d_t + pi_t d_w`` are the
    reference's ``d_u + d_v`` and ``pi_v d_u + pi_u d_v`` with the
    operands of one IEEE ``+`` swapped when ``t = v``, and ``+`` and
    ``*`` are commutative, so every step, probability and gain is
    bit-identical.  A strict ``>`` keeps the first maximal candidate in
    ascending edge-id order.
    """
    relative = config.relative
    h = config.h
    delta = state.delta.tolist()
    phat = state.phat.tolist()
    selected = state.selected.tolist()
    degree_list = state.original_degrees.tolist()
    total_residual = state.total_residual
    heap = LazyMaxHeap(delta)
    swaps = 0
    removals = state.selected_edge_ids()
    for eid, (u, v), original in zip(
        removals.tolist(),
        state.edge_vertices[removals].tolist(),
        state.p_original[removals].tolist(),
    ):
        # Inlined state.deselect_edge(eid).
        previous_p = phat[eid]
        phat[eid] = 0.0
        selected[eid] = False
        delta[u] += previous_p
        delta[v] += previous_p
        total_residual += previous_p
        heap.defer(u, v)

        top_vertex = heap.peek()

        # The removed edge competes both at its rule-optimal probability
        # and at the probability it already had (the entropy guard can
        # cap the former below the latter; keeping the edge unchanged
        # must never lose to a worse swap).
        du = delta[u]
        dv = delta[v]
        s_e = du + dv
        if relative:
            pi_u = degree_list[u]
            pi_v = degree_list[v]
            denominator = pi_u + pi_v
            step = (pi_v * du + pi_u * dv) / denominator if denominator > 0.0 else 0.0
        else:
            step = 0.5 * s_e
        if step < 0.0:
            p_opt = 0.0
        elif step > 1.0:
            p_opt = 1.0
        elif abs(step - 0.5) < abs(original - 0.5):
            p_opt = min(max(original + h * step, 0.0), 1.0)
        else:
            p_opt = step
        # Half-gains throughout: Eq. 10's factored gain is exactly twice
        # these, so every argmax and comparison agrees.
        best_eid, best_u, best_v = eid, u, v
        best_p = p_opt
        best_gain = p_opt * (s_e - p_opt)
        keep_gain = previous_p * (s_e - previous_p)
        if keep_gain > best_gain:
            best_gain, best_p = keep_gain, previous_p

        d_t = delta[top_vertex]
        pi_t = degree_list[top_vertex]
        for c, w, pi_w, denominator, p_c, guard in table[top_vertex]:
            if selected[c]:
                continue
            d_w = delta[w]
            s = d_t + d_w
            if relative:
                # Candidates are real edges, so both endpoints carry
                # positive original expected degree: no zero guard.
                step = (pi_w * d_t + pi_t * d_w) / denominator
            else:
                step = 0.5 * s
            # A step outside (0, 1) never trips the guard (|step - 0.5|
            # >= 0.5 >= |p_c - 0.5|), and an attenuated step is positive,
            # so only its upper clamp can bind.  ``<=`` maps a -0.0 step
            # to 0.0, as the reference's ``0.0 + step`` does.
            if step <= 0.0:
                p = 0.0
            elif step > 1.0:
                p = 1.0
            elif abs(step - 0.5) < guard:
                p = p_c + h * step
                if p > 1.0:
                    p = 1.0
            else:
                p = step
            gain = p * (s - p)
            if gain > best_gain:
                best_gain = gain
                best_eid, best_u, best_v = c, top_vertex, w
                best_p = p

        # Inlined state.select_edge(best_eid, probability=best_p).
        selected[best_eid] = True
        phat[best_eid] = best_p
        delta[best_u] -= best_p
        delta[best_v] -= best_p
        total_residual -= best_p
        if best_eid != eid:
            swaps += 1
        heap.defer(best_u, best_v)
    state.delta[:] = delta
    state.phat[:] = phat
    state.selected[:] = selected
    state.total_residual = total_residual
    return swaps


def emd(
    graph: UncertainGraph,
    alpha: float | None = None,
    backbone_ids: list[int] | None = None,
    config: EMDConfig | None = None,
    backbone_method: str = "bgi",
    rng: "int | np.random.Generator | None" = None,
    name: str = "",
) -> UncertainGraph:
    """Sparsify ``graph`` with Expectation-Maximization Degree (Algorithm 3).

    Arguments mirror :func:`repro.core.gdb.gdb`; EMD additionally
    mutates the backbone's *edge set* during
    its E-phases, so it is less sensitive to the initial backbone than
    GDB (section 4.3).

    Returns
    -------
    UncertainGraph
        Sparsified graph with the same edge budget as the backbone.
    """
    config = config or EMDConfig()
    backbone_ids = _resolve_backbone(
        graph, alpha, backbone_ids, backbone_method, rng
    )

    state = SparsificationState(graph)
    state.select_edges(backbone_ids)

    gdb_config = GDBConfig(
        h=config.h,
        tau=config.tau,
        max_sweeps=config.gdb_max_sweeps,
        k=1,
        relative=config.relative,
    )

    final_gdb_config = GDBConfig(
        h=config.h, tau=config.tau, max_sweeps=4 * config.gdb_max_sweeps,
        k=1, relative=config.relative,
    )
    table = _candidate_table(state)
    objective = state.d1(relative=config.relative)
    # The M-phase sweeps in edge-id order (a sequential-only plan): the
    # colored sweep would converge to the same objective along another
    # trajectory, and every later E-phase swap depends on it.
    for _ in range(config.max_iterations):
        swaps = _e_phase_lazy(state, config, table)     # E-phase: swap edges
        plan = build_sweep_plan(state, sequential_only=True)
        gdb_refine(state, gdb_config, plan=plan)        # M-phase: re-optimise
        new_objective = state.d1(relative=config.relative)
        converged = abs(objective - new_objective) <= config.tau
        objective = new_objective
        if swaps == 0 or converged:
            # Structure stabilised: finish with a fully-converged M-phase.
            gdb_refine(state, final_gdb_config, plan=plan)
            break

    label = name or f"emd[{'R' if config.relative else 'A'}]({graph.name})"
    return state.build_graph(name=label)
