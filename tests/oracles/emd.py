"""Scalar EMD (Algorithm 3): a brute-force ``v_H`` scan, one candidate at
a time, and the edge-id-order GDB loop as the M-phase.

:func:`reference_emd` is the reference :func:`repro.core.emd_sparsifier.emd`
is checked against bit for bit: both pick the smallest-id vertex among
the maximal ``|delta|``, compare the same factored gains with strict
improvement in ascending candidate-id order, and run the M-phase in
edge-id order.
"""

from __future__ import annotations

import numpy as np

from oracles.gdb import loop_refine
from oracles.incidence import Incidence
from oracles.rules import degree_step_absolute, degree_step_relative, endpoints
from repro.core.discrepancy import SparsificationState
from repro.core.emd_sparsifier import EMDConfig
from repro.core.gdb import GDBConfig


def best_probability(state: SparsificationState, eid: int, h: float,
                     relative: bool) -> float:
    """Rule-optimal insertion probability for an edge (Eq. 9).

    The edge is currently absent (``phat = 0``), so the unclamped
    optimum is the bare step.  Algorithm 3 line 15 applies the entropy
    guard of Eq. (9), whose pseudocode compares against ``p_e`` — the
    edge's probability in the *input graph* (an edge re-entering ``E'``
    is granted the entropy it carried in ``G``).  Only candidates whose
    optimal probability would be *more* uncertain than the original are
    attenuated: they restart from ``p_e`` with an ``h``-scaled step.
    Measuring against the absent state (entropy 0) instead would cap
    every insertion at ``h * stp`` and stall the E-phase.
    """
    step_rule = degree_step_relative if relative else degree_step_absolute
    step = step_rule(state, eid)
    proposed = float(state.phat[eid]) + step
    if proposed < 0.0:
        return 0.0
    if proposed > 1.0:
        return 1.0
    original = float(state.p_original[eid])
    # Closed form of edge_entropy(proposed) > edge_entropy(original):
    # binary entropy is strictly decreasing in |p - 0.5|.
    if abs(proposed - 0.5) < abs(original - 0.5):
        return min(max(original + h * step, 0.0), 1.0)
    return proposed


def gain(state: SparsificationState, eid: int, probability: float) -> float:
    """Objective gain of inserting ``eid`` at ``probability`` (Eq. 10).

    ``g = delta_u^2 - (delta_u - w)^2 + delta_v^2 - (delta_v - w)^2``
    with deltas taken at the edge's current (absent) contribution,
    evaluated in the factored form ``2 w ((delta_u + delta_v) - w)``.
    Scaling by 2 is exact, so this is exactly twice the production
    E-phase's half-gain and both rank candidates identically.
    """
    u, v = endpoints(state, eid)
    du = float(state.delta[u])
    dv = float(state.delta[v])
    w = probability
    return 2.0 * w * ((du + dv) - w)


def e_phase(state: SparsificationState, config: EMDConfig) -> int:
    """One pass of edge swapping (Algorithm 3, lines 8-20).

    Returns the number of structural swaps (edges replaced by a
    different edge); zero means the backbone has stabilised.
    """
    swaps = 0
    incidence = Incidence(state)
    for eid in [int(e) for e in state.selected_edge_ids()]:
        previous_p = state.deselect_edge(eid)

        # The max-discrepancy vertex by brute force: the smallest id
        # among the maximal |delta| (what LazyMaxHeap.peek returns).
        top_vertex = int(np.argmax(np.abs(state.delta)))
        # Candidates: every unselected original edge at the top vertex.
        # Line 17's arg max also includes the just-removed edge e, but
        # that is scored separately below (as the incumbent), so it is
        # skipped here.
        incident = incidence.incident_edges(top_vertex)
        candidates = [
            int(candidate)
            for candidate in incident[~state.selected[incident]]
        ]

        # The removed edge competes both at its rule-optimal probability
        # and at the probability it already had (the entropy guard can
        # cap the former below the latter; keeping the edge unchanged
        # must never lose to a worse swap).
        best_eid = eid
        best_p = best_probability(state, eid, config.h, config.relative)
        best_gain = gain(state, eid, best_p)
        keep_gain = gain(state, eid, previous_p)
        if keep_gain > best_gain:
            best_gain, best_p = keep_gain, previous_p
        for candidate in candidates:
            if candidate == eid:
                continue
            p = best_probability(state, candidate, config.h, config.relative)
            g = gain(state, candidate, p)
            if g > best_gain:
                best_gain, best_eid, best_p = g, candidate, p

        if best_eid != eid:
            swaps += 1
        state.select_edge(best_eid, probability=best_p)
    return swaps


def reference_emd(graph, backbone_ids, config: "EMDConfig | None" = None):
    """Algorithm 3 on a given backbone: :func:`e_phase` and
    :func:`~oracles.gdb.loop_refine` alternated exactly as
    :func:`repro.core.emd_sparsifier.emd` alternates its phases."""
    config = config or EMDConfig()
    state = SparsificationState(graph)
    state.select_edges(np.asarray(backbone_ids, dtype=np.int64))
    gdb_config = GDBConfig(
        h=config.h, tau=config.tau, max_sweeps=config.gdb_max_sweeps,
        k=1, relative=config.relative,
    )
    final_gdb_config = GDBConfig(
        h=config.h, tau=config.tau, max_sweeps=4 * config.gdb_max_sweeps,
        k=1, relative=config.relative,
    )
    objective = state.d1(relative=config.relative)
    for _ in range(config.max_iterations):
        swaps = e_phase(state, config)
        loop_refine(state, gdb_config)
        new_objective = state.d1(relative=config.relative)
        converged = abs(objective - new_objective) <= config.tau
        objective = new_objective
        if swaps == 0 or converged:
            loop_refine(state, final_gdb_config)
            break
    return state.build_graph(name=f"reference-emd({graph.name})")
