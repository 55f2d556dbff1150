"""Expectation-Maximization Degree (EMD) — paper Algorithm 3.

EMD alternates two phases until the degree objective
``D_1 = sum_u delta(u)^2`` stops improving:

- **E-phase** (edge swapping): walk over the current backbone edges; for
  each edge ``e``, tentatively remove it, look at the vertex ``v_H``
  with the *largest* absolute discrepancy (a vertex-indexed max-heap
  keyed by ``|delta_A|``), and among the non-selected original edges
  adjacent to ``v_H`` — plus ``e`` itself — insert the edge with the
  highest *gain* (Eq. 10) at its rule-optimal probability (Eq. 9).
  The edge budget is preserved: each removal is paired with one insert.
- **M-phase**: run GDB (:func:`repro.core.gdb.gdb_refine`) on the new
  backbone to re-optimise all probabilities.

The heap makes each E-phase ``O(alpha |E| log |V|)`` (section 4.3's
complexity argument): an edge update touches exactly two vertices.

Two engines execute the E-phase candidate scan: ``engine="loop"`` walks
the candidates one scalar ``_best_probability`` / ``_gain`` pair at a
time (the reference), while ``engine="vector"`` (default) scores every
non-selected edge incident to the max-discrepancy vertex in one array
computation — same candidate order, same tie-breaking, bit-identical
selections.  The vector engine's M-phase runs GDB's fused sequential
sweep (same edge order and arithmetic as the reference loop), so the
whole of vector EMD reproduces loop EMD exactly, only faster.

Orthogonally, ``emd_mode`` picks the E-phase *outer-loop* heap
discipline:

- ``"eager"`` (default, the reference): every removal/insertion updates
  the endpoint keys of an :class:`~repro.utils.heap.IndexedMaxHeap` in
  place — four O(log n) sifts per swapped edge.
- ``"lazy"``: a :class:`~repro.utils.heap.LazyMaxHeap` defers the
  updates — the endpoints dirtied by an insertion and the following
  removal share one vectorised magnitude rescan at the next peek, stale
  keys are discarded lazily as upper bounds, and the per-iteration heap
  build is a single C ``heapify`` over the delta array instead of an
  O(n) Python dict.  The peeked vertex is still the exact
  max-discrepancy argmax; only *ties* may break differently (smallest
  vertex id instead of heap order), so the lazy engine is gated on
  converged-objective equivalence rather than bit identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.backbone import BackbonePlan
from repro.core.discrepancy import SparsificationState
from repro.core.gdb import (
    GDBConfig,
    _resolve_backbone,
    _validate_engine,
    _validate_stopping,
    gdb_refine,
)
from repro.core.sweep import clamp_and_attenuate
from repro.core.rules import (
    degree_step_absolute,
    degree_step_absolute_array,
    degree_step_relative,
    degree_step_relative_array,
)
from repro.core.uncertain_graph import UncertainGraph
from repro.utils.heap import IndexedMaxHeap, LazyMaxHeap

#: E-phase outer-loop heap disciplines (see module docstring).
EMD_MODES = ("eager", "lazy")


def _validate_emd_mode(emd_mode: str) -> str:
    if emd_mode not in EMD_MODES:
        raise ValueError(
            f"unknown emd_mode {emd_mode!r}; expected one of {EMD_MODES}"
        )
    return emd_mode


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


def _best_probability(state: SparsificationState, eid: int, h: float,
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


def _gain(state: SparsificationState, eid: int, probability: float) -> float:
    """Objective gain of inserting ``eid`` at ``probability`` (Eq. 10).

    ``g = delta_u^2 - (delta_u - w)^2 + delta_v^2 - (delta_v - w)^2``
    with deltas taken at the edge's current (absent) contribution.
    """
    u, v = state.endpoints(eid)
    du = float(state.delta[u])
    dv = float(state.delta[v])
    w = probability
    return du * du - (du - w) ** 2 + dv * dv - (dv - w) ** 2


def _e_phase(state: SparsificationState, heap: IndexedMaxHeap,
             config: EMDConfig) -> int:
    """One pass of edge swapping (Algorithm 3, lines 8-20).

    Returns the number of structural swaps (edges replaced by a
    different edge); zero means the backbone has stabilised.
    """
    swaps = 0
    for eid in [int(e) for e in state.selected_edge_ids()]:
        u, v = state.endpoints(eid)
        previous_p = state.deselect_edge(eid)
        heap.update(u, abs(float(state.delta[u])))
        heap.update(v, abs(float(state.delta[v])))

        top_vertex, _ = heap.peek()
        # Candidates: every unselected original edge at the top vertex.
        # Line 17's arg max also includes the just-removed edge e, but
        # that is scored separately below (as the incumbent), so it is
        # skipped here.
        incident = state.incident_edges(top_vertex)
        candidates = [
            int(candidate)
            for candidate in incident[~state.selected[incident]]
        ]

        # The removed edge competes both at its rule-optimal probability
        # and at the probability it already had (the entropy guard can
        # cap the former below the latter; keeping the edge unchanged
        # must never lose to a worse swap).
        best_eid = eid
        best_p = _best_probability(state, eid, config.h, config.relative)
        best_gain = _gain(state, eid, best_p)
        keep_gain = _gain(state, eid, previous_p)
        if keep_gain > best_gain:
            best_gain, best_p = keep_gain, previous_p
        for candidate in candidates:
            if candidate == eid:
                continue
            p = _best_probability(state, candidate, config.h, config.relative)
            g = _gain(state, candidate, p)
            if g > best_gain:
                best_gain, best_eid, best_p = g, candidate, p

        if best_eid != eid:
            swaps += 1
        state.select_edge(best_eid, probability=best_p)
        bu, bv = state.endpoints(best_eid)
        heap.update(bu, abs(float(state.delta[bu])))
        heap.update(bv, abs(float(state.delta[bv])))
    return swaps


def _e_phase_vector(state: SparsificationState, heap: IndexedMaxHeap,
                    config: EMDConfig) -> int:
    """Edge swapping with the candidate scan as one array computation.

    For each removed edge, every unselected candidate at the
    max-discrepancy vertex is scored in a single gather: rule step,
    clamp, entropy guard against the original probability (Eq. 9) and
    gain (Eq. 10) are elementwise mirrors of the scalar helpers, and
    ``argmax`` returns the *first* maximal gain — exactly the reference
    loop's strict-improvement tie-breaking.  Selections are therefore
    identical to :func:`_e_phase`, swap for swap.
    """
    array_rule = (
        degree_step_relative_array if config.relative else degree_step_absolute_array
    )
    edge_vertices = state.edge_vertices
    delta = state.delta
    swaps = 0
    for eid in [int(e) for e in state.selected_edge_ids()]:
        u, v = state.endpoints(eid)
        previous_p = state.deselect_edge(eid)
        heap.update(u, abs(float(delta[u])))
        heap.update(v, abs(float(delta[v])))

        top_vertex, _ = heap.peek()
        incident = state.incident_edges(top_vertex)
        candidates = incident[~state.selected[incident]]
        candidates = candidates[candidates != eid]

        # The removed edge competes both at its rule-optimal probability
        # and at the probability it already had.
        best_eid = eid
        best_p = _best_probability(state, eid, config.h, config.relative)
        best_gain = _gain(state, eid, best_p)
        keep_gain = _gain(state, eid, previous_p)
        if keep_gain > best_gain:
            best_gain, best_p = keep_gain, previous_p

        if len(candidates):
            current = state.phat[candidates]  # zeros: all unselected
            steps = array_rule(state, candidates)
            # Eq. 9's guard measures against the *original* probability
            # (see _best_probability).
            probs = clamp_and_attenuate(
                current, steps, state.p_original[candidates], config.h
            )
            uv = edge_vertices[candidates]
            du = delta[uv[:, 0]]
            dv = delta[uv[:, 1]]
            gains = du * du - (du - probs) ** 2 + dv * dv - (dv - probs) ** 2
            top = int(np.argmax(gains))
            if float(gains[top]) > best_gain:
                best_gain = float(gains[top])
                best_eid = int(candidates[top])
                best_p = float(probs[top])

        if best_eid != eid:
            swaps += 1
        state.select_edge(best_eid, probability=best_p)
        bu, bv = state.endpoints(best_eid)
        heap.update(bu, abs(float(delta[bu])))
        heap.update(bv, abs(float(delta[bv])))
    return swaps


def _e_phase_lazy(state: SparsificationState, heap: LazyMaxHeap,
                  config: EMDConfig) -> int:
    """Edge swapping with deferred heap maintenance and fused scoring.

    The endpoint discrepancies dirtied by a removal (and by the previous
    iteration's insertion) are only *marked* with
    :meth:`LazyMaxHeap.defer`; the peek before the candidate scan
    flushes them in one batched magnitude rescan.  The peeked vertex is
    still the exact argmax of ``|delta|`` — only exact-float ties at the
    top may resolve to a different vertex than the eager heap.

    Freed from bit identity, the per-removal work is fused: the
    membership bookkeeping of ``deselect_edge`` / ``select_edge`` is
    inlined on the state arrays, the removed edge's incumbent scores are
    scalar Python, the candidate scan shares one endpoint gather between
    the step rule and the gain, and the gain uses the algebraic
    reduction of Eq. 10::

        g = delta_u^2 - (delta_u - w)^2 + delta_v^2 - (delta_v - w)^2
          = 2 w (delta_u + delta_v - w)

    Equal in exact arithmetic, different in float rounding — another
    reason the lazy engine is gated on converged-objective equivalence
    rather than bit identity.  Candidate probabilities replicate
    ``clamp_and_attenuate`` element-for-element (with ``current = 0``:
    every candidate is unselected).
    """
    relative = config.relative
    h = config.h
    delta = state.delta
    phat = state.phat
    p_original = state.p_original
    selected = state.selected
    edge_vertices = state.edge_vertices
    endpoint_list = edge_vertices.tolist()
    original_degrees = state.original_degrees
    degree_list = original_degrees.tolist()
    total_residual = state.total_residual
    swaps = 0
    for eid in state.selected_edge_ids().tolist():
        u, v = endpoint_list[eid]
        # Inlined state.deselect_edge(eid).
        previous_p = float(phat[eid])
        phat[eid] = 0.0
        selected[eid] = False
        delta[u] += previous_p
        delta[v] += previous_p
        total_residual += previous_p
        heap.defer(u, v)

        top_vertex = heap.peek()
        incident = state.incident_edges(top_vertex)
        candidates = incident[~selected[incident]]

        # The removed edge competes both at its rule-optimal probability
        # and at the probability it already had (scalar fused mirror of
        # _best_probability / _gain).
        du = float(delta[u])
        dv = float(delta[v])
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
        else:
            original = float(p_original[eid])
            if abs(step - 0.5) < abs(original - 0.5):
                p_opt = min(max(original + h * step, 0.0), 1.0)
            else:
                p_opt = step
        # Half-gains throughout: g/2 = w (s - w) preserves every argmax
        # and comparison, one multiply cheaper per batch.
        best_eid = eid
        best_p = p_opt
        best_gain = p_opt * (s_e - p_opt)
        keep_gain = previous_p * (s_e - previous_p)
        if keep_gain > best_gain:
            best_gain, best_p = keep_gain, previous_p

        if len(candidates):
            uv = edge_vertices[candidates]
            d_u = delta[uv[:, 0]]
            d_v = delta[uv[:, 1]]
            s = d_u + d_v
            if relative:
                pi_u = original_degrees[uv[:, 0]]
                pi_v = original_degrees[uv[:, 1]]
                # Candidates are real edges, so both endpoints carry
                # positive original expected degree: no zero guard.
                steps = (pi_v * d_u + pi_u * d_v) / (pi_u + pi_v)
            else:
                steps = 0.5 * s
            originals = p_original[candidates]
            # Out-of-box steps never trip the guard (|steps - 0.5| > 0.5
            # >= |originals - 0.5| there), so clamping and attenuation
            # commute into one where.
            raises = np.abs(steps - 0.5) < np.abs(originals - 0.5)
            probs = np.minimum(np.maximum(steps, 0.0), 1.0)
            if raises.any():
                attenuated = np.minimum(
                    np.maximum(originals + h * steps, 0.0), 1.0
                )
                probs = np.where(raises, attenuated, probs)
            gains = probs * (s - probs)
            top = int(gains.argmax())
            if float(gains[top]) > best_gain:
                best_gain = float(gains[top])
                best_eid = int(candidates[top])
                best_p = float(probs[top])

        # Inlined state.select_edge(best_eid, probability=best_p).
        bu, bv = endpoint_list[best_eid]
        selected[best_eid] = True
        phat[best_eid] = best_p
        delta[bu] -= best_p
        delta[bv] -= best_p
        total_residual -= best_p
        if best_eid != eid:
            swaps += 1
        heap.defer(bu, bv)
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
    engine: str = "vector",
    backbone_plan: "BackbonePlan | None" = None,
    emd_mode: str = "eager",
) -> UncertainGraph:
    """Sparsify ``graph`` with Expectation-Maximization Degree (Algorithm 3).

    Arguments mirror :func:`repro.core.gdb.gdb` (including
    ``backbone_plan``, which the ``alpha`` path uses to build the seed
    backbone); EMD additionally mutates the backbone's *edge set* during
    its E-phases, so it is less sensitive to the initial backbone than
    GDB (section 4.3).

    ``engine="vector"`` (default) vectorises the E-phase candidate scan
    and runs the M-phase on the fused sequential sweep; the result is
    bit-identical to ``engine="loop"`` (the scalar reference).

    ``emd_mode="lazy"`` (vector engine only) defers the per-swap heap
    updates into batched vectorised rescans (see the module docstring);
    it reaches the same converged objective as ``"eager"`` but is only
    tie-equivalent, not bit-identical.

    Returns
    -------
    UncertainGraph
        Sparsified graph with the same edge budget as the backbone.
    """
    engine = _validate_engine(engine)
    emd_mode = _validate_emd_mode(emd_mode)
    if emd_mode == "lazy" and engine == "loop":
        raise ValueError(
            "emd_mode='lazy' requires the vector engine; "
            "engine='loop' is the eager bit-identity reference"
        )
    config = config or EMDConfig()
    backbone_ids = _resolve_backbone(
        graph, alpha, backbone_ids, backbone_method, rng, backbone_plan
    )

    state = SparsificationState(graph)
    state.select_edges(backbone_ids)

    e_phase = _e_phase if engine == "loop" else _e_phase_vector
    # The M-phase of the vector engine is the fused sequential sweep:
    # same edge order and arithmetic as the loop engine (the colored
    # sweep would converge to the same objective but along a different
    # trajectory, and E-phase swaps are discrete decisions we keep
    # engine-invariant).
    m_engine = "loop" if engine == "loop" else "fused"

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
    objective = state.d1(relative=config.relative)
    for _ in range(config.max_iterations):
        if emd_mode == "lazy":
            heap = LazyMaxHeap(state.delta)
            swaps = _e_phase_lazy(state, heap, config)
        else:
            heap = IndexedMaxHeap(
                {v: abs(float(state.delta[v])) for v in range(state.n)}
            )
            swaps = e_phase(state, heap, config)   # E-phase: swap edges
        gdb_refine(state, gdb_config, engine=m_engine)  # M-phase: re-optimise
        new_objective = state.d1(relative=config.relative)
        converged = abs(objective - new_objective) <= config.tau
        objective = new_objective
        if swaps == 0 or converged:
            # Structure stabilised: finish with a fully-converged M-phase.
            gdb_refine(state, final_gdb_config, engine=m_engine)
            break

    label = name or f"emd[{'R' if config.relative else 'A'}]({graph.name})"
    return state.build_graph(name=label)
