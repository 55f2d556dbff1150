"""Color-blocked and sequential sweeps for the iterative sparsifiers.

GDB (:mod:`repro.core.gdb`) performs cyclic coordinate descent: one
closed-form rule step per edge, applied immediately, then clamped and
attenuated (Algorithm 2, lines 7-10).  This module runs those sweeps in
one of two layouts:

- **Color-blocked** (``k = 1`` rules only): the backbone is greedily
  edge-colored once; edges of one color share no endpoint, and the
  ``k = 1`` step of an edge depends only on the discrepancies of its own
  endpoints, so applying a whole color class as one array operation is
  *exactly* a sequential coordinate-descent pass in (color, edge-id)
  order.  Classes below :data:`MIN_BLOCK_SIZE` are folded into a scalar
  tail (power-law hubs force many tiny classes; any sequential order is
  still exact coordinate descent), which keeps the per-class numpy
  dispatch overhead off the hot path.  The tail runs as one fused pass
  over plain Python floats, indexed by the local endpoint ids the plan
  precomputes.
- **Sequential** (all rules): edge-id order, executed over plain Python
  floats by :func:`sequential_refine`, which runs a whole solve (every
  sweep and the stopping rule) over lists pulled from the state once
  per call, with the rules and the clamp/attenuation of Algorithm 2
  written out expression by expression.  Rules with a global residual
  term (``k >= 2`` and ``k = "n"``) couple every edge through
  ``total_residual``, so color classes are *not* independent for them;
  they always run this path, and so does EMD's M-phase.

Both layouts are checked against the scalar reference (one rule call
and one state update per edge, ``tests/oracles/``): the sequential solve
and the colored sweep are bit-identical to it in their own edge orders,
and since coordinate descent on the convex ``D_1`` objective reaches the
same converged value in either order, colored and sequential solves
agree within the converged-D1 contract pinned by
``tests/test_sweep.py``.

The entropy guard uses the closed form ``H(p') > H(p)  <=>
|p' - 0.5| < |p - 0.5|`` (see :func:`repro.core.entropy.entropy_increases`)
so no sweep spends a transcendental call per edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.discrepancy import SparsificationState
from repro.utils.binomials import cut_rule_coefficients

if TYPE_CHECKING:
    from repro.core.gdb import GDBConfig

#: Color classes smaller than this run in the scalar tail instead of as
#: an array block: ~20 numpy dispatches per class cost more than a few
#: scalar steps.
MIN_BLOCK_SIZE = 16


def greedy_edge_coloring(endpoints: np.ndarray) -> np.ndarray:
    """Greedy proper edge coloring: same-color edges share no endpoint.

    Processes edges in the given order and assigns each the smallest
    color unused at either endpoint (at most ``2 * max_degree - 1``
    colors).  Per-vertex used-color sets are integer bitmasks, so one
    edge costs two ``|`` and one lowest-zero-bit scan.
    """
    colors = np.zeros(len(endpoints), dtype=np.int64)
    used: dict[int, int] = {}
    for i, (u, v) in enumerate(np.asarray(endpoints).tolist()):
        mask = used.get(u, 0) | used.get(v, 0)
        free = ~mask & (mask + 1)  # lowest zero bit of the mask
        c = free.bit_length() - 1
        colors[i] = c
        used[u] = used.get(u, 0) | free
        used[v] = used.get(v, 0) | free
    return colors


@dataclass
class SweepPlan:
    """Precomputed execution plan for sweeps over a fixed edge set.

    Built once per backbone (and reused across sweeps, entropy
    parameters, and grid cells): the greedy coloring, the large color
    classes as gather-ready arrays, the scalar tail with its local
    endpoint indexing, and the sequential (edge-id-ordered) endpoint
    lists :func:`sequential_refine` consumes.  Nothing in it depends on
    edge probabilities, so a plan survives probability-only drift.
    """

    eids: np.ndarray                 # ascending edge ids of the swept set
    colors: np.ndarray               # greedy color per edge, aligned with eids
    n_colors: int
    blocks: list = field(default_factory=list)      # (eids, u, v) arrays per class
    # Small-class edges (ascending ids) and their sorted unique endpoints.
    tail_eids: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    tail_verts: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    tail_lu: list = field(default_factory=list)     # tail endpoints as
    tail_lv: list = field(default_factory=list)     # positions in tail_verts
    seq_u: list = field(default_factory=list)       # endpoints of eids, in
    seq_v: list = field(default_factory=list)       # edge-id order


def build_sweep_plan(
    state: SparsificationState,
    eids: "np.ndarray | None" = None,
    min_block_size: int = MIN_BLOCK_SIZE,
    sequential_only: bool = False,
) -> SweepPlan:
    """Color the (selected) edge set and lay out the sweep schedule.

    With ``sequential_only=True`` the coloring is skipped and only the
    sequential solve's edge-id-ordered lists are laid out (the
    ``k >= 2`` rules never consume color classes, and EMD's M-phase
    keeps to edge-id order).
    """
    if eids is None:
        eids = state.selected_edge_ids()
    eids = np.asarray(eids, dtype=np.int64)
    endpoints = state.edge_vertices[eids]
    if sequential_only:
        return SweepPlan(
            eids=eids,
            colors=np.zeros(0, dtype=np.int64),
            n_colors=0,
            seq_u=endpoints[:, 0].tolist(),
            seq_v=endpoints[:, 1].tolist(),
        )
    colors = greedy_edge_coloring(endpoints)
    return _layout_plan(state, eids, colors, min_block_size)


def _layout_plan(
    state: SparsificationState,
    eids: np.ndarray,
    colors: np.ndarray,
    min_block_size: int = MIN_BLOCK_SIZE,
) -> SweepPlan:
    """Lay out blocks/tail/sequential lists for an already-colored set."""
    n_colors = int(colors.max()) + 1 if len(colors) else 0
    endpoints = state.edge_vertices[eids]
    plan = SweepPlan(
        eids=eids,
        colors=colors,
        n_colors=n_colors,
        seq_u=endpoints[:, 0].tolist(),
        seq_v=endpoints[:, 1].tolist(),
    )
    # Group classes with one stable sort (color-major, edge-id-minor)
    # instead of scanning the color array once per color: greedy needs
    # up to 2*max_degree - 1 colors, so the per-color scan is
    # O(n_colors * m) on power-law backbones.
    order = np.argsort(colors, kind="stable")
    boundaries = np.searchsorted(colors[order], np.arange(n_colors + 1))
    tail: list[np.ndarray] = []
    for color in range(n_colors):
        class_eids = eids[order[boundaries[color]:boundaries[color + 1]]]
        if len(class_eids) >= min_block_size:
            uv = state.edge_vertices[class_eids]
            plan.blocks.append((class_eids, uv[:, 0].copy(), uv[:, 1].copy()))
        else:
            tail.append(class_eids)
    if tail:
        plan.tail_eids = np.sort(np.concatenate(tail))
        ends = state.edge_vertices[plan.tail_eids]
        plan.tail_verts, local = np.unique(ends.ravel(), return_inverse=True)
        local = local.reshape(-1, 2)
        plan.tail_lu = local[:, 0].tolist()
        plan.tail_lv = local[:, 1].tolist()
    return plan


def extend_sweep_plan(
    state: SparsificationState,
    eids,
    colors,
    added_eids,
    min_block_size: int = MIN_BLOCK_SIZE,
) -> SweepPlan:
    """Grow a colored edge set by ``added_eids`` without re-coloring it.

    The surviving edges keep their colors (``eids`` aligned with
    ``colors``; the coloring must be proper, e.g. taken from an existing
    :class:`SweepPlan`); each added edge greedily takes the lowest color
    unused at either endpoint, consulting per-vertex bitmasks built
    lazily from the state's CSR incidence.  The merged set is returned
    in ascending edge-id order, matching :func:`build_sweep_plan`'s
    layout conventions.
    """
    eids = np.asarray(eids, dtype=np.int64)
    colors = np.asarray(colors, dtype=np.int64)
    added = np.unique(np.asarray(added_eids, dtype=np.int64))
    if len(added) and len(eids) and np.isin(added, eids).any():
        raise ValueError("added edges overlap the existing plan")
    if not len(added):
        return _layout_plan(state, eids, colors, min_block_size)
    color_of = dict(zip(eids.tolist(), colors.tolist()))
    used: dict[int, int] = {}
    ev = state.edge_vertices

    def vertex_mask(v: int) -> int:
        mask = used.get(v)
        if mask is None:
            mask = 0
            for eid in state.incident_edges(v).tolist():
                c = color_of.get(eid)
                if c is not None:
                    mask |= 1 << c
            used[v] = mask
        return mask

    new_colors = np.empty(len(added), dtype=np.int64)
    for i, eid in enumerate(added.tolist()):
        u, v = int(ev[eid, 0]), int(ev[eid, 1])
        mask = vertex_mask(u) | vertex_mask(v)
        free = ~mask & (mask + 1)  # lowest zero bit of the mask
        c = free.bit_length() - 1
        new_colors[i] = c
        color_of[eid] = c
        used[u] |= free
        used[v] |= free
    all_eids = np.concatenate([eids, added])
    all_colors = np.concatenate([colors, new_colors])
    order = np.argsort(all_eids, kind="stable")
    return _layout_plan(state, all_eids[order], all_colors[order], min_block_size)


# ----------------------------------------------------------------------
# Color-blocked sweep (k = 1 rules)
# ----------------------------------------------------------------------
def colored_sweep(
    state: SparsificationState,
    plan: SweepPlan,
    relative: bool,
    h: float,
) -> None:
    """One ``k = 1`` coordinate-descent sweep in (color, edge-id) order.

    Each large color class is one array step: within a class no two
    edges share an endpoint, so the simultaneous application below is
    exactly the sequential one.  The scalar tail then runs in ascending
    edge-id order over plain Python floats gathered once per sweep.
    Both mirror the ``k = 1`` rule (Eq. 8) and the clamp/attenuation of
    Algorithm 2 operation for operation, so ``phat``, ``delta`` and
    ``total_residual`` come out bit-identical to stepping every edge
    through the scalar rule and step of the reference in that order
    (``total_residual`` takes one rounded sum per block, then one
    decrement per tail edge).

    ``relative`` selects the relative rule, whose weights are the
    endpoints' original expected degrees; they are read from the state
    on every sweep because a plan outlives probability-only drift.
    """
    phat = state.phat
    delta = state.delta
    degrees = state.original_degrees
    for class_eids, u, v in plan.blocks:
        current = phat[class_eids]
        du = delta[u]
        dv = delta[v]
        if relative:
            pi_u = degrees[u]
            pi_v = degrees[v]
            denominator = pi_u + pi_v
            steps = np.divide(
                pi_v * du + pi_u * dv, denominator,
                out=np.zeros(len(current)), where=denominator > 0.0,
            )
        else:
            steps = 0.5 * (du + dv)
        proposed = current + steps
        # One select plus an in-place clamp: a proposal outside [0, 1]
        # is farther from 0.5 than any current value in [0, 1], so it
        # never takes the attenuated branch, and the attenuated value
        # lies between current and proposed.
        new_p = np.where(
            np.abs(proposed - 0.5) < np.abs(current - 0.5),
            current + h * steps, proposed,
        )
        new_p.clip(0.0, 1.0, out=new_p)
        changes = new_p - current
        # Endpoints are unique within a class, so writing back from the
        # values gathered above is an exact read-modify-write scatter.
        delta[u] = du - changes
        delta[v] = dv - changes
        state.total_residual -= float(changes.sum())
        phat[class_eids] = new_p

    tail = plan.tail_eids
    if not len(tail):
        return
    verts = plan.tail_verts
    dloc = delta[verts].tolist()
    ploc = phat[tail].tolist()
    pi = degrees[verts].tolist() if relative else None
    total_residual = float(state.total_residual)
    for i, (iu, iv) in enumerate(zip(plan.tail_lu, plan.tail_lv)):
        du = dloc[iu]
        dv = dloc[iv]
        if relative:
            pi_u = pi[iu]
            pi_v = pi[iv]
            denominator = pi_u + pi_v
            step = (
                (pi_v * du + pi_u * dv) / denominator
                if denominator > 0.0 else 0.0
            )
        else:
            step = 0.5 * (du + dv)
        current = ploc[i]
        proposed = current + step
        if proposed < 0.0:
            new_p = 0.0
        elif proposed > 1.0:
            new_p = 1.0
        elif abs(proposed - 0.5) < abs(current - 0.5):
            new_p = min(max(current + h * step, 0.0), 1.0)
        else:
            new_p = proposed
        if new_p != current:
            change = new_p - current
            dloc[iu] = du - change
            dloc[iv] = dloc[iv] - change
            total_residual -= change
            ploc[i] = new_p
    delta[verts] = dloc
    phat[tail] = ploc
    state.total_residual = total_residual


def apply_probability_vector(state: SparsificationState, eids: np.ndarray,
                             values: np.ndarray) -> None:
    """Set ``phat[eids] = clip(values, 0, 1)`` with exact bookkeeping.

    Unlike the sweeps this is not a descent step: it writes an
    externally-computed probability vector (the warm path's geometric
    extrapolation jumps through here) while maintaining ``delta`` and
    ``total_residual`` incrementally.  Endpoints may repeat across
    ``eids``, so the scatter accumulates.
    """
    eids = np.asarray(eids, dtype=np.int64)
    values = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    changes = values - state.phat[eids]
    ends = state.edge_vertices[eids]
    np.subtract.at(state.delta, ends[:, 0], changes)
    np.subtract.at(state.delta, ends[:, 1], changes)
    state.total_residual -= float(changes.sum())
    state.phat[eids] = values


# ----------------------------------------------------------------------
# Sequential sweeps (all rules, edge-id order)
# ----------------------------------------------------------------------
def sequential_refine(
    state: SparsificationState, plan: SweepPlan, config: "GDBConfig"
) -> int:
    """A whole GDB solve in edge-id order over plain Python floats.

    Runs sweeps until one improves the objective by at most
    ``config.tau`` (capped at ``config.max_sweeps``) and returns the
    sweep count.  ``delta`` and the swept edges' ``phat`` (a compact list
    in plan order) are pulled once per call, and ``p_original`` only for
    the ``k >= 2`` / ``k = "n"`` rules, which read it; the rule and the
    clamp/attenuation arithmetic are written out expression by
    expression, so the IEEE operation sequence per edge is that of the
    scalar reference and the results are bit-for-bit equal to it.  After
    every sweep ``delta`` and ``total_residual`` are written back (O(n))
    and the objective is read from ``state.d1()``, so the stop decisions
    and the sweep count are the reference's too; ``phat`` is written
    back once, at the end.
    """
    n = state.n
    k = config.k
    relative = config.relative
    h = config.h
    use_full = k == "n" or (isinstance(k, int) and k >= n)
    use_cut = not use_full and isinstance(k, int) and k >= 2
    if use_cut:
        degree_coeff, global_coeff = cut_rule_coefficients(n, k)
    delta = state.delta.tolist()
    phat = state.phat[plan.eids].tolist()
    p_original = (
        state.p_original[plan.eids].tolist() if use_full or use_cut else None
    )
    pi = state.original_degrees.tolist() if relative else None
    total_residual = float(state.total_residual)
    edges = list(zip(range(len(plan.seq_u)), plan.seq_u, plan.seq_v))

    objective = state.d1(relative=relative)
    sweeps = 0
    for sweeps in range(1, config.max_sweeps + 1):
        for i, u, v in edges:
            du = delta[u]
            dv = delta[v]
            if use_full:
                step = total_residual - (p_original[i] - phat[i])
            elif use_cut:
                step = degree_coeff * (du + dv)
                if global_coeff != 0.0:
                    edge_residual = p_original[i] - phat[i]
                    step += global_coeff * (
                        total_residual - (du + dv - edge_residual)
                    )
            elif relative:
                pi_u = pi[u]
                pi_v = pi[v]
                denominator = pi_u + pi_v
                step = (
                    (pi_v * du + pi_u * dv) / denominator
                    if denominator > 0.0 else 0.0
                )
            else:
                step = 0.5 * (du + dv)

            current = phat[i]
            proposed = current + step
            if proposed < 0.0:
                new_p = 0.0
            elif proposed > 1.0:
                new_p = 1.0
            elif abs(proposed - 0.5) < abs(current - 0.5):
                new_p = min(max(current + h * step, 0.0), 1.0)
            else:
                new_p = proposed
            if new_p != current:
                change = new_p - current
                delta[u] = du - change
                delta[v] = delta[v] - change
                total_residual -= change
                phat[i] = new_p
        state.delta[:] = delta
        state.total_residual = total_residual
        new_objective = state.d1(relative=relative)
        if abs(objective - new_objective) <= config.tau:
            break
        objective = new_objective
    state.phat[plan.eids] = phat
    return sweeps
