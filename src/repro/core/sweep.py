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
  dispatch overhead off the hot path.  The plan lays the swept edges out
  once in sweep order (the classes, then the tail), so a sweep pulls
  ``phat`` into that order with one gather and writes it back with one
  scatter.  In between, each class runs on its slice in 16 numpy calls
  (one gather and one scatter of its endpoints' discrepancies, in-place
  arithmetic on 0-d operands), and the tail runs as one fused pass over
  plain Python floats, indexed by the local endpoint ids the plan
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

import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.discrepancy import SparsificationState
from repro.utils.binomials import cut_rule_coefficients

if TYPE_CHECKING:
    from repro.core.gdb import GDBConfig

#: Color classes smaller than this run in the scalar tail instead of as
#: an array block: ~16 numpy dispatches per class cost more than a few
#: scalar steps.  It fixes the sweep order, so changing it changes every
#: trajectory.
MIN_BLOCK_SIZE = 16

try:  # the clip ufunc itself; ``np.clip`` reaches it through Python wrappers
    _clip = np._core.umath.clip
except AttributeError:  # numpy < 2
    _clip = np.core.umath.clip


def greedy_edge_coloring(endpoints: np.ndarray) -> np.ndarray:
    """Greedy proper edge coloring: same-color edges share no endpoint.

    Processes edges in the given order and assigns each the smallest
    color unused at either endpoint (at most ``2 * max_degree - 1``
    colors).  Per-vertex used-color sets are integer bitmasks in a list
    indexed by (non-negative) vertex id, so one edge costs two ``|`` and
    one lowest-zero-bit scan.
    """
    endpoints = np.asarray(endpoints)
    if len(endpoints) and endpoints.min() < 0:
        raise ValueError(f"negative vertex id {endpoints.min()} in the endpoints")
    used = [0] * (int(endpoints.max()) + 1 if len(endpoints) else 0)
    colors = []
    for u, v in endpoints.tolist():
        mask = used[u] | used[v]
        free = ~mask & (mask + 1)  # lowest zero bit of the mask
        colors.append(free.bit_length() - 1)
        used[u] |= free
        used[v] |= free
    return np.array(colors, dtype=np.int64)


@dataclass
class SweepPlan:
    """Precomputed execution plan for colored sweeps over a fixed edge set.

    Built once per backbone (and reused across sweeps, entropy
    parameters, and grid cells): the greedy coloring and the swept edges
    laid out in sweep order, with each large color class's endpoints as
    one gather-ready array and the scalar tail's endpoints as local
    indices.  Nothing in it depends on edge probabilities, so a plan
    survives probability-only drift.  A sequential-only plan carries
    just ``eids``.
    """

    eids: np.ndarray                 # ascending edge ids of the swept set
    colors: np.ndarray               # greedy color per edge, aligned with eids
    n_colors: int
    # Swept edges in sweep order: the large classes (color-major,
    # edge-id-minor), then the tail (ascending ids).
    sweep_eids: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    # One (start, stop, uv) per large class: its slice of sweep_eids and
    # its endpoints as a (2, size) array (row 0 the u ends, row 1 the v).
    blocks: list = field(default_factory=list)
    # Small-class edges (ascending ids) and their sorted unique endpoints.
    tail_eids: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    tail_verts: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    tail_lu: list = field(default_factory=list)     # tail endpoints as
    tail_lv: list = field(default_factory=list)     # positions in tail_verts


def _integer_ids(ids, sequence: str, name: str) -> np.ndarray:
    """``ids`` as a 1-d int64 array, refusing any value that is not an
    integer.

    Integral floats pass (``2.0`` names edge 2); booleans, fractions and
    non-numbers raise ``ValueError`` naming the first one, where numpy's
    conversion would read ``True`` as 1 and truncate ``0.5`` to 0.
    ``sequence`` and ``name`` label the messages.
    """
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ValueError(f"{sequence} must be a 1-d sequence of edge ids")
    if ids.dtype.kind not in "iu":
        for value in ids.tolist():
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not float(value).is_integer():
                raise ValueError(f"{name} {value!r} is not an integer")
    return ids.astype(np.int64)


def _checked_ids(state: SparsificationState, eids, what: str) -> np.ndarray:
    """``eids`` as an int64 array of ascending, distinct, selected ids.

    Raises ``ValueError`` naming the first id that is not an integer,
    out of range, unselected, duplicated or out of ascending order: a
    plan over such ids would step an edge twice, or an edge outside
    ``E'``, and corrupt the state's bookkeeping.
    """
    eids = _integer_ids(eids, what, f"{what}: edge id")
    in_range = (eids >= 0) & (eids < state.m)
    bad = ~in_range
    bad[in_range] = ~state.selected[eids[in_range]]
    bad[1:] |= eids[1:] <= eids[:-1]
    if bad.any():
        i = int(np.argmax(bad))
        eid = int(eids[i])
        if not in_range[i]:
            reason = f"out of range for {state.m} edges"
        elif not state.selected[eid]:
            reason = "not selected"
        elif eid == eids[i - 1]:
            reason = "duplicated"
        else:
            reason = f"out of ascending order (after {int(eids[i - 1])})"
        raise ValueError(f"{what}: edge id {eid} is {reason}")
    return eids


def build_sweep_plan(
    state: SparsificationState,
    eids: "np.ndarray | None" = None,
    min_block_size: int = MIN_BLOCK_SIZE,
    sequential_only: bool = False,
) -> SweepPlan:
    """Color the (selected) edge set and lay out the sweep schedule.

    ``eids`` (default: every selected edge) must be ascending, distinct
    and selected; anything else raises ``ValueError``.  With
    ``sequential_only=True`` the coloring is skipped and the plan
    carries only ``eids`` (the ``k >= 2`` rules never consume color
    classes, and EMD's M-phase keeps to edge-id order).
    """
    if eids is None:
        eids = state.selected_edge_ids()
    else:
        eids = _checked_ids(state, eids, "sweep plan")
    if sequential_only:
        return SweepPlan(eids=eids, colors=np.zeros(0, np.int64), n_colors=0)
    colors = greedy_edge_coloring(state.edge_vertices[eids])
    return _layout_plan(state, eids, colors, min_block_size)


def _layout_plan(
    state: SparsificationState,
    eids: np.ndarray,
    colors: np.ndarray,
    min_block_size: int = MIN_BLOCK_SIZE,
) -> SweepPlan:
    """Lay out the sweep order, blocks and tail of an already-colored set."""
    n_colors = int(colors.max()) + 1 if len(colors) else 0
    # One stable sort groups the classes color-major, edge-id-minor
    # (eids ascend); classes of at least min_block_size edges keep that
    # order and the rest fold into the tail, in ascending edge-id order.
    order = np.argsort(colors, kind="stable")
    sizes = np.bincount(colors, minlength=n_colors)
    is_block = sizes >= min_block_size
    in_block = is_block[colors[order]]
    tail_eids = eids[np.sort(order[~in_block])]
    sweep_eids = np.concatenate([eids[order[in_block]], tail_eids])
    ends = state.edge_vertices[sweep_eids]
    plan = SweepPlan(
        eids=eids, colors=colors, n_colors=n_colors,
        sweep_eids=sweep_eids, tail_eids=tail_eids,
    )
    stops = np.cumsum(sizes[is_block]).tolist()
    for start, stop in zip([0] + stops, stops):
        plan.blocks.append((start, stop, ends[start:stop].T.copy()))
    if len(tail_eids):
        tail_ends = ends[len(sweep_eids) - len(tail_eids):]
        plan.tail_verts, local = np.unique(tail_ends.ravel(), return_inverse=True)
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
    :class:`SweepPlan`); each added edge, in ascending id order, greedily
    takes the lowest color unused at either endpoint.  Both id sets must
    be ascending, distinct, selected and disjoint (``ValueError``
    otherwise).  The merged set is returned in ascending edge-id order,
    matching :func:`build_sweep_plan`'s layout conventions.
    """
    eids = _checked_ids(state, eids, "surviving plan edges")
    added = _checked_ids(state, added_eids, "added edges")
    colors = np.asarray(colors, dtype=np.int64)
    if colors.shape != eids.shape:
        raise ValueError(
            f"{len(colors)} colors for {len(eids)} surviving plan edges"
        )
    overlap = np.isin(added, eids)
    if overlap.any():
        raise ValueError(
            f"added edges overlap the existing plan: edge id "
            f"{int(added[np.argmax(overlap)])}"
        )
    if not len(added):
        return _layout_plan(state, eids, colors, min_block_size)
    ev = state.edge_vertices
    added_ends = ev[added]
    touched = np.unique(added_ends)
    # Used-color masks of the touched vertices in one array pass: the
    # surviving colors scattered by endpoint into 64-bit words, one row
    # of words per touched vertex, then one Python int per row.
    slot = np.full(state.n, -1, dtype=np.int64)
    slot[touched] = np.arange(len(touched))
    rows = slot[ev[eids]]
    hit = rows >= 0
    hit_colors = np.broadcast_to(colors[:, None], rows.shape)[hit]
    words = int(colors.max()) // 64 + 1 if len(colors) else 1
    masks = np.zeros((words, len(touched)), dtype=np.uint64)
    np.bitwise_or.at(
        masks, (hit_colors >> 6, rows[hit]),
        np.uint64(1) << (hit_colors & 63).astype(np.uint64),
    )
    vertex_masks = [0] * len(touched)
    for word, column in enumerate(masks.tolist()):
        shift = 64 * word
        vertex_masks = [m | (w << shift) for m, w in zip(vertex_masks, column)]
    used = dict(zip(touched.tolist(), vertex_masks))
    new_colors = []
    for u, v in added_ends.tolist():
        mask = used[u] | used[v]
        free = ~mask & (mask + 1)  # lowest zero bit of the mask
        new_colors.append(free.bit_length() - 1)
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

    The swept probabilities are pulled into the plan's sweep order once
    and written back once.  Each large color class is then one array
    step on its slice: within a class no two edges share an endpoint,
    so the simultaneous application below is exactly the sequential
    one.  The scalar tail runs last, in ascending edge-id order over
    plain Python floats.  Both mirror the ``k = 1`` rule (Eq. 8) and the
    clamp/attenuation of Algorithm 2 operation for operation, so
    ``phat``, ``delta`` and ``total_residual`` come out bit-identical to
    stepping every edge through the scalar rule and step of the
    reference in that order (``total_residual`` takes one rounded sum
    per block, then one decrement per tail edge).

    ``relative`` selects the relative rule, whose weights are the
    endpoints' original expected degrees; they are read from the state
    on every sweep because a plan outlives probability-only drift.
    """
    phat = state.phat
    delta = state.delta
    degrees = state.original_degrees
    p = phat[plan.sweep_eids]
    n_block = len(p) - len(plan.tail_eids)
    # Scalars as 0-d arrays: a ufunc converts a Python float on every call.
    half, h_, zero, one = (np.array(x) for x in (0.5, h, 0.0, 1.0))
    # Every edge is stepped once per sweep, so each block edge's current
    # distance from 0.5 (the entropy guard's baseline) is known up front.
    dist = np.subtract(p[:n_block], half)
    np.absolute(dist, out=dist)
    total_residual = state.total_residual
    for start, stop, uv in plan.blocks:
        current = p[start:stop]
        # Endpoints are unique within a class, so writing back from the
        # values gathered here is an exact read-modify-write scatter.
        d = delta[uv]
        if relative:
            pi = degrees[uv]
            denominator = pi[0] + pi[1]
            steps = pi[1] * d[0]
            pi[0] *= d[1]
            steps += pi[0]
            steps = np.divide(
                steps, denominator,
                out=np.zeros(len(steps)), where=denominator > zero,
            )
        else:
            steps = d[0] + d[1]
            steps *= half
        proposed = current + steps
        guard = proposed - half
        np.absolute(guard, out=guard)
        # A proposal outside [0, 1] is farther from 0.5 than any current
        # value in [0, 1], so it never takes the attenuated branch, and
        # the attenuated value lies between current and proposed: one
        # masked write plus a clamp is the scalar rule's branch chain.
        steps *= h_
        steps += current
        np.putmask(proposed, guard < dist[start:stop], steps)
        _clip(proposed, zero, one, out=proposed)
        np.subtract(proposed, current, out=steps)
        d -= steps
        delta[uv] = d
        total_residual -= np.add.reduce(steps)
        current[:] = proposed
    total_residual = float(total_residual)

    if n_block < len(p):
        verts = plan.tail_verts
        dloc = delta[verts].tolist()
        ploc = p[n_block:].tolist()
        pi = degrees[verts].tolist() if relative else None
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
        p[n_block:] = ploc
    phat[plan.sweep_eids] = p
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
    ends = state.edge_vertices[plan.eids]
    edges = list(zip(range(len(ends)), ends[:, 0].tolist(), ends[:, 1].tolist()))

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
