"""Scalar GDB (Algorithm 2): one rule call and one state update per edge.

:func:`loop_refine` is the reference :func:`repro.core.gdb.gdb_refine` is
checked against.  The sequential solve (``sequential_refine``)
reproduces it bit for bit (same edge-id order, same arithmetic, same
stopping rule); the color-blocked ``k = 1`` sweep visits the edges in
(color, edge-id) order instead, which :func:`reference_colored_sweep`
replays one block and one tail edge at a time.  The greedy colorings of
a fresh plan and of an extended one have their dict-based references
here too.
"""

from __future__ import annotations

import numpy as np

from oracles.incidence import Incidence
from oracles.rules import (
    degree_step_absolute,
    degree_step_absolute_array,
    degree_step_relative,
    degree_step_relative_array,
    make_rule,
)
from repro.core.discrepancy import SparsificationState
from repro.core.entropy import entropy_increases
from repro.core.sweep import MIN_BLOCK_SIZE


def apply_scalar_step(state: SparsificationState, eid: int, step: float,
                      h: float) -> None:
    """Clamp-and-attenuate probability update (Algorithm 2, lines 7-10).

    The entropy guard is the closed-form ``|p - 0.5|`` monotonicity test
    — exactly ``edge_entropy(proposed) > edge_entropy(current)`` with no
    log calls.
    """
    current = float(state.phat[eid])
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
        state.set_probability(eid, new_p)


def loop_refine(state: SparsificationState, config) -> int:
    """GDB sweeps in edge-id order until the objective improves by at
    most ``config.tau``; returns the sweep count (the stopping rule of
    :func:`repro.core.gdb.gdb_refine`)."""
    rule = make_rule(config.k, config.relative, state.n)
    objective = state.d1(relative=config.relative)
    edge_ids = [int(e) for e in state.selected_edge_ids()]
    sweeps = 0
    for sweeps in range(1, config.max_sweeps + 1):
        for eid in edge_ids:
            apply_scalar_step(state, eid, rule(state, eid), config.h)
        new_objective = state.d1(relative=config.relative)
        if abs(objective - new_objective) <= config.tau:
            break
        objective = new_objective
    return sweeps


def clamp_and_attenuate(current, steps, guard_baseline, h):
    """Vectorised Algorithm 2 lines 7-10 for a batch of edges: clamp
    ``current + steps`` to ``[0, 1]``; where the move would raise entropy
    relative to ``guard_baseline``, restart from the baseline with an
    ``h``-scaled step."""
    proposed = current + steps
    attenuated = np.clip(guard_baseline + h * steps, 0.0, 1.0)
    raises = entropy_increases(guard_baseline, proposed)
    return np.where(
        proposed < 0.0, 0.0,
        np.where(proposed > 1.0, 1.0, np.where(raises, attenuated, proposed)),
    )


def reference_colored_sweep(state, plan, relative, h,
                            min_block_size=MIN_BLOCK_SIZE):
    """Oracle for :func:`repro.core.sweep.colored_sweep`.

    The classes come from ``plan.eids`` and ``plan.colors`` alone, not
    from the plan's layout: every color class of at least
    ``min_block_size`` edges, in color order, is one array-rule block
    over its edges in ascending id order; every other edge is then
    stepped through :func:`apply_scalar_step` in ascending edge-id
    order.
    """
    array_rule = (
        degree_step_relative_array if relative else degree_step_absolute_array
    )
    scalar_rule = degree_step_relative if relative else degree_step_absolute
    phat = state.phat
    delta = state.delta
    n_colors = int(plan.colors.max()) + 1 if len(plan.colors) else 0
    tail = []
    for color in range(n_colors):
        class_eids = np.sort(plan.eids[plan.colors == color])
        if len(class_eids) < min_block_size:
            tail.extend(class_eids.tolist())
            continue
        u, v = state.edge_vertices[class_eids].T
        current = phat[class_eids]
        steps = array_rule(state, class_eids)
        new_p = clamp_and_attenuate(current, steps, current, h)
        changes = new_p - current
        delta[u] -= changes
        delta[v] -= changes
        state.total_residual -= float(changes.sum())
        phat[class_eids] = new_p
    for eid in sorted(tail):
        apply_scalar_step(state, eid, scalar_rule(state, eid), h)


def reference_greedy_edge_coloring(endpoints):
    """Oracle for :func:`repro.core.sweep.greedy_edge_coloring`: the
    same greedy in the given edge order, with per-vertex bitmasks in a
    dict and one array write per edge."""
    colors = np.zeros(len(endpoints), dtype=np.int64)
    used = {}
    for i, (u, v) in enumerate(np.asarray(endpoints).tolist()):
        mask = used.get(u, 0) | used.get(v, 0)
        free = ~mask & (mask + 1)  # lowest zero bit of the mask
        c = free.bit_length() - 1
        colors[i] = c
        used[u] = used.get(u, 0) | free
        used[v] = used.get(v, 0) | free
    return colors


def reference_extend_colors(state, eids, colors, added_eids):
    """Oracle for the colors :func:`repro.core.sweep.extend_sweep_plan`
    gives the added edges: each added edge, in ascending id order, takes
    the lowest color unused at either endpoint, with a vertex's used
    colors built on first touch by walking its incident edges through a
    dict of the colors assigned so far.  Returns the added edges' colors
    in ascending id order."""
    color_of = dict(zip(np.asarray(eids).tolist(), np.asarray(colors).tolist()))
    used = {}
    ev = state.edge_vertices
    incidence = Incidence(state)

    def vertex_mask(v):
        mask = used.get(v)
        if mask is None:
            mask = 0
            for eid in incidence.incident_edges(v).tolist():
                c = color_of.get(eid)
                if c is not None:
                    mask |= 1 << c
            used[v] = mask
        return mask

    added = np.unique(np.asarray(added_eids, dtype=np.int64))
    new_colors = np.empty(len(added), dtype=np.int64)
    for i, eid in enumerate(added.tolist()):
        u, v = int(ev[eid, 0]), int(ev[eid, 1])
        mask = vertex_mask(u) | vertex_mask(v)
        free = ~mask & (mask + 1)
        c = free.bit_length() - 1
        new_colors[i] = c
        color_of[eid] = c
        used[u] |= free
        used[v] |= free
    return new_colors
