"""Scalar GDB (Algorithm 2): one rule call and one state update per edge.

:func:`loop_refine` is the reference :func:`repro.core.gdb.gdb_refine` is
checked against.  The sequential solve (``sequential_refine``)
reproduces it bit for bit (same edge-id order, same arithmetic, same
stopping rule); the color-blocked ``k = 1`` sweep visits the edges in
(color, edge-id) order instead, which :func:`reference_colored_sweep`
replays one block and one tail edge at a time.
"""

from __future__ import annotations

import numpy as np

from oracles.rules import (
    degree_step_absolute,
    degree_step_absolute_array,
    degree_step_relative,
    degree_step_relative_array,
    make_rule,
)
from repro.core.discrepancy import SparsificationState
from repro.core.entropy import entropy_increases


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


def reference_colored_sweep(state, plan, relative, h):
    """Oracle for :func:`repro.core.sweep.colored_sweep`: array-rule
    blocks, then the scalar tail stepped through
    :func:`apply_scalar_step` in ascending edge-id order."""
    array_rule = (
        degree_step_relative_array if relative else degree_step_absolute_array
    )
    scalar_rule = degree_step_relative if relative else degree_step_absolute
    phat = state.phat
    delta = state.delta
    for class_eids, u, v in plan.blocks:
        current = phat[class_eids]
        steps = array_rule(state, class_eids)
        new_p = clamp_and_attenuate(current, steps, current, h)
        changes = new_p - current
        delta[u] -= changes
        delta[v] -= changes
        state.total_residual -= float(changes.sum())
        phat[class_eids] = new_p
    for eid in sorted(plan.tail_eids.tolist()):
        apply_scalar_step(state, eid, scalar_rule(state, eid), h)
